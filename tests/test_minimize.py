import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from co3._minimize import bounded_scores

ORACLE_SETTINGS = settings(
    deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)

# small integers make ties, at the minimum too, common
_VALUE = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
# how far below its value a point's bound lies; None: the bound is NaN
_GAP = st.one_of(st.just(0.0), st.none(), st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def grids(draw):
    n = draw(st.integers(1, 40))
    values = np.array(draw(st.lists(_VALUE, min_size=n, max_size=n)))
    gaps = draw(st.lists(_GAP, min_size=n, max_size=n))
    bounds = np.array([np.nan if g is None else v - g for v, g in zip(values, gaps)])
    return values, bounds, draw(st.integers(1, 8))


def scored_by(values, bounds, batch):
    seen = []

    def score(idx):
        seen.extend(int(i) for i in idx)
        return values[idx]

    return bounded_scores(score, bounds, batch), seen


class TestBoundedScores:
    @settings(ORACLE_SETTINGS, max_examples=500)
    @given(grids())
    def test_argmin_equals_the_full_argmin(self, grid):
        values, bounds, batch = grid
        pruned, seen = scored_by(values, bounds, batch)
        assert int(np.argmin(pruned)) == int(np.argmin(values))
        assert len(seen) == len(set(seen))
        kept = np.isfinite(pruned)
        assert np.array_equal(pruned[kept], values[kept])
        assert np.all(pruned[~kept] == np.inf)
        # a skipped point scores strictly above the minimum, and a NaN bound is always scored
        assert np.all(values[~kept] > values.min())
        assert np.all(kept[np.isnan(bounds)])

    def test_bounds_equal_to_the_values_score_only_the_ties_at_the_minimum(self):
        values = np.array([3.0, 1.0, 2.0, 1.0, 5.0])
        pruned, seen = scored_by(values, values, 1)
        assert sorted(seen) == [1, 3]
        assert int(np.argmin(pruned)) == 1

    def test_points_are_scored_in_ascending_order_of_their_bounds(self):
        values = np.array([4.0, 3.0, 2.0, 1.0])
        bounds = np.array([3.0, np.nan, -1.0, 0.5])
        _, seen = scored_by(values, bounds, 1)
        assert seen == [1, 2, 3]

    def test_a_bound_within_the_margin_of_the_best_is_scored(self):
        values = np.array([1.0, 1.0 + 1e-12])
        bounds = np.array([1.0, 1.0 + 1e-12])
        _, seen = scored_by(values, bounds, 1)
        assert seen == [0, 1]
