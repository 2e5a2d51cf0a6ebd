"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Several criteria share
desk-scale training runs provided by session fixtures; the whole suite is a
few minutes of wall time.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.integrate

import co3
from co3 import (
    FP4,
    FpFormat,
    GenNormParams,
    QuantizedTensor,
    TrainConfig,
    bias_objective,
    bias_polynomial,
    build_codebook,
    decode,
    dequantize,
    encode,
    enumerate_levels,
    expected_length,
    gennorm_cdf,
    gennorm_pdf,
    gennorm_ppf,
    optimize_bias,
    quantize,
    synth_blobs,
    train,
)
from co3.entropy import EncodedBlock, decode_block
from co3.feedback import replay_memory
from co3.trainer import Model, epoch_batches, fit_table
from co3.datasets import shard_indices
from recording import train_recorded

# desk-scale task: image-like sub-unit feature scale keeps the run in its
# steep learning phase at 30 epochs, where the quantization lag of gamma=0
# is visible and error feedback pays off
DESK = dict(n=5000, k=10, d_in=32, seed=7, n_test=1000, separation=2.4,
            feature_scale=0.35)
SWEEP_EPOCHS = 30
SWEEP_SEEDS = (0, 1, 2)


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num:2d}] {status} — {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def desk_dataset():
    return synth_blobs(
        DESK["n"], DESK["k"], DESK["d_in"], DESK["seed"],
        n_test=DESK["n_test"], separation=DESK["separation"],
        feature_scale=DESK["feature_scale"],
    )


@pytest.fixture(scope="session")
def sweep_runs(desk_dataset):
    """Full-precision / gamma=0 / gamma=0.9 runs over three seeds (criteria 6-9)."""
    t0 = time.perf_counter()
    runs = {}
    for seed in SWEEP_SEEDS:
        for mode, gamma, quantizer in (
            ("full", 0.0, "identity"),
            ("g0", 0.0, "fp"),
            ("g09", 0.9, "fp"),
        ):
            # criterion 8 fits the three families to the kept samples
            cfg = TrainConfig(epochs=SWEEP_EPOCHS, gamma=gamma, quantizer=quantizer, seed=seed,
                              keep_fit_samples=True)
            runs[(mode, seed)], _ = train(cfg, desk_dataset)
    runs["elapsed"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def ef_desk_run():
    """Smaller complete run, recorded: its streams and full (g, g_hat) history."""
    ds = synth_blobs(2000, DESK["k"], DESK["d_in"], 11, n_test=400,
                     separation=DESK["separation"],
                     feature_scale=DESK["feature_scale"])
    cfg = TrainConfig(epochs=6, gamma=0.9, users=2, seed=1)
    metrics, _, streams, history = train_recorded(cfg, ds)
    return ds, cfg, metrics, streams, history


def test_c1_losslessness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    pairs = 10_000
    for i in range(pairs):
        fmt = FpFormat(
            mant_bits=int(rng.integers(0, 4)),
            exp_bits=int(rng.integers(1, 4)),
            bias=float(np.float32(rng.uniform(-4, 4))),
        )
        n_levels = fmt.level_count
        probs = rng.dirichlet(np.ones(n_levels))
        probs = (probs + 1e-12) / (probs + 1e-12).sum()
        codebook = build_codebook(probs)
        x = rng.normal(0, 2.0 ** rng.integers(-3, 4), size=int(rng.integers(0, 250)))
        q = quantize(x, fmt)
        block = encode(q, codebook, user_id=0, iteration=i, layer_id=0)
        if i % 10 == 0:  # periodically force the full wire round trip
            block = EncodedBlock.from_bytes(block.to_bytes())
            out = decode_block(block)
            assert np.array_equal(out.symbols, q.symbols.ravel())
            assert out.fmt == fmt
        symbols = decode(block, codebook)
        assert np.array_equal(symbols, q.symbols.ravel())
        assert np.array_equal(
            dequantize(QuantizedTensor(symbols, fmt)), dequantize(q).ravel()
        )
    elapsed = time.perf_counter() - t0
    report(1, "lossless coding on randomized (format, tensor) pairs",
           elapsed < 30.0, f"{pairs} pairs in {elapsed:.1f}s < 30s")


def _entropy_bits(p):
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _exhaustive_optimum(probs):
    n = len(probs)
    best = math.inf
    for lengths in itertools.product(range(1, n), repeat=n):
        max_len = max(lengths)
        if sum(1 << (max_len - l) for l in lengths) == 1 << max_len:
            best = min(best, sum(p * l for p, l in zip(probs, lengths)))
    return best


def test_c2_huffman_optimality_and_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    for n in (2, 3, 4, 5):
        for _ in range(100):
            p = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 4.0))
            cb = build_codebook(p)
            assert expected_length(cb, p) == pytest.approx(_exhaustive_optimum(p), abs=1e-12)
    for _ in range(1000):
        n = int(rng.integers(2, 48))
        p = rng.dirichlet(np.ones(n))
        p = (p + 1e-12) / (p + 1e-12).sum()
        cb = build_codebook(p)
        h = _entropy_bits(p)
        e = expected_length(cb, p)
        assert h - 1e-9 <= e < h + 1.0
        max_len = cb.max_length
        assert sum(1 << (max_len - l) for l in cb.code_lengths) == 1 << max_len
    elapsed = time.perf_counter() - t0
    report(2, "Huffman optimality (exhaustive <=5 symbols), entropy sandwich, Kraft equality",
           elapsed < 60.0, f"{elapsed:.1f}s < 60s")


def test_c3_bias_grid_oracle_and_polynomial_parity():
    """The optimized FP4 bias matches a 1e-3 brute-force grid, and the
    quartic in bias_polynomial stays within 0.15 of the optimum for unit
    variance over beta in [0.3, 1.6] (per-beta values in the run log; the
    optimizer is also checked against a Monte-Carlo oracle in the unit
    suite)."""
    t0 = time.perf_counter()
    betas = np.arange(0.30, 1.6001, 0.05)
    max_poly_dev = 0.0
    max_grid_dev = 0.0
    print("\n  beta   b_opt   b_poly  |diff|")
    for beta in betas:
        beta = float(beta)
        alpha = math.sqrt(math.exp(math.lgamma(1 / beta) - math.lgamma(3 / beta)))
        dist = GenNormParams(beta, 0.0, alpha)
        b_opt = optimize_bias(dist, FP4)
        b_poly = bias_polynomial(beta, 1.0)
        grid = np.arange(-2.0, 3.0 + 1e-12, 1e-3)
        vals = [bias_objective(b, dist, FP4) for b in grid]
        b_grid = float(grid[int(np.argmin(vals))])
        max_grid_dev = max(max_grid_dev, abs(b_opt - b_grid))
        max_poly_dev = max(max_poly_dev, abs(b_opt - b_poly))
        print(f"  {beta:4.2f} {b_opt:+7.4f} {b_poly:+7.4f}  {abs(b_opt - b_poly):6.4f}")
    elapsed = time.perf_counter() - t0
    grid_ok = max_grid_dev <= 1e-3
    poly_ok = max_poly_dev <= 0.15
    detail = (f"grid-oracle max dev {max_grid_dev:.2e} (<= 1e-3: {grid_ok}); "
              f"polynomial max dev {max_poly_dev:.3f} (<= 0.15: {poly_ok}); "
              f"{elapsed:.0f}s < 300s")
    report(3, "optimized bias vs brute-force grid and quartic approximation",
           grid_ok and poly_ok and elapsed < 300.0, detail)


def test_c4_error_feedback_exactness(ef_desk_run):
    _, cfg, metrics, _, history = ef_desk_run
    replayed_ok = all(
        np.array_equal(replay_memory(cfg.gamma, hist), metrics.final_memory[key])
        for key, hist in history.items()
    )
    # identity quantizer: memory identically zero at every step
    ds2 = synth_blobs(1000, 4, 12, 13, n_test=200, separation=2.5)
    cfg2 = TrainConfig(epochs=2, gamma=0.9, users=1, seed=2, quantizer="identity")
    _, _, _, history2 = train_recorded(cfg2, ds2)
    identity_ok = True
    for (u, layer), hist in history2.items():
        m = np.zeros_like(hist[0][0])
        for g, g_hat in hist:
            m = (cfg2.gamma * m + g) - g_hat
            identity_ok &= not m.any()
    report(4, "EF memory replay is bitwise exact; identity quantizer keeps memory at zero",
           replayed_ok and identity_ok,
           f"{len(history)} (user, layer) histories replayed")


def test_c5_uncompressed_equivalence(desk_dataset):
    cfg = TrainConfig(epochs=3, seed=0, users=1, quantizer="identity", gamma=0.9)
    metrics, model = train(cfg, desk_dataset)

    ref = Model((desk_dataset.n_features, *cfg.hidden, desk_dataset.n_classes),
                np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
    shard_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    shard = shard_indices(len(desk_dataset.y_train), 1, shard_rng)[0]
    data_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    ref_losses = []
    for _ in range(cfg.epochs):
        for batch in epoch_batches(data_rng, shard.size, cfg.batch_size):
            idx = shard[batch]
            loss, grads = ref.loss_and_grads(desk_dataset.x_train[idx], desk_dataset.y_train[idx])
            ref_losses.append(loss)
            ref.sgd_step(grads, cfg.eta)
    same_losses = ref_losses == metrics.round_losses
    same_weights = all(np.array_equal(a, b) for a, b in zip(ref.weights, model.weights))
    report(5, "bypassed pipeline reproduces plain SGD bitwise over 3 epochs",
           same_losses and same_weights,
           f"{len(ref_losses)} rounds compared")


def test_c6_payload_identity(ef_desk_run, sweep_runs):
    _, _, metrics, streams, _ = ef_desk_run
    blocks = [EncodedBlock.from_bytes(s) for s in streams]
    total_bytes = sum(len(s) for s in streams)
    pad_bits = sum(b.pad_bits for b in blocks)
    with_headers_ok = metrics.ledger.total(include_headers=True) == 8 * total_bytes - pad_bits
    recount = 0
    for block in blocks:
        lengths = np.asarray(block.code_lengths, dtype=np.int64)
        recount += int(lengths[decode_block(block).symbols].sum())
    payload_ok = metrics.ledger.total(include_headers=False) == recount

    desk = sweep_runs[("g09", 0)]
    denom = desk.param_count * desk.rounds * desk.config.users
    bpp_payload = desk.ledger.payload_total / denom
    bpp_with_headers = desk.ledger.total(True) / denom
    header_amortization = desk.ledger.header_total / denom
    budget_ok = bpp_with_headers <= 4.0 + header_amortization
    report(6, "ledger equals byte recount minus padding; bits/param/iteration within budget",
           with_headers_ok and payload_ok and budget_ok,
           f"{len(blocks)} blocks, payload {bpp_payload:.3f} b/param/iter "
           f"(+{header_amortization:.3f} headers)")


def test_c7_gamma_sweep_trend(sweep_runs):
    means = {
        mode: float(np.mean([sweep_runs[(mode, s)].final_accuracy for s in SWEEP_SEEDS]))
        for mode in ("full", "g0", "g09")
    }
    elapsed = sweep_runs["elapsed"]
    vs_full = means["g09"] >= means["full"] - 0.03
    vs_g0 = means["g09"] >= means["g0"] + 0.01
    report(7, "gamma=0.9 within 3pp of full precision and >= 1pp above gamma=0",
           vs_full and vs_g0 and elapsed < 1800.0,
           f"full={means['full']:.4f} g0={means['g0']:.4f} g09={means['g09']:.4f}, "
           f"9 runs in {elapsed:.0f}s < 1800s")


def test_c8_gennorm_fit_dominance(sweep_runs):
    rows = fit_table(sweep_runs[("g09", 0)].fit_samples)
    by_key = {}
    for epoch, layer, family, beta, mu, scale, w2 in rows:
        by_key.setdefault((epoch, layer), {})[family] = w2
    wins = 0
    w2s = {"normal": [], "laplace": [], "gennorm": []}
    for key, fam in by_key.items():
        if len(fam) == 3:
            wins += fam["gennorm"] <= min(fam["normal"], fam["laplace"]) + 1e-6
            for name, val in fam.items():
                w2s[name].append(val)
    frac = wins / len(by_key)
    medians = {k: float(np.median(v)) for k, v in w2s.items()}
    median_ok = medians["gennorm"] < medians["normal"] and medians["gennorm"] < medians["laplace"]
    report(8, "GenNorm W2 <= min(normal, laplace) on >= 70% of checkpoints, smallest median",
           frac >= 0.70 and median_ok,
           f"wins {frac:.0%} of {len(by_key)} checkpoints; medians "
           f"gennorm={medians['gennorm']:.2e} normal={medians['normal']:.2e} "
           f"laplace={medians['laplace']:.2e}")


def test_c9_memory_stability(sweep_runs):
    worst = 0.0
    for seed in SWEEP_SEEDS:
        for epoch, group, l1_g, l1_m in sweep_runs[("g09", seed)].norm_rows:
            if epoch >= 2 and l1_g > 0:
                worst = max(worst, l1_m / l1_g)
    report(9, "per-epoch ||m||_1 / ||g||_1 stays below 20 after the first epoch",
           worst < 20.0, f"worst ratio {worst:.2f}")


def test_c10_numerical_kernels():
    # exact gradients vs central finite differences
    model = Model((7, 16, 9, 4), np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 7))
    y = rng.integers(0, 4, size=12)
    _, grads = model.loss_and_grads(x, y)
    h = 1e-4
    worst_rel = 0.0
    for layer in range(model.n_layers):
        w = model.weights[layer]
        flat = grads[layer]
        for j in rng.choice(flat.size, size=min(30, flat.size), replace=False):
            if j < w.size:
                target, idx = w, np.unravel_index(j, w.shape)
            else:
                target, idx = model.biases[layer], (j - w.size,)
            orig = target[idx]
            target[idx] = orig + h
            lp, _ = model.loss_and_grads(x, y)
            target[idx] = orig - h
            lm, _ = model.loss_and_grads(x, y)
            target[idx] = orig
            fd = (lp - lm) / (2 * h)
            worst_rel = max(worst_rel, abs(fd - flat[j]) / max(abs(fd), abs(flat[j]), 1e-8))
    grad_ok = worst_rel < 1e-4

    # density normalization and quantile identity
    density_err = 0.0
    ppf_err = 0.0
    for beta in (0.5, 1.0, 2.0, 4.0):
        alpha = math.sqrt(math.exp(math.lgamma(1 / beta) - math.lgamma(3 / beta)))
        d = GenNormParams(beta, 0.0, alpha)
        total = sum(
            scipy.integrate.quad(lambda v: gennorm_pdf(v, d), a, b, limit=200)[0]
            for a, b in ((-np.inf, 0.0), (0.0, np.inf))
        )
        density_err = max(density_err, abs(total - 1.0))
        q = np.concatenate((np.geomspace(1e-6, 0.5, 40), 1 - np.geomspace(1e-6, 0.5, 40)))
        ppf_err = max(ppf_err, float(np.max(np.abs(gennorm_cdf(gennorm_ppf(q, d), d) - q))))
    density_ok = density_err <= 1e-8
    ppf_ok = ppf_err <= 1e-8

    fit = co3.fit_gennorm(np.random.default_rng(6).normal(0, 1, 1_000_000))
    fit_ok = 1.9 <= fit.beta <= 2.1
    report(10, "gradient FD check, density normalization, CDF/PPF identity, MLE recovery",
           grad_ok and density_ok and ppf_ok and fit_ok,
           f"FD rel err {worst_rel:.1e}; density err {density_err:.1e}; "
           f"ppf err {ppf_err:.1e}; fitted beta {fit.beta:.3f}")
