import math

import numpy as np
import pytest

from co3 import distmodel, entropy, feedback, trainer
from co3.datasets import shard_indices, synth_blobs
from co3.distmodel import GenNormParams, fit_gennorm
from co3.entropy import EncodedBlock
from co3.feedback import replay_memory
from co3.fpq import FP4, FpFormat, bias_polynomial, optimize_bias
from co3.trainer import (
    DivergenceError,
    Model,
    TrainConfig,
    _fit_layer,
    epoch_batches,
    train,
)
from recording import train_recorded


@pytest.fixture(scope="module")
def blobs():
    return synth_blobs(600, 4, 8, seed=3, n_test=150, separation=2.5)


@pytest.fixture(scope="module")
def small():
    return synth_blobs(200, 3, 6, seed=1, n_test=30)


def small_model(seed=0, sizes=(6, 12, 8, 5)):
    return Model(sizes, np.random.default_rng(seed))


class TestModel:
    def test_softmax_rows_sum_to_one(self):
        model = small_model()
        rng = np.random.default_rng(1)
        probs = model.forward(rng.normal(size=(32, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert probs.min() >= 0

    def test_zero_weights_give_log_k_loss(self):
        model = small_model()
        for w in model.weights:
            w[:] = 0.0
        x = np.random.default_rng(2).normal(size=(16, 6))
        y = np.zeros(16, dtype=np.int64)
        loss, _ = model.loss_and_grads(x, y)
        assert loss == pytest.approx(math.log(5), abs=1e-12)

    def test_output_layer_gradient_is_probs_minus_onehot(self):
        model = small_model(sizes=(4, 5))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 4))
        y = np.array([2])
        probs = model.forward(x)
        _, grads = model.loss_and_grads(x, y)
        onehot = np.zeros(5)
        onehot[2] = 1.0
        delta = probs[0] - onehot
        expected_gw = np.outer(x[0], delta).ravel()
        assert np.allclose(grads[0][:20], expected_gw, atol=1e-12)
        assert np.allclose(grads[0][20:], delta, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        model = small_model(seed=4, sizes=(7, 16, 9, 4))  # ~330 params across layers
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 7))
        y = rng.integers(0, 4, size=12)
        _, grads = model.loss_and_grads(x, y)
        h = 1e-4
        rel_errs = []
        for layer in range(model.n_layers):
            w = model.weights[layer]
            flat = grads[layer]
            probe = rng.choice(flat.size, size=min(40, flat.size), replace=False)
            for j in probe:
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
                denom = max(abs(fd), abs(flat[j]), 1e-8)
                rel_errs.append(abs(fd - flat[j]) / denom)
        assert max(rel_errs) < 1e-4

    @pytest.mark.parametrize("sizes", [(0, 3), (4, 0), (4, 0, 3)])
    def test_layer_sizes_below_one_rejected(self, sizes):
        with pytest.raises(ValueError, match="at least one unit"):
            Model(sizes, np.random.default_rng(0))

    def test_label_out_of_range(self):
        model = small_model()
        x = np.zeros((2, 6))
        with pytest.raises(ValueError, match="label out of range"):
            model.loss_and_grads(x, np.array([0, 9]))

    def test_non_finite_forward_names_layer(self):
        model = small_model()
        model.weights[1][:] = 1e308
        x = np.full((2, 6), 1e3)
        with pytest.raises(ValueError, match="layer 1"):
            model.loss_and_grads(x, np.array([0, 1]))

    def test_ps_descent_step(self):
        model = Model((1, 2), np.random.default_rng(0))
        model.weights[0][:] = 0.0
        model.biases[0][:] = 0.0
        g1 = np.array([1.0, 2.0, 0.0, 0.0])
        g2 = np.array([3.0, 4.0, 0.0, 0.0])
        model.sgd_step([g1 + g2], 0.1 / 2)
        assert model.weights[0].ravel() == pytest.approx([-0.2, -0.3], abs=1e-15)
        assert model.biases[0].tolist() == [0.0, 0.0]


class TestSchedules:
    def test_epoch_batches_partition(self):
        rng = np.random.default_rng(0)
        batches = epoch_batches(rng, 103, 10)
        assert len(batches) == 11
        joined = np.sort(np.concatenate(batches))
        assert np.array_equal(joined, np.arange(103))

    def test_shard_partition_exact_cover(self):
        rng = np.random.default_rng(1)
        shards = shard_indices(101, 4, rng)
        joined = np.sort(np.concatenate(shards))
        assert np.array_equal(joined, np.arange(101))

    @pytest.mark.parametrize(
        "n_layers, thirds",
        [(1, [[0]]), (2, [[0], [1]]), (3, [[0], [1], [2]]), (4, [[0, 1], [2], [3]])],
        ids=["1_layer", "2_layers", "3_layers", "4_layers"],
    )
    def test_norm_rows_follow_the_thirds_of_the_stack(self, small, n_layers, thirds):
        cfg = TrainConfig(epochs=2, users=2, seed=3, batch_size=32, hidden=(5,) * (n_layers - 1))
        metrics, model, _, history = train_recorded(cfg, small)
        names = ["lower", "middle", "upper"][: len(thirds)]  # a third with no layer has no row
        assert [row[:2] for row in metrics.norm_rows] == [(e, g) for e in (1, 2) for g in names]
        # replay every memory; a row averages its layers' L1 norms over the epoch's rounds and users
        rounds = metrics.rounds // cfg.epochs
        last_epoch = {}
        for (u, layer), steps in history.items():
            state = feedback.init_state(model.layer_param_count(layer), cfg.gamma)
            for r, (g, g_hat) in enumerate(steps):
                feedback.update(state, g, g_hat)
                if r >= rounds:
                    last_epoch.setdefault(layer, []).append(feedback.norms(state, g))
        for (_, group, l1_g, l1_m), members in zip(metrics.norm_rows[len(names) :], thirds):
            norms = np.array([n for layer in members for n in last_epoch[layer]])
            assert len(norms) == len(members) * rounds * cfg.users, group
            assert (l1_g, l1_m) == pytest.approx(tuple(norms.mean(axis=0)), rel=1e-12)


class TestTrainConfig:
    def test_polynomial_bias_needs_fp4(self):
        TrainConfig(bias_mode="polynomial", fmt=FP4)
        with pytest.raises(ValueError, match="FP4"):
            TrainConfig(bias_mode="polynomial", fmt=FpFormat(mant_bits=4, exp_bits=3))

    @pytest.mark.parametrize("bias", [1.5, -0.25])
    def test_rejects_a_format_bias_the_refresh_would_replace(self, bias):
        with pytest.raises(ValueError, match="refresh chooses the bias"):
            TrainConfig(fmt=FP4.with_bias(bias))

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma=1.5)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(quantizer="int8")
        with pytest.raises(ValueError):
            TrainConfig(users=0)
        with pytest.raises(ValueError):
            TrainConfig(users=1.5)
        with pytest.raises(ValueError):
            TrainConfig(users=True)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1.7)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=8.5)
        with pytest.raises(ValueError):
            TrainConfig(hidden=(1.5,))
        for bad in ({"seed": True}, {"seed": -1}, {"seed": 1.5}, {"eta": True}, {"gamma": False}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    @pytest.mark.parametrize("hidden", [(0,), (-3,), (16, 0)])
    def test_rejects_hidden_sizes_a_model_cannot_build(self, hidden):
        with pytest.raises(ValueError, match="hidden layer sizes"):
            TrainConfig(hidden=hidden)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_rejects_a_non_finite_learning_rate(self, eta):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            TrainConfig(eta=eta)


class TestTrain:
    def test_zero_epochs_returns_initial_metrics(self, blobs):
        metrics, _ = train(TrainConfig(epochs=0), blobs)
        assert len(metrics.epoch_rows) == 1
        epoch, gamma, loss, acc, bits = metrics.epoch_rows[0]
        assert epoch == 0 and bits == 0 and 0.0 <= acc <= 1.0

    def test_same_seed_bit_identical(self, blobs):
        cfg = TrainConfig(epochs=2, seed=9, users=2, gamma=0.5, keep_fit_samples=True)
        m1, _ = train(cfg, blobs)
        m2, _ = train(cfg, blobs)
        assert m1.round_losses == m2.round_losses
        assert m1.epoch_rows == m2.epoch_rows
        rows = trainer.fit_table(m1.fit_samples)
        assert len(rows) == 3 * 3 * cfg.epochs  # families x layers x epochs
        assert rows == trainer.fit_table(m2.fit_samples)
        assert m1.ledger.records == m2.ledger.records

    def test_bypass_matches_reference_sgd_bitwise(self, blobs):
        cfg = TrainConfig(epochs=2, seed=4, users=1, quantizer="identity", gamma=0.9)
        metrics, model = train(cfg, blobs)

        # independent plain-SGD reference sharing init and batch schedule
        ref = Model((blobs.n_features, *cfg.hidden, blobs.n_classes),
                    np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
        shard_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
        shard = shard_indices(len(blobs.y_train), 1, shard_rng)[0]
        data_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        losses = []
        for _ in range(cfg.epochs):
            for batch in epoch_batches(data_rng, shard.size, cfg.batch_size):
                idx = shard[batch]
                loss, grads = ref.loss_and_grads(blobs.x_train[idx], blobs.y_train[idx])
                losses.append(loss)
                ref.sgd_step(grads, cfg.eta)
        assert losses == metrics.round_losses
        assert all(np.array_equal(a, b) for a, b in zip(ref.weights, model.weights))
        assert metrics.ledger.total() == 0

    def test_user_count_invariance_with_replicated_shards(self, blobs):
        # two users with one user's batch, gradients and fresh memory, coded
        # with one codec list, take the step that user takes alone
        x, y = blobs.x_train[:64], blobs.y_train[:64]
        loss, grads = small_model(sizes=(8, 12, 4)).loss_and_grads(x, y)
        codecs = None
        runs = []
        for users in (1, 2):
            cfg = TrainConfig(users=users, gamma=0.9)
            model = small_model(sizes=(8, 12, 4))
            metrics = trainer.RunMetrics(config=cfg, param_count=model.param_count)
            states = {(u, l): feedback.init_state(g.size, cfg.gamma) for u in range(users) for l, g in enumerate(grads)}
            inputs = [[feedback.corrected_input(states[(u, l)], g) for l, g in enumerate(grads)] for u in range(users)]
            codecs = codecs or trainer._refresh(inputs, 1, metrics, None, True)
            norm_sums = np.zeros((len(grads), 2))
            mean = trainer.run_round(model, [loss] * users, [grads] * users, inputs, states, codecs, 0, metrics, norm_sums)
            runs.append((mean, model, metrics.ledger.records))
        (loss1, model1, records1), (loss2, model2, records2) = runs
        assert loss1 == loss2 == loss
        assert all(a.tobytes() == b.tobytes() for a, b in zip(model1.weights + model1.biases, model2.weights + model2.biases))
        assert len(records2) == 2 * len(grads)
        for (u, t, layer), rec in records2.items():
            assert rec == records1[(0, t, layer)]

    def test_training_loss_mostly_non_increasing(self, blobs):
        cfg = TrainConfig(epochs=6, seed=0, quantizer="identity")
        metrics, _ = train(cfg, blobs)
        losses = [row[2] for row in metrics.epoch_rows[1:]]
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
        assert drops >= 0.8 * (len(losses) - 1)

    def test_payload_identity_on_short_run(self, blobs):
        cfg = TrainConfig(epochs=2, seed=1, users=2)
        metrics, _, streams, _ = train_recorded(cfg, blobs)
        from co3.entropy import EncodedBlock

        total_bytes = sum(len(s) for s in streams)
        pad_bits = sum(EncodedBlock.from_bytes(s).pad_bits for s in streams)
        assert metrics.ledger.total(include_headers=True) == 8 * total_bytes - pad_bits
        recount = 0
        for s in streams:
            block = EncodedBlock.from_bytes(s)
            lengths = np.asarray(block.code_lengths)
            from co3.entropy import decode_block

            recount += int(lengths[decode_block(block).symbols].sum())
        assert metrics.ledger.total(include_headers=False) == recount

    def test_wire_decode_matches_user_side_dequant(self, blobs):
        # header-only decode must reproduce the user-side dequantized gradient
        cfg = TrainConfig(epochs=1, seed=6)
        _, _, streams, history = train_recorded(cfg, blobs)
        from co3.entropy import EncodedBlock, decode_block
        from co3.fpq import dequantize

        by_key = {}
        for s in streams:
            block = EncodedBlock.from_bytes(s)
            by_key[(block.user_id, block.iteration, block.layer_id)] = block
        for (u, layer), hist in history.items():
            for t, (_, g_hat) in enumerate(hist):
                block = by_key[(u, t, layer)]
                assert np.array_equal(dequantize(decode_block(block)), g_hat)

    def test_divergence_guard(self, blobs):
        cfg = TrainConfig(epochs=1, eta=1e9, quantizer="identity")
        with pytest.raises((DivergenceError, ValueError)):
            train(cfg, blobs)

    def test_recorded_run_restores_the_wrapped_functions_when_training_raises(self, blobs):
        encode, update = entropy.encode, feedback.update
        with pytest.raises((DivergenceError, ValueError)):
            train_recorded(TrainConfig(epochs=1, eta=1e9, quantizer="identity"), blobs)
        assert entropy.encode is encode and feedback.update is update

    def test_iteration_rebuild_cadence_runs(self, blobs):
        small = synth_blobs(160, 3, 6, seed=1, n_test=30)
        cfg = TrainConfig(epochs=1, rebuild="iteration", batch_size=64, seed=0, keep_fit_samples=True)
        metrics, _ = train(cfg, small)
        assert metrics.rounds > 1  # later rounds refresh too, without keeping samples
        rows = trainer.fit_table(metrics.fit_samples)
        assert len({e for e, *_ in rows}) == 1
        assert len(rows) == 3 * 3 * cfg.epochs  # families x layers x epochs

    @pytest.mark.parametrize("rebuild", ["epoch", "iteration"])
    def test_refresh_fits_the_rounds_own_quantizer_input(self, small, rebuild):
        # the fit sample is g + gamma * m of the epoch's first round k, before its update
        cfg = TrainConfig(epochs=2, seed=5, batch_size=32, rebuild=rebuild, keep_fit_samples=True)
        metrics, model, _, history = train_recorded(cfg, small)
        per_epoch = metrics.rounds // cfg.epochs
        assert len(metrics.fit_samples) == cfg.epochs * model.n_layers
        for (epoch, layer), samples in metrics.fit_samples.items():
            k = (epoch - 1) * per_epoch
            hist = history[(0, layer)]
            memory = replay_memory(cfg.gamma, hist[:k]) if k else np.zeros_like(samples)
            assert samples.tobytes() == (cfg.gamma * memory + hist[k][0]).tobytes()

    def test_every_iteration_refresh_refits_the_codebooks_gennorm(self, small, monkeypatch):
        # rounds after the epoch's first keep no fit sample, yet each codebook
        # still comes from a GenNorm fitted to that round's pooled sample
        models = []
        original = distmodel.cell_probabilities

        def recording(gn, fmt):
            models.append(gn)
            return original(gn, fmt)

        monkeypatch.setattr(distmodel, "cell_probabilities", recording)
        cfg = TrainConfig(epochs=2, users=2, seed=3, batch_size=32, rebuild="iteration")
        metrics, model, _, history = train_recorded(cfg, small)
        per_epoch = metrics.rounds // cfg.epochs
        assert per_epoch > 1
        assert len(models) == metrics.rounds * model.n_layers
        for k in range(metrics.rounds):
            for layer in range(model.n_layers):
                pooled = []
                for u in range(cfg.users):
                    hist = history[(u, layer)]
                    memory = replay_memory(cfg.gamma, hist[:k]) if k else 0.0
                    pooled.append(cfg.gamma * memory + hist[k][0])
                assert models[k * model.n_layers + layer] == fit_gennorm(np.concatenate(pooled))

    @pytest.mark.parametrize(
        "samples",
        [
            np.r_[np.zeros(199), [1e-300]],  # squares underflow: zero standard deviation
            np.r_[np.full(100, 1.5e308), np.full(100, -1.5e308)],  # the fitted alpha overflows
            np.full(300, 0.25),
            np.linspace(-1.0, 1.0, 50),  # too few values to fit
        ],
    )
    @pytest.mark.parametrize("previous", [None, GenNormParams(1.3, 0.0, 0.02)])
    def test_both_refresh_paths_fall_back_alike(self, samples, previous):
        # the refresh's GenNorm fit falls back where fit_table's fit_all
        # fails, so a layer without a fitted GenNorm has no sample and no row
        if previous is None:
            mean, sd = distmodel.mean_std(samples)
            alpha = min(max(sd, 1e-8) * math.sqrt(2.0), np.finfo(np.float64).max)
            expected = GenNormParams(2.0, mean, alpha)
        else:
            expected = previous
        assert _fit_layer(samples, previous) == (expected, False)
        with pytest.raises((distmodel.DegenerateSampleError, distmodel.InsufficientDataError)):
            trainer.fit_table({(1, 0): samples})

    @pytest.mark.parametrize("scale", [1.0, 2.0**30])
    def test_near_constant_layer_falls_back_to_a_model_the_bias_search_takes(self, scale):
        # the fit of two neighbouring floats has |mu| / sigma about 1e19, past
        # the bias search's 2**52; at 2**30 the 1e-8 floor of the fallback's
        # standard deviation would leave it past too
        x = np.r_[np.ones(150), np.full(50, np.nextafter(1.0, 2.0))] * scale
        metrics = trainer.RunMetrics(config=TrainConfig(epochs=1), param_count=x.size)
        [(fmt, cb, gn)] = trainer._refresh([[x]], 1, metrics, None, True)
        assert metrics.fit_fallbacks == 1
        assert (gn.beta, gn.mu) == (2.0, float(np.mean(x)))
        assert abs(gn.mu) / gn.sigma < distmodel.MAX_MU_SIGMAS
        assert fmt.bias == float(np.float32(optimize_bias(gn, FP4)))

    def test_both_refresh_paths_fit_the_same_gennorm(self):
        # fits.csv's GenNorm row is the refresh's GenNorm
        samples = np.random.default_rng(8).laplace(0.001, 0.02, 2000)
        gn, fitted = _fit_layer(samples, None)
        assert fitted and gn == fit_gennorm(samples)
        rows = trainer.fit_table({(1, 0): samples})
        assert [row[:3] for row in rows] == [(1, 0, "normal"), (1, 0, "laplace"), (1, 0, "gennorm")]
        assert GenNormParams(*rows[-1][3:6]) == gn

    def test_both_refresh_paths_fit_and_fall_back_at_scale_1e160(self):
        # alpha^2 and np.std's squares overflow float64 here; 2^531 rescales exactly
        unit = np.random.default_rng(9).laplace(0.001, 1.0, 2000)
        samples = unit * 2.0**531
        gn, fitted = _fit_layer(samples, None)
        rows = trainer.fit_table({(1, 0): samples})
        assert fitted and [row[2] for row in rows] == ["normal", "laplace", "gennorm"]
        assert all(math.isfinite(v) for row in rows for v in row[3:])
        assert GenNormParams(*rows[-1][3:6]) == gn
        ref = fit_gennorm(unit)
        assert (gn.beta, gn.alpha) == (ref.beta, ref.alpha * 2.0**531)
        assert optimize_bias(gn, FP4) == pytest.approx(optimize_bias(ref, FP4) + 531, abs=1e-6)
        # too few values to fit: the refresh falls back to a finite narrow Normal
        few = samples[:50]
        sd = float(np.std(unit[:50])) * 2.0**531
        expected = GenNormParams(2.0, float(np.mean(unit[:50])) * 2.0**531, sd * math.sqrt(2.0))
        assert _fit_layer(few, None) == (expected, False)
        # near float64's largest value sd * sqrt(2) overflows: the fallback keeps the largest finite alpha
        extreme = np.r_[np.full(30, 1.5e308), np.full(30, -1.5e308)]
        assert _fit_layer(extreme, None) == (GenNormParams(2.0, 0.0, np.finfo(np.float64).max), False)

    def test_layer_too_small_to_fit_keeps_its_first_fallback_model(self, small):
        # hidden=(20,) gives an output layer of 20 * 3 + 3 = 63 values, under
        # the 100 a fit needs: it keeps no sample and gets no fit rows, a
        # narrow Normal at the first refresh and that same model at the next
        cfg = TrainConfig(epochs=2, seed=2, batch_size=32, hidden=(20,), keep_fit_samples=True)
        metrics, _, streams, history = train_recorded(cfg, small)
        assert {row[1] for row in trainer.fit_table(metrics.fit_samples)} == {0}
        assert set(metrics.fit_samples) == {(1, 0), (2, 0)}
        g = history[(0, 1)][0][0]  # the first quantizer input, memory still zero
        gn = GenNormParams(2.0, float(np.mean(g)), float(np.std(g)) * math.sqrt(2.0))
        expected = float(np.float32(optimize_bias(gn, FP4)))
        blocks = [EncodedBlock.from_bytes(raw) for raw in streams]
        assert {b.fmt.bias for b in blocks if b.layer_id == 1} == {expected}
        assert len({b.fmt.bias for b in blocks if b.layer_id == 0}) == 2

    @pytest.mark.parametrize("rebuild", ["epoch", "iteration"])
    def test_fit_fallbacks_count_each_refresh_of_a_layer_too_small_to_fit(self, small, rebuild):
        # the 63-value output layer of hidden=(20,) falls back at every refresh; layer 0 never does
        cfg = TrainConfig(epochs=2, seed=2, batch_size=32, hidden=(20,), rebuild=rebuild)
        metrics, _ = train(cfg, small)
        refreshes = cfg.epochs if rebuild == "epoch" else metrics.rounds
        assert refreshes > 1 and metrics.fit_fallbacks == refreshes

    @pytest.mark.parametrize("rebuild", ["epoch", "iteration"])
    def test_one_gradient_pass_per_user_and_round(self, small, monkeypatch, rebuild):
        calls = []
        original = Model.loss_and_grads

        def counting(model, x, y):
            calls.append(len(y))
            return original(model, x, y)

        monkeypatch.setattr(Model, "loss_and_grads", counting)
        metrics, _ = train(TrainConfig(epochs=2, users=2, seed=1, batch_size=32, rebuild=rebuild), small)
        assert metrics.rounds > 0
        assert len(calls) == metrics.rounds * 2

    @pytest.mark.parametrize("rebuild", ["epoch", "iteration"])
    def test_one_quantizer_input_per_user_layer_and_round(self, small, monkeypatch, rebuild):
        # the refresh fits the same g + gamma * m arrays that the round then quantizes
        calls = []
        original = feedback.corrected_input

        def counting(state, g):
            calls.append(g.size)
            return original(state, g)

        monkeypatch.setattr(feedback, "corrected_input", counting)
        metrics, model = train(TrainConfig(epochs=2, users=2, seed=1, batch_size=32, rebuild=rebuild), small)
        assert metrics.rounds > 0
        assert len(calls) == metrics.rounds * 2 * model.n_layers

    def test_pooled_layers_over_the_cap_keep_an_evenly_spaced_sample(self, small, monkeypatch):
        cfg = TrainConfig(epochs=2, users=2, seed=4, batch_size=32, keep_fit_samples=True)
        full, _ = train(cfg, small)  # every layer pools fewer values than the default cap
        cap = 150
        monkeypatch.setattr(trainer, "FIT_SAMPLE_CAP", cap)
        capped, _ = train(cfg, small)
        assert capped.fit_samples.keys() == full.fit_samples.keys()
        # the first epoch's pooled inputs come before any refresh, so they match
        subsampled = 0
        for (epoch, layer), pooled in full.fit_samples.items():
            if epoch > 1:
                continue
            kept = capped.fit_samples[(epoch, layer)]
            if pooled.size <= cap:
                assert kept.tobytes() == pooled.tobytes()
                continue
            idx = np.linspace(0, pooled.size - 1, cap).astype(np.int64)
            assert idx[0] == 0 and idx[-1] == pooled.size - 1 and np.all(np.diff(idx) > 0)
            assert np.all(np.abs(idx - np.arange(cap) * (pooled.size - 1) / (cap - 1)) < 1)
            assert kept.size == cap and kept.tobytes() == pooled[idx].tobytes()
            subsampled += 1
        assert subsampled >= 2

    @pytest.mark.parametrize("rebuild", ["epoch", "iteration"])
    def test_polynomial_bias_mode_trains_reproducibly(self, small, monkeypatch, rebuild):
        refreshes = []
        original = trainer._refresh

        def recording(*args, **kwargs):
            codecs = original(*args, **kwargs)
            refreshes.append([(fmt, gn) for fmt, _, gn in codecs])
            return codecs

        monkeypatch.setattr(trainer, "_refresh", recording)
        cfg = TrainConfig(epochs=2, users=2, seed=7, batch_size=32, bias_mode="polynomial", rebuild=rebuild)
        m1, model1, streams1, _ = train_recorded(cfg, small)
        per_epoch = m1.rounds // cfg.epochs
        assert len(refreshes) == (cfg.epochs if rebuild == "epoch" else m1.rounds)
        for layers in refreshes:
            for fmt, gn in layers:
                assert fmt.with_bias(0.0) == FP4
                assert fmt.bias == float(np.float32(bias_polynomial(gn.beta, gn.sigma)))
        for raw in streams1:
            block = EncodedBlock.from_bytes(raw)
            k = block.iteration // per_epoch if rebuild == "epoch" else block.iteration
            assert block.fmt == refreshes[k][block.layer_id][0]
        m2, model2, streams2, _ = train_recorded(cfg, small)
        assert m1.round_losses == m2.round_losses
        assert streams1 == streams2
        assert m1.ledger.records == m2.ledger.records
        assert all(np.array_equal(a, b) for a, b in zip(model1.weights + model1.biases, model2.weights + model2.biases))

    def test_more_users_than_samples_fails_typed(self):
        # an empty shard gives zero rounds, and nothing to average per epoch
        tiny = synth_blobs(40, 3, 6, seed=1, n_test=10)
        with pytest.raises(ValueError, match="at least one training sample each"):
            train(TrainConfig(users=50, epochs=1, hidden=(8,)), tiny)
