"""Each benchmark check passes on co3's real output and fails on a corrupted copy."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from co3 import distmodel, entropy, feedback, fpq  # noqa: E402


@pytest.fixture
def coded():
    """One FP4 tensor coded the way the trainer codes a layer."""
    rng = np.random.default_rng(5)
    dist = distmodel.GenNormParams(0.8, 0.0, 0.01)
    x = workloads.gennorm_values(rng, dist.beta, dist.alpha, 3000)
    fmt = fpq.FP4.with_bias(float(np.float32(fpq.optimize_bias(dist, fpq.FP4))))
    probs = distmodel.cell_probabilities(dist, fmt)
    cb = entropy.build_codebook(probs)
    q = fpq.quantize(x, fmt)
    block = entropy.encode(q, cb)
    levels = checks.fp_levels(fmt.mant_bits, fmt.exp_bits, fmt.bias)
    return dict(x=x, fmt=fmt, probs=probs, cb=cb, q=q, block=block, levels=levels)


@pytest.mark.parametrize("mant,exp,bias", [(2, 1, 0.0), (3, 2, -3.25), (4, 3, 1.5)])
def test_grid_matches_the_programs(mant, exp, bias):
    fmt = fpq.FpFormat(mant_bits=mant, exp_bits=exp, bias=bias)
    assert np.array_equal(checks.fp_levels(mant, exp, bias), fpq.enumerate_levels(fmt))


def test_nearest_levels(coded):
    checks.check_nearest_levels(coded["x"], coded["q"].symbols, coded["levels"])
    moved = coded["q"].symbols.copy()
    i = int(np.argmax(moved < coded["levels"].size - 1))
    moved[i] += 1
    with pytest.raises(checks.CheckFailed, match="off their nearest level"):
        checks.check_nearest_levels(coded["x"], moved, coded["levels"])


def test_decoded_values(coded):
    block = entropy.EncodedBlock.from_bytes(coded["block"].to_bytes())
    values = fpq.dequantize(entropy.decode_block(block))
    checks.check_decoded_values(coded["x"], values, coded["levels"])
    off_grid = values.copy()
    off_grid[7] += abs(off_grid[7]) * 1e-3 + 1e-9
    with pytest.raises(checks.CheckFailed, match="not grid levels"):
        checks.check_decoded_values(coded["x"], off_grid, coded["levels"])
    moved = values.copy()
    moved[3] = coded["levels"][-1] if values[3] != coded["levels"][-1] else coded["levels"][0]
    with pytest.raises(checks.CheckFailed, match="nearest level"):
        checks.check_decoded_values(coded["x"], moved, coded["levels"])


def test_flipped_decoded_symbol(coded):
    decoded = entropy.decode(coded["block"], coded["cb"])
    checks.check_symbols_equal(coded["q"].symbols, decoded)
    decoded[11] ^= 1
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_symbols_equal(coded["q"].symbols, decoded)


def test_bit_recount(coded):
    b = coded["block"]
    checks.check_bit_recount(coded["q"].symbols, b.code_lengths, b.payload_bits)
    with pytest.raises(checks.CheckFailed):
        checks.check_bit_recount(coded["q"].symbols, b.code_lengths, b.payload_bits + 1)


def test_wire_and_ledger_totals(coded):
    b = coded["block"]
    n = len(b.to_bytes())
    checks.check_wire_total(n, b.pad_bits, b.payload_bits, b.header_bits)
    with pytest.raises(checks.CheckFailed):
        checks.check_wire_total(n, b.pad_bits, b.payload_bits, b.header_bits + 1)
    ledger = entropy.PayloadLedger()
    ledger.record_block(b)
    wire = [checks.wire_bits(n, b.pad_bits)]
    checks.check_ledger_total(ledger.total(True), wire)
    with pytest.raises(checks.CheckFailed, match="ledger total"):
        checks.check_ledger_total(ledger.total(True) + 1, wire)


def test_code_properties(coded):
    lengths = list(coded["cb"].code_lengths)
    checks.check_code_properties(lengths, coded["probs"])
    with pytest.raises(checks.CheckFailed, match="Kraft"):
        checks.check_code_properties([lengths[0] + 1] + lengths[1:], coded["probs"])
    # a valid prefix code, but for other probabilities: the most likely symbol gets the longest code
    flat = [4] * 16
    skewed = np.full(16, 0.2 / 15)
    skewed[0] = 0.8
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_code_properties(flat, skewed)


def test_realized_entropy(coded):
    b = coded["block"]
    checks.check_realized_entropy(coded["q"].symbols, b.payload_bits)
    with pytest.raises(checks.CheckFailed, match="empirical-entropy"):
        checks.check_realized_entropy(coded["q"].symbols, b.payload_bits // 2)


def test_feedback_replay():
    rng = np.random.default_rng(2)
    state = feedback.init_state(50, 0.9)
    replayed = np.zeros(50)
    for _ in range(3):
        g = rng.normal(size=50)
        g_hat = np.round(g, 1)
        feedback.update(state, g, g_hat)
        replayed = checks.feedback_step(0.9, replayed, g, g_hat)
    checks.check_memory(replayed, state.memory)
    perturbed = state.memory.copy()
    perturbed[4] = np.nextafter(perturbed[4], np.inf)
    with pytest.raises(checks.CheckFailed, match="feedback memory"):
        checks.check_memory(replayed, perturbed)


def test_progress():
    checks.check_progress(2.30, 1.7)
    with pytest.raises(checks.CheckFailed):
        checks.check_progress(2.30, 2.30)


def test_baseline_against_the_identity_run():
    wl = workloads.TrainingWorkload("desk-fp32", 3, tiny=True)
    from co3 import trainer

    metrics, model = trainer.train(wl.config, wl.dataset)
    ds, cfg = wl.dataset, wl.config
    reference = checks.plain_sgd(
        ds.x_train, ds.y_train, model.layer_sizes, cfg.seed, cfg.eta, cfg.epochs, cfg.batch_size
    )
    checks.check_baseline(metrics.round_losses, model.weights, model.biases, reference)
    losses = list(metrics.round_losses)
    losses[-1] = np.nextafter(losses[-1], 0.0)
    with pytest.raises(checks.CheckFailed, match="round losses"):
        checks.check_baseline(losses, model.weights, model.biases, reference)
    weights = [w.copy() for w in model.weights]
    weights[1][0, 0] += 1e-12
    with pytest.raises(checks.CheckFailed, match="layer 1"):
        checks.check_baseline(metrics.round_losses, weights, model.biases, reference)


def _traced_tiny_run(name):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = workloads.WORKLOADS[name](name, 0, tiny=True)
        tracer.start_rep(0)
        _, _, _, failures = wl.run(tracer)
        tracer.flush()
    finally:
        tracer.uninstall()
    return failures + tracer.failures


def test_traced_run_is_clean():
    assert _traced_tiny_run("desk-fp4") == []


def test_traced_run_catches_a_flipped_decoded_symbol(monkeypatch):
    decode = entropy.decode

    def flipped(block, cb, symbol_count=None):
        out = decode(block, cb, symbol_count)
        out[0] = 1 if out[0] == 0 else 0
        return out

    monkeypatch.setattr(entropy, "decode", flipped)
    failures = _traced_tiny_run("desk-fp4")
    assert any("decoded symbols differ" in f for f in failures)


def test_traced_run_catches_a_perturbed_memory(monkeypatch):
    update = feedback.update

    def perturbed(state, g, g_hat):
        update(state, g, g_hat)
        state.memory[0] += 1e-9
        return state

    monkeypatch.setattr(feedback, "update", perturbed)
    assert any("differs from the replay" in f for f in _traced_tiny_run("desk-fp4"))


def test_traced_run_catches_an_extra_ledger_bit(monkeypatch):
    record_block = entropy.PayloadLedger.record_block

    def padded(self, block):
        record_block(self, block)
        self._payload_total += 1

    monkeypatch.setattr(entropy.PayloadLedger, "record_block", padded)
    assert any("check_ledger_total" in f for f in _traced_tiny_run("desk-fp4"))


def test_traced_run_catches_a_value_off_its_nearest_level(monkeypatch):
    quantize = fpq.quantize

    def shifted(x, fmt):
        q = quantize(x, fmt)
        sym = q.symbols.copy()
        sym[sym < fmt.level_count - 1] += 1
        return fpq.QuantizedTensor(sym, fmt)

    monkeypatch.setattr(fpq, "quantize", shifted)
    assert any("off their nearest level" in f for f in _traced_tiny_run("codec-wide"))
