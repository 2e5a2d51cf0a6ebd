"""Correctness checks for the co3 benchmark, computed apart from the program.

Every check recomputes what an output must be from the method's definition
(the float grid, prefix-code theory, the feedback recursion, plain SGD) or
from a property the method must have. None imports co3 and none compares
against a stored copy of earlier output. A failed check raises
``CheckFailed`` with a message naming what differed.
"""

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is not what the method requires."""


def run_checks(calls):
    """Run (check, args) pairs; return one message per failed check."""
    failures = []
    for check, args in calls:
        try:
            check(*args)
        except CheckFailed as exc:
            failures.append(f"{check.__name__}: {exc}")
    return failures


def fp_levels(mant_bits, exp_bits, bias):
    """Ascending level set of the sign/mantissa/exponent grid.

    Exponent field E = 0 gives the subnormals f / 2**m; E >= 1 gives
    (1 + f / 2**m) * 2**(E - 1), for fraction fields f = 0 .. 2**m - 1. Every
    magnitude is scaled by 2**bias, and +0 / -0 are one level, so there are
    2**(1 + m + e) - 1 levels.
    """
    f = np.arange(2**mant_bits, dtype=np.float64) / 2**mant_bits
    mags = [f]
    for e_field in range(1, 2**exp_bits):
        mags.append((1.0 + f) * 2.0 ** (e_field - 1))
    mags = np.concatenate(mags) * 2.0**bias
    levels = np.concatenate((-mags[:0:-1], mags))
    if not np.all(np.diff(levels) > 0):
        raise CheckFailed(f"grid ({mant_bits}, {exp_bits}, {bias}) is not strictly increasing")
    return levels


def _nearest_distance(x, levels):
    hi = np.clip(np.searchsorted(levels, x), 1, levels.size - 1)
    return np.minimum(np.abs(x - levels[hi - 1]), np.abs(levels[hi] - x))


def check_nearest_levels(x, symbols, levels):
    """Each symbol indexes a level nearest to its input (a tie may go either way)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    sym = np.asarray(symbols).ravel()
    if sym.size != x.size:
        raise CheckFailed(f"{sym.size} symbols for {x.size} inputs")
    if sym.size and (sym.min() < 0 or sym.max() >= levels.size):
        raise CheckFailed(f"symbol outside the {levels.size}-level alphabet")
    chosen = levels[sym]
    d = np.abs(x - chosen)
    tol = 4 * np.spacing(np.maximum(np.abs(x), np.abs(chosen)))
    bad = np.flatnonzero(d > _nearest_distance(x, levels) + tol)
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(
            f"{bad.size} values off their nearest level; first: input {x[i]!r} -> {chosen[i]!r}"
        )


def check_decoded_values(x, values, levels):
    """Decoded values are grid levels, each a nearest level of its input."""
    v = np.asarray(values, dtype=np.float64).ravel()
    hi = np.clip(np.searchsorted(levels, v), 1, levels.size - 1)
    sym = np.where(np.abs(levels[hi] - v) < np.abs(v - levels[hi - 1]), hi, hi - 1)
    off = np.abs(levels[sym] - v) > 4 * np.spacing(np.abs(v))
    if off.any():
        raise CheckFailed(f"{int(off.sum())} decoded values are not grid levels")
    check_nearest_levels(x, sym, levels)


def check_symbols_equal(expected, decoded):
    """The decoder returned exactly the symbols the quantizer produced."""
    expected = np.asarray(expected).ravel()
    decoded = np.asarray(decoded).ravel()
    if expected.shape != decoded.shape:
        raise CheckFailed(f"decoded {decoded.size} symbols, expected {expected.size}")
    bad = np.flatnonzero(expected != decoded)
    if bad.size:
        raise CheckFailed(f"{bad.size} decoded symbols differ; first at index {int(bad[0])}")


def check_bit_recount(symbols, code_lengths, payload_bits):
    """Payload bits equal the summed code lengths of the symbols."""
    recount = int(np.asarray(code_lengths, dtype=np.int64)[np.asarray(symbols).ravel()].sum())
    if recount != payload_bits:
        raise CheckFailed(f"payload declares {payload_bits} bits, code lengths sum to {recount}")


def wire_bits(n_bytes, pad_bits):
    """Bits a serialized block carries: its bytes less the final pad."""
    return 8 * n_bytes - pad_bits


def check_wire_total(n_bytes, pad_bits, payload_bits, header_bits):
    """A serialized block is exactly its header plus its payload plus the pad."""
    if wire_bits(n_bytes, pad_bits) != payload_bits + header_bits:
        raise CheckFailed(
            f"{n_bytes} bytes less {pad_bits} pad bits != {payload_bits} payload + {header_bits} header bits"
        )


def check_ledger_total(ledger_total, block_wire_bits):
    """The run's bit ledger equals the recount over the serialized blocks."""
    recount = int(sum(block_wire_bits))
    if ledger_total != recount:
        raise CheckFailed(f"ledger total {ledger_total} != {recount} bits recounted from bytes")


def entropy_bits(p):
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def check_code_properties(code_lengths, probs):
    """Kraft equality, and H(p) <= expected length < H(p) + 1 (Huffman bounds)."""
    lengths = [int(l) for l in code_lengths]
    if len(lengths) != len(probs):
        raise CheckFailed(f"{len(lengths)} code lengths for {len(probs)} probabilities")
    top = max(lengths)
    if sum(1 << (top - l) for l in lengths) != 1 << top:
        raise CheckFailed("code lengths violate Kraft equality")
    mean_len = float(np.dot(np.asarray(probs, dtype=np.float64), lengths))
    h = entropy_bits(probs)
    if not h - 1e-9 <= mean_len < h + 1.0:
        raise CheckFailed(f"expected length {mean_len:.6f} outside [H, H + 1) with H = {h:.6f}")


def check_realized_entropy(symbols, payload_bits):
    """No prefix code spends fewer bits than the symbols' empirical entropy."""
    sym = np.asarray(symbols).ravel()
    if sym.size == 0:
        return
    counts = np.bincount(sym)
    bound = sym.size * entropy_bits(counts / sym.size)
    if payload_bits < bound * (1 - 1e-12):
        raise CheckFailed(f"{payload_bits} payload bits below the empirical-entropy bound {bound:.3f}")


def feedback_step(gamma, memory, g, g_hat):
    """One step of the decayed feedback recursion m <- (gamma * m + g) - g_hat."""
    return (gamma * memory + g) - g_hat


def check_memory(replayed, memory):
    """The program's feedback memory equals the replay, bit for bit."""
    if replayed.shape != memory.shape or not np.array_equal(replayed, memory):
        diff = np.flatnonzero(replayed.ravel() != np.asarray(memory).ravel())
        raise CheckFailed(f"feedback memory differs from the replay at {diff.size} entries")


def check_progress(first_loss, last_loss):
    if not last_loss < first_loss:
        raise CheckFailed(f"final loss {last_loss!r} is not below the epoch-0 loss {first_loss!r}")


# ----------------------------------------------------------------------
# plain SGD reference for the uncompressed baseline


def _mlp_loss_and_grads(weights, biases, x, y):
    acts = [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if i < len(weights) - 1 else z)
    shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(y.size)
    loss = float(-logp[rows, y].mean())
    delta = np.exp(logp)
    delta[rows, y] -= 1.0
    delta /= y.size
    grads = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i:
            delta = delta @ weights[i].T
            delta[acts[i] <= 0.0] = 0.0
    return loss, grads


def plain_sgd(x, y, layer_sizes, seed, eta, epochs, batch_size):
    """Single-worker minibatch SGD on a dense ReLU net with a softmax head.

    Uses the seed streams co3.trainer documents: weights are drawn uniform in
    +-1/sqrt(fan_in) from SeedSequence([seed, 0]), biases start at zero, and
    each epoch's batch order is a permutation from SeedSequence([seed ^ 0, 1]).
    With one user the shard is the whole training set. Returns the per-round
    losses and the final weights and biases.
    """
    init = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(init.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    order = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    losses = []
    for _ in range(epochs):
        perm = order.permutation(y.size)
        for start in range(0, y.size, batch_size):
            idx = perm[start : start + batch_size]
            loss, grads = _mlp_loss_and_grads(weights, biases, x[idx], y[idx])
            losses.append(loss)
            for i, (gw, gb) in enumerate(grads):
                weights[i] -= eta * gw
                biases[i] -= eta * gb
    return losses, weights, biases


def check_baseline(round_losses, weights, biases, reference):
    """Round losses and final parameters equal the plain-SGD reference bit for bit."""
    ref_losses, ref_w, ref_b = reference
    if len(round_losses) != len(ref_losses):
        raise CheckFailed(f"{len(round_losses)} rounds, plain SGD ran {len(ref_losses)}")
    bad = [i for i, (a, b) in enumerate(zip(round_losses, ref_losses)) if a != b]
    if bad:
        raise CheckFailed(f"{len(bad)} round losses differ from plain SGD; first at round {bad[0]}")
    for i, (w, b, rw, rb) in enumerate(zip(weights, biases, ref_w, ref_b)):
        if not (np.array_equal(w, rw) and np.array_equal(b, rb)):
            raise CheckFailed(f"layer {i} parameters differ from plain SGD")
