"""Synchronous parameter-server training simulator.

A from-scratch dense ReLU network is trained by SGD across U users. Each
round runs in three steps:

1. every user computes its loss and local gradient, and from it each
   layer's quantizer input g + gamma * m, once, before any memory moves;
2. if a refresh is due, the GenNorm fit, exponent biases and codebooks are
   rebuilt from those inputs, pooled over users, by ``tensor_codec`` per
   layer, which ``co3 codec encode`` uses on a file too (at the first round
   of each epoch by default, at every round with ``rebuild="iteration"``); with
   ``keep_fit_samples`` the epoch's first refresh keeps each fitted layer's
   sample, and ``fits.csv`` fits and scores the three families on those;
3. every user quantizes the same inputs to the low-bit floating-point grid,
   Huffman-encodes the symbols, and "uplinks" the block; the server decodes
   every stream and applies the descent step
   w <- w - (eta / U) * sum of decoded gradients, reducing in ascending user
   order so runs are bitwise reproducible.

RNG discipline: weight init and sharding draw from streams keyed on the run
seed; user u's minibatch stream is keyed on seed XOR u. All streams are
disjoint SeedSequence children.

A run keeps its totals and per-epoch rows, not its per-step data. Every
step goes through module functions (``entropy.encode`` per block,
``feedback.update`` per (user, layer) memory step), so a caller that needs
the blocks or the (g, g_hat) pairs wraps those functions for the run.
"""

import csv
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import distmodel, entropy, feedback, fpq
from .datasets import shard_indices

LAYER_GROUPS = ("lower", "middle", "upper")  # thirds of the stack, input side first
_EVAL_BATCH = 1024  # samples per forward pass when evaluating a whole split


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


class Model:
    """Dense ReLU layers with a softmax head; parameters in full precision.

    Weights start uniform in +-1/sqrt(fan_in); biases start at zero. One
    "layer" for compression purposes is the concatenation of a weight matrix
    and its bias vector.
    """

    def __init__(self, layer_sizes, rng):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        if min(self.layer_sizes) < 1:
            raise ValueError(f"every layer needs at least one unit, got sizes {self.layer_sizes}")
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out, dtype=np.float64))

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def param_count(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def layer_param_count(self, layer_idx):
        return self.weights[layer_idx].size + self.biases[layer_idx].size

    def _activations(self, x):
        """Every layer's output, input first and logits last; the one forward pass."""
        a = np.asarray(x, dtype=np.float64)
        acts = [a]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            if not np.all(np.isfinite(z)):
                raise ValueError(f"non-finite activations in layer {i}")
            a = np.maximum(z, 0.0) if i < self.n_layers - 1 else z
            acts.append(a)
        return acts

    def _log_probs(self, x, y):
        """(activations, log-softmax, mean cross-entropy) of a labelled batch."""
        y = np.asarray(y)
        if y.size == 0:
            raise ValueError("empty batch")
        k = self.layer_sizes[-1]
        if y.min() < 0 or y.max() >= k:
            raise ValueError(f"label out of range [0, {k}): {int(y.max())}")
        acts = self._activations(x)
        shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return acts, logp, float(-logp[np.arange(y.size), y].mean())

    def forward(self, x):
        """Class probabilities; softmax rows sum to 1."""
        logits = self._activations(x)[-1]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def loss_and_grads(self, x, y):
        """Mean cross-entropy over the batch and exact per-layer flat gradients."""
        acts, logp, loss = self._log_probs(x, y)
        n = logp.shape[0]
        delta = np.exp(logp)
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grads = [None] * self.n_layers
        for i in range(self.n_layers - 1, -1, -1):
            gw = acts[i].T @ delta
            gb = delta.sum(axis=0)
            grads[i] = np.concatenate((gw.ravel(), gb))
            if i > 0:
                delta = delta @ self.weights[i].T
                delta[acts[i] <= 0.0] = 0.0
        return loss, grads

    def sgd_step(self, layer_grads, scale):
        """w <- w - scale * g per layer, from flat gradient vectors."""
        for i, flat in enumerate(layer_grads):
            w = self.weights[i]
            step = scale * flat
            w -= step[: w.size].reshape(w.shape)
            self.biases[i] -= step[w.size :]

    def accuracy(self, x, y):
        hits = 0
        for i in range(0, len(y), _EVAL_BATCH):
            probs = self.forward(x[i : i + _EVAL_BATCH])
            hits += int(np.count_nonzero(probs.argmax(axis=1) == y[i : i + _EVAL_BATCH]))
        return hits / len(y)

    def dataset_loss(self, x, y):
        total = 0.0
        for i in range(0, len(y), _EVAL_BATCH):
            yb = y[i : i + _EVAL_BATCH]
            total += self._log_probs(x[i : i + _EVAL_BATCH], yb)[2] * len(yb)
        return total / len(y)


def epoch_batches(rng, n, batch_size):
    """Without-replacement minibatch index chunks for one epoch."""
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.01
    gamma: float = 0.9
    epochs: int = 30
    users: int = 1
    batch_size: int = 64
    fmt: fpq.FpFormat = fpq.FP4
    seed: int = 0
    quantizer: str = "fp"  # "fp" | "identity" (bypasses quantization and coding)
    bias_mode: str = "optimize"  # "optimize" | "polynomial"
    rebuild: str = "epoch"  # fit/bias/codebook cadence: "epoch" | "iteration"
    hidden: tuple = (128, 64)
    keep_fit_samples: bool = False

    def __post_init__(self):
        counts = (self.users, self.epochs, self.batch_size, self.seed, *self.hidden)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in counts):
            raise ValueError(f"users, epochs, batch_size, seed and hidden sizes must be integers, got {counts}")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (self.eta, self.gamma)):
            raise ValueError(f"eta and gamma must be real numbers, got {self.eta!r} and {self.gamma!r}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.users < 1 or self.epochs < 0 or self.batch_size < 1 or self.seed < 0:
            raise ValueError("users >= 1, epochs >= 0, batch_size >= 1, seed >= 0 required")
        if self.quantizer not in ("fp", "identity"):
            raise ValueError(f"unknown quantizer {self.quantizer!r}")
        if self.bias_mode not in ("optimize", "polynomial"):
            raise ValueError(f"unknown bias_mode {self.bias_mode!r}")
        if self.fmt.bias != 0.0:
            raise ValueError(f"fmt must have bias 0, got {self.fmt.bias}: every refresh chooses the bias")
        if self.bias_mode == "polynomial" and self.fmt != fpq.FP4:
            raise ValueError("bias_mode 'polynomial' is fitted for FP4 [1,2,1] only")
        if self.rebuild not in ("epoch", "iteration"):
            raise ValueError(f"unknown rebuild cadence {self.rebuild!r}")
        if not all(h >= 1 for h in self.hidden):
            raise ValueError(f"hidden layer sizes must be >= 1, got {self.hidden}")


@dataclass
class RunMetrics:
    """Everything a run produces besides the model itself: totals, per-epoch rows and final memories."""

    config: TrainConfig
    param_count: int
    epoch_rows: list = field(default_factory=list)  # epoch, gamma, train_loss, test_acc, cum_bits
    norm_rows: list = field(default_factory=list)  # epoch, group, l1_gradient, l1_memory
    round_losses: list = field(default_factory=list)
    ledger: entropy.PayloadLedger = field(default_factory=entropy.PayloadLedger)
    final_memory: dict = field(default_factory=dict)
    fit_samples: dict = field(default_factory=dict)  # (epoch, layer) -> float64 array
    saturated: int = 0
    fit_fallbacks: int = 0  # (refresh, layer) pairs whose GenNorm fit failed and fell back
    wall_time: float = 0.0

    @property
    def rounds(self):
        return len(self.round_losses)

    @property
    def final_accuracy(self):
        return self.epoch_rows[-1][3]

    def total_bits(self, include_headers=True):
        return self.ledger.total(include_headers)

    def bits_per_param_per_round(self):
        denom = self.param_count * max(1, self.rounds) * self.config.users
        return self.total_bits() / denom

    def write(self, outdir):
        """metrics.csv / fits.csv / norms.csv / summary.txt (+ fit samples)."""
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "metrics.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "gamma", "train_loss", "test_accuracy", "cum_bits"])
            for row in self.epoch_rows:
                w.writerow([row[0], row[1], repr(row[2]), repr(row[3]), row[4]])
        write_fits(out / "fits.csv", fit_table(self.fit_samples))
        with open(out / "norms.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "layer_group", "l1_gradient", "l1_memory"])
            for row in self.norm_rows:
                w.writerow(row)
        with open(out / "summary.txt", "w") as fh:
            for f in fields(self.config):
                fh.write(f"config.{f.name}: {getattr(self.config, f.name)}\n")
            fh.write(f"param_count: {self.param_count}\n")
            fh.write(f"rounds: {self.rounds}\n")
            fh.write(f"total_uplink_bits: {self.total_bits()}\n")
            fh.write(f"payload_bits: {self.ledger.payload_total}\n")
            fh.write(f"header_bits: {self.ledger.header_total}\n")
            fh.write(f"bits_per_param_per_round: {self.bits_per_param_per_round():.6f}\n")
            fh.write(f"final_test_accuracy: {self.final_accuracy:.6f}\n")
            fh.write(f"saturated_entries: {self.saturated}\n")
            fh.write(f"fit_fallbacks: {self.fit_fallbacks}\n")
            fh.write(f"wall_time_s: {self.wall_time:.3f}\n")
        if self.fit_samples:
            sampledir = out / "samples"
            sampledir.mkdir(exist_ok=True)
            for (epoch, layer), arr in self.fit_samples.items():
                np.save(sampledir / f"epoch{epoch:04d}_layer{layer}.npy", arr)


def fit_table(samples):
    """fits.csv rows (epoch, layer, family, beta, mu, scale, w2): ``fit_all`` of each sample of the dict ``samples``, in numeric (epoch, layer) order."""
    return [
        (epoch, layer, r.family, r.beta, r.mu, r.scale, r.w2)
        for (epoch, layer), values in sorted(samples.items())
        for r in distmodel.fit_all(values)
    ]


def write_fits(path, rows):
    """Write fit rows as fits.csv, floats in repr so they read back exactly."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "layer", "family", "beta", "mu", "alpha_or_scale", "w2"])
        for row in rows:
            w.writerow(row[:3] + tuple(repr(v) for v in row[3:]))


_FALLBACK_ALPHA = 1e-8
FIT_SAMPLE_CAP = 200_000  # values per layer fit; larger pooled layers are subsampled evenly


def fit_sample(values):
    """The values a fit takes: all of them, or ``FIT_SAMPLE_CAP`` evenly spaced ones."""
    if values.size <= FIT_SAMPLE_CAP:
        return values
    idx = np.linspace(0, values.size - 1, FIT_SAMPLE_CAP).astype(np.int64)
    return values[idx]


def _fit_layer(samples, previous):
    """(GenNorm, whether it was fitted) of one layer.

    A sample that ``fit_gennorm`` rejects with a typed error falls back to
    ``previous``, the layer's last GenNorm, or without one to a narrow Normal
    (at zero for an empty sample). Its standard deviation is at least
    |mean| / 2**51, so the bias search accepts it.
    """
    try:
        return distmodel.fit_gennorm(samples), True
    except (distmodel.DegenerateSampleError, distmodel.InsufficientDataError):
        if previous is not None:
            return previous, False
        mean, sd = distmodel.mean_std(samples) if samples.size else (0.0, 0.0)
        sd = max(sd, _FALLBACK_ALPHA, 2.0 * abs(mean) / distmodel.MAX_MU_SIGMAS)
        alpha = min(sd * math.sqrt(2.0), sys.float_info.max)
        return distmodel.GenNormParams(2.0, mean, alpha), False


def tensor_codec(samples, fmt, previous=None, bias_mode="optimize"):
    """(format at the chosen bias, codebook, GenNorm, whether it was fitted) for the values ``samples``.

    The codec of one layer at a refresh, and of a ``co3 codec encode`` file:
    the GenNorm fit of ``_fit_layer`` (falling back to ``previous`` or a
    narrow Normal), the exponent bias of ``bias_mode`` ("optimize" or
    "polynomial") rounded to the float32 the block header carries, and the
    Huffman codebook of the fitted model's cell probabilities at that bias.
    """
    gn, fitted = _fit_layer(samples, previous)
    if bias_mode == "optimize":
        b = fpq.optimize_bias(gn, fmt)
    else:
        b = fpq.bias_polynomial(gn.beta, gn.sigma)
    # f32 so header-derived levels match encoder-side levels exactly
    fmt = fmt.with_bias(float(np.float32(b)))
    return fmt, entropy.build_codebook(distmodel.cell_probabilities(gn, fmt)), gn, fitted


def _refresh(inputs, epoch, metrics, previous, first_of_epoch):
    """(format, codebook, GenNorm) per layer, refitted from this round's quantizer inputs ``inputs[u][layer]``, pooled over users.

    A layer that cannot be fitted keeps its GenNorm from ``previous``, the
    last refresh's list, and counts as a fit fallback. Only the epoch's first
    refresh keeps fit samples, and only of the layers it fitted.
    """
    cfg = metrics.config
    codecs = []
    for layer in range(len(inputs[0])):
        samples = fit_sample(np.concatenate([user[layer] for user in inputs]))
        fmt, cb, gn, fitted = tensor_codec(samples, cfg.fmt, previous[layer][2] if previous else None, cfg.bias_mode)
        metrics.fit_fallbacks += not fitted
        if fitted and first_of_epoch and cfg.keep_fit_samples:
            metrics.fit_samples[(epoch, layer)] = samples
        codecs.append((fmt, cb, gn))
    return codecs


def run_round(model, losses, user_grads, inputs, states, codecs, t, metrics, norm_sums):
    """One synchronous PS round from every user's quantizer inputs: encode, uplink, decode, EF, descent.

    ``codecs`` is the last refresh's list (None without a quantizer). Adds each
    layer's (l1 gradient, l1 memory) to its row of ``norm_sums``.
    """
    config = metrics.config
    bypass = config.quantizer == "identity"
    totals = [np.zeros(model.layer_param_count(l)) for l in range(model.n_layers)]
    for u, grads in enumerate(user_grads):
        for layer, g in enumerate(grads):
            state = states[(u, layer)]
            v = inputs[u][layer]
            if bypass:
                g_hat = v
                decoded = v
            else:
                fmt, cb, _ = codecs[layer]
                q = fpq.quantize(v, fmt)
                metrics.saturated += fpq.count_saturated(v, fmt)
                block = entropy.encode(q, cb, user_id=u, iteration=t, layer_id=layer)
                metrics.ledger.record_block(block)
                g_hat = fpq.dequantize(q)
                symbols = entropy.decode(block, cb)  # the PS-side inverse mapping
                decoded = fpq.dequantize(fpq.QuantizedTensor(symbols, fmt))
            feedback.update(state, g, g_hat)
            norm_sums[layer] += feedback.norms(state, g)
            totals[layer] += decoded
    loss_mean = float(np.mean(losses))
    if not math.isfinite(loss_mean):
        raise DivergenceError(f"training loss became non-finite at iteration {t}")
    model.sgd_step(totals, config.eta / config.users)
    return loss_mean


def train(config, dataset):
    """Run the full pipeline; deterministic given (config, dataset)."""
    t_start = time.perf_counter()
    init_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    model = Model([dataset.n_features, *config.hidden, dataset.n_classes], init_rng)
    metrics = RunMetrics(config=config, param_count=model.param_count)

    n_train = len(dataset.y_train)
    shard_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    shards = shard_indices(n_train, config.users, shard_rng)
    data_rngs = [np.random.default_rng(np.random.SeedSequence([config.seed ^ u, 1])) for u in range(config.users)]
    if min(s.size for s in shards) == 0:
        raise ValueError(f"{config.users} users need at least one training sample each, got {n_train} samples")

    states = {
        (u, layer): feedback.init_state(model.layer_param_count(layer), config.gamma)
        for u in range(config.users)
        for layer in range(model.n_layers)
    }
    codecs = None
    bypass = config.quantizer == "identity"
    thirds = np.array_split(np.arange(model.n_layers), 3)
    groups = [(name, members) for name, members in zip(LAYER_GROUPS, thirds) if members.size]

    metrics.epoch_rows.append(
        (
            0,
            config.gamma,
            model.dataset_loss(dataset.x_train, dataset.y_train),
            model.accuracy(dataset.x_test, dataset.y_test),
            0,
        )
    )

    t = 0
    for epoch in range(1, config.epochs + 1):
        all_batches = [
            epoch_batches(data_rngs[u], shards[u].size, config.batch_size)
            for u in range(config.users)
        ]
        rounds = min(len(b) for b in all_batches)
        norm_sums = np.zeros((model.n_layers, 2))
        epoch_losses = []
        for r in range(rounds):
            idxs = [shards[u][all_batches[u][r]] for u in range(config.users)]
            losses, grads = zip(*(model.loss_and_grads(dataset.x_train[i], dataset.y_train[i]) for i in idxs))
            inputs = [
                [feedback.corrected_input(states[(u, layer)], g) for layer, g in enumerate(grads[u])]
                for u in range(config.users)
            ]
            if not bypass and (r == 0 or config.rebuild == "iteration"):
                codecs = _refresh(inputs, epoch, metrics, codecs, first_of_epoch=r == 0)
            loss = run_round(model, losses, grads, inputs, states, codecs, t, metrics, norm_sums)
            epoch_losses.append(loss)
            metrics.round_losses.append(loss)
            t += 1
        for group, members in groups:
            g_sum, m_sum = norm_sums[members].sum(axis=0)
            count = members.size * rounds * config.users
            metrics.norm_rows.append((epoch, group, float(g_sum / count), float(m_sum / count)))
        metrics.epoch_rows.append(
            (
                epoch,
                config.gamma,
                float(np.mean(epoch_losses)),
                model.accuracy(dataset.x_test, dataset.y_test),
                metrics.total_bits(),
            )
        )

    for key, state in states.items():
        metrics.final_memory[key] = state.memory
    metrics.wall_time = time.perf_counter() - t_start
    return metrics, model
