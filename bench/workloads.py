"""The benchmark's workloads: their inputs, one repetition each, and their checks.

A training workload trains the same configuration once per repetition, so
every repetition attempts the same PS rounds and must give the same bits,
losses and accuracy. ``codec-wide`` encodes and decodes the same tensors
once per repetition, as ``co3 codec encode`` and ``co3 codec decode`` do.
README.md gives the make-up of each workload and why it was chosen.
"""

import time

import numpy as np

import checks
from co3 import datasets, distmodel, entropy, fpq, trainer

# the acceptance desk task (tests/test_acceptance.py DESK)
DESK_BLOBS = dict(n=5000, k=10, d_in=32, seed=7, n_test=1000, separation=2.4, feature_scale=0.35)
# eta 0.2 brings the desk task to its slow phase in 3 epochs, where test
# accuracy and loss vary little from one training seed to the next
DESK_TRAIN = dict(eta=0.2, epochs=3, gamma=0.9, users=1, hidden=(128, 64))

TRAINING = {
    "desk-fp4": (DESK_BLOBS, dict(DESK_TRAIN, quantizer="fp")),
    "desk-fp32": (DESK_BLOBS, dict(DESK_TRAIN, quantizer="identity")),
    "users4-iter": (
        dict(n=1200, k=10, d_in=32, seed=7, n_test=1000, separation=4.0, feature_scale=1.0),
        dict(eta=0.5, epochs=6, gamma=0.9, users=4, rebuild="iteration", hidden=(128, 64)),
    ),
}
TINY_TRAINING = dict(n=600, n_test=200, epochs=1)

# (mant_bits, exp_bits), GenNorm shape, values; the shapes keep each format's
# longest code away from the 16-bit switch between co3's two decode paths
CODEC_TENSORS = (
    ((3, 2), 0.6, 262144),
    ((3, 2), 1.0, 16384),
    ((3, 2), 1.4, 1024),
    ((3, 3), 0.6, 1024),
    ((3, 3), 1.0, 16384),
    ((3, 3), 1.4, 4096),
    ((4, 3), 0.6, 4096),
    ((4, 3), 1.0, 1024),
    ((4, 3), 1.4, 16384),
)
TINY_CODEC_VALUES = 2048
CODEC_LOG10_ALPHA = (-4.0, -1.0)

# end-to-end metrics each workload measures; the rest read NOT_MEASURED
TRAINING_METRICS = ("train_samples_per_s", "bits_per_value", "final_test_accuracy", "final_train_loss")
CODEC_METRICS = ("encode_values_per_s", "decode_values_per_s", "bits_per_value")
NOT_MEASURED = 1.0


class TrainingWorkload:
    """One fixed training configuration, trained once per repetition."""

    def __init__(self, name, seed, tiny=False):
        blobs, config = TRAINING[name]
        if tiny:
            blobs = dict(blobs, n=TINY_TRAINING["n"], n_test=TINY_TRAINING["n_test"])
            config = dict(config, epochs=TINY_TRAINING["epochs"])
        self.metrics = TRAINING_METRICS
        self.dataset = datasets.synth_blobs(
            blobs["n"],
            blobs["k"],
            blobs["d_in"],
            blobs["seed"],
            n_test=blobs["n_test"],
            separation=blobs["separation"],
            feature_scale=blobs["feature_scale"],
        )
        self.config = trainer.TrainConfig(seed=seed, **config)
        self.first = None

    def run(self, tracer):
        """Train once; returns (rounds attempted, rounds failed, results)."""
        t0 = time.perf_counter()
        metrics, model = trainer.train(self.config, self.dataset)
        elapsed = time.perf_counter() - t0
        cfg = self.config
        result = {
            "seconds": elapsed,
            "samples": metrics.rounds * cfg.users * cfg.batch_size,
            "bits_per_value": metrics.total_bits(True) / (metrics.param_count * metrics.rounds * cfg.users)
            if cfg.quantizer == "fp"
            else 8.0 * model.weights[0].itemsize,
            "final_test_accuracy": metrics.final_accuracy,
            "final_train_loss": metrics.epoch_rows[-1][2],
        }
        failures = self._check(metrics, model, tracer)
        return metrics.rounds, 0, result, failures

    def _check(self, metrics, model, tracer):
        """End-of-run checks; with a tracer also the ledger recount."""
        calls = [(checks.check_progress, (metrics.epoch_rows[0][2], metrics.epoch_rows[-1][2]))]
        if self.first is None:
            self.first = metrics
            if self.config.quantizer == "identity":
                calls.append((self._check_baseline, (metrics, model)))
        else:
            calls.append((self._check_repeat, (metrics,)))
        if tracer is not None and self.config.quantizer == "fp":
            tracer.flush()
            calls.append((checks.check_ledger_total, (metrics.total_bits(True), tracer.block_wire_bits)))
        return checks.run_checks(calls)

    def _check_repeat(self, metrics):
        if metrics.round_losses != self.first.round_losses or (
            metrics.total_bits(True) != self.first.total_bits(True)
        ):
            raise checks.CheckFailed("a repetition of the same seed gave other losses or bits")

    def _check_baseline(self, metrics, model):
        cfg = self.config
        ds = self.dataset
        reference = checks.plain_sgd(
            ds.x_train,
            ds.y_train,
            model.layer_sizes,
            cfg.seed,
            cfg.eta,
            cfg.epochs,
            cfg.batch_size,
        )
        checks.check_baseline(metrics.round_losses, model.weights, model.biases, reference)
        for key, memory in metrics.final_memory.items():
            if np.any(memory != 0.0):
                raise checks.CheckFailed(f"feedback memory {key} is not zero without a quantizer")

    @staticmethod
    def summarize(results):
        """End-to-end metrics from the repetitions' results."""
        first = results[0]
        return {
            "train_samples_per_s": float(np.median([r["samples"] / r["seconds"] for r in results])),
            "bits_per_value": first["bits_per_value"],
            "final_test_accuracy": first["final_test_accuracy"],
            "final_train_loss": first["final_train_loss"],
        }


def gennorm_values(rng, beta, alpha, size):
    """GenNorm(beta, 0, alpha) draws, rounded to float32 as co3 codec files hold them."""
    magnitude = alpha * rng.gamma(1.0 / beta, 1.0, size) ** (1.0 / beta)
    x = np.where(rng.random(size) < 0.5, -magnitude, magnitude)
    return x.astype(np.float32).astype(np.float64)


class CodecWorkload:
    """Encode then decode a fixed set of tensors, once per repetition."""

    def __init__(self, name, seed, tiny=False):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        self.metrics = CODEC_METRICS
        self.first_bits = None
        self.tensors = []
        for (mant, exp), beta, size in CODEC_TENSORS:
            alpha = 10.0 ** rng.uniform(*CODEC_LOG10_ALPHA)
            size = min(size, TINY_CODEC_VALUES) if tiny else size
            fmt = fpq.FpFormat(mant_bits=mant, exp_bits=exp)
            self.tensors.append((fmt, distmodel.GenNormParams(beta, 0.0, alpha), gennorm_values(rng, beta, alpha, size)))

    def run(self, tracer):
        """Code every tensor once; returns (tensors attempted, failed, results)."""
        enc_s = dec_s = 0.0
        values = bits = failed = 0
        failures = []
        for op, (fmt, dist, x) in enumerate(self.tensors):
            if tracer is not None:
                tracer.op = op
            try:
                t0 = time.perf_counter()
                # co3 codec encode
                bias = fpq.optimize_bias(dist, fmt)
                coded_fmt = fmt.with_bias(float(np.float32(bias)))
                probs = distmodel.cell_probabilities(dist, coded_fmt)
                codebook = entropy.build_codebook(probs)
                q = fpq.quantize(x, coded_fmt)
                data = entropy.encode(q, codebook).to_bytes()
                t1 = time.perf_counter()
                # co3 codec decode
                block = entropy.EncodedBlock.from_bytes(data)
                decoded = entropy.decode_block(block)
                out = fpq.dequantize(decoded)
                t2 = time.perf_counter()
            except (ValueError, FloatingPointError) as exc:
                failed += 1
                failures.append(f"tensor {op}: {type(exc).__name__}: {exc}")
                continue
            enc_s += t1 - t0
            dec_s += t2 - t1
            values += x.size
            bits += checks.wire_bits(len(data), block.pad_bits)
            failures += [f"tensor {op}: {msg}" for msg in self._check(x, q, probs, data, block, decoded, out)]
            if tracer is not None:
                tracer.flush()
        if self.first_bits is None:
            self.first_bits = bits
        elif bits != self.first_bits:
            failures.append(f"{bits} bits, the first repetition sent {self.first_bits}")
        result = {"encode_s": enc_s, "decode_s": dec_s, "values": values, "bits": bits}
        return len(self.tensors), failed, result, failures

    @staticmethod
    def _check(x, q, probs, data, block, decoded, out):
        levels = checks.fp_levels(block.fmt.mant_bits, block.fmt.exp_bits, block.fmt.bias)
        return checks.run_checks(
            [
                (checks.check_decoded_values, (x, out, levels)),
                (checks.check_symbols_equal, (q.symbols, decoded.symbols)),
                (checks.check_bit_recount, (decoded.symbols, block.code_lengths, block.payload_bits)),
                (checks.check_wire_total, (len(data), block.pad_bits, block.payload_bits, block.header_bits)),
                (checks.check_code_properties, (block.code_lengths, probs)),
                (checks.check_realized_entropy, (decoded.symbols, block.payload_bits)),
            ]
        )

    @staticmethod
    def summarize(results):
        values = results[0]["values"]
        return {
            "encode_values_per_s": float(np.median([values / r["encode_s"] for r in results])),
            "decode_values_per_s": float(np.median([values / r["decode_s"] for r in results])),
            "bits_per_value": results[0]["bits"] / values,
        }


WORKLOADS = {
    "desk-fp4": TrainingWorkload,
    "desk-fp32": TrainingWorkload,
    "users4-iter": TrainingWorkload,
    "codec-wide": CodecWorkload,
}
