"""Span tracing of co3 from outside, by wrapping the public functions of each module.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper that
records a span (name, start, end, parent span, rep, operation) and hands the
call's arguments and result to the tracer's capture hooks; ``uninstall``
puts the originals back. Nothing under ``src/co3`` changes: the program calls
these functions through module attributes, so it calls the wrappers.

Spans stay in memory and are written out at the end. Spans of one PS round,
or of one codec tensor, share an operation number. The capture hooks keep
references only; the checks they feed run in ``flush``, after the round or
tensor, outside every layer span, and the time they take is kept apart so
that it can be subtracted from the traced run's throughput.
"""

import functools
import json
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

import checks
from co3 import datasets, distmodel, entropy, feedback, fpq, trainer

LONG_CODE = 16  # co3.entropy decodes codes longer than this bit by bit

# (owner, attribute, span name); methods of Model and EncodedBlock included
TRACED = (
    (trainer, "run_round", "trainer.run_round"),
    (trainer.Model, "loss_and_grads", "trainer.loss_and_grads"),
    (trainer.Model, "sgd_step", "trainer.sgd_step"),
    (trainer.Model, "accuracy", "trainer.eval"),
    (trainer.Model, "dataset_loss", "trainer.eval"),
    (feedback, "corrected_input", "feedback.corrected_input"),
    (feedback, "update", "feedback.update"),
    (feedback, "norms", "feedback.norms"),
    (fpq, "quantize", "fpq.quantize"),
    (fpq, "dequantize", "fpq.dequantize"),
    (fpq, "count_saturated", "fpq.count_saturated"),
    (fpq, "optimize_bias", "fpq.optimize_bias"),
    (fpq, "bias_objective", "fpq.bias_objective"),
    (entropy, "build_codebook", "entropy.build_codebook"),
    (entropy, "encode", "entropy.encode"),
    (entropy, "decode", "entropy.decode"),
    (entropy, "decode_block", "entropy.decode_block"),
    (entropy.EncodedBlock, "to_bytes", "entropy.to_bytes"),
    (entropy.EncodedBlock, "from_bytes", "entropy.from_bytes"),
    (distmodel, "fit_all", "distmodel.fit_all"),
    (distmodel, "fit_gennorm", "distmodel.fit_gennorm"),
    (distmodel, "w2_distance", "distmodel.w2_distance"),
    (distmodel, "gennorm_ppf", "distmodel.gennorm_ppf"),
    (distmodel, "gennorm_cdf", "distmodel.gennorm_cdf"),
    (distmodel, "cell_probabilities", "distmodel.cell_probabilities"),
    (datasets, "synth_blobs", "datasets.synth_blobs"),
)

# per-layer metric -> span names whose durations it sums, per rep
TIME_METRICS = {
    "entropy.decode.s": ("entropy.decode",),
    "entropy.encode.s": ("entropy.encode",),
    "fpq.quantize.s": ("fpq.quantize",),
    "fpq.dequantize.s": ("fpq.dequantize",),
    "fpq.count_saturated.s": ("fpq.count_saturated",),
    "entropy.wire.s": ("entropy.to_bytes", "entropy.from_bytes"),
    "distmodel.fit_all.s": ("distmodel.fit_all",),
    "distmodel.w2_distance.s": ("distmodel.w2_distance",),
    "distmodel.gennorm_ppf.s": ("distmodel.gennorm_ppf",),
    "distmodel.fit_gennorm.s": ("distmodel.fit_gennorm",),
    "fpq.optimize_bias.s": ("fpq.optimize_bias",),
    "entropy.build_codebook.s": ("entropy.build_codebook",),
    "distmodel.cell_probabilities.s": ("distmodel.cell_probabilities",),
    "trainer.loss_and_grads.s": ("trainer.loss_and_grads",),
    "trainer.eval.s": ("trainer.eval",),
    "trainer.sgd_step.s": ("trainer.sgd_step",),
    "trainer.run_round.s": ("trainer.run_round",),
    "feedback.s": ("feedback.corrected_input", "feedback.update", "feedback.norms"),
}
CALL_METRICS = {
    "distmodel.fit_all.calls": "distmodel.fit_all",
    "distmodel.gennorm_cdf.calls": "distmodel.gennorm_cdf",
    "fpq.optimize_bias.calls": "fpq.optimize_bias",
    "fpq.bias_objective.calls": "fpq.bias_objective",
    "trainer.loss_and_grads.calls": "trainer.loss_and_grads",
}
SETUP_REP = -1


class Tracer:
    """Spans, per-rep counters and deferred output checks for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, rep, op]
        self._stack = []
        self._originals = []
        self.rep = SETUP_REP
        self.op = 0
        self.counts = defaultdict(Counter)  # rep -> counter name -> value
        self.failures = []
        self.check_time = defaultdict(float)  # rep -> seconds spent in flush
        self._pending = []
        self._expected_len = {}  # id(codebook) -> expected length under its probabilities
        self._replay = {}  # id(feedback state) -> replayed memory
        self._sent = {}  # id(block) -> symbols the quantizer produced
        self.block_wire_bits = []  # this rep's serialized-block bit counts
        self.largest_block = None  # (payload bits, block, codebook)
        self.original = {}

    # ------------------------------------------------------------------
    # installing the wrappers

    def install(self):
        hooks = {
            "trainer.run_round": self._after_round,
            "fpq.quantize": self._after_quantize,
            "fpq.count_saturated": self._after_count_saturated,
            "entropy.build_codebook": self._after_build_codebook,
            "entropy.encode": self._after_encode,
            "entropy.decode": self._after_decode,
            "feedback.update": self._after_update,
        }
        for owner, attr, name in TRACED:
            raw = owner.__dict__[attr]
            bound = getattr(owner, attr)
            self._originals.append((owner, attr, raw))
            self.original[name] = bound
            wrapped = self._wrap(name, bound, hooks.get(name))
            if isinstance(raw, classmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        fallback = name == "distmodel.fit_all"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except (distmodel.DegenerateSampleError, distmodel.InsufficientDataError):
                if fallback:
                    self.counts[self.rep]["distmodel.fit_all.fallbacks"] += 1
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook:
                hook(out, *args)
            return out

        return traced

    # ------------------------------------------------------------------
    # capture hooks: keep references, count, and queue checks

    def _after_round(self, out, *args):
        self.flush()
        self.op += 1

    def _after_quantize(self, q, x, fmt):
        self._pending.append((self._check_quantize, (x, q.symbols, fmt)))

    def _after_count_saturated(self, n, *args):
        self.counts[self.rep]["fpq.saturated"] += n

    def _after_build_codebook(self, cb, probs):
        probs = [float(p) for p in probs]
        self._expected_len[id(cb)] = float(sum(p * l for p, l in zip(probs, cb.code_lengths)))
        self._pending.append((checks.check_code_properties, (cb.code_lengths, probs)))

    def _after_encode(self, block, q, cb, **kwargs):
        c = self.counts[self.rep]
        c["entropy.payload_bits"] += block.payload_bits
        c["entropy.header_bits"] += block.header_bits
        c["model_bits"] += block.symbol_count * self._expected_len[id(cb)]
        self._pending.append((self._check_encoded, (block, q.symbols)))

    def _after_decode(self, symbols, block, cb, *args):
        c = self.counts[self.rep]
        c["entropy.decode.symbols"] += symbols.size
        c["entropy.decode.long_code_blocks"] += cb.max_length > LONG_CODE
        if self.largest_block is None or block.payload_bits > self.largest_block[0]:
            self.largest_block = (block.payload_bits, block, cb)
        self._pending.append((self._check_decoded, (block, cb, symbols)))

    def _after_update(self, state, *args):
        _, g, g_hat = args
        self._pending.append((self._check_update, (state, g, g_hat, state.memory)))

    # ------------------------------------------------------------------
    # deferred checks

    def flush(self):
        """Run the queued checks; their time is kept out of every layer span."""
        t0 = time.perf_counter()
        pending, self._pending = self._pending, []
        self.failures += [f"rep {self.rep} op {self.op}: {m}" for m in checks.run_checks(pending)]
        self.check_time[self.rep] += time.perf_counter() - t0

    def _check_quantize(self, x, symbols, fmt):
        levels = checks.fp_levels(fmt.mant_bits, fmt.exp_bits, fmt.bias)
        checks.check_nearest_levels(x, symbols, levels)

    def _check_encoded(self, block, symbols):
        self._sent[id(block)] = symbols
        data = self.original["entropy.to_bytes"](block)
        checks.check_wire_total(len(data), block.pad_bits, block.payload_bits, block.header_bits)
        self.block_wire_bits.append(checks.wire_bits(len(data), block.pad_bits))

    def _check_decoded(self, block, cb, symbols):
        sent = self._sent.pop(id(block), None)
        if sent is not None:
            checks.check_symbols_equal(sent, symbols)
        checks.check_bit_recount(symbols, cb.code_lengths, block.payload_bits)
        checks.check_realized_entropy(symbols, block.payload_bits)

    def _check_update(self, state, g, g_hat, memory_after):
        replayed = self._replay.get(id(state))
        if replayed is None:
            replayed = np.zeros_like(memory_after)  # every state starts from zero memory
        replayed = checks.feedback_step(state.gamma, replayed, g, g_hat)
        self._replay[id(state)] = replayed
        checks.check_memory(replayed, memory_after)

    # ------------------------------------------------------------------
    # reps and results

    def start_rep(self, rep):
        self.flush()
        self.rep = rep
        self.op = 0
        self._replay.clear()
        self._sent = {}
        self.block_wire_bits = []

    def decode_peak_mb(self):
        """Peak traced memory of one decode of the largest block decoded."""
        if self.largest_block is None:
            return 0.0
        _, block, cb = self.largest_block
        tracemalloc.start()
        try:
            self.original["entropy.decode"](block, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1e6

    def per_rep(self, reps):
        """Per-rep totals of every time metric (and run_round self time)."""
        totals = {r: Counter() for r in reps}
        child = Counter()
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for idx, (name, t0, t1, parent, rep, op) in enumerate(self.spans):
            if rep in totals:
                totals[rep][name] += t1 - t0
                totals[rep][name + "#calls"] += 1
                if name == "trainer.run_round":
                    totals[rep]["trainer.run_round.self_s"] += (t1 - t0) - child[idx]
        return totals

    def layer_metrics(self, reps):
        """Every per-layer metric: medians over reps for times, per-rep counts."""
        totals = self.per_rep(reps)
        out = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = statistics.median(sum(totals[r][n] for n in names) for r in reps)
        out["trainer.run_round.self_s"] = statistics.median(
            totals[r]["trainer.run_round.self_s"] for r in reps
        )
        per_rep_counts = []
        for r in reps:
            c = {m: totals[r][n + "#calls"] for m, n in CALL_METRICS.items()}
            for m in (
                "distmodel.fit_all.fallbacks",
                "entropy.decode.symbols",
                "entropy.decode.long_code_blocks",
                "entropy.payload_bits",
                "entropy.header_bits",
                "fpq.saturated",
            ):
                c[m] = self.counts[r][m]
            model_bits = self.counts[r]["model_bits"]
            c["entropy.bits_over_model"] = self.counts[r]["entropy.payload_bits"] / model_bits if model_bits else 0.0
            per_rep_counts.append(c)
        for r, c in zip(reps[1:], per_rep_counts[1:]):
            if c != per_rep_counts[0]:
                diff = sorted(k for k in c if c[k] != per_rep_counts[0][k])
                self.failures.append(f"rep {r}: counts differ from rep {reps[0]}: {diff}")
        out.update(per_rep_counts[0])
        out["entropy.decode.peak_mb"] = self.decode_peak_mb()
        out["datasets.synth_blobs.s"] = sum(
            rec[2] - rec[1] for rec in self.spans if rec[0] == "datasets.synth_blobs"
        )
        return out

    def write_spans(self, path, reps=(SETUP_REP, 0)):
        """Write the spans of set-up and of the first rep; later reps repeat its calls."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, rep, op) in enumerate(self.spans):
                if rep not in reps:
                    continue
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "rep": rep, "op": op}
                    )
                    + "\n"
                )
