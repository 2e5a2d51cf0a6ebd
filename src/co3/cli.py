"""Command-line interface: training runs, plot-data sweeps, file codec.

Subcommands: train, bias-sweep, fit-dist, codec, report. All outputs are
plot-ready CSV plus a key:value summary; nothing needs to be scraped from
logs. Config precedence is defaults < --config JSON file < command-line
flags, and the CO3_OUT environment variable overrides --out. ``codec
encode`` builds a file's codec as a training refresh builds a layer's
(``trainer.tensor_codec``): the GenNorm model comes from the file, and the
line it prints names it.
"""

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import datasets, distmodel, entropy, fpq, trainer

def _parse_int(value):
    """A JSON integer, or a flag's decimal integer string; anything else (a bool, 3.0, "3.5") is a TypeError."""
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _parse_fp(value):
    if isinstance(value, fpq.FpFormat):
        return value
    parts = [_parse_int(v) for v in (value.split(",") if isinstance(value, str) else value)]
    if len(parts) != 3:
        raise ValueError(f"fp format needs sign,mant,exp — got {value!r}")
    sign, mant, exp = parts
    if sign != 1:
        raise ValueError(f"fp format needs exactly one sign bit, got {sign}")
    return fpq.FpFormat(mant_bits=mant, exp_bits=exp)


def _parse_real(value):
    """A JSON number, or a flag's decimal string; anything else (a bool, a list, "nan") is a TypeError."""
    if isinstance(value, str) and re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", value):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _parse_gammas(value):
    """One number, a flag's comma list or a JSON list, of at least one number."""
    if isinstance(value, str):
        value = value.split(",")
    elif not isinstance(value, list):
        value = [value]
    if not value:
        raise TypeError("an empty list names no gamma")
    return [_parse_real(v) for v in value]


def _parse_hidden(value):
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{value!r} is not a list of integers")
    return tuple(_parse_int(h) for h in value)


class _Setting(NamedTuple):
    """One `co3 train` setting; its key names it in a --config JSON file."""

    flag: str | None  # None: settable from --config only
    parse: Callable
    field: str | None = None  # the TrainConfig field it sets; None: a setting of the CLI alone
    default: Any = None  # default of a CLI-only setting; TrainConfig supplies the others
    help: str | None = None


# Every `co3 train` setting, declared once. TrainConfig validates the values of
# the settings it backs, whether they come from a flag or a JSON file.
_SETTINGS = {
    "eta": _Setting("--eta", _parse_real, "eta"),
    "gamma": _Setting("--gamma", _parse_gammas, "gamma", help="memory decay, comma list sweeps"),
    "epochs": _Setting("--epochs", _parse_int, "epochs"),
    "users": _Setting("--users", _parse_int, "users"),
    "batch_size": _Setting("--batch", _parse_int, "batch_size"),
    "fp": _Setting("--fp", _parse_fp, "fmt", help="sign,mant,exp e.g. 1,2,1"),
    "seed": _Setting("--seed", _parse_int, "seed"),
    "quantizer": _Setting("--quantizer", str, "quantizer", help="fp or identity"),
    "bias_mode": _Setting("--bias-mode", str, "bias_mode", help="optimize or polynomial"),
    "hidden": _Setting(None, _parse_hidden, "hidden"),
    "dataset": _Setting("--dataset", str, default="blobs", help="blobs, cifar10 (first 5,000 train, 1,000 test images), idx or csv"),
    "data_path": _Setting("--data-path", str),
    "out": _Setting("--out", str, default="runs"),
    "blobs_n": _Setting(None, _parse_int, default=5000),
    "blobs_classes": _Setting(None, _parse_int, default=10),
    "blobs_features": _Setting(None, _parse_int, default=32),
}
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(trainer.TrainConfig)}


def _load_config_file(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(doc) - set(_SETTINGS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return doc


def _default(setting):
    return _CONFIG_DEFAULTS[setting.field] if setting.field else setting.default


def _resolve_settings(args):
    settings = {key: _default(s) for key, s in _SETTINGS.items()}
    if args.config:
        settings.update(_load_config_file(args.config))
    for key in _SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if os.environ.get("CO3_OUT"):
        settings["out"] = os.environ["CO3_OUT"]
    return {key: _parse_setting(key, v) for key, v in settings.items()}


def _parse_setting(key, value):
    """``value`` parsed for setting ``key``; a JSON value of the wrong type is a ValueError naming it."""
    setting = _SETTINGS[key]
    if value is None:
        if _default(setting) is not None:
            raise ValueError(f"setting {key!r} must not be null")
        return None
    try:
        return setting.parse(value)
    except TypeError as exc:
        raise ValueError(f"setting {key!r} has the wrong type: {exc}") from None


def _build_dataset(settings):
    kind = settings["dataset"]
    if kind == "blobs":
        return datasets.synth_blobs(
            settings["blobs_n"],
            settings["blobs_classes"],
            settings["blobs_features"],
            seed=7,
            n_test=settings["blobs_n"] // 5,
            separation=2.4,
            feature_scale=0.35,
        )
    loaders = {
        "cifar10": lambda path: datasets.load_cifar10_binary(path, limit=5000),
        "idx": datasets.load_idx,
        "csv": datasets.load_csv,
    }
    if kind not in loaders:
        raise ValueError(f"unknown dataset {kind!r}")
    if settings["data_path"] is None:
        raise ValueError(f"--data-path is required for dataset {kind!r}")
    return loaders[kind](settings["data_path"])


def cmd_train(args):
    settings = _resolve_settings(args)
    gammas = settings["gamma"]
    out = Path(settings["out"])
    rundirs = [out] if len(gammas) == 1 else [out / f"gamma_{gamma:g}" for gamma in gammas]
    twice = [d.name for d in rundirs if rundirs.count(d) > 1]
    if twice:
        raise ValueError(f"gammas {gammas} share the run directory {twice[0]}, which names gamma to 6 significant digits")
    dataset = _build_dataset(settings)
    out.mkdir(parents=True, exist_ok=True)
    summaries = []
    config_settings = {s.field: settings[key] for key, s in _SETTINGS.items() if s.field}
    for gamma, rundir in zip(gammas, rundirs):
        config = trainer.TrainConfig(**dict(config_settings, gamma=gamma), keep_fit_samples=True)
        metrics, _ = trainer.train(config, dataset)
        metrics.write(rundir)
        summaries.append((gamma, metrics))
        print(
            f"gamma={gamma:g}: final_accuracy={metrics.final_accuracy:.4f} "
            f"total_uplink_bits={metrics.total_bits()}"
        )
    with open(out / "sweep_summary.txt", "w") as fh:
        for gamma, metrics in summaries:
            fh.write(
                f"gamma {gamma:g}: accuracy {metrics.final_accuracy:.6f}, "
                f"total_uplink_bits {metrics.total_bits()}, "
                f"bits_per_param_per_round {metrics.bits_per_param_per_round():.4f}\n"
            )
    return 0


# rows of one bias sweep; each row is one optimize_bias call of a few milliseconds
_SWEEP_ROW_CAP = 10_000


def cmd_bias_sweep(args):
    if not (0 < args.beta_min <= args.beta_max <= 5):
        raise ValueError("beta range must lie within (0, 5]")
    if not (math.isfinite(args.beta_step) and args.beta_step > 0):
        raise ValueError(f"--beta-step must be positive and finite, got {args.beta_step}")
    if not (math.isfinite(args.sigma) and args.sigma > 0):
        raise ValueError(f"--sigma must be positive and finite, got {args.sigma}")
    rows = (args.beta_max + 1e-9 - args.beta_min) / args.beta_step  # np.arange's length, before rounding up
    if rows > _SWEEP_ROW_CAP:
        count = math.ceil(rows) if math.isfinite(rows) else rows
        raise ValueError(f"--beta-step {args.beta_step} asks for {count} rows, more than the cap of {_SWEEP_ROW_CAP}")
    fmt = _parse_setting("fp", args.fp)
    betas = np.arange(args.beta_min, args.beta_max + 1e-9, args.beta_step)
    outpath = Path(os.environ.get("CO3_OUT") or args.out)
    outpath.parent.mkdir(parents=True, exist_ok=True)
    with open(outpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "b_grid", "b_polynomial"])
        for beta in betas:
            beta = float(beta)
            alpha = args.sigma * math.sqrt(
                math.exp(math.lgamma(1 / beta) - math.lgamma(3 / beta))
            )
            dist = distmodel.GenNormParams(beta, 0.0, alpha)
            b_grid = fpq.optimize_bias(dist, fmt)
            # the quartic is fitted to FP4 and holds for no other format
            b_poly = repr(fpq.bias_polynomial(beta, args.sigma)) if fmt == fpq.FP4 else ""
            w.writerow([f"{beta:.6g}", repr(b_grid), b_poly])
    print(f"wrote {len(betas)} rows to {outpath}")
    return 0


def cmd_fit_dist(args):
    rundir = Path(args.run)
    sampledir = rundir / "samples"
    samples = {}
    for f in sampledir.glob("epoch*_layer*.npy"):
        epoch, layer = f.stem.split("_layer")  # epochNNNN_layerL
        samples[(int(epoch[5:]), int(layer))] = np.load(f).astype(np.float64)
    if not samples:
        raise FileNotFoundError(f"no gradient samples under {sampledir}; run `co3 train` first")
    outpath = Path(args.out) if args.out else rundir / "fits.csv"
    trainer.write_fits(outpath, trainer.fit_table(samples))
    print(f"wrote {outpath}")
    return 0


def cmd_codec(args):
    if args.mode == "encode":
        fmt = _parse_setting("fp", args.fp)
        raw = Path(args.infile).read_bytes()
        if len(raw) % 4:
            raise ValueError(f"{args.infile} holds {len(raw)} bytes, not a whole number of 4-byte f32 values")
        x = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        fmt, codebook, gn, fitted = trainer.tensor_codec(trainer.fit_sample(x), fmt)
        block = entropy.encode(fpq.quantize(x, fmt), codebook)
        Path(args.outfile).write_bytes(block.to_bytes())
        bits_per = block.payload_bits / max(1, x.size)
        print(
            f"encoded {x.size} values: payload_bits={block.payload_bits} "
            f"header_bits={block.header_bits} bits_per_weight={bits_per:.4f} "
            f"beta={gn.beta:.6g} mu={gn.mu:.6g} alpha={gn.alpha:.6g} fit_fallback={'no' if fitted else 'yes'}"
        )
    else:
        data = Path(args.infile).read_bytes()
        block = entropy.EncodedBlock.from_bytes(data)
        values = fpq.dequantize(entropy.decode_block(block))
        values.astype("<f4").tofile(args.outfile)
        print(f"decoded {block.symbol_count} values from {args.infile}")
    return 0


def cmd_report(args):
    rundir = Path(args.run)
    summary = rundir / "summary.txt"
    if not summary.exists():
        raise FileNotFoundError(f"no summary.txt under {rundir}")
    print(f"run: {rundir}")
    for line in summary.read_text().splitlines():
        if not line.startswith("config."):
            print(line)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="co3", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run the compressed-training simulator")
    t.add_argument("--config", type=str, default=None, help="JSON config file")
    for key, setting in _SETTINGS.items():
        if setting.flag:
            t.add_argument(setting.flag, dest=key, type=str, default=None, help=setting.help)
    t.set_defaults(func=cmd_train)

    b = sub.add_parser("bias-sweep", help="grid-optimized vs polynomial exponent bias")
    b.add_argument("--beta-min", type=float, default=0.3)
    b.add_argument("--beta-max", type=float, default=1.6)
    b.add_argument("--beta-step", type=float, default=0.05)
    b.add_argument("--sigma", type=float, default=1.0)
    b.add_argument("--fp", type=str, default="1,2,1")
    b.add_argument("--out", type=str, default="bias_sweep.csv")
    b.set_defaults(func=cmd_bias_sweep)

    f = sub.add_parser("fit-dist", help="refit distribution families from run artifacts")
    f.add_argument("run", type=str, help="run directory containing samples/")
    f.add_argument("--out", type=str, default=None)
    f.set_defaults(func=cmd_fit_dist)

    c = sub.add_parser("codec", help="encode/decode raw little-endian f32 files")
    c.add_argument("mode", choices=("encode", "decode"))
    c.add_argument("infile", type=str)
    c.add_argument("outfile", type=str)
    c.add_argument("--fp", type=str, default="1,2,1", help="format to encode with; a block's header carries its own")
    c.set_defaults(func=cmd_codec)

    r = sub.add_parser("report", help="summarize a completed run directory")
    r.add_argument("run", type=str)
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, entropy.CorruptionError, entropy.TruncationError, trainer.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
