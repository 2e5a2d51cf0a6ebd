"""Deterministic classification datasets for desk-scale runs.

Synthetic Gaussian blobs are the default (no download dependency); CIFAR-10
binary batches, IDX image/label pairs, and labeled CSV files can be ingested
when present. Identical inputs and seeds always produce byte-identical
datasets.
"""

import csv
import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CIFAR_RECORD = 3073  # 1 label byte + 3*32*32 pixel bytes
_IDX_DTYPE_UBYTE = 0x08


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int

    def __post_init__(self):
        for x, y, split in (
            (self.x_train, self.y_train, "train"),
            (self.x_test, self.y_test, "test"),
        ):
            if x.ndim != 2 or x.shape[0] != y.shape[0]:
                raise ValueError(f"{split} features/labels are inconsistent")
            if y.size == 0:
                raise ValueError(f"the {split} split is empty")
            if y.min() < 0 or y.max() >= self.n_classes:
                raise ValueError(f"{split} label out of range [0, {self.n_classes})")
        if self.x_train.shape[1] != self.x_test.shape[1]:
            raise ValueError("train/test feature dimensions differ")

    @property
    def n_features(self):
        return self.x_train.shape[1]


def synth_blobs(n, k, d_in, seed, n_test=None, separation=3.0, feature_scale=1.0):
    """K unit-variance Gaussian clusters with seed-fixed centers on a sphere of radius ``separation``.

    ``feature_scale`` multiplies the finished features; sub-unit values mimic
    the magnitude of [0, 1]-normalized image data (CIFAR pixels have std
    around 0.25) and correspondingly slow first-layer learning.
    """
    if k < 2:
        raise ValueError("need at least 2 classes")
    if n < k:
        raise ValueError(f"need at least as many samples as classes ({n} < {k})")
    if n_test is None:
        n_test = max(1, n // 5)
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, d_in))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)

    def draw(count):
        y = rng.integers(0, k, size=count)
        x = feature_scale * (centers[y] + rng.normal(size=(count, d_in)))
        return x, y.astype(np.int64)

    x_train, y_train = draw(n)
    x_test, y_test = draw(n_test)
    return Dataset(x_train, y_train, x_test, y_test, k)


def _read_cifar_file(path):
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % _CIFAR_RECORD != 0:
        raise ValueError(
            f"{path}: size {raw.size} is not a multiple of the {_CIFAR_RECORD}-byte record"
        )
    rec = raw.reshape(-1, _CIFAR_RECORD)
    labels = rec[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise ValueError(f"{path}: label {labels.max()} > 9")
    features = rec[:, 1:].astype(np.float64) / 255.0
    return features, labels


def load_cifar10_binary(path, limit=None):
    """Read data_batch_*.bin / test_batch.bin from ``path``; pixels scaled to [0, 1]."""
    root = Path(path)
    train_files = sorted(root.glob("data_batch_*.bin"))
    test_file = root / "test_batch.bin"
    if not train_files or not test_file.exists():
        raise FileNotFoundError(f"no CIFAR-10 binary batches under {root}")
    xs, ys = zip(*(_read_cifar_file(f) for f in train_files))
    x_train, y_train = np.concatenate(xs), np.concatenate(ys)
    x_test, y_test = _read_cifar_file(test_file)
    if limit is not None:
        x_train, y_train = x_train[:limit], y_train[:limit]
        x_test, y_test = x_test[: max(1, limit // 5)], y_test[: max(1, limit // 5)]
    return Dataset(x_train, y_train, x_test, y_test, 10)


def read_idx(path):
    """Parse one IDX array file (optionally gzipped); big-endian dimensions."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise ValueError(f"{path}: empty or truncated IDX header")
    zero, dtype, ndim = data[0] << 8 | data[1], data[2], data[3]
    if zero != 0 or dtype != _IDX_DTYPE_UBYTE:
        raise ValueError(f"{path}: malformed IDX magic {data[:4].hex()}")
    if len(data) < 4 + 4 * ndim:
        raise ValueError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", data[4 : 4 + 4 * ndim])
    body = np.frombuffer(data, dtype=np.uint8, offset=4 + 4 * ndim)
    expected = int(np.prod(dims))
    if body.size != expected:
        raise ValueError(f"{path}: payload has {body.size} bytes, header implies {expected}")
    return body.reshape(dims)


def load_idx(path):
    """Load an MNIST-style directory of IDX files (train/t10k images + labels)."""
    root = Path(path)

    def find(stem):
        for suffix in ("", ".gz"):
            p = root / (stem + suffix)
            if p.exists():
                return p
        raise FileNotFoundError(f"missing IDX file {stem}[.gz] under {root}")

    x_train = read_idx(find("train-images-idx3-ubyte"))
    y_train = read_idx(find("train-labels-idx1-ubyte")).astype(np.int64)
    x_test = read_idx(find("t10k-images-idx3-ubyte"))
    y_test = read_idx(find("t10k-labels-idx1-ubyte")).astype(np.int64)
    x_train = x_train.reshape(x_train.shape[0], -1).astype(np.float64) / 255.0
    x_test = x_test.reshape(x_test.shape[0], -1).astype(np.float64) / 255.0
    k = int(max(y_train.max(), y_test.max())) + 1
    return Dataset(x_train, y_train, x_test, y_test, k)


def load_csv(path):
    """Labeled CSV with a header row and a ``label`` column; min-max normalized.

    The last fifth of the rows forms the test split (deterministic, no
    shuffling).
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if "label" not in header:
            raise ValueError(f"{path}: no 'label' column in header {header}")
        label_col = header.index("label")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}: non-numeric value in row {lineno}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    labels = data[:, label_col]
    if np.any(labels != np.round(labels)) or labels.min() < 0:
        raise ValueError(f"{path}: labels must be non-negative integers")
    y = labels.astype(np.int64)
    x = np.delete(data, label_col, axis=1)
    n_test = max(1, int(round(0.2 * len(rows))))
    n_train = len(rows) - n_test
    if n_train < 1:
        raise ValueError(f"{path}: not enough rows for a train/test split")
    x_train, x_test = x[:n_train], x[n_train:]
    lo, hi = x_train.min(axis=0), x_train.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    x_train = (x_train - lo) / span
    x_test = np.clip((x_test - lo) / span, 0.0, 1.0)
    return Dataset(x_train, y[:n_train], x_test, y[n_train:], int(y.max()) + 1)


def shard_indices(n, users, rng):
    """Partition a shuffled range(n) into ``users`` near-equal shards (exact cover)."""
    if users < 1:
        raise ValueError("need at least one user")
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, users)]
