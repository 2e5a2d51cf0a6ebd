import gzip
import struct

import numpy as np
import pytest

from co3.datasets import (
    Dataset,
    load_cifar10_binary,
    load_csv,
    load_idx,
    read_idx,
    shard_indices,
    synth_blobs,
)


class TestBlobs:
    def test_deterministic(self):
        a = synth_blobs(300, 4, 10, seed=42)
        b = synth_blobs(300, 4, 10, seed=42)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)
        assert np.array_equal(a.x_test, b.x_test)

    def test_seed_changes_data(self):
        a = synth_blobs(300, 4, 10, seed=1)
        b = synth_blobs(300, 4, 10, seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(3, 4, 10, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(10, 1, 10, seed=0)

    def test_well_separated_blobs_linearly_separable(self):
        ds = synth_blobs(2000, 2, 16, seed=5, n_test=500, separation=6.0)
        # least-squares linear classifier on one-hot targets
        x = np.hstack([ds.x_train, np.ones((len(ds.y_train), 1))])
        onehot = np.eye(2)[ds.y_train]
        w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        xt = np.hstack([ds.x_test, np.ones((len(ds.y_test), 1))])
        acc = float(np.mean((xt @ w).argmax(axis=1) == ds.y_test))
        assert acc > 0.99


class TestCifar:
    @staticmethod
    def write_batch(path, labels, value=0):
        rec = np.zeros((len(labels), 3073), dtype=np.uint8)
        rec[:, 0] = labels
        rec[:, 1:] = value
        rec.tofile(path)

    def test_load_and_scale(self, tmp_path):
        self.write_batch(tmp_path / "data_batch_1.bin", [0, 3, 9], value=255)
        self.write_batch(tmp_path / "test_batch.bin", [1, 2])
        ds = load_cifar10_binary(tmp_path)
        assert ds.x_train.shape == (3, 3072)
        assert ds.y_train.tolist() == [0, 3, 9]
        assert ds.x_train.max() == 1.0 and ds.x_test.max() == 0.0
        assert ds.n_classes == 10

    def test_all_zero_record(self, tmp_path):
        self.write_batch(tmp_path / "data_batch_1.bin", [3])
        self.write_batch(tmp_path / "test_batch.bin", [0])
        ds = load_cifar10_binary(tmp_path)
        assert ds.y_train.tolist() == [3]
        assert not ds.x_train.any()

    def test_corrupt_record_length(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(b"\x00" * 3072)
        self.write_batch(tmp_path / "test_batch.bin", [0])
        with pytest.raises(ValueError, match="3073"):
            load_cifar10_binary(tmp_path)

    def test_label_out_of_range(self, tmp_path):
        self.write_batch(tmp_path / "data_batch_1.bin", [10])
        self.write_batch(tmp_path / "test_batch.bin", [0])
        with pytest.raises(ValueError, match="label"):
            load_cifar10_binary(tmp_path)

    def test_limit(self, tmp_path):
        self.write_batch(tmp_path / "data_batch_1.bin", list(range(10)))
        self.write_batch(tmp_path / "test_batch.bin", [0, 1])
        ds = load_cifar10_binary(tmp_path, limit=5)
        assert len(ds.y_train) == 5

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10_binary(tmp_path)


def write_idx_images(path, arr, gz=False):
    header = struct.pack(">HBB", 0, 0x08, arr.ndim) + struct.pack(
        f">{arr.ndim}I", *arr.shape
    )
    data = header + arr.astype(np.uint8).tobytes()
    if gz:
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)


class TestIdx:
    def test_read_idx_shapes(self, tmp_path):
        arr = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
        write_idx_images(tmp_path / "imgs", arr)
        out = read_idx(tmp_path / "imgs")
        assert out.shape == (2, 28, 28)
        assert np.array_equal(out, arr)

    def test_load_directory(self, tmp_path):
        rng = np.random.default_rng(0)
        write_idx_images(tmp_path / "train-images-idx3-ubyte",
                         rng.integers(0, 255, size=(6, 4, 4)).astype(np.uint8))
        write_idx_images(tmp_path / "train-labels-idx1-ubyte",
                         np.array([0, 1, 2, 1, 0, 2], dtype=np.uint8))
        write_idx_images(tmp_path / "t10k-images-idx3-ubyte.gz",
                         rng.integers(0, 255, size=(2, 4, 4)).astype(np.uint8), gz=True)
        write_idx_images(tmp_path / "t10k-labels-idx1-ubyte.gz",
                         np.array([1, 2], dtype=np.uint8), gz=True)
        ds = load_idx(tmp_path)
        assert ds.x_train.shape == (6, 16)
        assert ds.n_classes == 3
        assert ds.x_train.max() <= 1.0

    def test_malformed_magic(self, tmp_path):
        (tmp_path / "bad").write_bytes(b"\x00\x01\x09\x02" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_idx(tmp_path / "bad")

    def test_truncated_payload(self, tmp_path):
        header = struct.pack(">HBB", 0, 0x08, 2) + struct.pack(">2I", 4, 4)
        (tmp_path / "short").write_bytes(header + b"\x00" * 7)
        with pytest.raises(ValueError, match="bytes"):
            read_idx(tmp_path / "short")

    def test_empty_file(self, tmp_path):
        (tmp_path / "empty").write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            read_idx(tmp_path / "empty")


class TestCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("f0,label,f1\n0.0,0,10\n1.0,1,20\n2.0,0,30\n3.0,1,40\n4.0,0,50\n")
        ds = load_csv(p)
        assert len(ds.y_train) == 4 and len(ds.y_test) == 1
        assert ds.x_train.min() == 0.0 and ds.x_train.max() == 1.0
        assert ds.n_classes == 2

    def test_non_numeric_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("label,f0\n0,1.5\n1,oops\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "nolabel.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(p)


class TestDatasetValidation:
    def test_label_range_enforced(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            Dataset(x, np.array([0, 1, 2, 5]), x, np.array([0, 0, 0, 0]), 3)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_rejected(self, split):
        x, y = np.zeros((4, 2)), np.zeros(4, dtype=int)
        empty = (x[:0], y[:0])
        parts = (empty + (x, y)) if split == "train" else ((x, y) + empty)
        with pytest.raises(ValueError, match=f"the {split} split is empty"):
            Dataset(*parts, 2)

    def test_blobs_without_test_samples_rejected(self):
        with pytest.raises(ValueError, match="the test split is empty"):
            synth_blobs(50, 2, 3, 0, n_test=0)

    def test_feature_dims_must_match(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int),
                    np.zeros((2, 4)), np.zeros(2, dtype=int), 2)


def test_shard_partition_properties():
    rng = np.random.default_rng(3)
    shards = shard_indices(1000, 7, rng)
    sizes = [s.size for s in shards]
    assert max(sizes) - min(sizes) <= 1
    assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(1000))
