import csv
import json
import math

import numpy as np
import pytest

from co3 import cli, entropy, fpq, trainer
from co3.datasets import synth_blobs
from co3.fpq import FP4, bias_polynomial, dequantize, quantize
from co3.trainer import TrainConfig, train


def run_cli(args):
    return cli.main(args)


@pytest.fixture()
def tiny_train_args(tmp_path):
    return [
        "train",
        "--epochs", "1",
        "--seed", "0",
        "--out", str(tmp_path / "run"),
    ], tmp_path / "run"


class TestTrain:
    def test_writes_metric_files_and_summary(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        code = run_cli([
            "train", "--gamma", "0.9", "--fp", "1,2,1", "--epochs", "1",
            "--out", str(out),
        ] + ["--config", str(_small_blobs_config(tmp_path))])
        assert code == 0
        for name in ("metrics.csv", "fits.csv", "norms.csv", "summary.txt"):
            assert (out / name).exists(), name
        summary = (out / "summary.txt").read_text()
        assert "total_uplink_bits:" in summary
        assert (out / "samples").is_dir()

    def test_gamma_out_of_range_fails(self, tmp_path, capsys):
        code = run_cli(["train", "--gamma", "1.5", "--epochs", "1",
                        "--out", str(tmp_path / "x")])
        assert code != 0
        assert "gamma" in capsys.readouterr().err

    def test_gamma_sweep_writes_one_series_per_value(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli([
            "train", "--gamma", "0,0.9", "--epochs", "1",
            "--out", str(out), "--config", str(_small_blobs_config(tmp_path)),
        ])
        assert code == 0
        assert (out / "gamma_0" / "metrics.csv").exists()
        assert (out / "gamma_0.9" / "metrics.csv").exists()
        assert (out / "sweep_summary.txt").exists()

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        env_out = tmp_path / "envdir"
        monkeypatch.setenv("CO3_OUT", str(env_out))
        code = run_cli([
            "train", "--epochs", "0", "--out", str(tmp_path / "ignored"),
            "--config", str(_small_blobs_config(tmp_path)),
        ])
        assert code == 0
        assert (env_out / "metrics.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code != 0
        assert "unknown config keys" in capsys.readouterr().err

    def test_hidden_size_a_model_cannot_build_fails_typed(self, tmp_path, capsys):
        cfg = _small_blobs_config(tmp_path, extra={"hidden": [0]})
        code = run_cli(["train", "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: hidden layer sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"hidden": 5}, "setting 'hidden' has the wrong type"),
        ({"epochs": None}, "setting 'epochs' must not be null"),
        ({"eta": [1]}, "setting 'eta' has the wrong type"),
        ({"blobs_n": None}, "setting 'blobs_n' must not be null"),
        ({"epochs": 1.7}, "setting 'epochs' has the wrong type"),
        ({"hidden": [3.9]}, "setting 'hidden' has the wrong type"),
        ({"batch_size": 8.5}, "setting 'batch_size' has the wrong type"),
        ({"users": True}, "setting 'users' has the wrong type"),
        ({"fp": [1, 2.9, 1]}, "setting 'fp' has the wrong type"),
        ({"eta": True}, "setting 'eta' has the wrong type"),
        ({"eta": "fast"}, "setting 'eta' has the wrong type"),
        ({"gamma": True}, "setting 'gamma' has the wrong type"),
        ({"gamma": [0.5, False]}, "setting 'gamma' has the wrong type"),
        ({"gamma": []}, "setting 'gamma' has the wrong type"),
        ({"gamma": {"0.5": 1}}, "setting 'gamma' has the wrong type"),
    ], ids=["hidden-int", "epochs-null", "eta-list", "blobs_n-null",
            "epochs-float", "hidden-float", "batch_size-float", "users-bool", "fp-float",
            "eta-bool", "eta-word", "gamma-bool", "gamma-list-bool", "gamma-empty", "gamma-object"])
    def test_config_value_of_the_wrong_type_fails_typed(self, tmp_path, capsys, extra, message):
        cfg = _small_blobs_config(tmp_path, extra=extra)
        code = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_fixed_bias_mode_is_gone(self, tmp_path, capsys):
        code = run_cli(["train", "--bias-mode", "fixed", "--epochs", "1", "--out", str(tmp_path / "o"),
                        "--config", str(_small_blobs_config(tmp_path))])
        assert code == 1
        assert "error: unknown bias_mode 'fixed'" in capsys.readouterr().err

    def test_include_headers_key_is_gone(self, tmp_path, capsys):
        cfg = _small_blobs_config(tmp_path, extra={"include_headers_in_payload": False})
        code = run_cli(["train", "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown config keys: include_headers_in_payload" in capsys.readouterr().err

    def test_shard_mode_key_is_gone(self, tmp_path, capsys):
        cfg = _small_blobs_config(tmp_path, extra={"shard_mode": "replicate"})
        code = run_cli(["train", "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown config keys: shard_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["blobs_seed", "blobs_separation", "blobs_feature_scale"])
    def test_blobs_shape_keys_are_gone(self, tmp_path, capsys, key):
        cfg = _small_blobs_config(tmp_path, extra={key: 1})
        code = run_cli(["train", "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"unknown config keys: {key}" in capsys.readouterr().err

    def test_empty_test_split_fails_typed(self, tmp_path, capsys):
        # 4 // 5 = 0 test samples
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"blobs_n": 4, "blobs_classes": 2}))
        code = run_cli(["train", "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: the test split is empty\n"

    def test_label_only_csv_fails_typed(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("label\n" + "".join(f"{i % 2}\n" for i in range(20)))
        code = run_cli(["train", "--dataset", "csv", "--data-path", str(data), "--epochs", "1",
                        "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: every layer needs at least one unit" in capsys.readouterr().err

    def test_fp_format_with_other_than_one_sign_bit_fails_typed(self, tmp_path, capsys):
        code = run_cli(["train", "--fp", "2,2,1", "--epochs", "1", "--out", str(tmp_path / "o"),
                        "--config", str(_small_blobs_config(tmp_path))])
        assert code == 1
        assert "error: fp format needs exactly one sign bit, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("gammas, rundir", [("0.1,0.10000001", "gamma_0.1"), ("0.5,0.9,0.5", "gamma_0.5")])
    def test_gammas_that_share_a_run_directory_fail_before_training(self, tmp_path, capsys, gammas, rundir):
        out = tmp_path / "sweep"
        code = run_cli(["train", "--gamma", gammas, "--epochs", "1", "--out", str(out),
                        "--config", str(_small_blobs_config(tmp_path))])
        assert code == 1
        assert f"share the run directory {rundir}," in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides_config_file(self, tmp_path):
        out = tmp_path / "prec"
        cfg = _small_blobs_config(tmp_path, extra={"epochs": 3})
        code = run_cli(["train", "--config", str(cfg), "--epochs", "0",
                        "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(open(out / "metrics.csv")))
        assert len(rows) == 2  # header + epoch-0 row only


def _small_blobs_config(tmp_path, extra=None):
    doc = {"blobs_n": 200, "blobs_classes": 3, "blobs_features": 8}
    if extra:
        doc.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_rerun_is_byte_identical(tmp_path):
    cfg = _small_blobs_config(tmp_path)
    args = ["train", "--epochs", "1", "--seed", "3", "--config", str(cfg)]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out_a)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0
    for name in ("metrics.csv", "fits.csv", "norms.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestBiasSweep:
    def test_row_count_and_scaling(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        code = run_cli(["bias-sweep", "--beta-min", "0.3", "--beta-max", "1.6",
                        "--beta-step", "0.05", "--sigma", "1", "--out", str(out1)])
        assert code == 0
        rows = list(csv.DictReader(open(out1)))
        assert len(rows) == 27
        out2 = tmp_path / "s2.csv"
        run_cli(["bias-sweep", "--beta-min", "0.3", "--beta-max", "1.6",
                 "--beta-step", "0.05", "--sigma", "2", "--out", str(out2)])
        rows2 = list(csv.DictReader(open(out2)))
        for r1, r2 in zip(rows, rows2):
            assert float(r2["b_polynomial"]) == pytest.approx(float(r1["b_polynomial"]) + 1)

    def test_polynomial_column_for_fp4_only(self, tmp_path):
        # the quartic is fitted to FP4; for [1,4,3] at beta 1 it would read
        # 0.959 beside an optimum of -3.396
        args = ["bias-sweep", "--beta-min", "0.9", "--beta-max", "1.1", "--beta-step", "0.1"]
        wide, fp4 = tmp_path / "wide.csv", tmp_path / "fp4.csv"
        assert run_cli(args + ["--fp", "1,4,3", "--out", str(wide)]) == 0
        rows = list(csv.DictReader(open(wide)))
        assert len(rows) == 3
        assert [r["b_polynomial"] for r in rows] == ["", "", ""]
        assert float(rows[1]["b_grid"]) == pytest.approx(-3.396, abs=1e-3)
        assert run_cli(args + ["--fp", "1,2,1", "--out", str(fp4)]) == 0
        rows = list(csv.DictReader(open(fp4)))
        assert len(rows) == 3
        for r in rows:
            assert float(r["b_polynomial"]) == pytest.approx(bias_polynomial(float(r["beta"]), 1.0))

    def test_invalid_range(self, tmp_path, capsys):
        code = run_cli(["bias-sweep", "--beta-min", "0", "--beta-max", "1",
                        "--out", str(tmp_path / "x.csv")])
        assert code != 0

    @pytest.mark.parametrize("step", ["0", "-0.1", "inf", "nan"])
    def test_step_must_be_positive_and_finite(self, tmp_path, capsys, step):
        out = tmp_path / "x.csv"
        assert run_cli(["bias-sweep", "--beta-step", step, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --beta-step must be positive and finite")
        assert not out.exists()

    @pytest.mark.parametrize("step, rows", [("1e-12", "1300000001001"), ("0.00013", "10001"), ("5e-324", "inf")])
    def test_rows_past_the_cap_fail_before_the_file_is_opened(self, tmp_path, capsys, step, rows):
        out = tmp_path / "x.csv"
        assert run_cli(["bias-sweep", "--beta-step", step, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --beta-step {step} asks for {rows} rows, more than the cap of 10000\n"
        assert not out.exists()

    def test_rows_at_the_cap_are_allowed(self, tmp_path, monkeypatch):
        # (0.99995 + 1e-9) / 0.0001 rounds up to 10000 rows; a stub optimizer keeps it fast
        monkeypatch.setattr(fpq, "optimize_bias", lambda dist, fmt: 0.0)
        out = tmp_path / "x.csv"
        args = ["bias-sweep", "--beta-min", "1.0", "--beta-max", "1.99995", "--beta-step", "0.0001"]
        assert run_cli(args + ["--out", str(out)]) == 0
        assert len(list(csv.DictReader(open(out)))) == 10000

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
    def test_sigma_must_be_positive_and_finite(self, tmp_path, capsys, sigma):
        out = tmp_path / "x.csv"
        assert run_cli(["bias-sweep", "--sigma", sigma, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --sigma must be positive and finite")
        assert not out.exists()


class TestFitDist:
    def test_refits_from_saved_samples(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["train", "--epochs", "2", "--out", str(out),
                 "--config", str(_small_blobs_config(tmp_path))])
        fits = out / "fits.csv"
        regenerated = out / "fits2.csv"
        code = run_cli(["fit-dist", str(out), "--out", str(regenerated)])
        assert code == 0
        assert regenerated.read_bytes() == fits.read_bytes()
        rows = list(csv.DictReader(open(regenerated)))
        assert {r["epoch"] for r in rows} == {"1", "2"}
        assert {r["family"] for r in rows} == {"normal", "laplace", "gennorm"}

    def test_refits_an_iteration_cadence_run(self, tmp_path):
        # every round refreshes, but only the epoch's first writes fit rows
        # and keeps its sample, so fit-dist rebuilds the whole file
        out = tmp_path / "run"
        config = TrainConfig(epochs=2, users=2, seed=1, rebuild="iteration", keep_fit_samples=True)
        metrics, _ = train(config, synth_blobs(600, 3, 8, seed=1, n_test=50))
        metrics.write(out)
        regenerated = out / "fits2.csv"
        assert run_cli(["fit-dist", str(out), "--out", str(regenerated)]) == 0
        assert regenerated.read_bytes() == (out / "fits.csv").read_bytes()
        keys = [(r["epoch"], r["layer"], r["family"]) for r in csv.DictReader(open(regenerated))]
        assert len(keys) == len(set(keys)) == 2 * 3 * 3  # epochs x layers x families

    def test_rows_follow_numeric_layer_order(self, tmp_path):
        # a stack of 11 or more layers: layer 10's file name sorts before layer 2's
        sampledir = tmp_path / "samples"
        sampledir.mkdir()
        rng = np.random.default_rng(4)
        for layer in (2, 10):
            np.save(sampledir / f"epoch0001_layer{layer}.npy", rng.normal(0, 0.01, 1000))
        out = tmp_path / "fits.csv"
        assert run_cli(["fit-dist", str(tmp_path), "--out", str(out)]) == 0
        assert [r["layer"] for r in csv.DictReader(open(out))] == ["2"] * 3 + ["10"] * 3

    def test_missing_artifacts(self, tmp_path, capsys):
        code = run_cli(["fit-dist", str(tmp_path)])
        assert code != 0

    def test_normal_sample_injection_recovers_beta_two(self, tmp_path):
        sampledir = tmp_path / "samples"
        sampledir.mkdir()
        rng = np.random.default_rng(3)
        np.save(sampledir / "epoch0001_layer0.npy", rng.normal(0, 0.01, 50_000))
        out = tmp_path / "fits.csv"
        assert run_cli(["fit-dist", str(tmp_path), "--out", str(out)]) == 0
        rows = [r for r in csv.DictReader(open(out)) if r["family"] == "gennorm"]
        assert len(rows) == 1
        assert 1.9 <= float(rows[0]["beta"]) <= 2.1


class TestCodec:
    def test_encode_decode_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 0.02, size=5000).astype("<f4")
        infile = tmp_path / "grads.f32"
        x.tofile(infile)
        encoded = tmp_path / "grads.co3"
        decoded = tmp_path / "grads.dec.f32"
        code = run_cli(["codec", "encode", str(infile), str(encoded), "--fp", "1,2,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "payload_bits=" in out and "bits_per_weight=" in out
        code = run_cli(["codec", "decode", str(encoded), str(decoded)])
        assert code == 0

        from co3.entropy import EncodedBlock

        block = EncodedBlock.from_bytes(encoded.read_bytes())
        expected = dequantize(quantize(x.astype(np.float64), block.fmt)).astype("<f4")
        assert np.fromfile(decoded, dtype="<f4").tobytes() == expected.tobytes()

    def test_encode_at_scale_1e_13_keeps_values(self, tmp_path):
        infile, encoded, decoded = tmp_path / "g.f32", tmp_path / "g.co3", tmp_path / "g.dec.f32"
        x = np.random.default_rng(0).laplace(0, 1e-13, 1000).astype("<f4")
        x.tofile(infile)
        assert run_cli(["codec", "encode", str(infile), str(encoded)]) == 0
        assert run_cli(["codec", "decode", str(encoded), str(decoded)]) == 0
        assert np.count_nonzero(np.fromfile(decoded, dtype="<f4")) > 500

    def test_encode_codes_the_file_with_the_codec_training_builds(self, tmp_path, capsys):
        # gradient-scale values, which a unit-scale model would code all to zero
        infile, encoded, decoded = tmp_path / "g.f32", tmp_path / "g.co3", tmp_path / "g.dec.f32"
        x = np.random.default_rng(0).laplace(0, 1e-3, 10_000).astype("<f4")
        x.tofile(infile)
        assert run_cli(["codec", "encode", str(infile), str(encoded), "--fp", "1,2,1"]) == 0
        fmt, cb, gn, fitted = trainer.tensor_codec(x.astype(np.float64), FP4)
        assert fitted
        assert encoded.read_bytes() == entropy.encode(quantize(x.astype(np.float64), fmt), cb).to_bytes()
        out = capsys.readouterr().out
        assert f"beta={gn.beta:.6g} mu={gn.mu:.6g} alpha={gn.alpha:.6g} fit_fallback=no" in out
        assert run_cli(["codec", "decode", str(encoded), str(decoded)]) == 0
        y = np.fromfile(decoded, dtype="<f4").astype(np.float64)
        x = x.astype(np.float64)
        assert np.count_nonzero(y) > 0.5 * x.size
        assert np.mean((y - x) ** 2) / np.mean(x**2) < 0.05

    @pytest.mark.parametrize("n", [0, 50])
    def test_files_too_small_to_fit_encode_with_the_fallback(self, tmp_path, capsys, n):
        infile, encoded, decoded = tmp_path / "g.f32", tmp_path / "g.co3", tmp_path / "g.dec.f32"
        x = np.random.default_rng(3).normal(0, 0.01, n).astype("<f4")
        x.tofile(infile)
        assert run_cli(["codec", "encode", str(infile), str(encoded)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"encoded {n} values") and out.rstrip().endswith("fit_fallback=yes")
        assert run_cli(["codec", "decode", str(encoded), str(decoded)]) == 0
        fmt = entropy.EncodedBlock.from_bytes(encoded.read_bytes()).fmt
        expected = dequantize(quantize(x.astype(np.float64), fmt)).astype("<f4")
        assert np.fromfile(decoded, dtype="<f4").tobytes() == expected.tobytes()

    @pytest.mark.parametrize("flag", ["--bias", "--beta", "--mu", "--alpha"])
    def test_model_flags_are_gone(self, tmp_path, capsys, flag):
        infile = tmp_path / "g.f32"
        np.ones(10, dtype="<f4").tofile(infile)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["codec", "encode", str(infile), str(tmp_path / "g.co3"), flag, "1"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / "g.co3").exists()

    def test_encode_rejects_a_partial_trailing_value(self, tmp_path, capsys):
        infile, outfile = tmp_path / "g.f32", tmp_path / "g.co3"
        infile.write_bytes(np.ones(5, dtype="<f4").tobytes() + b"\x00\x00")  # 22 bytes
        assert run_cli(["codec", "encode", str(infile), str(outfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "22 bytes" in err
        assert not outfile.exists()

    def test_corrupted_magic_errors(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        infile = tmp_path / "x.f32"
        rng.normal(size=10).astype("<f4").tofile(infile)
        encoded = tmp_path / "x.co3"
        run_cli(["codec", "encode", str(infile), str(encoded)])
        raw = bytearray(encoded.read_bytes())
        raw[0] ^= 0xFF
        encoded.write_bytes(bytes(raw))
        code = run_cli(["codec", "decode", str(encoded), str(tmp_path / "y.f32")])
        assert code != 0
        assert "magic" in capsys.readouterr().err


class TestReport:
    def test_prints_key_numbers(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(["train", "--epochs", "1", "--out", str(out),
                 "--config", str(_small_blobs_config(tmp_path))])
        capsys.readouterr()
        code = run_cli(["report", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "final_test_accuracy" in text
        assert "total_uplink_bits" in text
        assert "bits_per_param_per_round" in text
        assert "saturated_entries" in text

    def test_prints_fit_fallbacks(self, tmp_path, capsys):
        # hidden (20,) leaves the 3-class output layer 63 values, under the 100 a fit needs
        out = tmp_path / "run"
        cfg = _small_blobs_config(tmp_path, extra={"hidden": [20]})
        assert run_cli(["train", "--epochs", "1", "--out", str(out), "--config", str(cfg)]) == 0
        assert "fit_fallbacks: 1\n" in (out / "summary.txt").read_text()
        capsys.readouterr()
        assert run_cli(["report", str(out)]) == 0
        assert "fit_fallbacks: 1\n" in capsys.readouterr().out

    def test_missing_run(self, tmp_path, capsys):
        assert run_cli(["report", str(tmp_path / "nope")]) != 0
