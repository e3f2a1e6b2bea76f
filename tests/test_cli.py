"""End-to-end CLI tests: every subcommand on a small phantom dataset."""

import json
import shutil

import numpy as np
import pytest

from voxseg import autodiff
from voxseg.cli import main
from voxseg.checkpoint import load_checkpoint
from voxseg.metrics import MetricReport
from voxseg.volume_io import read_volume


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    rc = main(["--seed", "7", "phantom", "--cases", "10", "--dims", "16x16x8", "--out", str(data)])
    assert rc == 0
    return data


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    run = tmp_path_factory.mktemp("run")
    rc = main([
        "--seed", "3", "train", "--data", str(dataset), "--out", str(run),
        "--epochs", "3", "--patience", "3", "--widths", "4,4,4,4",
    ])
    assert rc == 0
    return run


class TestPhantomCommand:
    def test_writes_expected_files_and_manifest(self, dataset):
        imgs = sorted(dataset.glob("case_*_img.sg3d"))
        lbls = sorted(dataset.glob("case_*_lbl.sg3d"))
        assert len(imgs) == 10 and len(lbls) == 10
        assert (dataset / "run_manifest.txt").exists()
        manifest = (dataset / "run_manifest.txt").read_text()
        assert "command=phantom" in manifest and "seed=7" in manifest

    def test_volumes_parse(self, dataset):
        header, grids = read_volume(dataset / "case_000_img.sg3d")
        assert header.channels == 4 and header.dims == (16, 16, 8)
        _, labels = read_volume(dataset / "case_000_lbl.sg3d")
        assert set(np.unique(labels)) <= {0, 1, 2, 4}

    def test_deterministic_across_runs(self, dataset, tmp_path):
        other = tmp_path / "again"
        assert main(["--seed", "7", "phantom", "--cases", "2", "--dims", "16x16x8",
                     "--out", str(other)]) == 0
        a = (dataset / "case_000_img.sg3d").read_bytes()
        b = (other / "case_000_img.sg3d").read_bytes()
        assert a == b


class TestPriorCommand:
    def test_prior_mask_written(self, dataset, tmp_path):
        out = tmp_path / "prior.sg3d"
        rc = main(["--seed", "1", "prior", "--img", str(dataset / "case_000_img.sg3d"),
                   "--out", str(out)])
        assert rc == 0
        header, mask = read_volume(out)
        assert header.dtype_code == 2
        assert set(np.unique(mask)) <= {0, 1}
        assert mask.sum() > 0
        assert out.with_suffix(".sg3d.manifest.txt").exists()


class TestTrainCommand:
    def test_outputs(self, trained):
        assert (trained / "checkpoint.sgcp").exists()
        history = (trained / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,lr,train_loss,val_loss"
        assert len(history) == 4
        state = load_checkpoint(trained / "checkpoint.sgcp")
        assert len(state) > 0
        assert (trained / "config.json").exists()
        manifest = (trained / "run_manifest.txt").read_text().splitlines()
        assert any(line.startswith("blas_core=") for line in manifest)
        assert any(line.startswith("blas_threads=") for line in manifest)

    def test_ablation_flags_change_structure(self, dataset, tmp_path):
        out = tmp_path / "ablate"
        rc = main(["--seed", "3", "train", "--data", str(dataset), "--out", str(out),
                   "--epochs", "1", "--patience", "1", "--widths", "4,4,4,4",
                   "--no-prior", "--no-msff", "--no-aam", "--no-mc"])
        assert rc == 0
        config = json.loads((out / "config.json").read_text())
        assert config["net"]["in_channels"] == 4
        assert config["net"]["use_msff"] is False and config["net"]["use_aam"] is False


class TestInferCommand:
    def test_outputs_and_ranges(self, trained, dataset, tmp_path):
        out = tmp_path / "pred"
        rc = main(["--seed", "5", "infer", "--checkpoint", str(trained / "checkpoint.sgcp"),
                   "--img", str(dataset / "case_001_img.sg3d"), "--out", str(out),
                   "--passes", "4"])
        assert rc == 0
        _, mean = read_volume(out / "mean.sg3d")
        _, var = read_volume(out / "variance.sg3d")
        _, masks = read_volume(out / "masks.sg3d")
        assert mean.shape == (3, 16, 16, 8)
        assert np.all((mean >= 0) & (mean <= 1))
        assert np.all((var >= 0) & (var <= 0.25))
        assert set(np.unique(masks)) <= {0, 1}
        for region in ("et", "wt", "tc"):
            assert (out / f"mean_{region}.pgm").exists()
            assert (out / f"uncertainty_{region}.pgm").exists()
        manifest = (out / "run_manifest.txt").read_text().splitlines()
        blas = autodiff._openblas()
        assert f"blas_core={blas.corename if blas else 'unknown'}" in manifest
        assert f"blas_threads={blas.get_threads() if blas else 'unknown'}" in manifest

    def test_manifest_without_openblas(self, trained, dataset, tmp_path, monkeypatch):
        from voxseg import cli as cli_module

        monkeypatch.setattr(cli_module, "_openblas", lambda: None)
        out = tmp_path / "pred"
        rc = main(["--seed", "5", "infer",
                   "--checkpoint", str(trained / "checkpoint.sgcp"),
                   "--img", str(dataset / "case_001_img.sg3d"), "--out", str(out),
                   "--passes", "1"])
        assert rc == 0
        manifest = (out / "run_manifest.txt").read_text().splitlines()
        assert "blas_core=unknown" in manifest and "blas_threads=unknown" in manifest

    def test_deterministic_given_seed(self, trained, dataset, tmp_path):
        # --deterministic or not, infer writes the same bytes
        outs = []
        for name, flags in (("a", ["--deterministic"]), ("b", ["--deterministic"]), ("c", [])):
            out = tmp_path / name
            rc = main(["--seed", "5", *flags, "infer",
                       "--checkpoint", str(trained / "checkpoint.sgcp"),
                       "--img", str(dataset / "case_001_img.sg3d"), "--out", str(out),
                       "--passes", "3"])
            assert rc == 0
            outs.append((out / "mean.sg3d").read_bytes() + (out / "variance.sg3d").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_no_prior_checkpoint_round_trip(self, dataset, tmp_path):
        run = tmp_path / "np_run"
        rc = main(["--seed", "3", "train", "--data", str(dataset), "--out", str(run),
                   "--epochs", "1", "--patience", "1", "--widths", "4,4,4,4", "--no-prior"])
        assert rc == 0
        out = tmp_path / "np_pred"
        rc = main(["--seed", "3", "infer", "--checkpoint", str(run / "checkpoint.sgcp"),
                   "--img", str(dataset / "case_002_img.sg3d"), "--out", str(out),
                   "--passes", "2"])
        assert rc == 0
        _, mean = read_volume(out / "mean.sg3d")
        assert mean.shape == (3, 16, 16, 8)

    def test_infer_reuses_training_prior_delta(self, trained, dataset):
        config = json.loads((trained / "config.json").read_text())
        assert config["prior"] is not None
        assert 0 < config["prior"]["delta"] < 35.0  # derived from phantom labels


class TestOlderRunDirectory:
    # "net" settings that older config.json files hold, at the one value each may have
    RETIRED = {"out_channels": 3, "ca_reduction": 2, "spatial_attention_voxel_cap": 32768,
               "aam_before_merge": False, "aam_mode": "channel"}

    def _older_run(self, trained, tmp_path, **values):
        run = tmp_path / "older_run"
        shutil.copytree(trained, run)
        config = json.loads((run / "config.json").read_text())
        config["net"].update({**self.RETIRED, **values})
        assert len(config["net"]) == 13
        (run / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        return run

    def _infer(self, run, dataset, out):
        return main(["--seed", "5", "infer", "--checkpoint", str(run / "checkpoint.sgcp"),
                     "--img", str(dataset / "case_001_img.sg3d"), "--out", str(out), "--passes", "3"])

    def test_new_config_omits_retired_settings(self, trained):
        net = json.loads((trained / "config.json").read_text())["net"]
        assert not set(self.RETIRED) & set(net)

    def test_older_config_infers_the_same_bytes(self, trained, dataset, tmp_path):
        older = self._older_run(trained, tmp_path)
        assert self._infer(trained, dataset, tmp_path / "new") == 0
        assert self._infer(older, dataset, tmp_path / "old") == 0
        names = sorted(p.name for p in (tmp_path / "new").iterdir() if p.name != "run_manifest.txt")
        assert "mean.sg3d" in names and "masks.sg3d" in names
        for name in names:
            assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()

    @pytest.mark.parametrize("key, value", [("aam_before_merge", True), ("out_channels", 4),
                                            ("ca_reduction", 4), ("spatial_attention_voxel_cap", 7),
                                            ("aam_mode", "spatial")])
    def test_other_retired_value_is_runtime_error_without_output(self, trained, dataset, tmp_path,
                                                                  capsys, key, value):
        older = self._older_run(trained, tmp_path, **{key: value})
        out = tmp_path / "pred"
        assert self._infer(older, dataset, out) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_labels_vs_themselves_are_perfect(self, dataset, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["eval", "--pred", str(dataset / "case_000_lbl.sg3d"),
                   "--labels", str(dataset / "case_000_lbl.sg3d"), "--out", str(out)])
        assert rc == 0
        report = MetricReport.from_text(out.read_text())
        assert report.dice_et == 1.0 and report.dice_wt == 1.0 and report.dice_tc == 1.0
        assert report.hd_et == 0.0 and report.hd_wt == 0.0 and report.hd_tc == 0.0

    def test_mask_volume_prediction(self, dataset, tmp_path):
        from voxseg.metrics import compose_regions
        from voxseg.volume_io import write_volume

        _, labels = read_volume(dataset / "case_000_lbl.sg3d")
        masks = compose_regions(labels[0])
        pred = np.stack([masks.et, masks.wt, masks.tc]).astype(np.uint8)
        pred_path = tmp_path / "pred.sg3d"
        write_volume(pred_path, pred)
        out = tmp_path / "report.txt"
        rc = main(["eval", "--pred", str(pred_path), "--labels",
                   str(dataset / "case_000_lbl.sg3d"), "--out", str(out)])
        assert rc == 0
        report = MetricReport.from_text(out.read_text())
        assert report.dice_wt == 1.0

    def test_probability_map_prediction_rejected(self, dataset, tmp_path, capsys):
        # infer's mean.sg3d is not a mask volume; thresholding it at 0 scored near 0
        from voxseg.metrics import compose_regions
        from voxseg.volume_io import write_volume

        _, labels = read_volume(dataset / "case_000_lbl.sg3d")
        masks = compose_regions(labels[0]).stack()
        pred_path = tmp_path / "mean.sg3d"
        write_volume(pred_path, np.where(masks, 0.9, 0.1).astype(np.float32))
        out = tmp_path / "report.txt"
        rc = main(["eval", "--pred", str(pred_path), "--labels",
                   str(dataset / "case_000_lbl.sg3d"), "--out", str(out)])
        assert rc == 2
        assert str(pred_path) in capsys.readouterr().err
        assert not out.exists()
        # the same masks as float 0/1 are scored
        write_volume(pred_path, masks.astype(np.float32))
        assert main(["eval", "--pred", str(pred_path), "--labels",
                     str(dataset / "case_000_lbl.sg3d"), "--out", str(out)]) == 0
        assert MetricReport.from_text(out.read_text()).dice_et == 1.0

    @pytest.mark.parametrize("channels", [3, 4])
    def test_multichannel_labels_rejected(self, dataset, tmp_path, capsys, channels):
        from voxseg.volume_io import write_volume

        _, labels = read_volume(dataset / "case_000_lbl.sg3d")
        labels_path = tmp_path / "labels.sg3d"
        write_volume(labels_path, np.repeat(labels, channels, axis=0))
        out = tmp_path / "report.txt"
        rc = main(["eval", "--pred", str(dataset / "case_000_lbl.sg3d"), "--labels",
                   str(labels_path), "--out", str(out)])
        assert rc == 2
        assert f"{labels_path}: labels must have 1 channel, found {channels}" in capsys.readouterr().err
        assert not out.exists()

    def test_image_as_labels_gives_a_short_message(self, dataset, tmp_path, capsys):
        from voxseg.volume_io import write_volume

        _, img = read_volume(dataset / "case_000_img.sg3d")
        labels_path = tmp_path / "flair.sg3d"
        write_volume(labels_path, img[:1])
        out = tmp_path / "report.txt"
        rc = main(["eval", "--pred", str(dataset / "case_000_lbl.sg3d"), "--labels",
                   str(labels_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown label codes" in err and len(err) < 200
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--pred", "--labels"])
    def test_unknown_codes_name_the_option_and_file(self, dataset, tmp_path, capsys, option):
        from voxseg.volume_io import write_volume

        _, img = read_volume(dataset / "case_000_img.sg3d")
        flair = tmp_path / "flair.sg3d"
        write_volume(flair, img[:1])
        lbl = str(dataset / "case_000_lbl.sg3d")
        files = {"--pred": lbl, "--labels": lbl, option: str(flair)}
        out = tmp_path / "report.txt"
        rc = main(["eval", "--pred", files["--pred"], "--labels", files["--labels"], "--out", str(out)])
        assert rc == 2
        assert f"error: {option} flair.sg3d: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spacing", ["1,x,1", "1,0,1", "1,-2,1", "1,nan,1", "1,1", "1,1,1,1"])
    def test_bad_spacing_is_usage_error(self, dataset, tmp_path, capsys, spacing):
        labels = str(dataset / "case_000_lbl.sg3d")
        rc = main(["eval", "--pred", labels, "--labels", labels, "--out", str(tmp_path / "r.txt"),
                   "--spacing", spacing])
        assert rc == 1
        assert "spacing" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()


class TestStatsCommand:
    def test_stats_file(self, dataset, tmp_path):
        out = tmp_path / "stats.txt"
        rc = main(["stats", "--data", str(dataset), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "median=" in text and "case_0=" in text

    def test_multichannel_label_file_rejected(self, dataset, tmp_path, capsys):
        from voxseg.volume_io import write_volume

        data = tmp_path / "data"
        data.mkdir()
        shutil.copy(dataset / "case_000_img.sg3d", data)
        _, labels = read_volume(dataset / "case_000_lbl.sg3d")
        write_volume(data / "case_000_lbl.sg3d", np.repeat(labels, 3, axis=0))
        out = tmp_path / "stats.txt"
        assert main(["stats", "--data", str(data), "--out", str(out)]) == 2
        assert f"{data / 'case_000_lbl.sg3d'}: labels must have 1 channel, found 3" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckCommand:
    def test_failure_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        from voxseg import cli as cli_module
        from voxseg.verify import CheckResult

        monkeypatch.setattr(cli_module, "run_gradient_checks",
                            lambda tolerance, seed: [CheckResult("stub", 1.0, tolerance)])
        rc = main(["gradcheck", "--out", str(tmp_path)])
        assert rc == 2
        assert "FAIL stub" in (tmp_path / "gradcheck_report.txt").read_text()

    def test_success_exits_zero(self, tmp_path, monkeypatch):
        from voxseg import cli as cli_module
        from voxseg.verify import CheckResult

        monkeypatch.setattr(cli_module, "run_gradient_checks",
                            lambda tolerance, seed: [CheckResult("stub", 1e-9, tolerance)])
        assert main(["gradcheck", "--out", str(tmp_path)]) == 0


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["phantom", "--cases", "1", "--out", str(tmp_path), "--bogus"]) == 1

    @pytest.mark.parametrize("dims", ["32xQx16", "16.5x16x8", "x16x8", "32x32", "0x16x8"])
    def test_bad_dims_is_usage_error(self, tmp_path, capsys, dims):
        out = tmp_path / "d"
        assert main(["phantom", "--cases", "1", "--dims", dims, "--out", str(out)]) == 1
        assert "dims" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("widths", ["4,4,x,4", "4.0,4,4,4", "4,,4,4"])
    def test_bad_widths_is_usage_error(self, tmp_path, capsys, widths):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(tmp_path), "--out", str(out), "--widths", widths])
        assert rc == 1
        assert "--widths" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["prior", "--img", str(tmp_path / "nope.sg3d"), "--out", str(tmp_path / "o.sg3d")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param("train --data {missing} --out {out}", id="train-no-data"),
        pytest.param("infer --checkpoint {missing}/checkpoint.sgcp --img {img} --out {out}", id="infer-no-config"),
    ])
    def test_runtime_error_before_writing_leaves_no_output(self, dataset, tmp_path, capsys, argv):
        paths = {"out": tmp_path / "out", "missing": tmp_path / "missing", "img": dataset / "case_000_img.sg3d"}
        assert main(argv.format(**paths).split()) == 2
        assert "error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_diverged_training_leaves_no_output(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--data", str(dataset), "--out", str(out), "--epochs", "3",
                       "--patience", "3", "--widths", "4,4,4,4", "--lr", "1e8"])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEED", "42")
        out = tmp_path / "d"
        assert main(["phantom", "--cases", "1", "--dims", "16x16x8", "--out", str(out)]) == 0
        assert "seed=42" in (out / "run_manifest.txt").read_text()

    @pytest.mark.parametrize("argv, env_seed", [
        pytest.param("phantom --cases -1 --out {out}", None, id="phantom-cases"),
        pytest.param("--seed -1 phantom --cases 1 --dims 16x16x8 --out {out}", None, id="phantom-seed"),
        pytest.param("phantom --cases 1 --dims 16x16x8 --out {out}", "abc", id="env-seed-text"),
        pytest.param("phantom --cases 1 --dims 16x16x8 --out {out}", "-2", id="env-seed-neg"),
        pytest.param("prior --img {img} --out {out} --n-seeds 0", None, id="prior-n-seeds"),
        pytest.param("train --data {data} --out {out} --epochs 0", None, id="train-epochs"),
        pytest.param("train --data {data} --out {out} --cosine-t 0", None, id="train-cosine-t"),
        pytest.param("train --data {data} --out {out} --patience -3", None, id="train-patience"),
        pytest.param("train --data {data} --out {out} --seed -1", None, id="train-seed"),
        pytest.param("train --data {data} --out {out} --widths 4,4,6,4", None, id="train-widths"),
        pytest.param("train --data {data} --out {out} --widths 0,0,0,0", None, id="train-widths-zero"),
        pytest.param("train --data {data} --out {out} --widths -8,-8,-8,-8", None, id="train-widths-negative"),
        pytest.param("infer --checkpoint {ckpt} --img {img} --out {out} --passes 0", None, id="infer-passes"),
        pytest.param("phantom --cases 1 --dims 16x16x8 --noise -3 --out {out}", None, id="phantom-noise-neg"),
        pytest.param("phantom --cases 1 --dims 16x16x8 --noise nan --out {out}", None, id="phantom-noise-nan"),
        pytest.param("prior --img {img} --out {out} --delta nan", None, id="prior-delta-nan"),
        pytest.param("prior --img {img} --out {out} --delta 0", None, id="prior-delta-zero"),
        pytest.param("train --data {data} --out {out} --epochs 1 --dropout 1.5", None, id="train-dropout"),
        pytest.param("train --data {data} --out {out} --epochs 1 --lr nan", None, id="train-lr-nan"),
        pytest.param("train --data {data} --out {out} --epochs 1 --lr-min -1", None, id="train-lr-min"),
        pytest.param("train --data {data} --out {out} --epochs 1 --weight-decay -5", None, id="train-weight-decay"),
        pytest.param("train --data {data} --out {out} --epochs 1 --weight-decay inf", None, id="train-weight-decay-inf"),
        pytest.param("gradcheck --out {out} --tolerance nan", None, id="gradcheck-tolerance-nan"),
        pytest.param("gradcheck --out {out} --tolerance 0", None, id="gradcheck-tolerance-zero"),
        pytest.param("gradcheck --out {out} --tolerance -1", None, id="gradcheck-tolerance-neg"),
    ])
    def test_out_of_range_is_usage_error_without_output(self, dataset, trained, tmp_path, monkeypatch,
                                                        capsys, argv, env_seed):
        if env_seed is not None:
            monkeypatch.setenv("SEED", env_seed)
        paths = {"out": tmp_path / "out", "data": dataset, "img": dataset / "case_000_img.sg3d",
                 "ckpt": trained / "checkpoint.sgcp"}
        assert main(argv.format(**paths).split()) == 1
        assert "usage error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestManifestPlacement:
    def test_directory_with_suffix_holds_its_manifest(self, tmp_path):
        out = tmp_path / "data.v1"
        assert main(["phantom", "--cases", "1", "--dims", "16x16x8", "--out", str(out)]) == 0
        assert (out / "run_manifest.txt").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.v1"]

    def test_suffixless_prior_output(self, dataset, tmp_path):
        out = tmp_path / "mask"
        assert main(["prior", "--img", str(dataset / "case_000_img.sg3d"), "--out", str(out)]) == 0
        assert out.is_file() and (tmp_path / "mask.manifest.txt").is_file()

    def test_suffixless_eval_output(self, dataset, tmp_path):
        labels = str(dataset / "case_000_lbl.sg3d")
        out = tmp_path / "report"
        assert main(["eval", "--pred", labels, "--labels", labels, "--out", str(out)]) == 0
        assert out.is_file() and (tmp_path / "report.manifest.txt").is_file()
