"""The benchmark's own tests: smoke runs, metric names, and output checks
that reject corrupted outputs. Each runs in seconds.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, seconds="0.3"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    for m in SPEC["per_layer"]:
        assert m["unit"] == bench.layer_unit(m["name"]), m


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    res = _result(_run(workload, trace=1))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    report = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed3-trace1.json").read_text())
    assert not report["check_errors"]
    assert report["digests"]
    if workload != "classical-brats":
        checks = report["trace_checks"]
        assert checks["conv3d_calls_per_forward"] == checks["conv3d_modules"] == 83
        assert res["metrics"]["autodiff.conv3d.calls"]["value"] > 0
    else:
        assert res["metrics"]["autodiff.conv3d.calls"]["value"] == 0
        assert res["metrics"]["metrics.boundary_points"]["value"] > 0


def test_smoke_untraced_run_reports_every_end_to_end_metric():
    res = _result(_run("train-32", trace=0))
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train-32", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_original():
    import voxseg.autodiff as autodiff
    import voxseg.network as network
    import voxseg.cli  # noqa: F401

    def snapshot():
        return {(name, attr): value for name, mod in sys.modules.items()
                if name.startswith("voxseg") and mod is not None
                for attr, value in vars(mod).items() if callable(value)}

    before = snapshot()
    conv3d = autodiff.conv3d
    forward = vars(network.TumorSegNet)["forward"]
    with tracer.Tracer():
        assert autodiff.conv3d is not conv3d and network.conv3d is not conv3d
        assert vars(network.TumorSegNet)["forward"] is not forward
    assert snapshot() == before
    assert vars(network.TumorSegNet)["forward"] is forward


def test_loss_check_rejects_bad_losses():
    workloads.check_losses([1.0, 0.9, 0.8, 0.7])
    with pytest.raises(workloads.CheckFailed):
        workloads.check_losses([1.0, math.nan, 0.8, 0.7])
    with pytest.raises(workloads.CheckFailed):
        workloads.check_losses([1.0, 1.1, 1.2, 1.3])


def test_param_check_rejects_a_changed_parameter():
    a = workloads.network.TumorSegNet(workloads.network.NetworkConfig(), seed=0)
    b = workloads.network.TumorSegNet(workloads.network.NetworkConfig(), seed=0)
    workloads.check_same_params(a, b)
    b.head.bias.data[0] += np.float32(1e-3)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_same_params(a, b)


def test_mc_output_check_rejects_corrupted_outputs():
    rng = np.random.default_rng(0)
    mean = rng.random((3, 4, 4, 4)).astype(np.float32)
    var = (0.2 * rng.random((3, 4, 4, 4))).astype(np.float32)
    masks = (mean >= 0.5).astype(np.uint8)
    workloads.check_mc_outputs(mean, var, masks)
    bad = [(mean + 1, var, masks), (mean, var + 0.1, masks), (mean, var, 1 - masks)]
    nan_mean = mean.copy()
    nan_mean[0, 0, 0, 0] = np.nan
    bad.append((nan_mean, var, masks))
    for args in bad:
        with pytest.raises(workloads.CheckFailed):
            workloads.check_mc_outputs(*args)


def test_mc_equivalence_rejects_a_wrong_mc_infer(monkeypatch):
    net = workloads.perturbed_net(0)
    real = workloads.training.mc_infer

    def off_by_one(net, x, n_passes, seed):
        return real(net, x, n_passes=n_passes, seed=seed + 1)

    monkeypatch.setattr(workloads.training, "mc_infer", off_by_one)
    with pytest.raises(workloads.CheckFailed):
        workloads.mc_equivalence(net, seed=0, n=2)


def test_score_check_rejects_wrong_scores():
    prior = np.zeros((8, 8, 8), dtype=bool)
    prior[2:5, 2:5, 2:5] = True
    good = {"dice_wt": 0.95, "hd_et": 2.0, "hd_tc": 2.0, "hd_wt": 1.0}
    workloads.check_scores(prior, good, k=2)
    for change in ({"dice_wt": 0.5}, {"hd_et": 3.0}, {"hd_tc": 2.0000001}, {"hd_wt": math.inf}):
        with pytest.raises(workloads.CheckFailed):
            workloads.check_scores(prior, {**good, **change}, k=2)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_scores(np.zeros_like(prior), good, k=2)


def test_translate_hausdorff_is_exactly_k():
    mask = np.zeros((24, 24, 16), dtype=bool)
    idx = np.indices(mask.shape)
    mask[((idx[0] - 8) ** 2 + (idx[1] - 9) ** 2 + (idx[2] - 6) ** 2) <= 16] = True
    for k in (1, 2, 3):
        for axis in range(3):
            moved = workloads.shift_inward(mask, k, axis)
            assert moved.sum() == mask.sum()
            assert workloads.metrics.hausdorff(moved, mask) == float(k)


def test_unclipped_case_skips_tumors_the_brain_clips():
    for seed in range(50):
        spec = workloads.phantom.PhantomSpec(dims=(48, 48, 32), n_cases=1, rng_seed=seed,
                                             tumor_radius_range=(0.23, 0.23))
        n, kept = workloads.tumor_placement(spec, 0)
        if kept < n:
            break
    assert (workloads.phantom.gen_phantom(spec, 0).labels > 0).sum() == kept
    case, n = workloads.unclipped_case(spec)
    assert case > 0
    assert (workloads.phantom.gen_phantom(spec, case).labels > 0).sum() == n
