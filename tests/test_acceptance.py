"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. The training-based criteria share one overfit
run via a module fixture; the whole module stays within a desk-scale
CPU budget.
"""

import math
import time

import numpy as np
import pytest

from voxseg.autodiff import Tensor
from voxseg.checkpoint import read_manifest, save_checkpoint
from voxseg.cli import main as cli_main
from voxseg.losses import bce_loss, combined_loss, dice_loss
from voxseg.metrics import compose_regions, dice_score, extract_boundary, hausdorff
from voxseg.network import NetworkConfig, TumorSegNet, count_params
from voxseg.phantom import PhantomSpec, gen_phantom
from voxseg.prior import PriorConfig, generate_prior, largest_component, otsu_threshold, region_grow
from voxseg.training import AdamW, TrainConfig, cosine_lr, evaluate_case, fit, mc_infer, prepare_case
from voxseg.verify import run_gradient_checks

from oracles import (
    hausdorff_brute,
    hausdorff_pointloop,
    label_components_unionfind,
    otsu_scan,
    random_blob_mask,
    region_grow_fixpoint,
)


_terminal = None


@pytest.fixture(scope="module", autouse=True)
def _grab_terminal(request):
    global _terminal
    _terminal = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def report(number: int, name: str, passed: bool) -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}"
    if _terminal is not None:  # bypass output capture so the line always shows
        _terminal.write_line("\n" + line)
    else:
        print(line)
    assert passed, f"acceptance criterion {number} ({name}) failed"


def _memorize_phantom(epochs: int):
    """Single-phantom memorization at a desk-scale optimizer schedule.

    The production-scale optimizer defaults (lr 1e-4 with the cosine
    schedule clamped after epoch 50) bound total parameter movement by
    roughly sum(lr_t) < 0.005 over a 200-step budget, which cannot move
    sigmoid logits anywhere near saturation; memorization needs the
    schedule below (architecture and ablation switches stay at their
    defaults).
    """
    vol = gen_phantom(PhantomSpec(dims=(32, 32, 16), rng_seed=5), 0)
    config = TrainConfig(seed=3, max_epochs=epochs, patience=epochs,
                         lr_init=5e-3, cosine_T=epochs)
    start = time.perf_counter()
    result = fit([vol], [vol], None, config)
    elapsed = time.perf_counter() - start
    net = TumorSegNet(NetworkConfig(), seed=0)
    net.load_state(result.best_state)
    x, _ = prepare_case(vol, use_prior=True, prior_config=result.prior_config)
    return vol, net, x, result, elapsed


@pytest.fixture(scope="module")
def overfit_run():
    return _memorize_phantom(200)


@pytest.fixture(scope="module")
def refined_run():
    # longer memorization for the MC criterion: sharper sigmoid saturation
    # shrinks the per-voxel MC variance and with it the mean's sampling noise
    return _memorize_phantom(600)


@pytest.mark.slow
class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        start = time.perf_counter()
        results = run_gradient_checks(tolerance=1e-5, seed=0)
        elapsed = time.perf_counter() - start
        failed = [r for r in results if not r.passed]
        for r in results:
            print(f"  {'PASS' if r.passed else 'FAIL'} {r.name}: {r.max_rel_error:.2e}")
        report(1, "gradient correctness", not failed and elapsed < 300.0)


class TestCriterion2LossFidelity:
    def test_loss_formulas(self):
        rng = np.random.default_rng(0)
        g = (rng.random(1000) > 0.4).astype(np.float64)
        ln2_ok = abs(bce_loss(Tensor(np.full(1000, 0.5)), g).item() - math.log(2.0)) < 1e-6

        mask = np.zeros((6, 6, 6))
        mask[1:4, 2:5, 1:3] = 1.0
        dice_ok = dice_loss(Tensor(mask.copy()), mask).item() == 0.0

        p = Tensor(rng.random((1, 3, 4, 4, 4)))
        gg = (rng.random((1, 3, 4, 4, 4)) > 0.5).astype(np.float64)
        combined = combined_loss(p, gg).item()
        parts = (dice_loss(p, gg).item() + bce_loss(p, gg).item()) / 2.0
        mean_ok = abs(combined - parts) < 1e-12
        report(2, "loss formula fidelity", ln2_ok and dice_ok and mean_ok)


class TestCriterion3MetricOracles:
    def test_metrics_against_brute_force(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        ok = True
        for _ in range(100):
            size = tuple(rng.integers(8, 33, size=3))
            a = random_blob_mask(rng, size)
            b = random_blob_mask(rng, size)
            dice_main = dice_score(a, b)
            inter = np.logical_and(a, b).sum()
            dice_oracle = 1.0 if a.sum() + b.sum() == 0 else 2.0 * inter / (a.sum() + b.sum())
            ok &= dice_main == dice_oracle
            if a.any() and b.any():
                hd_main = hausdorff(a, b)
                hd_oracle = hausdorff_pointloop(extract_boundary(a), extract_boundary(b))
                ok &= math.isclose(hd_main, hd_oracle, rel_tol=1e-12)
                ok &= hd_main == hausdorff_brute(a, b)

        p = np.zeros((5, 6, 2), dtype=bool)
        q = np.zeros((5, 6, 2), dtype=bool)
        p[0, 0, 0] = True
        q[3, 4, 0] = True
        ok &= hausdorff(p, q) == 5.0
        elapsed = time.perf_counter() - start
        report(3, "metric oracles", ok and elapsed < 120.0)


class TestCriterion4PriorOracles:
    def test_prior_pipeline_oracles(self):
        rng = np.random.default_rng(2)
        ok = True
        for _ in range(50):
            n_modes = rng.integers(2, 5)
            values = np.abs(np.concatenate([
                rng.normal(rng.uniform(10, 200), rng.uniform(1, 12), size=rng.integers(40, 160))
                for _ in range(n_modes)
            ])) + 1.0
            bins = int(rng.integers(16, 129))
            ok &= otsu_threshold(values.reshape(1, 1, -1), bins=bins) == otsu_scan(values, bins)

        for _ in range(10):
            grid = rng.uniform(0, 80, (8, 8, 8))
            seeds = [tuple(rng.integers(0, 8, 3)) for _ in range(3)]
            delta = float(rng.uniform(5, 30))
            grown = region_grow(grid, seeds, delta, 6)
            ok &= np.array_equal(grown, region_grow_fixpoint(grid, seeds, delta, 6))
            ok &= np.array_equal(grown, region_grow(grid, seeds[::-1], delta, 6))

        for _ in range(10):
            mask = rng.random((10, 10, 10)) > 0.72
            got = largest_component(mask, 26)
            labels = label_components_unionfind(mask, 26)
            if labels.max() == 0:
                ok &= got.sum() == 0
            else:
                ok &= got.sum() == np.bincount(labels.ravel())[1:].max()

        spec = PhantomSpec(dims=(32, 32, 16), rng_seed=9)
        for idx in range(10):
            vol = gen_phantom(spec, idx)
            prior = generate_prior(vol.flair, PriorConfig(rng_seed=idx))
            wt = compose_regions(vol.labels).wt
            ok &= dice_score(prior, wt) >= 0.9
        report(4, "prior pipeline oracles", ok)


@pytest.mark.slow
class TestCriterion5LearningSanity:
    def test_single_phantom_memorization(self, overfit_run):
        vol, net, x, result, elapsed = overfit_run
        best_train = min(h.train_loss for h in result.history)
        mc = mc_infer(net, x, n_passes=20, seed=11)
        rep = evaluate_case(mc.masks, vol.labels)
        print(f"  train loss {best_train:.4f}, dice et/wt/tc "
              f"{rep.dice_et:.3f}/{rep.dice_wt:.3f}/{rep.dice_tc:.3f}, {elapsed:.0f}s")
        ok = (
            best_train < 0.05
            and len(result.history) <= 200
            and rep.dice_wt >= 0.95
            and rep.dice_tc >= 0.90
            and rep.dice_et >= 0.85
            and elapsed < 1800.0
        )
        report(5, "end-to-end learning sanity", ok)


class TestCriterion6AblationSwitchboard:
    # the six configurations of the module-comparison table
    TABLE_CONFIGS = [
        ("baseline", dict(use_prior=False, use_msff=False, use_aam=False, use_mc=False)),
        ("prior", dict(use_prior=True, use_msff=False, use_aam=False, use_mc=False)),
        ("msff_mc", dict(use_prior=False, use_msff=True, use_aam=False, use_mc=True)),
        ("aam_mc", dict(use_prior=False, use_msff=False, use_aam=True, use_mc=True)),
        ("msff_aam_mc", dict(use_prior=False, use_msff=True, use_aam=True, use_mc=True)),
        ("full", dict(use_prior=True, use_msff=True, use_aam=True, use_mc=True)),
    ]

    def test_switchboard(self):
        baseline = TumorSegNet(NetworkConfig(in_channels=4, use_msff=False, use_aam=False), seed=0)
        kinds = [kind for _, kind in baseline.layer_manifest()]
        ok = kinds.count("conv_block") == 7 and kinds.count("maxpool") == 3
        ok &= "multiscale_block" not in kinds and "adaptive_attention" not in kinds
        enc = [k for n, k in baseline.layer_manifest() if n.startswith("encoder")]
        ok &= enc == ["conv_block"] * 4

        full = TumorSegNet(NetworkConfig(), seed=0)
        full_kinds = [kind for _, kind in full.layer_manifest()]
        ok &= full_kinds.count("multiscale_block") == 7
        ok &= full_kinds.count("adaptive_attention") == 3

        spec = PhantomSpec(dims=(16, 16, 8), rng_seed=12)
        volumes = [gen_phantom(spec, i) for i in range(3)]
        for name, switches in self.TABLE_CONFIGS:
            config = TrainConfig(seed=1, max_epochs=2, patience=2,
                                 use_prior=switches["use_prior"], use_mc=switches["use_mc"])
            net_config = NetworkConfig(
                in_channels=5 if switches["use_prior"] else 4,
                stage_widths=(4, 4, 4, 4), gn_groups=2,
                use_msff=switches["use_msff"], use_aam=switches["use_aam"],
            )
            result = fit(volumes[:2], volumes[2:], net_config, config)
            ok &= len(result.history) == 2
            manifest = [kind for _, kind in result.net.layer_manifest()]
            want_block = "multiscale_block" if switches["use_msff"] else "conv_block"
            ok &= manifest.count(want_block) == 7
            ok &= manifest.count("adaptive_attention") == (3 if switches["use_aam"] else 0)
        report(6, "ablation switchboard", ok)


@pytest.mark.slow
class TestCriterion7McDropout:
    def test_mc_contract(self, refined_run):
        vol, net, x, result, _ = refined_run
        dry = TumorSegNet(NetworkConfig(dropout_rate=0.0), seed=4)
        mc_dry = mc_infer(dry, x, n_passes=6, seed=0)
        ok = np.all(mc_dry.variance == 0.0)

        mc = mc_infer(net, x, n_passes=20, seed=21)
        ok &= mc.n_passes == 20  # stock pass count
        ok &= np.all((mc.mean >= 0.0) & (mc.mean <= 1.0))
        ok &= np.all((mc.variance >= 0.0) & (mc.variance <= 0.25))

        # growing the pass budget from the same seed: the first 64 passes of
        # the 128-pass run are exactly the 64-pass run
        mean64 = mc_infer(net, x, n_passes=64, seed=31).mean
        mean128 = mc_infer(net, x, n_passes=128, seed=31).mean
        drift = float(np.abs(mean64 - mean128).max())
        print(f"  64- vs 128-pass max-abs mean drift: {drift:.4f}")
        ok &= drift < 0.05
        report(7, "mc-dropout contract", ok)


class TestCriterion8SchedulerOptimizer:
    def test_schedule_and_optimizer_identities(self):
        cfg = TrainConfig()
        ok = abs(cosine_lr(0, cfg) - 1e-4) < 1e-12
        ok &= abs(cosine_lr(25, cfg) - 5e-5) < 1e-12
        ok &= abs(cosine_lr(50, cfg) - cfg.lr_min) < 1e-12

        p = Tensor(np.array([1.5, -0.5], dtype=np.float32), requires_grad=True)
        opt = AdamW([("p", p)], lr=1e-3, weight_decay=0.0)
        before = p.data.copy()
        p.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        ok &= float(np.abs(p.data - before).max()) < 1e-12

        w = Tensor(np.full((2, 2), 2.0, dtype=np.float64), requires_grad=True)
        opt2 = AdamW([("w", w)], lr=0.1, weight_decay=0.25)
        w.grad = np.zeros((2, 2))
        opt2.step()
        ok &= float(np.abs(w.data - 2.0 * (1 - 0.1 * 0.25)).max()) < 1e-12
        report(8, "scheduler and optimizer identities", ok)


class TestCriterion9Accounting:
    def test_param_ordering_and_oracle(self, tmp_path):
        def params_for(kernel, dilation=1):
            cfg = NetworkConfig(msff_kernel=kernel, msff_dilation=dilation)
            return count_params(TumorSegNet(cfg, seed=0))

        p3 = params_for(3, 2)
        p5 = params_for(5)
        p7 = params_for(7)
        ok = p3 < p5 < p7
        print(f"  params k3+d2={p3}, k5={p5}, k7={p7}")

        net = TumorSegNet(NetworkConfig(), seed=2)
        path = tmp_path / "acc.sgcp"
        save_checkpoint(path, net.state_dict())
        oracle_total = sum(int(np.prod(shape)) for _, shape in read_manifest(path))
        ok &= count_params(net) == oracle_total
        report(9, "accounting direction and oracle", ok)


class TestCriterion10DeterminismIO:
    def test_byte_identical_runs_and_formats(self, tmp_path):
        outputs = []
        for tag in ("r1", "r2"):
            base = tmp_path / tag
            data = base / "data"
            run = base / "run"
            pred = base / "pred"
            assert cli_main(["--seed", "13", "--deterministic", "phantom", "--cases", "10",
                             "--dims", "16x16x8", "--out", str(data)]) == 0
            assert cli_main(["--seed", "13", "--deterministic", "train", "--data", str(data),
                             "--out", str(run), "--epochs", "2", "--patience", "2",
                             "--widths", "4,4,4,4"]) == 0
            assert cli_main(["--seed", "13", "--deterministic", "infer",
                             "--checkpoint", str(run / "checkpoint.sgcp"),
                             "--img", str(data / "case_001_img.sg3d"),
                             "--out", str(pred), "--passes", "4"]) == 0
            outputs.append({
                "checkpoint": (run / "checkpoint.sgcp").read_bytes(),
                "history": (run / "history.csv").read_bytes(),
                "mean": (pred / "mean.sg3d").read_bytes(),
                "variance": (pred / "variance.sg3d").read_bytes(),
                "masks": (pred / "masks.sg3d").read_bytes(),
            })
        ok = all(outputs[0][key] == outputs[1][key] for key in outputs[0])

        from voxseg.volume_io import export_slice_pgm, read_volume, write_volume

        rng = np.random.default_rng(3)
        grids = rng.standard_normal((2, 4, 4, 4)).astype(np.float32)
        vol_path = tmp_path / "rt.sg3d"
        write_volume(vol_path, grids)
        first = vol_path.read_bytes()
        _, back = read_volume(vol_path)
        write_volume(vol_path, back)
        ok &= vol_path.read_bytes() == first

        pgm_grid = np.zeros((1, 1, 3))
        pgm_grid[0, 0] = [0.0, 0.5, 1.0]
        pgm_path = tmp_path / "r.pgm"
        export_slice_pgm(pgm_grid, "sagittal", 0, (0.0, 1.0), pgm_path)
        payload = pgm_path.read_bytes().split(b"\n255\n", 1)[1]
        ok &= payload == bytes([0, 128, 255])
        report(10, "determinism and bit-exact io", ok)
