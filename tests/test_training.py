"""Optimizer, scheduler, fit-loop (stop rule included), and MC-inference tests."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from voxseg import autodiff, training
from voxseg.autodiff import DropoutMode, Tensor, _openblas, backward, derive_rng, derive_seed, no_grad
from voxseg.losses import combined_loss
from voxseg.network import NetworkConfig, TumorSegNet
from voxseg.phantom import PhantomSpec, gen_phantom
from voxseg.training import (
    AdamW,
    TrainConfig,
    TrainingDivergedError,
    cosine_lr,
    evaluate_case,
    fit,
    format_history,
    mc_infer,
    prepare_case,
)


def tiny_net_config(**overrides):
    base = dict(in_channels=5, stage_widths=(4, 4, 4, 4), gn_groups=2)
    base.update(overrides)
    return NetworkConfig(**base)


@pytest.fixture(scope="module")
def phantom():
    return gen_phantom(PhantomSpec(dims=(16, 16, 8), rng_seed=2), 0)


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def record_threads(monkeypatch, net, fail_on=None):
    """Wrap `net.forward` to log the thread of each pass, the OpenBLAS
    thread count and whether autodiff recorded the tape on that thread;
    raise in passes on the `fail_on` thread."""
    seen = []
    forward = net.forward

    def wrapped(*args, **kwargs):
        blas = _openblas()
        seen.append((threading.get_ident(), blas.get_threads() if blas else None, autodiff._mode.record))
        if fail_on is not None and fail_on(threading.get_ident()):
            raise RuntimeError("pass failed")
        return forward(*args, **kwargs)

    monkeypatch.setattr(net, "forward", wrapped)
    return seen


class PassStub:
    """Stand-in network whose pass `i` (seeded `derive_rng(0, 2, i)`)
    returns `passes[i]`, whichever thread runs it."""

    def __init__(self, passes):
        self.passes = {derive_seed(0, 2, i): out for i, out in enumerate(passes)}

    def forward(self, x, mode, rng=None):
        return Tensor(self.passes[rng.bit_generator.seed_seq.entropy][None])


STUB_X = Tensor(np.zeros((1, 1, 1), dtype=np.float32))


needs_openblas = pytest.mark.skipif(_openblas() is None,
                                    reason="passes run in parallel only under OpenBLAS thread control")


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads for the test, so that a count left at 1
    shows; the previous count is put back afterwards."""
    blas = _openblas()
    previous = blas.get_threads()
    blas.set_threads(2)
    yield blas
    blas.set_threads(previous)


@pytest.fixture(scope="module")
def mc_setup():
    vol = gen_phantom(PhantomSpec(dims=(16, 16, 8), rng_seed=4), 0)
    net = TumorSegNet(tiny_net_config(), seed=5)
    x, _ = prepare_case(vol, use_prior=True)
    return net, x, vol


class TestAdamW:
    def make_param(self, values):
        return [("p", Tensor(np.asarray(values, dtype=np.float32), requires_grad=True))]

    def test_zero_grad_zero_decay_is_fixed_point(self):
        params = self.make_param([[1.0, -2.0], [0.5, 3.0]])
        opt = AdamW(params, lr=1e-2, weight_decay=0.0)
        before = params[0][1].data.copy()
        params[0][1].grad = np.zeros_like(before)
        for _ in range(5):
            opt.step()
        np.testing.assert_array_equal(params[0][1].data, before)

    def test_first_step_magnitude(self):
        # bias corrections cancel at t=1: step is -lr * g / (|g| + eps)
        params = self.make_param([0.0])
        opt = AdamW(params, lr=1e-3, weight_decay=0.0)
        params[0][1].grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert params[0][1].data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_pure_decay_shrinks_matrices(self):
        params = [("w", Tensor(np.full((2, 2), 4.0, dtype=np.float32), requires_grad=True))]
        opt = AdamW(params, lr=0.1, weight_decay=0.5)
        params[0][1].grad = np.zeros((2, 2), dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(params[0][1].data, 4.0 * (1 - 0.1 * 0.5), rtol=1e-6)

    def test_decay_skips_one_dim_params(self):
        params = [("b", Tensor(np.full(3, 4.0, dtype=np.float32), requires_grad=True))]
        opt = AdamW(params, lr=0.1, weight_decay=0.5)
        params[0][1].grad = np.zeros(3, dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(params[0][1].data, np.full(3, 4.0, dtype=np.float32))

    def test_descends_quadratic(self):
        params = self.make_param([5.0])
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        p = params[0][1]
        for _ in range(200):
            p.zero_grad()
            loss = (p * p).sum()
            backward(loss)
            opt.step()
        assert abs(p.data[0]) < 0.1


class TestCosineLr:
    def test_epoch_zero_is_lr_init(self):
        assert cosine_lr(0, TrainConfig()) == pytest.approx(1e-4)

    def test_midpoint_is_half(self):
        assert cosine_lr(25, TrainConfig()) == pytest.approx(5e-5)

    def test_end_is_lr_min(self):
        cfg = TrainConfig(lr_min=1e-6)
        assert cosine_lr(50, cfg) == pytest.approx(1e-6)

    def test_clamps_after_period_by_default(self):
        cfg = TrainConfig()
        assert cosine_lr(80, cfg) == pytest.approx(cfg.lr_min)
        assert cosine_lr(1000, cfg) == pytest.approx(cfg.lr_min)

    def test_restart_mode_climbs_back(self):
        cfg = TrainConfig(cosine_restarts=True)
        assert cosine_lr(50, cfg) == pytest.approx(cfg.lr_min)
        assert cosine_lr(100, cfg) == pytest.approx(cfg.lr_init)
        assert cosine_lr(75, cfg) == pytest.approx(5e-5)

    def test_non_increasing_over_period(self):
        cfg = TrainConfig()
        values = [cosine_lr(t, cfg) for t in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs, field", [
        ({"max_epochs": 0, "patience": 0}, "max_epochs"),
        ({"cosine_T": 0}, "cosine_T"),
        ({"patience": -3}, "patience"),
        ({"lr_init": float("nan")}, "lr_init"),
        ({"lr_init": -1e-4}, "lr_init"),
        ({"lr_min": float("inf")}, "lr_min"),
        ({"weight_decay": -5.0}, "weight_decay"),
    ])
    def test_out_of_range_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kwargs)

    def test_zero_rates_accepted(self):
        config = TrainConfig(lr_init=0.0, lr_min=0.0, weight_decay=0.0)
        assert config.lr_init == config.lr_min == config.weight_decay == 0.0


def script_val_losses(monkeypatch, losses):
    """Make `fit` read `losses[epoch]` as its validation loss (one
    validation case); training losses stay real, so the parameters move."""
    epochs = iter(losses)

    def loss(pred, target):
        out = combined_loss(pred, target)
        return out if autodiff._mode.record else Tensor(np.array(next(epochs)))

    monkeypatch.setattr(training, "combined_loss", loss)


def fit_tiny(phantom, max_epochs, patience):
    cfg = TrainConfig(seed=1, max_epochs=max_epochs, patience=patience, lr_init=3e-3, use_prior=False)
    return fit([phantom], [phantom], tiny_net_config(in_channels=4), cfg)


class TestFit:
    def test_loss_decreases_and_history_complete(self, phantom):
        cfg = TrainConfig(seed=1, max_epochs=8, patience=8, lr_init=3e-3, cosine_T=8)
        result = fit([phantom], [phantom], tiny_net_config(), cfg)
        assert len(result.history) == 8
        assert result.history[-1].train_loss < result.history[0].train_loss
        assert result.best_epoch >= 0

    def test_bit_identical_across_runs(self, phantom):
        cfg = TrainConfig(seed=7, max_epochs=3, patience=3)
        a = fit([phantom], [phantom], tiny_net_config(), cfg)
        b = fit([phantom], [phantom], tiny_net_config(), cfg)
        assert [h.train_loss for h in a.history] == [h.train_loss for h in b.history]
        assert [h.val_loss for h in a.history] == [h.val_loss for h in b.history]
        for name in a.best_state:
            np.testing.assert_array_equal(a.best_state[name], b.best_state[name])

    def test_no_prior_uses_four_channels(self, phantom):
        cfg = TrainConfig(seed=1, max_epochs=2, patience=2, use_prior=False)
        result = fit([phantom], [phantom], tiny_net_config(in_channels=4), cfg)
        assert result.net.config.in_channels == 4

    def test_default_network_follows_input_channels(self, phantom):
        result = fit([phantom], [phantom], None, TrainConfig(max_epochs=1, patience=1, use_prior=False))
        assert result.net.config == NetworkConfig(in_channels=4)

    def test_channel_mismatch_rejected(self, phantom):
        cfg = TrainConfig(seed=1, max_epochs=2, patience=2, use_prior=False)
        with pytest.raises(ValueError, match="in_channels"):
            fit([phantom], [phantom], tiny_net_config(in_channels=5), cfg)

    def test_early_stop_on_patience(self, phantom):
        # lr 0 freezes the net so validation never improves after epoch 0
        cfg = TrainConfig(seed=1, max_epochs=30, patience=2, lr_init=0.0)
        result = fit([phantom], [phantom], tiny_net_config(), cfg)
        assert result.stopped_early
        assert len(result.history) == 4  # epoch 0 best, then patience+1 flat epochs

    def test_default_patience_beyond_max_epochs_runs_every_epoch(self, phantom):
        cfg = TrainConfig(seed=1, max_epochs=2, use_prior=False)
        assert cfg.patience > cfg.max_epochs
        result = fit([phantom], [phantom], tiny_net_config(in_channels=4), cfg)
        assert len(result.history) == 2
        assert not result.stopped_early

    def test_divergence_aborts_with_diagnostic(self, phantom):
        cfg = TrainConfig(seed=1, max_epochs=50, patience=50, lr_init=1e8)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError, match="epoch"):
            fit([phantom], [phantom], tiny_net_config(), cfg)

    def test_non_finite_validation_aborts_with_diagnostic(self, phantom, monkeypatch):
        # the loss turns infinite only under no_grad, i.e. in validation
        def loss(pred, target):
            out = combined_loss(pred, target)
            return out if autodiff._mode.record else out * math.inf

        monkeypatch.setattr(training, "combined_loss", loss)
        cfg = TrainConfig(seed=1, max_epochs=2, patience=2, use_prior=False)
        with pytest.raises(TrainingDivergedError, match="in validation at epoch 0"):
            fit([phantom], [phantom], tiny_net_config(in_channels=4), cfg)

    def test_improvement_resets_the_count(self, phantom, monkeypatch):
        script_val_losses(monkeypatch, [1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.1])
        result = fit_tiny(phantom, max_epochs=7, patience=2)
        assert result.stopped_early
        assert len(result.history) == 6
        assert (result.best_epoch, result.best_val_loss) == (2, 0.5)

    def test_equal_loss_is_not_an_improvement(self, phantom, monkeypatch):
        script_val_losses(monkeypatch, [0.7] * 5)
        result = fit_tiny(phantom, max_epochs=5, patience=1)
        assert result.stopped_early
        assert len(result.history) == 3  # epoch 0 best, then patience+1 equal epochs
        assert (result.best_epoch, result.best_val_loss) == (0, 0.7)

    def test_falling_loss_runs_to_max_epochs(self, phantom, monkeypatch):
        script_val_losses(monkeypatch, [1.0, 0.9, 0.8, 0.7, 0.6])
        result = fit_tiny(phantom, max_epochs=5, patience=0)
        assert not result.stopped_early
        assert len(result.history) == 5
        assert (result.best_epoch, result.best_val_loss) == (4, 0.6)

    def test_best_state_is_from_the_best_epoch(self, phantom, monkeypatch):
        script_val_losses(monkeypatch, [1.0, 0.5, 0.8, 0.9])
        result = fit_tiny(phantom, max_epochs=4, patience=5)
        assert result.best_epoch == 1
        # fit is deterministic, so a run cut after epoch 1 ends on the best parameters
        script_val_losses(monkeypatch, [1.0, 0.5])
        at_best = fit_tiny(phantom, max_epochs=2, patience=5).net.state_dict()
        final = result.net.state_dict()
        assert result.best_state.keys() == at_best.keys()
        for name, value in at_best.items():
            np.testing.assert_array_equal(result.best_state[name], value)
        assert any(not np.array_equal(final[name], value) for name, value in at_best.items())

    def test_history_format(self):
        from voxseg.training import EpochStats

        text = format_history([EpochStats(0, 1e-4, 0.5, 0.6), EpochStats(1, 9e-5, 0.4, 0.5)])
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_loss"
        assert lines[1].startswith("0,0.0001,0.5,")
        assert len(lines) == 3


class TestMcInfer:

    def test_zero_rate_zero_variance(self, mc_setup):
        _, x, _ = mc_setup
        net = TumorSegNet(tiny_net_config(dropout_rate=0.0), seed=5)
        mc = mc_infer(net, x, n_passes=5, seed=1)
        np.testing.assert_array_equal(mc.variance, np.zeros_like(mc.variance))

    def test_single_pass_zero_variance(self, mc_setup):
        net, x, _ = mc_setup
        mc = mc_infer(net, x, n_passes=1, seed=1)
        np.testing.assert_array_equal(mc.variance, np.zeros_like(mc.variance))

    def test_variance_bounded(self, mc_setup):
        net, x, _ = mc_setup
        mc = mc_infer(net, x, n_passes=8, seed=2)
        assert np.all(mc.variance >= 0.0)
        assert np.all(mc.variance <= 0.25)
        assert np.all((mc.mean >= 0.0) & (mc.mean <= 1.0))

    def test_use_mc_off_is_deterministic_single_pass(self, mc_setup):
        net, x, _ = mc_setup
        a = mc_infer(net, x, n_passes=20, seed=3, use_mc=False)
        b = mc_infer(net, x, n_passes=20, seed=99, use_mc=False)
        assert a.n_passes == 1
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_deterministic_given_seed(self, mc_setup):
        net, x, _ = mc_setup
        a = mc_infer(net, x, n_passes=4, seed=6)
        b = mc_infer(net, x, n_passes=4, seed=6)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.variance, b.variance)

    def test_invalid_passes(self, mc_setup):
        net, x, _ = mc_setup
        with pytest.raises(ValueError):
            mc_infer(net, x, n_passes=0, seed=0)

    @pytest.mark.parametrize("n_passes,use_mc", [(1, True), (2, True), (3, True), (5, True), (3, False)])
    def test_byte_identical_for_any_worker_count(self, mc_setup, monkeypatch, n_passes, use_mc):
        net, x, _ = mc_setup
        with no_grad():
            if use_mc:
                passes = [net.forward(x, DropoutMode.MC_ACTIVE, derive_rng(6, 2, i)).data[0]
                          for i in range(n_passes)]
            else:
                passes = [net.forward(x, DropoutMode.OFF).data[0]]
        outs = np.stack(passes).astype(np.float64)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            mc = mc_infer(net, x, n_passes=n_passes, seed=6, use_mc=use_mc)
            assert mc.mean.tobytes() == outs.mean(axis=0).astype(np.float32).tobytes()
            assert mc.variance.tobytes() == outs.var(axis=0).astype(np.float32).tobytes()
            masks = np.stack([mc.masks.et, mc.masks.wt, mc.masks.tc])
            np.testing.assert_array_equal(masks, mc.mean >= 0.5)

    @needs_openblas
    def test_passes_split_between_caller_and_helper(self, mc_setup, monkeypatch, two_blas_threads):
        net, x, _ = mc_setup
        set_cpus(monkeypatch, 2)
        seen = record_threads(monkeypatch, net)
        mc_infer(net, x, n_passes=5, seed=6)
        caller = threading.get_ident()
        assert sorted(ident == caller for ident, _, _ in seen) == [False, False, True, True, True]
        assert {threads for _, threads, _ in seen} == {1}
        assert {record for _, _, record in seen} == {False}
        assert autodiff._mode.record
        assert two_blas_threads.get_threads() == 2

    @pytest.mark.parametrize("no_openblas", [False, True])
    def test_one_worker_starts_no_thread(self, mc_setup, monkeypatch, no_openblas):
        net, x, _ = mc_setup
        set_cpus(monkeypatch, 1 if not no_openblas else 2)
        if no_openblas:
            monkeypatch.setattr(training, "_openblas", lambda: None)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(training, "ThreadPoolExecutor", no_pool)
        seen = record_threads(monkeypatch, net)
        mc_infer(net, x, n_passes=3, seed=6)
        assert [ident for ident, _, _ in seen] == [threading.get_ident()] * 3
        assert {record for _, _, record in seen} == {False}

    @needs_openblas
    def test_more_workers_than_cores_under_fast_switching(self, mc_setup, monkeypatch):
        net, x, _ = mc_setup
        set_cpus(monkeypatch, 1)
        ref = mc_infer(net, x, n_passes=7, seed=6)
        monkeypatch.setattr(training, "_MC_WORKERS", 4)
        set_cpus(monkeypatch, 4)
        seen = record_threads(monkeypatch, net)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            mc = mc_infer(net, x, n_passes=7, seed=6)
        finally:
            sys.setswitchinterval(interval)
        assert len({ident for ident, _, _ in seen}) == 4
        assert {record for _, _, record in seen} == {False}
        assert mc.mean.tobytes() == ref.mean.tobytes()
        assert mc.variance.tobytes() == ref.variance.tobytes()

    @needs_openblas
    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_pass_error_reaches_caller_and_restores_blas(self, mc_setup, monkeypatch, failing,
                                                         two_blas_threads):
        net, x, _ = mc_setup
        set_cpus(monkeypatch, 2)
        caller = threading.get_ident()
        on_caller = failing == "caller"
        seen = record_threads(monkeypatch, net, fail_on=lambda ident: (ident == caller) == on_caller)
        with pytest.raises(RuntimeError, match="pass failed"):
            mc_infer(net, x, n_passes=4, seed=6)
        assert two_blas_threads.get_threads() == 2
        assert {record for _, _, record in seen} == {False}
        assert autodiff._mode.record

    def test_masks_binarize_the_returned_mean(self, monkeypatch):
        # Two passes, 0.5 and the float32 just below it: the float64 mean
        # 0.5 - 2**-26 lies in [0.5 - 2**-25, 0.5) yet rounds to float32 0.5,
        # so a mask taken from the float64 mean would disagree with the mean.
        below = np.float32(0.5) - np.float32(2.0 ** -25)
        a = np.array([0.5, 0.5, 0.25, 0.75], dtype=np.float32)
        b = np.array([below, 0.5, 0.25, below], dtype=np.float32)
        mean64 = (a.astype(np.float64) + b) / 2
        assert 0.5 - 2.0 ** -25 <= mean64[0] < 0.5
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            mc = mc_infer(PassStub([np.stack([a, b, a]), np.stack([b, a, b])]), STUB_X, n_passes=2)
            assert mc.mean[:, 0].tolist() == [0.5, 0.5, 0.5]
            masks = np.stack([mc.masks.et, mc.masks.wt, mc.masks.tc])
            np.testing.assert_array_equal(masks, mc.mean >= 0.5)
            assert masks[:, 0].all()

    def test_statistics_sum_in_pass_order(self, monkeypatch):
        # Voxel 0 sees passes 1, 2**-24, 2**-53, 2**-53: summed in pass order
        # the small terms are lost (mean 0.25), summed last-first they are
        # kept (0.25000003). Voxel 1 sees the same values rotated, so pass
        # order keeps them; most other orders lose them.
        small = [2.0 ** -24, 2.0 ** -53, 2.0 ** -53]
        columns = np.array([[1.0] + small, small + [1.0]], dtype=np.float32)
        passes = [np.stack([columns[:, i]] * 3) for i in range(4)]
        outs = np.stack(passes).astype(np.float64)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            mc = mc_infer(PassStub(passes), STUB_X, n_passes=4)
            assert mc.mean.tobytes() == outs.mean(axis=0).astype(np.float32).tobytes()
            assert mc.variance.tobytes() == outs.var(axis=0).astype(np.float32).tobytes()
            assert mc.mean[0].tolist() == [0.25, np.float32(0.25 + 2.0 ** -25)]

    def test_mean_is_order_free(self, mc_setup):
        # averaging the same pass outputs in any order agrees to summation noise
        net, x, _ = mc_setup
        from voxseg.autodiff import DropoutMode, derive_rng, no_grad

        outputs = []
        with no_grad():
            for i in range(4):
                pred = net.forward(x, DropoutMode.MC_ACTIVE, derive_rng(6, 2, i))
                outputs.append(pred.data[0].astype(np.float64))
        forward_mean = np.mean(outputs, axis=0)
        reversed_mean = np.mean(outputs[::-1], axis=0)
        assert np.abs(forward_mean - reversed_mean).max() < 1e-6
        mc = mc_infer(net, x, n_passes=4, seed=6)
        assert np.abs(mc.mean - forward_mean).max() < 1e-6


class TestDefaultConfigTrend:
    def test_first_epochs_mostly_decrease_at_default_lr(self):
        # stock optimizer defaults: tiny steps, but the trend must point down.
        # The dropout-off loss on the training case (here the validation
        # column, since val == train) is the smooth quantity; the sampled
        # TRAIN-mode loss carries per-epoch mask noise much larger than the
        # per-step improvement at lr 1e-4.
        vol = gen_phantom(PhantomSpec(dims=(16, 16, 8), rng_seed=6), 0)
        cfg = TrainConfig(seed=2, max_epochs=20, patience=20)
        result = fit([vol], [vol], None, cfg)
        losses = [h.val_loss for h in result.history]
        decreases = sum(1 for a, b in zip(losses, losses[1:]) if b < a + 1e-4)
        assert decreases >= 0.8 * (len(losses) - 1)
        assert losses[-1] < losses[0]


class TestEvaluateCase:
    def test_perfect_prediction(self):
        labels = np.zeros((8, 8, 8), dtype=np.uint8)
        labels[2:5, 2:5, 2:5] = 2
        labels[3:4, 3:4, 3:4] = 4
        from voxseg.metrics import RegionMasks, compose_regions

        gt = compose_regions(labels)
        rep = evaluate_case(RegionMasks(et=gt.et.copy(), wt=gt.wt.copy(), tc=gt.tc.copy()), labels)
        assert rep.dice_wt == 1.0 and rep.dice_et == 1.0 and rep.dice_tc == 1.0
        assert rep.hd_wt == 0.0 and rep.hd_et == 0.0 and rep.hd_tc == 0.0
        assert rep.flags == []

    def test_empty_prediction_flags_hd(self):
        labels = np.zeros((6, 6, 6), dtype=np.uint8)
        labels[1:3, 1:3, 1:3] = 2
        from voxseg.metrics import RegionMasks

        empty = np.zeros((6, 6, 6), dtype=bool)
        rep = evaluate_case(RegionMasks(et=empty, wt=empty, tc=empty), labels)
        assert rep.dice_wt == 0.0
        assert math.isnan(rep.hd_wt)
        assert "hd_wt_undefined" in rep.flags
        assert "dice_et_both_empty" in rep.flags  # neither predicted nor labeled ET
