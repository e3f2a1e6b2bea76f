"""Network block tests: forward contracts, gradients, accounting, manifest."""

import struct
import tracemalloc

import numpy as np
import pytest

from voxseg import autodiff, network
from voxseg.autodiff import DropoutMode, Tensor, grad_check, no_grad
from voxseg.checkpoint import CheckpointError, load_checkpoint, read_manifest, save_checkpoint
from voxseg.losses import combined_loss
from voxseg.metrics import REGIONS
from voxseg.network import (
    AdaptiveAttention,
    ChannelAttention,
    Conv3d,
    FeatureCalibration,
    MultiScaleFusion,
    NetworkConfig,
    PlainConvBlock,
    SkipRecalibration,
    TumorSegNet,
    count_params,
)

OFF = DropoutMode.OFF


def small_cfg(**overrides) -> NetworkConfig:
    base = dict(in_channels=5, stage_widths=(4, 8, 16, 32), gn_groups=2)
    base.update(overrides)
    return NetworkConfig(**base)


def f64(module):
    return module.cast_parameters(np.float64)


class TestChannelAttention:
    def test_zero_expand_halves_input(self):
        rng = np.random.default_rng(0)
        ca = ChannelAttention(4, rng)
        ca.expand.weight.data[:] = 0.0
        ca.expand.bias.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 4, 2, 2, 2)).astype(np.float32))
        out = ca.forward(x)
        np.testing.assert_allclose(out.data, x.data / 2.0, rtol=1e-6)

    def test_gate_in_unit_interval(self):
        rng = np.random.default_rng(1)
        ca = ChannelAttention(4, rng)
        x = Tensor(rng.standard_normal((2, 4, 3, 3, 3)).astype(np.float32))
        out = ca.forward(x)
        ratio = out.data / np.where(x.data == 0, 1.0, x.data)
        assert np.all((ratio > 0) & (ratio < 1) | (x.data == 0))

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        ca = f64(ChannelAttention(4, rng))
        x = Tensor(rng.standard_normal((1, 4, 2, 2, 2)), requires_grad=True)

        def f():
            y = ca.forward(x)
            return (y * y).sum()

        assert grad_check(f, [x] + ca.parameters()) < 1e-5


class TestFeatureCalibration:
    def test_negative_constant_yields_beta_without_ca(self):
        rng = np.random.default_rng(3)
        fcm = FeatureCalibration(4, 2, 0.2, rng, use_ca=False)
        fcm.norm.beta.data[:] = [1.0, 2.0, 3.0, 4.0]
        x = Tensor(np.full((1, 4, 2, 2, 2), -5.0, dtype=np.float32))
        out = fcm.forward(x, None)
        want = np.broadcast_to(np.array([1, 2, 3, 4], dtype=np.float32).reshape(1, 4, 1, 1, 1), out.shape)
        np.testing.assert_allclose(out.data, want, atol=1e-6)

    def test_negative_constant_with_zero_beta_is_zero(self):
        rng = np.random.default_rng(4)
        fcm = FeatureCalibration(4, 2, 0.2, rng)
        x = Tensor(np.full((1, 4, 2, 2, 2), -3.0, dtype=np.float32))
        out = fcm.forward(x, None)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        fcm = f64(FeatureCalibration(4, 2, 0.2, rng))
        x = Tensor(rng.standard_normal((1, 4, 2, 2, 2)), requires_grad=True)

        def f():
            y = fcm.forward(x, None)
            return (y * y).sum()

        assert grad_check(f, [x] + fcm.parameters(), max_coords=400) < 1e-5


class TestMultiScaleFusion:
    def test_zero_weights_give_zero_output(self):
        rng = np.random.default_rng(6)
        block = MultiScaleFusion(5, 8, small_cfg(), rng)
        for _, p in block.named_parameters():
            if p.data.ndim != 1 or True:
                p.data[:] = 0.0
        block.calib_point.norm.gamma.data[:] = 1.0  # GN gamma stays irrelevant at 0 input
        block.calib_local.norm.gamma.data[:] = 1.0
        block.calib_dilated.norm.gamma.data[:] = 1.0
        x = Tensor(np.random.default_rng(0).standard_normal((1, 5, 4, 4, 4)).astype(np.float32))
        out = block.forward(x, None)
        assert out.shape == (1, 8, 4, 4, 4)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_spatial_dims_preserved(self):
        rng = np.random.default_rng(7)
        block = MultiScaleFusion(5, 8, small_cfg(), rng)
        x = Tensor(rng.standard_normal((1, 5, 8, 8, 4)).astype(np.float32))
        assert block.forward(x, None).shape == (1, 8, 8, 8, 4)

    @pytest.mark.parametrize("kernel,dilation", [(3, 2), (3, 3), (5, 2)])
    def test_dims_preserved_across_kernel_configs(self, kernel, dilation):
        rng = np.random.default_rng(8)
        cfg = small_cfg(msff_kernel=kernel, msff_dilation=dilation)
        block = MultiScaleFusion(4, 4, cfg, rng)
        x = Tensor(rng.standard_normal((1, 4, 8, 8, 8)).astype(np.float32))
        assert block.forward(x, None).shape == x.shape

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        block = f64(MultiScaleFusion(2, 4, small_cfg(), rng))
        x = Tensor(rng.standard_normal((1, 2, 3, 3, 3)), requires_grad=True)

        def f():
            y = block.forward(x, None)
            return (y * y).sum()

        assert grad_check(f, [x] + block.parameters(), max_coords=150, rng_seed=1) < 1e-5


class TestAdaptiveAttention:
    def test_identity_at_initialization(self):
        rng = np.random.default_rng(10)
        aam = AdaptiveAttention(4, small_cfg(), rng)
        x = Tensor(rng.standard_normal((1, 4, 2, 2, 2)).astype(np.float32))
        out = aam.forward(x, None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_attention_rows_normalized(self):
        rng = np.random.default_rng(11)
        aam = AdaptiveAttention(4, small_cfg(), rng)
        x = Tensor(rng.standard_normal((1, 4, 2, 2, 2)).astype(np.float32))
        k = aam.proj_k.forward(x).reshape(1, 4, 8)
        q = aam.proj_q.forward(x).reshape(1, 4, 8)
        from voxseg.autodiff import contract, softmax

        logits = contract(k, q, transpose_b=True)
        attn = softmax(logits, axis=2)
        np.testing.assert_allclose(attn.data.sum(axis=2), 1.0, atol=1e-6)

    def test_gradcheck(self):
        rng = np.random.default_rng(13)
        aam = f64(AdaptiveAttention(4, small_cfg(), rng))
        aam.gate.data[:] = rng.standard_normal(4)  # nonzero so attention path is live
        x = Tensor(rng.standard_normal((1, 4, 2, 2, 1)), requires_grad=True)

        def f():
            y = aam.forward(x, None)
            return (y * y).sum()

        assert grad_check(f, [x] + aam.parameters(), max_coords=120, rng_seed=2) < 1e-5


class TestSkipRecalibration:
    def test_identity_initialized_passthrough(self):
        rng = np.random.default_rng(14)
        skip = SkipRecalibration(3, rng)
        w = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
        for c in range(3):
            w[c, c] = 1.0
        skip.conv.weight.data = w
        skip.conv.bias.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 3, 2, 2, 2)).astype(np.float32))
        np.testing.assert_allclose(skip.forward(x).data, x.data, rtol=1e-6)

    def test_output_width(self):
        rng = np.random.default_rng(15)
        skip = SkipRecalibration(6, rng)
        x = Tensor(rng.standard_normal((1, 6, 2, 2, 2)).astype(np.float32))
        assert skip.forward(x).shape == (1, 6, 2, 2, 2)

    def test_gradcheck(self):
        rng = np.random.default_rng(16)
        skip = f64(SkipRecalibration(3, rng))
        x = Tensor(rng.standard_normal((1, 3, 2, 2, 2)), requires_grad=True)

        def f():
            y = skip.forward(x)
            return (y * y).sum()

        assert grad_check(f, [x] + skip.parameters()) < 1e-6


class TestFullNetwork:
    def test_output_shape_and_range(self):
        net = TumorSegNet(small_cfg(), seed=0)
        x = Tensor(np.random.default_rng(1).standard_normal((1, 5, 16, 16, 8)).astype(np.float32))
        out = net.forward(x, OFF)
        assert out.shape == (1, 3, 16, 16, 8)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_deterministic_forward_without_dropout(self):
        net = TumorSegNet(small_cfg(), seed=2)
        x = Tensor(np.random.default_rng(3).standard_normal((1, 5, 8, 8, 8)).astype(np.float32))
        a = net.forward(x, OFF)
        b = net.forward(x, OFF)
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_mode_dropout_varies_with_seed(self):
        net = TumorSegNet(small_cfg(), seed=4)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 5, 8, 8, 8)).astype(np.float32))
        a = net.forward(x, DropoutMode.TRAIN, rng=np.random.default_rng(1))
        b = net.forward(x, DropoutMode.TRAIN, rng=np.random.default_rng(1))
        c = net.forward(x, DropoutMode.TRAIN, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        # an integer seed is a Generator seeded with it
        np.testing.assert_array_equal(net.forward(x, DropoutMode.TRAIN, rng=1).data, a.data)

    def test_train_and_mc_modes_sample_identically(self):
        net = TumorSegNet(small_cfg(), seed=4)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 5, 8, 8, 8)).astype(np.float32))
        a = net.forward(x, DropoutMode.TRAIN, np.random.default_rng(9))
        b = net.forward(x, DropoutMode.MC_ACTIVE, np.random.default_rng(9))
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_missing_rng_rejected_when_sampling(self, rate):
        net = TumorSegNet(small_cfg(dropout_rate=rate), seed=4)
        x = Tensor(np.zeros((1, 5, 8, 8, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="seed or Generator"):
            net.forward(x, DropoutMode.TRAIN, None)

    def test_off_mode_ignores_rng(self):
        net = TumorSegNet(small_cfg(), seed=4)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 5, 8, 8, 8)).astype(np.float32))
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        np.testing.assert_array_equal(net.forward(x, OFF, gen).data, net.forward(x).data)
        assert gen.bit_generator.state == state

    def test_indivisible_spatial_dims_rejected(self):
        net = TumorSegNet(small_cfg(), seed=6)
        x = Tensor(np.zeros((1, 5, 12, 16, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="divisible by 8"):
            net.forward(x, OFF)

    def test_wrong_channel_count_rejected(self):
        net = TumorSegNet(small_cfg(), seed=7)
        x = Tensor(np.zeros((1, 4, 8, 8, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="channels"):
            net.forward(x, OFF)

    @pytest.mark.slow
    def test_end_to_end_gradcheck_with_loss(self):
        cfg = NetworkConfig(in_channels=2, stage_widths=(4, 4, 4, 4), gn_groups=2,
                            dropout_rate=0.0)
        net = f64(TumorSegNet(cfg, seed=8))
        rng = np.random.default_rng(9)
        # move off the zero-initialized point so no ReLU sits on its kink
        for _, p in net.named_parameters():
            p.data = p.data + rng.uniform(-0.05, 0.05, p.data.shape)
        x = Tensor(rng.standard_normal((1, 2, 8, 8, 8)), requires_grad=True)
        target = (rng.random((1, 3, 8, 8, 8)) > 0.5).astype(np.float64)

        def f():
            return combined_loss(net.forward(x, OFF), target)

        leaves = [x] + net.parameters()
        assert grad_check(f, leaves, max_coords=8, rng_seed=3) < 1e-5

    def test_every_taped_tensor_with_a_rule_requires_grad(self):
        net = TumorSegNet(small_cfg(), seed=11)
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((1, 5, 8, 8, 8)).astype(np.float32))
        target = (rng.random((1, 3, 8, 8, 8)) > 0.5).astype(np.float32)
        tape = autodiff._toposort(combined_loss(net.forward(x, DropoutMode.TRAIN, 1), target))
        ruled = [t for t in tape if t._backward_rule is not None]
        assert len(ruled) > 100
        assert all(t.requires_grad for t in ruled)
        # parameters are the only leaves that take gradients
        leaves = {id(t) for t in tape if t.requires_grad and t._backward_rule is None}
        assert leaves == {id(p) for p in net.parameters()}

    def test_baseline_flops_positive_and_smaller(self):
        full = TumorSegNet(small_cfg(), seed=0)
        base = TumorSegNet(small_cfg(use_msff=False, use_aam=False), seed=0)
        f_full = full.count_flops((16, 16, 8))
        f_base = base.count_flops((16, 16, 8))
        assert 0 < f_base < f_full

    def test_input_gradcheck_at_16x16x8(self):
        cfg = NetworkConfig(dropout_rate=0.0)
        net = f64(TumorSegNet(cfg, seed=10))
        rng = np.random.default_rng(11)
        for _, p in net.named_parameters():
            p.data = p.data + rng.uniform(-0.02, 0.02, p.data.shape)
        x = Tensor(rng.standard_normal((1, 5, 16, 16, 8)), requires_grad=True)
        target = (rng.random((1, 3, 16, 16, 8)) > 0.5).astype(np.float64)

        def f():
            return combined_loss(net.forward(x, OFF), target)

        assert grad_check(f, x, max_coords=6, rng_seed=4) < 1e-5


class TestTapeMemory:
    def test_training_step_memory_at_32x32x16(self):
        """A float32 forward, loss and backward at 32x32x16 with dropout on.

        The tape keeps bool masks, a uint8 argmax and no padded or
        normalized copies; with float copies the live size after the
        forward was 63.9 MiB and the peak 102.1 MiB. conv3d's weight
        gradient builds no patch matrix; with one the peak was 75.6 MiB.
        numpy reports its buffers to tracemalloc, so both sizes repeat run
        to run.
        """
        net = TumorSegNet(NetworkConfig(in_channels=5), seed=3)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 5, 32, 32, 16)).astype(np.float32))
        target = (rng.random((1, 3, 32, 32, 16)) > 0.7).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = combined_loss(net.forward(x, DropoutMode.TRAIN, 1), target)
            live = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        mib = 1 << 20
        assert live <= 52 * mib, f"{live / mib:.1f} MiB live after the forward"
        assert peak <= 62 * mib, f"{peak / mib:.1f} MiB peak"


class TestNetworkConfig:
    def test_out_channels_is_one_per_region(self):
        assert "out_channels" not in vars(NetworkConfig())
        assert NetworkConfig().out_channels == len(REGIONS)
        assert TumorSegNet(small_cfg(), seed=0).head.weight.shape[0] == len(REGIONS)

    @pytest.mark.parametrize("name", ["out_channels", "ca_reduction",
                                      "spatial_attention_voxel_cap", "aam_before_merge", "aam_mode"])
    def test_retired_settings_are_not_fields(self, name):
        with pytest.raises(TypeError, match=name):
            NetworkConfig(**{name: getattr(NetworkConfig, name, None)})

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5, float("nan")])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="dropout_rate"):
            NetworkConfig(dropout_rate=rate)

    @pytest.mark.parametrize("width", [0, -8])
    def test_stage_width_below_one_rejected(self, width):
        with pytest.raises(ValueError, match="at least 1"):
            NetworkConfig(stage_widths=(width, 16, 32, 64))


class TestAblationManifest:
    def test_baseline_four_conv_three_pool(self):
        cfg = small_cfg(use_msff=False, use_aam=False)
        net = TumorSegNet(cfg, seed=0)
        kinds = [kind for _, kind in net.layer_manifest()]
        assert kinds.count("conv_block") == 7  # 4 encoder + 3 decoder stages
        assert [k for k in kinds if k == "maxpool"] == ["maxpool"] * 3
        assert "multiscale_block" not in kinds
        assert "adaptive_attention" not in kinds
        enc_kinds = [kind for name, kind in net.layer_manifest() if name.startswith("encoder")]
        assert enc_kinds == ["conv_block"] * 4

    def test_full_model_manifest(self):
        net = TumorSegNet(small_cfg(), seed=0)
        kinds = [kind for _, kind in net.layer_manifest()]
        assert kinds.count("multiscale_block") == 7
        assert kinds.count("adaptive_attention") == 3
        assert kinds.count("transposed_conv") == 3
        assert kinds.count("skip_recalibration") == 3
        assert kinds.count("maxpool") == 3

    def test_single_switch_toggles(self):
        no_aam = TumorSegNet(small_cfg(use_aam=False), seed=0)
        kinds = [kind for _, kind in no_aam.layer_manifest()]
        assert "adaptive_attention" not in kinds and kinds.count("multiscale_block") == 7
        no_msff = TumorSegNet(small_cfg(use_msff=False), seed=0)
        kinds = [kind for _, kind in no_msff.layer_manifest()]
        assert kinds.count("adaptive_attention") == 3 and kinds.count("conv_block") == 7

    def test_manifest_reads_the_built_modules(self):
        cfg = small_cfg()
        net = TumorSegNet(cfg, seed=0)
        net.decoders[0].attn = None
        net.decoders[2].block = PlainConvBlock(8, 4, cfg, np.random.default_rng(0))
        manifest = dict(net.layer_manifest())
        assert "decoder2.attention" not in manifest
        assert manifest["decoder1.attention"] == "adaptive_attention"
        assert manifest["decoder0.block"] == "conv_block"
        assert manifest["decoder1.block"] == "multiscale_block"


class TestAccounting:
    def test_single_conv_param_count(self):
        rng = np.random.default_rng(17)
        conv = Conv3d(1, 1, 3, rng)
        assert sum(p.data.size for p in conv.parameters()) == 28

    def test_conv_flops_formula(self):
        rng = np.random.default_rng(18)
        conv = Conv3d(1, 1, 3, rng)
        assert conv.flops(4 * 4 * 4) == 2 * 27 * 64

    def test_doubling_widths_roughly_quadruples_params(self):
        small = TumorSegNet(small_cfg(), seed=0)
        big = TumorSegNet(small_cfg(stage_widths=(8, 16, 32, 64)), seed=0)
        ratio = count_params(big) / count_params(small)
        assert 3.0 < ratio < 4.5

    @pytest.mark.parametrize("overrides", [{}, {"use_msff": False, "use_aam": False}],
                             ids=["full", "baseline"])
    def test_count_flops_equals_a_forward(self, overrides, monkeypatch):
        # FLOPs from the shapes each conv, transposed conv and contraction
        # actually sees in one batch-1 forward
        seen = []

        def counted(fn, flops):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.append(flops(args, out))
                return out
            return wrapper

        def conv(args, out):
            _, cin, k = args[1].shape[:3]
            return 2 * cin * k ** 3 * out.size

        def up(args, out):
            cin, cout = args[1].shape[:2]
            return 2 * cin * out.size

        def contraction(args, out):
            return 2 * args[0].size * out.shape[-1]

        monkeypatch.setattr(network, "conv3d", counted(network.conv3d, conv))
        monkeypatch.setattr(network, "conv_transpose3d", counted(network.conv_transpose3d, up))
        monkeypatch.setattr(network, "contract", counted(network.contract, contraction))
        net = TumorSegNet(small_cfg(**overrides), seed=0)
        x = Tensor(np.random.default_rng(19).standard_normal((1, 5, 16, 16, 8)).astype(np.float32))
        with no_grad():
            net.forward(x, OFF)
        assert sum(seen) == net.count_flops((16, 16, 8)) > 0

    def test_kernel_size_ordering(self):
        p3 = count_params(TumorSegNet(small_cfg(msff_kernel=3, msff_dilation=2), seed=0))
        p5 = count_params(TumorSegNet(small_cfg(msff_kernel=5), seed=0))
        p7 = count_params(TumorSegNet(small_cfg(msff_kernel=7), seed=0))
        assert p3 < p5 < p7
        f3 = TumorSegNet(small_cfg(msff_kernel=3, msff_dilation=2), seed=0).count_flops((16, 16, 8))
        f5 = TumorSegNet(small_cfg(msff_kernel=5), seed=0).count_flops((16, 16, 8))
        f7 = TumorSegNet(small_cfg(msff_kernel=7), seed=0).count_flops((16, 16, 8))
        assert f3 < f5 < f7

    def test_dilation_does_not_change_counts(self):
        p_d2 = count_params(TumorSegNet(small_cfg(msff_dilation=2), seed=0))
        p_d3 = count_params(TumorSegNet(small_cfg(msff_dilation=3), seed=0))
        assert p_d2 == p_d3

    def test_params_match_manifest_oracle(self, tmp_path):
        net = TumorSegNet(small_cfg(), seed=1)
        path = tmp_path / "ck.sgcp"
        save_checkpoint(path, net.state_dict())
        manifest_total = sum(int(np.prod(shape)) for _, shape in read_manifest(path))
        assert count_params(net) == manifest_total


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = TumorSegNet(small_cfg(), seed=3)
        path = tmp_path / "a.sgcp"
        save_checkpoint(path, net.state_dict())
        first = path.read_bytes()
        state = load_checkpoint(path)
        save_checkpoint(tmp_path / "b.sgcp", state)
        assert (tmp_path / "b.sgcp").read_bytes() == first

    def test_load_restores_forward_exactly(self, tmp_path):
        net = TumorSegNet(small_cfg(), seed=4)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 5, 8, 8, 8)).astype(np.float32))
        want = net.forward(x, OFF).data
        path = tmp_path / "ck.sgcp"
        save_checkpoint(path, net.state_dict())
        other = TumorSegNet(small_cfg(), seed=99)
        other.load_state(load_checkpoint(path))
        np.testing.assert_array_equal(other.forward(x, OFF).data, want)

    def test_manifest_names_and_shapes(self, tmp_path):
        net = TumorSegNet(small_cfg(), seed=6)
        path = tmp_path / "m.sgcp"
        save_checkpoint(path, net.state_dict())
        manifest = read_manifest(path)
        assert [name for name, _ in manifest] == [name for name, _ in net.named_parameters()]
        shapes = {name: shape for name, shape in manifest}
        for name, p in net.named_parameters():
            assert shapes[name] == p.data.shape

    def test_non_finite_entry_names_file_entry_and_count(self, tmp_path):
        bias = np.zeros(4, dtype=np.float32)
        bias[[1, 3]] = [np.nan, -np.inf]
        path = tmp_path / "bad.sgcp"
        save_checkpoint(path, {"enc.w": np.ones((2, 2), dtype=np.float32), "enc.b": bias})
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: entry 'enc.b' holds 2 non-finite values"

    def test_every_truncated_prefix_raises(self, tmp_path):
        state = {"enc.w": np.arange(6, dtype=np.float32).reshape(1, 2, 3), "bé": np.ones(4, dtype=np.float32)}
        save_checkpoint(tmp_path / "full.sgcp", state)
        raw = (tmp_path / "full.sgcp").read_bytes()
        cut = tmp_path / "cut.sgcp"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    def test_truncated_file_error_names_the_file(self, tmp_path):
        save_checkpoint(tmp_path / "full.sgcp", {"enc.w": np.ones((2, 3), dtype=np.float32)})
        raw = (tmp_path / "full.sgcp").read_bytes()
        path = tmp_path / "cut.sgcp"
        path.write_bytes(raw[:-4])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: payload is 20 bytes, manifest promises 24"
        path.write_bytes(raw[:14])
        for read in (load_checkpoint, read_manifest):
            with pytest.raises(CheckpointError, match="manifest truncated") as info:
                read(path)
            assert str(info.value).startswith(f"{path}: ")

    def test_bad_magic_error_names_the_file(self, tmp_path):
        save_checkpoint(tmp_path / "full.sgcp", {"enc.w": np.ones((2, 3), dtype=np.float32)})
        path = tmp_path / "bad.sgcp"
        path.write_bytes(b"XXXX" + (tmp_path / "full.sgcp").read_bytes()[4:])
        for read in (load_checkpoint, read_manifest):
            with pytest.raises(CheckpointError) as info:
                read(path)
            assert str(info.value) == f"{path}: bad magic b'XXXX'"

    def test_non_utf8_name_raises(self, tmp_path):
        path = tmp_path / "bad.sgcp"
        name = b"\xff\xfe"
        path.write_bytes(struct.pack("<4sIII", b"SGCP", 1, 1, len(name)) + name + struct.pack("<IIf", 1, 1, 0.0))
        with pytest.raises(CheckpointError, match="utf-8"):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match="utf-8"):
            read_manifest(path)

    def test_overflowing_shape_product_raises(self, tmp_path):
        # 65536**4 == 2**64 wraps to 0 in int64, which would match the empty payload
        path = tmp_path / "huge.sgcp"
        path.write_bytes(struct.pack("<4sIIIsI4I", b"SGCP", 1, 1, 1, b"w", 4, *(65536,) * 4))
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    def test_state_mismatch_rejected(self, tmp_path):
        net = TumorSegNet(small_cfg(), seed=7)
        state = net.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ValueError, match="state mismatch"):
            net.load_state(state)
