"""Tensor primitive tests: forward examples, oracle agreement, gradients."""

import itertools
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from voxseg import autodiff
from voxseg.autodiff import (
    DropoutMode,
    Tensor,
    backward,
    clamp,
    concat,
    contract,
    conv3d,
    conv_transpose3d,
    derive_rng,
    derive_seed,
    dropout,
    global_avg_pool,
    grad_check,
    group_norm,
    maxpool3d,
    no_grad,
    relu,
    sigmoid,
    softmax,
)

from oracles import (
    conv3d_im2col,
    conv3d_input_grad_loops,
    conv3d_loops,
    conv3d_stored_xp,
    conv3d_weight_grad_loops,
    conv_transpose3d_per_offset,
    conv_transpose3d_scatter,
    dropout_float_mask,
    group_norm_stored_xhat,
    im2col_full,
    matmul_loops,
    maxpool3d_int64_argmax,
    relu_float_mask,
)


def randt(rng, shape, requires_grad=False, dtype=np.float64):
    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=requires_grad)


class TestConv3d:
    def test_pointwise_identity(self):
        rng = np.random.default_rng(0)
        x = randt(rng, (1, 3, 4, 5, 6))
        w = np.zeros((3, 3, 1, 1, 1))
        for c in range(3):
            w[c, c, 0, 0, 0] = 1.0
        out = conv3d(x, Tensor(w), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_3cube(self):
        x = Tensor(np.ones((1, 1, 3, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3, 3)))
        out = conv3d(x, w, Tensor(np.zeros(1)))
        assert out.data[0, 0, 1, 1, 1] == 27.0
        assert out.data[0, 0, 0, 0, 0] == 8.0

    def test_all_ones_dilated(self):
        x = Tensor(np.ones((1, 1, 5, 5, 5)))
        w = Tensor(np.ones((1, 1, 3, 3, 3)))
        out = conv3d(x, w, Tensor(np.zeros(1)), dilation=2)
        assert out.shape == (1, 1, 5, 5, 5)
        assert out.data[0, 0, 2, 2, 2] == 27.0
        assert out.data[0, 0, 0, 0, 0] == 8.0

    # ids read stride-padding-dilation; conv3d is stride 1 and same-padded
    @pytest.mark.parametrize("padding,dilation", [(1, 1), (2, 2)], ids=["1-1-1", "1-2-2"])
    def test_matches_loop_oracle(self, padding, dilation):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 5, 6, 4))
        w = rng.standard_normal((4, 3, 3, 3, 3))
        b = rng.standard_normal(4)
        want = conv3d_loops(x, w, b, padding=padding, dilation=dilation)
        got = conv3d(Tensor(x), Tensor(w), Tensor(b), dilation=dilation)
        np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("k", [5, 7])
    def test_large_kernels_match_loop_oracle(self, k):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 2, 8, 8, 7))
        w = rng.standard_normal((2, 2, k, k, k))
        want = conv3d_loops(x, w, padding=(k - 1) // 2)
        got = conv3d(Tensor(x), Tensor(w), Tensor(np.zeros(2)))
        np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_same_padding_preserves_shape(self, k, dilation):
        rng = np.random.default_rng(1)
        x = randt(rng, (1, 2, 8, 8, 8))
        w = randt(rng, (2, 2, k, k, k))
        out = conv3d(x, w, Tensor(np.zeros(2)), dilation=dilation)
        assert out.shape == x.shape

    # thin inputs: a large dilated kernel reaches past the whole input
    @pytest.mark.parametrize("shape", [(1, 2, 1, 3, 2), (1, 2, 5, 3, 7), (2, 2, 1, 3, 5), (2, 2, 5, 7, 1)],
                             ids=["1x3x2", "5x3x7", "b2-1x3x5", "b2-5x7x1"])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_same_padding_on_thin_inputs(self, shape, k, dilation):
        rng = np.random.default_rng(9)
        x = randt(rng, shape, requires_grad=True)
        w = randt(rng, (3, 2, k, k, k), requires_grad=True)
        b = randt(rng, (3,))
        pad = dilation * (k - 1) // 2
        y = conv3d(x, w, b, dilation=dilation)
        assert y.shape[2:] == shape[2:]
        want = conv3d_loops(x.data, w.data, b.data, padding=pad, dilation=dilation)
        np.testing.assert_allclose(y.data, want, rtol=1e-10, atol=1e-10)
        g = rng.standard_normal(y.shape)
        backward((y * Tensor(g)).sum())
        want_gx = conv3d_input_grad_loops(g, w.data, x.shape, pad, dilation)
        np.testing.assert_allclose(x.grad, want_gx, rtol=1e-10, atol=1e-10)
        want_gw = conv3d_weight_grad_loops(x.data, g, k, pad, dilation)
        np.testing.assert_allclose(w.grad, want_gw, rtol=1e-10, atol=1e-10)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        x = randt(rng, (1, 2, 4, 4, 3), requires_grad=True)
        w = randt(rng, (3, 2, 3, 3, 3), requires_grad=True)
        b = randt(rng, (3,), requires_grad=True)

        def f():
            return conv3d(x, w, b).sum()

        assert grad_check(f, [x, w, b]) < 1e-6

    def test_gradcheck_dilated(self):
        rng = np.random.default_rng(4)
        x = randt(rng, (1, 2, 6, 6, 5), requires_grad=True)
        w = randt(rng, (2, 2, 3, 3, 3), requires_grad=True)
        b = Tensor(np.zeros(2))

        def f():
            y = conv3d(x, w, b, dilation=2)
            return (y * y).sum()

        assert grad_check(f, [x, w]) < 1e-6

    def test_input_gradient_skipped_when_input_needs_none(self, monkeypatch):
        calls = []
        raw = autodiff._conv3d_raw
        monkeypatch.setattr(autodiff, "_conv3d_raw", lambda *a: calls.append(a) or raw(*a))
        rng = np.random.default_rng(5)
        x = randt(rng, (1, 2, 4, 4, 3))
        w = randt(rng, (3, 2, 3, 3, 3), requires_grad=True)
        backward(conv3d(x, w, Tensor(np.zeros(3))).sum())
        assert len(calls) == 1  # the forward's correlation only
        assert x.grad is None and w.grad is not None

    def test_backward_memory_at_64x64x32(self):
        """One float32 16->8 conv's backward, input gradient included. The
        weight gradient's shifted GEMMs need padded copies of x and g; the
        whole patch matrix (226 MB here) made the peak 229 MiB."""
        rng = np.random.default_rng(6)
        x = randt(rng, (1, 16, 64, 64, 32), requires_grad=True, dtype=np.float32)
        w = randt(rng, (8, 16, 3, 3, 3), requires_grad=True, dtype=np.float32)
        loss = conv3d(x, w, Tensor(np.zeros(8, dtype=np.float32))).sum()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 40 * (1 << 20), f"{peak / (1 << 20):.1f} MiB peak"

    def test_channel_mismatch_raises(self):
        x = Tensor(np.ones((1, 2, 4, 4, 4)))
        w = Tensor(np.ones((1, 3, 3, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv3d(x, w, Tensor(np.zeros(1)))


class TestConv3dSlabs:
    """conv3d tiles its im2col GEMM into depth slabs, in the forward and in
    the input gradient. A tiny slab budget makes small inputs span many
    slabs; outputs and input gradients must still equal the untiled single
    GEMM bit for bit. The weight gradient takes no slabs: its bits must not
    depend on the budget, and it equals the whole patch matrix's GEMM and
    the loop oracle to rounding.

    The planes here hold a multiple of 16 voxels. On other planes a slab can
    end inside a BLAS column tile, and when a slab GEMM is small enough for
    OpenBLAS's small-matrix kernel, that tile's last voxels may round
    differently from one full GEMM. The network's slab GEMMs at the real
    budget are far above that size; `test_any_shape_matches_untiled`
    covers odd planes to rounding.
    """

    # (x shape, Cout, k, dilation, output rows per slab, dtype)
    CASES = {
        "uneven_last_slab": ((1, 3, 7, 4, 8), 4, 3, 1, 3, np.float32),
        "dilation2": ((1, 4, 8, 8, 4), 3, 3, 2, 3, np.float32),
        "batch2": ((2, 3, 7, 4, 4), 5, 3, 1, 2, np.float32),
        "float64": ((1, 3, 7, 4, 8), 4, 3, 1, 2, np.float64),
        "k5": ((1, 2, 9, 4, 4), 3, 5, 1, 4, np.float32),
    }

    # gw to rounding: relative to its largest entry, from the dtype
    GW_RTOL = {np.float32: 1e-5, np.float64: 1e-12}

    @staticmethod
    def _run(x, w, b, g, dilation):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv3d(xt, wt, Tensor(b), dilation=dilation)
        backward((out * Tensor(g)).sum())
        return out.data, xt.grad, wt.grad

    @classmethod
    def _check_weight_grad(cls, x, g, w_grad, k, dilation):
        padding = dilation * (k - 1) // 2
        col, _ = im2col_full(x, k, padding, dilation)
        gemm = np.matmul(g.reshape(*g.shape[:2], -1), col.transpose(0, 2, 1)).sum(axis=0)
        loops = conv3d_weight_grad_loops(x, g, k, padding, dilation)
        for want in (gemm.reshape(w_grad.shape), loops):
            tol = cls.GW_RTOL[x.dtype.type] * np.abs(want).max()
            np.testing.assert_allclose(w_grad, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_bitwise_equal_to_untiled(self, case, monkeypatch):
        shape, cout, k, dilation, rows, dtype = case
        padding = dilation * (k - 1) // 2
        rng = np.random.default_rng(11)
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((cout, shape[1], k, k, k)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        want = conv3d_im2col(x, w, b, padding, dilation)
        g = rng.standard_normal(want.shape).astype(dtype)
        whole = self._run(x, w, b, g, dilation)  # one slab each at the default budget
        Do, Ho, Wo = want.shape[2:]
        budget = rows * shape[1] * k ** 3 * Ho * Wo * x.itemsize
        monkeypatch.setattr(autodiff, "_SLAB_BYTES", budget)
        slabs = []
        im2col = autodiff._im2col
        monkeypatch.setattr(autodiff, "_im2col", lambda *a: slabs.append(a) or im2col(*a))

        out, x_grad, w_grad = self._run(x, w, b, g, dilation)
        # the forward's slabs over x's channels and the input gradient's over g's
        gx_rows = max(1, budget // (cout * k ** 3 * Ho * Wo * x.itemsize))
        assert len(slabs) == -(-Do // rows) + -(-Do // gx_rows) and rows < Do
        assert out.tobytes() == want.tobytes()
        wf = np.ascontiguousarray(w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))
        gx = conv3d_im2col(g, wf, None, padding, dilation)
        assert x_grad.tobytes() == (np.zeros_like(x) + gx).tobytes()
        assert w_grad.tobytes() == whole[2].tobytes()
        self._check_weight_grad(x, g, w_grad, k, dilation)

    # B=2 on planes that are not a multiple of 16, and large dilated kernels
    # whose halo exceeds the input's extents
    @pytest.mark.parametrize("shape,k,dilation,dtype", [
        ((2, 3, 6, 5, 7), 3, 1, np.float32),
        ((2, 3, 6, 5, 7), 3, 2, np.float64),
        ((2, 2, 3, 2, 5), 5, 2, np.float32),
        ((1, 2, 2, 3, 4), 7, 2, np.float64),
    ], ids=["b2-odd-plane", "b2-odd-plane-dil2-f64", "k5-dil2-thin", "k7-dil2-thin-f64"])
    def test_weight_grad_matches_oracles(self, shape, k, dilation, dtype, monkeypatch):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((3, shape[1], k, k, k)).astype(dtype)
        b = np.zeros(3, dtype=dtype)
        g = rng.standard_normal((shape[0], 3) + shape[2:]).astype(dtype)
        w_grad = self._run(x, w, b, g, dilation)[2]
        self._check_weight_grad(x, g, w_grad, k, dilation)
        monkeypatch.setattr(autodiff, "_SLAB_BYTES", 1)  # one output row per slab
        assert self._run(x, w, b, g, dilation)[2].tobytes() == w_grad.tobytes()

    # ids read stride-padding-dilation; conv3d is stride 1 and same-padded
    @pytest.mark.parametrize("dilation", [1, 2], ids=["1-1-1", "1-2-2"])
    def test_any_shape_matches_untiled(self, dilation, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 9, 5, 7)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3, 3)).astype(np.float32)
        b = Tensor(np.zeros(4, dtype=np.float32))

        def run():
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            out = conv3d(xt, wt, b, dilation=dilation)
            backward(out.sum())
            return out.data, xt.grad, wt.grad

        whole = run()  # one slab: the default budget exceeds these patch matrices
        monkeypatch.setattr(autodiff, "_SLAB_BYTES", 1)  # one output row per slab
        for got, want in zip(run(), whole):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestTaps:
    """Every k > 1 conv3d product reads `_taps`, one `as_strided` view that
    numpy does not bounds-check: its bytes must lie inside the buffer it
    views. `TestConv3d::test_same_padding_on_thin_inputs` checks the
    products it feeds against the loop oracles."""

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("dims", [(1, 3, 5), (5, 7, 1)], ids=["1x3x5", "5x7x1"])
    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_view_lies_inside_its_buffer(self, dilation, k, dims, batch):
        x = np.random.default_rng(0).standard_normal((batch, 2) + dims)
        taps = autodiff._taps(x, k, dilation)
        owner = taps
        while owner.base is not None:
            owner = owner.base
        lo, hi = np.lib.array_utils.byte_bounds(taps)
        owner_lo, owner_hi = np.lib.array_utils.byte_bounds(owner)
        assert owner_lo <= lo and hi <= owner_hi
        assert not taps.flags.writeable
        # the weight gradient flattens the grid axes: a view, never a copy
        assert np.may_share_memory(taps.reshape(*taps.shape[:5], -1), taps)
        # on the output voxels' grid, the view holds the oracle's patches
        col, _ = im2col_full(x, k, dilation * (k - 1) // 2, dilation)
        H, W = dims[1:]
        np.testing.assert_array_equal(np.ascontiguousarray(taps[..., :H, :W]).reshape(col.shape), col)


class TestConvTranspose3d:
    def test_single_voxel_scatter(self):
        x = Tensor(np.full((1, 1, 1, 1, 1), 3.5))
        w = Tensor(np.ones((1, 1, 2, 2, 2)))
        out = conv_transpose3d(x, w, Tensor(np.zeros(1)))
        assert out.shape == (1, 1, 2, 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2, 2), 3.5))

    def test_nonoverlapping_tiles(self):
        x = Tensor(np.ones((1, 1, 2, 2, 2)))
        w = Tensor(np.ones((1, 1, 2, 2, 2)))
        out = conv_transpose3d(x, w, Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 4, 4, 4)))

    def test_matches_scatter_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 3, 2, 4))
        w = rng.standard_normal((3, 2, 2, 2, 2))
        b = rng.standard_normal(2)
        want = conv_transpose3d_scatter(x, w, b)
        got = conv_transpose3d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)

    def test_grad_of_sum_is_weight_sum(self):
        rng = np.random.default_rng(6)
        x = randt(rng, (1, 2, 3, 3, 2), requires_grad=True)
        w = randt(rng, (2, 3, 2, 2, 2))
        out = conv_transpose3d(x, w, Tensor(np.zeros(3)))
        backward(out.sum())
        per_cin = w.data.sum(axis=(1, 2, 3, 4))
        want = np.broadcast_to(per_cin.reshape(1, 2, 1, 1, 1), x.shape)
        np.testing.assert_allclose(x.grad, want, rtol=1e-10)

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        x = randt(rng, (1, 2, 3, 2, 3), requires_grad=True)
        w = randt(rng, (2, 3, 2, 2, 2), requires_grad=True)
        b = randt(rng, (3,), requires_grad=True)

        def f():
            y = conv_transpose3d(x, w, b)
            return (y * y).sum()

        assert grad_check(f, [x, w, b]) < 1e-6

    def test_doubles_then_pool_restores(self):
        rng = np.random.default_rng(8)
        x = randt(rng, (1, 2, 4, 6, 2))
        w = randt(rng, (2, 2, 2, 2, 2))
        up = conv_transpose3d(x, w, Tensor(np.zeros(2)))
        assert up.shape == (1, 2, 8, 12, 4)
        assert maxpool3d(up).shape == x.shape


class TestMaxpool3d:
    def test_constant(self):
        out = maxpool3d(Tensor(np.full((1, 2, 4, 4, 4), 2.5)))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2, 2), 2.5))

    def test_block_enumeration(self):
        x = np.arange(1, 9, dtype=np.float64).reshape(1, 1, 2, 2, 2)
        out = maxpool3d(Tensor(x))
        assert out.data.reshape(()) == 8.0

    def test_gradient_one_per_block(self):
        rng = np.random.default_rng(9)
        vals = rng.permutation(4 * 4 * 4).astype(np.float64).reshape(1, 1, 4, 4, 4)
        x = Tensor(vals, requires_grad=True)
        backward(maxpool3d(x).sum())
        assert x.grad.sum() == 8.0  # one per 2x2x2 block
        assert set(np.unique(x.grad)) == {0.0, 1.0}

    def test_gradcheck(self):
        rng = np.random.default_rng(10)
        vals = (rng.permutation(2 * 4 * 4 * 4) * 0.01).astype(np.float64).reshape(1, 2, 4, 4, 4)
        x = Tensor(vals, requires_grad=True)

        def f():
            return (maxpool3d(x) * maxpool3d(x)).sum()

        assert grad_check(f, x, h=1e-6) < 1e-6

    def test_odd_extent_raises(self):
        with pytest.raises(ValueError, match="even"):
            maxpool3d(Tensor(np.ones((1, 1, 3, 4, 4))))


class TestGroupNorm:
    def test_normalizes_per_group(self):
        rng = np.random.default_rng(11)
        x = randt(rng, (2, 6, 4, 3, 2))
        out = group_norm(x, 3, Tensor(np.ones(6)), Tensor(np.zeros(6)), eps=1e-12)
        grouped = out.data.reshape(2, 3, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-9)
        np.testing.assert_allclose(grouped.var(axis=2), 1.0, atol=1e-6)

    def test_constant_input_returns_beta(self):
        x = Tensor(np.full((1, 4, 2, 2, 2), 7.0))
        beta = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        out = group_norm(x, 2, Tensor(np.ones(4)), beta)
        want = np.broadcast_to(beta.data.reshape(1, 4, 1, 1, 1), x.shape)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_gradcheck(self, groups):
        rng = np.random.default_rng(12)
        x = randt(rng, (2, 4, 3, 2, 2), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
        beta = Tensor(rng.standard_normal(4), requires_grad=True)
        # weighting breaks the sum-of-squares invariance of normalized
        # outputs, which would otherwise zero the x gradient at groups == C
        w = rng.standard_normal((2, 4, 3, 2, 2))

        def f():
            y = group_norm(x, groups, gamma, beta) * Tensor(w)
            return (y * y).sum()

        assert grad_check(f, [x, gamma, beta]) < 1e-6

    def test_indivisible_groups_raises(self):
        x = Tensor(np.ones((1, 5, 2, 2, 2)))
        with pytest.raises(ValueError, match="divisible"):
            group_norm(x, 2, Tensor(np.ones(5)), Tensor(np.zeros(5)))


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.arange(8.0).reshape(1, 1, 2, 2, 2))
        for rng in (None, np.random.default_rng(1)):
            assert dropout(x, 0.0, rng) is x

    def test_off_mode_identity(self):
        rng = np.random.default_rng(13)
        x = randt(rng, (3, 4, 5))
        assert dropout(x, 0.5, None) is x

    def test_inverted_scaling_mean(self):
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.5, np.random.default_rng(42))
        assert 0.98 <= out.data.mean() <= 1.02

    def test_seed_reproducible(self):
        x = Tensor(np.ones(1000))
        a = dropout(x, 0.3, np.random.default_rng(7))
        b = dropout(x, 0.3, np.random.default_rng(7))
        np.testing.assert_array_equal(a.data, b.data)
        c = dropout(x, 0.3, np.random.default_rng(8))
        assert not np.array_equal(a.data, c.data)

    def test_mc_active_is_an_alias_of_train(self):
        assert DropoutMode.MC_ACTIVE is DropoutMode.TRAIN
        assert list(DropoutMode) == [DropoutMode.TRAIN, DropoutMode.OFF]

    def test_backward_uses_same_mask(self):
        x = Tensor(np.ones(1000, dtype=np.float64), requires_grad=True)
        out = dropout(x, 0.4, np.random.default_rng(3))
        backward(out.sum())
        np.testing.assert_array_equal(x.grad, out.data)

    @pytest.mark.parametrize("shape", [(2, 3, 5, 7), (1, 48), (5,)])
    def test_chunked_draw_equals_one_draw(self, monkeypatch, shape):
        # 210 elements end in a partial chunk, 48 fill three, 5 fit one
        monkeypatch.setattr(autodiff, "_DROPOUT_CHUNK", 16)
        rate = 0.3
        x = randt(np.random.default_rng(4), shape, requires_grad=True)
        gen, ref = derive_rng(5, 1), derive_rng(5, 1)
        out = dropout(x, rate, gen)
        mask = (ref.random(shape) >= rate).astype(x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype)
        np.testing.assert_array_equal(out.data, x.data * mask)
        assert gen.bit_generator.state == ref.bit_generator.state
        backward(out.sum())
        np.testing.assert_array_equal(x.grad, mask)

    def test_invalid_rate(self):
        x = Tensor(np.ones(4))
        for rng in (None, np.random.default_rng(0)):
            with pytest.raises(ValueError):
                dropout(x, 1.0, rng)
            with pytest.raises(ValueError):
                dropout(x, -0.1, rng)


def _accumulated(grad):
    """`grad` as `backward` leaves it on a leaf: added to a zero buffer."""
    return (np.zeros_like(grad) + grad).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestRulesMatchStoredCopies:
    """Rules that keep bool masks and a uint8 argmax, and recompute the
    normalized input and the padding, give the bytes of the reference rules
    in `oracles` that keep float copies; the block-layout ops give the bytes
    of their per-offset copies. Each op's rule receives `g` itself: the
    output is weighted by `g` and summed."""

    def test_relu(self, dtype):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((2, 3, 4, 4, 4)).astype(dtype)
        x.reshape(-1)[:4] = [0.0, -0.0, 1.0, -1.0]
        g = rng.standard_normal(x.shape).astype(dtype)
        g.reshape(-1)[:4] = [-0.0, -0.0, -0.0, 1.0]
        want, rule = relu_float_mask(x)
        xt = Tensor(x, requires_grad=True)
        out = relu(xt)
        backward((out * Tensor(g)).sum())
        assert out.data.tobytes() == want.tobytes()
        assert xt.grad.tobytes() == _accumulated(rule(g))

    def test_dropout(self, dtype):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 3, 4, 4, 4)).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        want, rule = dropout_float_mask(x, 0.3, derive_rng(6, 1))
        xt = Tensor(x, requires_grad=True)
        out = dropout(xt, 0.3, derive_rng(6, 1))
        backward((out * Tensor(g)).sum())
        assert out.data.tobytes() == want.tobytes()
        assert xt.grad.tobytes() == _accumulated(rule(g))

    def test_group_norm(self, dtype):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((2, 4, 3, 4, 2)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, 4).astype(dtype)
        beta = rng.standard_normal(4).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        want, rule = group_norm_stored_xhat(x, 2, gamma, beta)
        leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = group_norm(leaves[0], 2, leaves[1], leaves[2])
        backward((out * Tensor(g)).sum())
        assert out.data.tobytes() == want.tobytes()
        for leaf, grad in zip(leaves, rule(g)):
            assert leaf.grad.tobytes() == _accumulated(grad)

    # one depth slab at the default budget, so the forward is one GEMM as in
    # the reference; k=5 and k=7 at dilation 2 reach past the 5x6x4 input
    @pytest.mark.parametrize("k,dilation", [(1, 1), (1, 2), (3, 1), (3, 2), (5, 2), (7, 2)])
    def test_conv3d(self, dtype, k, dilation):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((2, 3, 5, 6, 4)).astype(dtype)
        w = rng.standard_normal((4, 3, k, k, k)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        g = rng.standard_normal((2, 4, 5, 6, 4)).astype(dtype)
        want, rule = conv3d_stored_xp(x, w, b, dilation)
        leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = conv3d(*leaves, dilation=dilation)
        backward((out * Tensor(g)).sum())
        assert out.data.tobytes() == want.tobytes()
        for leaf, grad in zip(leaves, rule(g)):
            assert leaf.grad.tobytes() == _accumulated(grad)

    def test_conv_transpose3d(self, dtype):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((2, 3, 3, 2, 4)).astype(dtype)
        w = rng.standard_normal((3, 5, 2, 2, 2)).astype(dtype)
        b = rng.standard_normal(5).astype(dtype)
        g = rng.standard_normal((2, 5, 6, 4, 8)).astype(dtype)
        want, rule = conv_transpose3d_per_offset(x, w, b)
        leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = conv_transpose3d(*leaves)
        backward((out * Tensor(g)).sum())
        assert out.data.tobytes() == want.tobytes()
        for leaf, grad in zip(leaves, rule(g)):
            assert leaf.grad.tobytes() == _accumulated(grad)

    def test_maxpool3d(self, dtype):
        rng = np.random.default_rng(34)
        x = rng.integers(-2, 3, (2, 3, 4, 6, 4)).astype(dtype)  # ties in most blocks
        g = rng.standard_normal((2, 3, 2, 3, 2)).astype(dtype)
        want, rule = maxpool3d_int64_argmax(x)
        xt = Tensor(x, requires_grad=True)
        out = maxpool3d(xt)
        backward((out * Tensor(g)).sum())
        assert out.data.tobytes() == want.tobytes()
        assert xt.grad.tobytes() == _accumulated(rule(g))


class TestActivations:
    def test_relu(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor(np.zeros(1))).data[0] == 0.5

    def test_sigmoid_extremes_are_finite(self):
        out = sigmoid(Tensor(np.array([-500.0, 500.0])))
        assert np.all(np.isfinite(out.data))

    def test_softmax_uniform(self):
        out = softmax(Tensor(np.full((2, 5), 3.0)), axis=1)
        np.testing.assert_allclose(out.data, 0.2)

    def test_softmax_normalizes_and_shift_invariant(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 7))
        a = softmax(Tensor(x), axis=1)
        b = softmax(Tensor(x + 123.0), axis=1)
        np.testing.assert_allclose(a.data.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(a.data, b.data, atol=1e-6)

    def test_softmax_gradcheck(self):
        rng = np.random.default_rng(15)
        x = randt(rng, (2, 4, 3), requires_grad=True)
        w = rng.standard_normal((2, 4, 3))

        def f():
            return (softmax(x, axis=1) * Tensor(w)).sum()

        assert grad_check(f, x) < 1e-7


class TestContract:
    def test_identity_matrix(self):
        # a rectangular identity: the wrong transpose would not even fit
        rng = np.random.default_rng(16)
        x = randt(rng, (3, 4))
        padded = np.concatenate([x.data, np.zeros((3, 1))], axis=1)
        np.testing.assert_array_equal(contract(x, Tensor(np.eye(4, 5))).data, padded)
        np.testing.assert_array_equal(contract(x, Tensor(np.eye(5, 4)), transpose_b=True).data, padded)

    def test_two_by_two(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(contract(a, b).data, [[1.0, 3.0], [3.0, 7.0]])
        np.testing.assert_array_equal(contract(a, b, transpose_b=True).data, [[3.0, 2.0], [7.0, 4.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        want = np.stack([matmul_loops(a[i], b[i]) for i in range(2)])
        for transpose_b in (False, True):
            bb = b.swapaxes(1, 2).copy() if transpose_b else b
            got = contract(Tensor(a), Tensor(bb), transpose_b=transpose_b)
            np.testing.assert_allclose(got.data, want, rtol=1e-12)

    @pytest.mark.parametrize("transpose_b", [False, True])
    def test_gradcheck(self, transpose_b):
        rng = np.random.default_rng(19)
        a = randt(rng, (2, 3, 4), requires_grad=True)
        b = randt(rng, (2, 5, 4) if transpose_b else (2, 4, 5), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 5)))
        assert grad_check(lambda: (contract(a, b, transpose_b) * w).sum(), [a, b]) < 1e-7

    @pytest.mark.parametrize("transpose_b", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_matmul(self, dtype, transpose_b):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((2, 8, 300)).astype(dtype)
        b = rng.standard_normal((2, 8, 300) if transpose_b else (2, 300, 8)).astype(dtype)
        want = np.matmul(a, b.swapaxes(1, 2) if transpose_b else b)
        got = contract(Tensor(a), Tensor(b), transpose_b).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_attention_patterns_gradcheck(self):
        rng = np.random.default_rng(18)
        k = randt(rng, (2, 3, 5), requires_grad=True)
        q = randt(rng, (2, 3, 5), requires_grad=True)
        v = randt(rng, (2, 3, 5), requires_grad=True)

        def f():
            attn = softmax(contract(k, q, transpose_b=True), axis=2)
            mixed = contract(attn, v)
            return (mixed * mixed).sum()

        assert grad_check(f, [k, q, v]) < 1e-6

    def test_extent_mismatch_raises(self):
        for transpose_b in (False, True):
            with pytest.raises(ValueError, match="mismatch"):
                contract(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), transpose_b)

    def test_unequal_batch_shapes_raise(self):
        a = Tensor(np.ones((1, 3, 4)), requires_grad=True)
        b = Tensor(np.ones((2, 4, 5)), requires_grad=True)
        with pytest.raises(ValueError, match=r"\(1, 3, 4\) and \(2, 4, 5\)"):
            contract(a, b)


class TestGlobalAvgPool:
    def test_constant(self):
        out = global_avg_pool(Tensor(np.full((1, 3, 2, 2, 2), 4.5)))
        np.testing.assert_array_equal(out.data, np.full((1, 3, 1, 1, 1), 4.5))

    def test_enumerated_mean(self):
        x = np.arange(8.0).reshape(1, 1, 2, 2, 2)
        assert global_avg_pool(Tensor(x)).data.reshape(()) == 3.5

    def test_gradcheck(self):
        rng = np.random.default_rng(19)
        x = randt(rng, (2, 3, 2, 2, 2), requires_grad=True)

        def f():
            y = global_avg_pool(x)
            return (y * y).sum()

        assert grad_check(f, x) < 1e-7


class TestElementwise:
    def test_add_zero_identity(self):
        rng = np.random.default_rng(20)
        x = randt(rng, (2, 3))
        np.testing.assert_array_equal((x + 0.0).data, x.data)

    def test_mul_one_identity(self):
        rng = np.random.default_rng(21)
        x = randt(rng, (2, 3))
        np.testing.assert_array_equal((x * 1.0).data, x.data)

    def test_broadcast_gradcheck(self):
        rng = np.random.default_rng(22)
        a = randt(rng, (2, 3, 1, 1, 1), requires_grad=True)
        b = randt(rng, (2, 3, 2, 2, 2), requires_grad=True)

        def f():
            return ((a * b) * (a * b)).sum()

        assert grad_check(f, [a, b]) < 1e-7

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5)))

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 3), dtype=np.float64), requires_grad=True)
        b = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        out = concat([a, b], axis=1)
        backward((out * Tensor(np.arange(10.0).reshape(2, 5))).sum())
        np.testing.assert_array_equal(a.grad, [[0, 1, 2], [5, 6, 7]])
        np.testing.assert_array_equal(b.grad, [[3, 4], [8, 9]])

    @pytest.mark.parametrize("axis", [None, 1, -1, 3, (0, 2, 3, 4), (0, -1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sum_gradient_over_axis_forms(self, axis, dtype):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((2, 3, 4, 2, 3)).astype(dtype), requires_grad=True)
        out = x.sum(axis)
        w = rng.standard_normal(out.shape).astype(dtype)
        backward((out * Tensor(w)).sum())
        kept = np.sum(x.data, axis=axis, keepdims=True).shape
        assert x.grad.dtype == dtype
        np.testing.assert_array_equal(x.grad, np.broadcast_to(w.reshape(kept), x.shape))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_2x(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward((x * x).sum())
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        backward(x.sum())
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_full_reductions_are_0d(self):
        a = np.ones((2, 3))
        assert Tensor(a).sum().shape == Tensor(np.sum(a)).shape == Tensor(a).mean().shape == ()

    def test_0d_gradients_accumulate(self):
        # both of mul's gradients are numpy scalars, sent to the one 0-d leaf
        x = Tensor(np.asarray(3.0), requires_grad=True)
        backward(x * x)
        assert x.grad.shape == () and x.grad == 6.0

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x * x)

    def test_nonfinite_forward_raises(self):
        x = Tensor(np.array([0.0, 1.0]))
        with np.errstate(divide="ignore"), pytest.raises(FloatingPointError):
            1.0 / x


class TestGradCheckHarness:
    def test_linear_is_exact(self):
        rng = np.random.default_rng(23)
        x = randt(rng, (4, 4), requires_grad=True)
        assert grad_check(lambda: x.sum(), x) < 1e-10

    def test_sigmoid_chain(self):
        rng = np.random.default_rng(24)
        x = randt(rng, (50,), requires_grad=True)
        assert grad_check(lambda: sigmoid(x).sum(), x, h=1e-5) < 1e-7

    def test_rejects_float32(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(TypeError, match="float64"):
            grad_check(lambda: x.sum(), x)

    def test_clamp_gradient_masks_outside(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        backward(clamp(x, 0.0, 1.0).sum())
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_leaf_restored_when_f_raises_mid_probe(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        calls = itertools.count()

        def f():
            if next(calls) == 1:  # the first probe, with x[0] nudged by +h
                raise RuntimeError("probe failed")
            return (x * x).sum()

        with pytest.raises(RuntimeError, match="probe failed"):
            grad_check(f, x)
        assert x.data.tolist() == [1.0, 2.0]


def run_while_held(hold, run):
    """`run()` in this thread while another thread is paused inside
    `hold(pause)`: its `pause()` returns only once `run` has returned.
    An error in `hold` is raised here."""
    paused, resume = threading.Event(), threading.Event()

    def pause():
        paused.set()
        resume.wait()

    with ThreadPoolExecutor(1) as pool:
        held = pool.submit(hold, pause)
        try:
            assert paused.wait(60), "the other thread never paused"
            return run()
        finally:
            resume.set()
            held.result(timeout=60)


class TestModePerThread:
    """no_grad and grad_check's pins act on the calling thread alone."""

    @staticmethod
    def forward(x, w, b):
        return relu(conv3d(x, w, b)).sum()

    def test_forward_records_while_another_thread_is_in_no_grad(self):
        rng = np.random.default_rng(41)
        x, w, b = randt(rng, (1, 2, 3, 3, 3)), randt(rng, (2, 2, 3, 3, 3), True), randt(rng, (2,), True)
        backward(self.forward(x, w, b))
        want = w.grad.copy(), b.grad.copy()
        w.zero_grad()
        b.zero_grad()

        def in_no_grad(pause):
            with no_grad():
                pause()

        backward(run_while_held(in_no_grad, lambda: self.forward(x, w, b)))
        assert w.grad is not None and b.grad is not None
        assert w.grad.tobytes() == want[0].tobytes() and b.grad.tobytes() == want[1].tobytes()

    def test_relu_computes_its_own_mask_while_another_thread_holds_pins(self):
        neg = Tensor(np.array([-1.0, -2.0, -3.0]), requires_grad=True)

        def probing(pause):
            calls = itertools.count()

            def f():
                if next(calls) == 1:  # the pins now hold neg's all-off mask
                    pause()
                return relu(neg).sum()

            grad_check(f, neg)

        out = run_while_held(probing, lambda: relu(Tensor(np.array([1.0, 2.0, 3.0]))))
        assert out.data.tolist() == [1.0, 2.0, 3.0]

    def test_new_thread_starts_recording_without_pins(self):
        with no_grad(), ThreadPoolExecutor(1) as pool:
            seen = pool.submit(lambda: (autodiff._mode.record, autodiff._mode.pins)).result(timeout=60)
        assert seen == (True, None)


class TestSeeding:
    def test_derived_streams_reproducible(self):
        a = derive_rng(5, 1, 2).random(4)
        b = derive_rng(5, 1, 2).random(4)
        c = derive_rng(5, 1, 3).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("args, seed", [
        ((0,), 2968811710),
        ((0, 1), 3964924996),
        ((1, 2, 3), 3822189696),
        ((7, 1, 0, 0), 369571992),
        ((2**31, 2, 5), 194718001),
        ((2**32 - 1, 9), 2984740082),
    ])
    def test_seeds_below_2_32_keep_their_values(self, args, seed):
        assert derive_seed(*args) == seed

    def test_seeds_from_2_32_do_not_repeat_smaller_ones(self):
        assert derive_seed(2**32, 1) != derive_seed(0, 1)
        assert derive_seed(5, 2**32 + 3) != derive_seed(5, 3)
        # read as 32-bit words, (2**32, 0) is (0, 1) and (5 * 2**32 + 3, 0) is (3, 5)
        assert derive_seed(2**32, 0) != derive_seed(0, 1)
        assert derive_seed(5 * 2**32 + 3, 0) != derive_seed(3, 5)
        assert derive_seed(2**32 + 3, 5) != derive_seed(3, 2**32 + 5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
