"""Dense tensors with reverse-mode automatic differentiation.

Every numeric primitive the segmentation network needs lives here:
3D (dilated) convolution, transposed convolution, max pooling, group
normalization, dropout, activations, batched matrix product and the
elementwise/reduction plumbing. Tensors carry float32 data for training
and inference; a float64 path exists solely for finite-difference
gradient checking (`grad_check`).

The recorded graph is the tape: each op stores its parents and a rule
that maps the output gradient to parent gradients. `backward` replays
the rules in reverse topological order. A rule keeps only what it reads,
in its smallest exact form, and recomputes cheap values from the parent
data the tape already holds: relu and dropout keep bool masks, maxpool a
uint8 argmax, group_norm recomputes its normalized input and conv3d its
zero padding. The recomputation repeats the forward's own float
operations, so gradients are bitwise those of stored copies.

conv3d's forward and input gradient are im2col GEMMs built one depth slab
at a time. Its weight gradient builds no patch matrix: for k > 1 it is one
GEMM per kernel offset between g and a shifted view of the padded input,
both laid out on one flat padded grid (the kn2row family of low-memory
GEMM convolutions), so its peak is padded copies of x and g.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "DropoutMode",
    "no_grad",
    "add",
    "mul",
    "concat",
    "relu",
    "sigmoid",
    "softmax",
    "dropout",
    "conv3d",
    "conv_transpose3d",
    "maxpool3d",
    "group_norm",
    "global_avg_pool",
    "contract",
    "backward",
    "grad_check",
    "derive_rng",
    "derive_seed",
]

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True

# When a selection tape is active, relu/maxpool/clamp record their branch
# choices on first use and replay them on later passes, so repeated
# evaluations probe the pinned piecewise branch instead of hopping across
# kinks (used by grad_check).
_selection_tape: list | None = None
_selection_cursor = 0


@contextmanager
def _selection_scope(tape: list):
    global _selection_tape, _selection_cursor
    prev_tape, prev_cursor = _selection_tape, _selection_cursor
    _selection_tape, _selection_cursor = tape, 0
    try:
        yield
    finally:
        _selection_tape, _selection_cursor = prev_tape, prev_cursor


def _pin_selection(compute):
    """Record `compute()` on the active tape the first time, replay after."""
    global _selection_cursor
    if _selection_tape is None:
        return compute()
    if _selection_cursor < len(_selection_tape):
        value = _selection_tape[_selection_cursor]
    else:
        value = compute()
        _selection_tape.append(value)
    _selection_cursor += 1
    return value


class DropoutMode(Enum):
    """A network forward's dropout: TRAIN samples masks, OFF is identity.

    MC_ACTIVE, the name inference uses for Monte-Carlo sampling, is an
    alias of TRAIN: both draw the same masks.
    """

    TRAIN = "train"
    MC_ACTIVE = "train"
    OFF = "off"


@contextmanager
def no_grad():
    """Disable graph recording inside the context (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_float_array(data) -> np.ndarray:
    # np.asarray, unlike np.ascontiguousarray, keeps a 0-d array 0-d
    arr = np.asarray(data)
    return np.asarray(arr, dtype=None if arr.dtype in _FLOAT_DTYPES else np.float32, order="C")


class Tensor:
    """N-dimensional float array with optional gradient tracking.

    Canonical network layout is (B, C, D, H, W), row-major, W fastest.
    Treat tensors as immutable once created; parameter updates mutate
    `.data` in place from exactly one thread (the optimizer).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_rule")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_rule: Callable[[np.ndarray], Sequence[tuple["Tensor", np.ndarray]]] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _coerce(other, self.dtype))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, Tensor(np.asarray(-1.0, dtype=self.dtype)))

    def __sub__(self, other):
        return add(self, -_coerce(other, self.dtype))

    def __rsub__(self, other):
        return add(-self, _coerce(other, self.dtype))

    def __truediv__(self, other):
        return div(self, _coerce(other, self.dtype))

    def __rtruediv__(self, other):
        return div(_coerce(other, self.dtype), self)

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self):
        return tmean(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def backward(self) -> None:
        backward(self)


def _coerce(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _check_same_dtype(*tensors: Tensor) -> None:
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise TypeError(f"mixed tensor dtypes {sorted(d.name for d in dtypes)}; cast explicitly")


def _make(data: np.ndarray, parents: Iterable[Tensor], rule, op: str) -> Tensor:
    """Wrap an op result, recording the backward rule when grads are live."""
    if not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by {op}")
    out = Tensor(data)
    parents = tuple(parents)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_rule = rule
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise ops (broadcasting over size-1 axes)
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    data = a.data + b.data

    def rule(g):
        ga = _unbroadcast(g, a.shape)
        gb = _unbroadcast(g, b.shape)
        if gb is ga:
            gb = gb.copy()  # two parents must never share one buffer
        return [(a, ga), (b, gb)]

    return _make(data, (a, b), rule, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    data = a.data * b.data

    def rule(g):
        return [
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        ]

    return _make(data, (a, b), rule, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    data = a.data / b.data

    def rule(g):
        return [
            (a, _unbroadcast(g / b.data, a.shape)),
            (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
        ]

    return _make(data, (a, b), rule, "div")


def tlog(x: Tensor) -> Tensor:
    data = np.log(x.data)
    return _make(data, (x,), lambda g: [(x, g / x.data)], "log")


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input was inside."""
    inside = _pin_selection(lambda: ((x.data >= lo) & (x.data <= hi)).astype(x.dtype))
    data = inside * x.data + (1.0 - inside) * np.clip(x.data, lo, hi)
    return _make(data, (x,), lambda g: [(x, g * inside)], "clamp")


def tsum(x: Tensor, axis=None) -> Tensor:
    data = np.sum(x.data, axis=axis)

    def rule(g):
        kept = g if axis is None else np.expand_dims(g, axis)
        return [(x, np.broadcast_to(kept, x.shape).astype(x.dtype))]

    return _make(data, (x,), rule, "sum")


def tmean(x: Tensor) -> Tensor:
    return mul(tsum(x), Tensor(np.asarray(1.0 / x.size, dtype=x.dtype)))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)
    orig = x.shape
    return _make(data, (x,), lambda g: [(x, g.reshape(orig))], "reshape")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    _check_same_dtype(*tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def rule(g):
        pieces = np.split(g, splits, axis=axis)
        return list(zip(tensors, pieces))

    return _make(data, tensors, rule, "concat")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    mask = _pin_selection(lambda: x.data > 0)
    data = x.data * mask
    return _make(data, (x,), lambda g: [(x, g * mask)], "relu")


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    data = np.empty_like(xd)
    pos = xd >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    data[~pos] = ex / (1.0 + ex)

    def rule(g):
        return [(x, g * data * (1.0 - data))]

    return _make(data, (x,), rule, "sigmoid")


def softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"softmax axis {axis} invalid for ndim {x.ndim}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    data = ex / np.sum(ex, axis=axis, keepdims=True)

    def rule(g):
        inner = np.sum(g * data, axis=axis, keepdims=True)
        return [(x, data * (g - inner))]

    return _make(data, (x,), rule, "softmax")


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


# Uniform draws per chunk of a dropout mask: the float64 draw buffer stays
# at 4 MiB however large the tensor, and every 32x32x16 training tensor
# still draws in one chunk.
_DROPOUT_CHUNK = 1 << 19


def _keep_mask(gen: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """`gen.random(shape) >= rate`, drawn `_DROPOUT_CHUNK` uniforms at a
    time into one buffer; the mask and the generator's final state are
    those of the single draw."""
    keep = np.empty(shape, dtype=bool)
    flat = keep.reshape(-1)
    buf = np.empty(min(flat.size, _DROPOUT_CHUNK))
    for start in range(0, flat.size, _DROPOUT_CHUNK):
        draw = gen.random(out=buf[:min(_DROPOUT_CHUNK, flat.size - start)])
        np.greater_equal(draw, rate, out=flat[start:start + draw.size])
    return keep


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: survivors are scaled by 1/(1-rate) at sample time.

    The mask is drawn from `rng`; with `rng` None (dropout off) the input
    is returned unchanged.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if rng is None or rate == 0.0:
        return x
    keep = _keep_mask(rng, x.shape, rate)
    scale = x.dtype.type(1.0) / x.dtype.type(1.0 - rate)
    data = np.multiply(keep, scale, dtype=x.dtype)
    data *= x.data

    def rule(g):
        gx = np.multiply(keep, scale, dtype=g.dtype)
        gx *= g
        return [(x, gx)]

    return _make(data, (x,), rule, "dropout")


# ---------------------------------------------------------------------------
# 3D convolution family
# ---------------------------------------------------------------------------


# Patch-matrix bytes per conv3d slab: with two BLAS threads each streaming
# half a slab's columns, each core's half fits a 2 MiB-per-core L2 cache.
_SLAB_BYTES = 4 << 20


def _im2col(xp: np.ndarray, k: int, dilation: int, out: np.ndarray) -> np.ndarray:
    """Sliding k*k*k patches of a padded (B,C,*,*,*) volume, written into `out`.

    Returns the prefix of the flat buffer `out` as the (B, C*k^3, Do*Ho*Wo)
    patch matrix of the Do*Ho*Wo windows that fit in `xp`: k^3 copies of the
    input's C channels, one per kernel offset. Its one caller is
    `_conv3d_raw`, one depth slab at a time, for conv3d's forward and its
    input gradient; the weight gradient builds no patch matrix.
    """
    B, C = xp.shape[:2]
    span = dilation * (k - 1) + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (span,) * 3, axis=(2, 3, 4))
    view = windows[:, :, :, :, :, ::dilation, ::dilation, ::dilation].transpose(0, 1, 5, 6, 7, 2, 3, 4)
    col = out[: view.size].reshape(view.shape)
    np.copyto(col, view)
    return col.reshape(B, C * k ** 3, -1)


def _pad_same(x: np.ndarray, k: int, dilation: int) -> np.ndarray:
    """`x` zero-padded by dilation*(k-1)/2 on each spatial side (k > 1)."""
    pad = dilation * (k - 1) // 2
    return np.pad(x, ((0, 0), (0, 0)) + ((pad, pad),) * 3)


def _conv3d_raw(x: np.ndarray, w: np.ndarray, dilation: int) -> np.ndarray:
    """Same-padded cross-correlation on raw arrays: conv3d's forward, and its
    input gradient as the correlation of g with the flipped kernel.

    For k > 1 the output is computed in depth slabs: each slab takes its
    input rows plus the dilation*(k-1) halo, writes their patch matrix into
    one buffer shared by every slab of the call, and runs one GEMM straight
    into its slice of the output. A slab's patch matrix holds at most
    `_SLAB_BYTES` per batch item (or one output row, if a row is larger): a
    tile that stays in cache, where one whole Cin*k^3*N matrix (226 MB for a
    16-channel conv at 64x64x32) is streamed through memory by the GEMM. One
    buffer per call, not one array per slab, keeps glibc's allocator from
    handing out freshly trimmed heap pages slab after slab: a 32x32x16
    training step took about 870 minor page faults with an array per slab
    and 4 with the buffer. Slabs split only the output voxels, never a voxel's reduction
    over Cin*k^3, so the result is bitwise that of one full-size GEMM
    wherever the BLAS sums a column independently of where the GEMM starts
    (OpenBLAS's SkylakeX kernels at the network's shapes).
    """
    B, Cin, D, H, W = x.shape
    Cout, _, k, _, _ = w.shape
    plane = H * W
    out = np.empty((B, Cout, D * plane), dtype=x.dtype)
    if k == 1:
        np.matmul(w.reshape(Cout, Cin), x.reshape(B, Cin, -1), out=out)
    else:
        halo = dilation * (k - 1)
        xp = _pad_same(x, k, dilation)
        wm = w.reshape(Cout, -1)
        rows = min(D, max(1, _SLAB_BYTES // (Cin * k ** 3 * plane * x.itemsize)))
        buf = np.empty(B * Cin * k ** 3 * rows * plane, dtype=x.dtype)
        for d0 in range(0, D, rows):
            n = min(rows, D - d0)
            col = _im2col(xp[:, :, d0 : d0 + n + halo], k, dilation, buf)
            # a basic slice of the flat voxel axis: a view, never a copy
            dst = out[:, :, d0 * plane : (d0 + n) * plane]
            assert dst.base is out
            np.matmul(wm, col, out=dst)
    return out.reshape(B, Cout, D, H, W)


def _conv3d_weight_grad(x: np.ndarray, g: np.ndarray, k: int, dilation: int) -> np.ndarray:
    """Weight gradient of the same-padded correlation for k > 1, one GEMM per
    kernel offset over shifted views of the padded input (kn2row).

    `x` is padded again here rather than kept padded on the tape, and `g` is
    laid onto the first D planes of the same (Hp, Wp) grid, zero elsewhere.
    On that flat grid output voxel p = d*Hp*Wp + h*Wp + w reads input voxel
    p + off at offset (a, b, c), off = dilation*(a*Hp*Wp + b*Wp + c); so
    gw[:, :, a, b, c] is g's first L flat voxels against the padded input's
    L voxels from `off` on, summed over the batch. L = (D-1)*Hp*Wp +
    (H-1)*Wp + W, so L + the largest offset is exactly Dp*Hp*Wp and every
    operand is a view. The grid's padding columns pair zeros of g with
    whatever the input holds there. Nothing of Cin*k^3*N floats is built:
    the peak is the padded copies of x and g.
    """
    B, Cin = x.shape[:2]
    Cout, D, H, W = g.shape[1:]
    xp = _pad_same(x, k, dilation)
    Dp, Hp, Wp = xp.shape[2:]
    L = (D - 1) * Hp * Wp + (H - 1) * Wp + W
    gp = np.zeros((B, Cout, D, Hp, Wp), dtype=g.dtype)
    gp[:, :, :, :H, :W] = g
    xf = xp.reshape(B, Cin, -1)
    step = dilation * xf.itemsize
    # (B, k, k, k, L, Cin): offset (a, b, c)'s L voxels, channels last
    shifted = np.lib.stride_tricks.as_strided(
        xf, (B, k, k, k, L, Cin), (xf.strides[0], step * Hp * Wp, step * Wp, step, xf.itemsize, xf.strides[1]),
        writeable=False,
    )
    gw = np.matmul(gp.reshape(B, 1, 1, 1, Cout, -1)[..., :L], shifted).sum(axis=0)
    return np.ascontiguousarray(gw.transpose(3, 4, 0, 1, 2))


def conv3d(x: Tensor, weight: Tensor, bias: Tensor, dilation: int = 1) -> Tensor:
    """3D same-padded stride-1 cross-correlation with dilation.

    `x` is (B, Cin, D, H, W), `weight` is (Cout, Cin, k, k, k) with
    k in {1, 3, 5, 7}, `bias` is (Cout,). Each side is zero-padded by
    dilation*(k-1)/2, so the output has the input's spatial extents; the
    network downsamples with `maxpool3d`, never with a strided convolution.
    Gradients are recorded for x, weight and bias.
    """
    if x.ndim != 5 or weight.ndim != 5:
        raise ValueError(f"conv3d expects 5-D tensors, got {x.shape} and {weight.shape}")
    Cout, Cin, k, k2, k3 = weight.shape
    if not (k == k2 == k3):
        raise ValueError(f"non-cubic kernel {weight.shape[2:]}")
    if k not in (1, 3, 5, 7):
        raise ValueError(f"kernel size {k} not in (1, 3, 5, 7)")
    if x.shape[1] != Cin:
        raise ValueError(f"input channels {x.shape[1]} != weight channels {Cin}")
    if bias.shape != (Cout,):
        raise ValueError(f"bias shape {bias.shape} != ({Cout},)")
    _check_same_dtype(x, weight, bias)

    out_data = _conv3d_raw(x.data, weight.data, dilation)
    out_data += bias.data.reshape(1, Cout, 1, 1, 1)
    B = x.shape[0]

    def rule(g):
        gm = g.reshape(B, Cout, -1)
        if k == 1:
            gw = np.matmul(gm, x.data.reshape(B, Cin, -1).transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        else:
            gw = _conv3d_weight_grad(x.data, g, k, dilation)
        grads = [(weight, gw), (bias, gm.sum(axis=(0, 2)))]
        if x.requires_grad:
            # input gradient: the same-padded dilated correlation of g with
            # the spatially flipped, channel-swapped kernel
            wf = np.ascontiguousarray(weight.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))
            grads.append((x, _conv3d_raw(g, wf, dilation)))
        return grads

    return _make(out_data, (x, weight, bias), rule, "conv3d")


def _blocks(x: np.ndarray) -> np.ndarray:
    """(B, C, 2D, 2H, 2W) -> (B, 8, C, D, H, W): the non-overlapping 2x2x2
    blocks, axis 1 walking the offsets (i, j, l) in scan order."""
    B, C, D, H, W = x.shape
    blocks = x.reshape(B, C, D // 2, 2, H // 2, 2, W // 2, 2).transpose(0, 3, 5, 7, 1, 2, 4, 6)
    return blocks.reshape(B, 8, C, D // 2, H // 2, W // 2)


def _unblocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of `_blocks`: (B, 8, C, D, H, W) -> (B, C, 2D, 2H, 2W)."""
    B, _, C, D, H, W = blocks.shape
    x = blocks.reshape(B, 2, 2, 2, C, D, H, W).transpose(0, 4, 5, 1, 6, 2, 7, 3)
    return x.reshape(B, C, 2 * D, 2 * H, 2 * W)


def conv_transpose3d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Stride-2 transposed convolution with a 2x2x2 kernel, no padding.

    Each spatial extent doubles and the output's 2x2x2 blocks do not overlap:
    one batched matmul runs each kernel offset's (Cout, Cin) GEMM, and
    `_unblocks` lays the results out. `weight` is (Cin, Cout, 2, 2, 2).
    """
    if x.ndim != 5 or weight.ndim != 5 or weight.shape[2:] != (2, 2, 2):
        raise ValueError(f"conv_transpose3d expects (Cin,Cout,2,2,2) weight, got {weight.shape}")
    B, Cin, D, H, W = x.shape
    if Cin != weight.shape[0]:
        raise ValueError(f"input channels {Cin} != weight channels {weight.shape[0]}")
    Cout = weight.shape[1]
    _check_same_dtype(x, weight, bias)

    xm = x.data.reshape(B, 1, Cin, -1)
    w8 = weight.data.reshape(Cin, Cout, 8).transpose(2, 0, 1)  # (8, Cin, Cout), a view
    out = _unblocks(np.matmul(w8.swapaxes(1, 2), xm).reshape(B, 8, Cout, D, H, W))
    out += bias.data.reshape(1, Cout, 1, 1, 1)

    def rule(g):
        g8 = _blocks(g).reshape(B, 8, Cout, -1)
        gx = np.matmul(w8, g8).sum(axis=1).reshape(x.shape)  # numpy adds axis 1 in offset order
        gw = np.matmul(xm, g8.swapaxes(2, 3)).sum(axis=0).transpose(1, 2, 0).reshape(weight.shape)
        return [(x, gx), (weight, gw), (bias, g.sum(axis=(0, 2, 3, 4)))]

    return _make(out, (x, weight, bias), rule, "conv_transpose3d")


def maxpool3d(x: Tensor) -> Tensor:
    """2x2x2 max pooling with stride 2; spatial extents must be even.

    The max is taken over axis 1 of `_blocks(x)`, the block layout
    `conv_transpose3d` writes through. Backward routes the gradient to the
    first-in-scan-order argmax voxel of each block.
    """
    if any(n % 2 for n in x.shape[2:]):
        raise ValueError(f"maxpool3d needs even spatial extents, got {x.shape[2:]}")
    blocks = _blocks(x.data)
    arg = _pin_selection(lambda: np.argmax(blocks, axis=1).astype(np.uint8))
    data = np.take_along_axis(blocks, arg[:, None], axis=1)[:, 0]

    def rule(g):
        onehot = np.arange(8, dtype=np.uint8).reshape(8, 1, 1, 1, 1) == arg[:, None]
        return [(x, _unblocks(onehot * g[:, None]))]

    return _make(data, (x,), rule, "maxpool3d")


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each (batch, channel-group) over its channels and voxels.

    y = gamma * (x - mean) / sqrt(var + eps) + beta, with the statistics
    taken over C/groups channels and the full spatial extent.
    """
    B, C = x.shape[:2]
    if C % groups != 0:
        raise ValueError(f"channels {C} not divisible by groups {groups}")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ValueError(f"gamma/beta must be ({C},), got {gamma.shape}, {beta.shape}")
    _check_same_dtype(x, gamma, beta)

    spatial = x.shape[2:]
    grouped = x.data.reshape(B, groups, -1)
    mean = grouped.mean(axis=2, keepdims=True)
    var = grouped.var(axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    gshape = (1, C) + (1,) * len(spatial)

    def normalized():
        return ((x.data.reshape(B, groups, -1) - mean) * inv_std).reshape(x.shape)

    data = gamma.data.reshape(gshape) * normalized() + beta.data.reshape(gshape)

    def rule(g):
        xhat = normalized()
        sum_axes = (0,) + tuple(range(2, x.ndim))
        gbeta = g.sum(axis=sum_axes)
        ggamma = (g * xhat).sum(axis=sum_axes)
        gxhat = (g * gamma.data.reshape(gshape)).reshape(B, groups, -1)
        xh = xhat.reshape(B, groups, -1)
        m1 = gxhat.mean(axis=2, keepdims=True)
        m2 = (gxhat * xh).mean(axis=2, keepdims=True)
        gx = (inv_std * (gxhat - m1 - xh * m2)).reshape(x.shape)
        return [(x, gx), (gamma, ggamma), (beta, gbeta)]

    return _make(data, (x, gamma, beta), rule, "group_norm")


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over D, H, W per (batch, channel) -> (B, C, 1, 1, 1)."""
    B, C = x.shape[:2]
    n = int(np.prod(x.shape[2:]))
    if n == 0:
        raise ValueError("global_avg_pool on empty spatial extents")
    data = x.data.mean(axis=(2, 3, 4), keepdims=True)

    def rule(g):
        return [(x, np.broadcast_to(g / n, x.shape).astype(x.dtype))]

    return _make(data, (x,), rule, "global_avg_pool")


# ---------------------------------------------------------------------------
# batched matrix product
# ---------------------------------------------------------------------------


def contract(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Batched matrix product `a @ b`, or `a @ bᵀ` with `transpose_b`, over equal
    batch shapes: channel attention's gram matrix `k @ qᵀ` and mix `attn @ v`."""
    _check_same_dtype(a, b)
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"contract batch shapes differ: {a.shape} and {b.shape}")
    data = np.matmul(a.data, b.data.swapaxes(-1, -2) if transpose_b else b.data)

    def rule(g):
        if transpose_b:  # out = a @ bᵀ
            return [(a, np.matmul(g, b.data)), (b, np.matmul(g.swapaxes(-1, -2), a.data))]
        return [(a, np.matmul(g, b.data.swapaxes(-1, -2))), (b, np.matmul(a.data.swapaxes(-1, -2), g))]

    return _make(data, (a, b), rule, "contract")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) to every requires_grad leaf on the tape.

    `loss` must be scalar. Leaf `.grad` buffers accumulate across calls;
    use `zero_grad` between steps.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _toposort(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and node._backward_rule is None:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
        if node._backward_rule is None:
            continue
        for parent, pg in node._backward_rule(g):
            if not parent.requires_grad:
                continue
            pg = np.asarray(pg)  # a product of 0-d arrays is a read-only numpy scalar
            if pg.shape != parent.shape:
                raise AssertionError(f"gradient shape {pg.shape} != parent shape {parent.shape}")
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = pg.copy() if pg.base is not None else pg
            else:
                acc += pg


# ---------------------------------------------------------------------------
# gradient checking (float64 only)
# ---------------------------------------------------------------------------

GRAD_CHECK_ATOL = 1e-6
GRAD_CHECK_STENCIL_RTOL = 2e-6


def grad_check(
    f: Callable[[], Tensor],
    leaves: Sequence[Tensor] | Tensor,
    h: float = 1e-5,
    max_coords: int = 1000,
    rng_seed: int = 0,
) -> float:
    """Max relative error between backward gradients and central differences.

    `f` recomputes a scalar loss from `leaves` on every call; leaves must be
    float64 with requires_grad set. Tensors above `max_coords` elements are
    probed on a random coordinate subset. The relative error denominator is
    max(|analytic|, |numeric|, 1e-8).

    The probes measure the derivative of the branch-pinned function: the
    ReLU masks, pooling argmaxes, and clamp branches observed on the
    analytic pass are replayed on every probe, because those selections
    are exactly what the backward rules differentiate; without pinning, a
    kink inside the probe interval yields a branch-average slope no
    gradient convention matches. Each coordinate is probed with two
    stencils (h and h/2). Readings below `GRAD_CHECK_ATOL` are under the
    round-off noise floor (eps * |loss| / (2h)) and count as agreeing.
    Stencils that disagree beyond `GRAD_CHECK_STENCIL_RTOL` mark the
    coordinate unmeasurable at this step size and skip it; agreeing
    stencils are Richardson-extrapolated before comparison. A wrong
    backward rule disagrees at every step size and is always flagged.
    """
    if isinstance(leaves, Tensor):
        leaves = [leaves]
    for leaf in leaves:
        if leaf.dtype != np.float64:
            raise TypeError("grad_check requires float64 leaves")
        if not leaf.requires_grad:
            raise ValueError("grad_check leaves must have requires_grad=True")

    selections: list = []

    def pinned():
        with _selection_scope(selections):
            return f()

    for leaf in leaves:
        leaf.zero_grad()
    out = pinned()
    if out.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    backward(out)
    analytic = [np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad.copy() for leaf in leaves]

    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for leaf, ana in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for idx in coords:
            orig = flat[idx]

            def central(step):
                flat[idx] = orig + step
                fp = pinned().item()
                flat[idx] = orig - step
                fm = pinned().item()
                flat[idx] = orig
                return (fp - fm) / (2.0 * step)

            num_h = central(h)
            num_half = central(h / 2.0)
            a = float(ana.reshape(-1)[idx])
            if max(abs(a), abs(num_half)) < GRAD_CHECK_ATOL:
                continue
            if abs(num_h - num_half) > GRAD_CHECK_STENCIL_RTOL * max(abs(num_h), abs(num_half), 1e-8):
                continue
            # Richardson extrapolation of two agreeing stencils cancels the
            # O(h^2) truncation term
            numeric = (4.0 * num_half - num_h) / 3.0
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# seeding helpers
# ---------------------------------------------------------------------------


def derive_seed(root: int, *path: int) -> int:
    """Stable child seed from a root seed and a path of non-negative ints
    of any size; a negative one raises SeedSequence's ValueError."""
    key = [int(root), *(int(p) for p in path)]
    if any(k >> 32 for k in key):
        # SeedSequence splits these into 32-bit words and zero-pads short keys,
        # so (2**32, 0) would read as (0, 1); word counts keep them apart
        key += [(k.bit_length() + 31) // 32 for k in key]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def derive_rng(root: int, *path: int) -> np.random.Generator:
    """Generator seeded from (root, *path); same arguments, same stream."""
    return np.random.default_rng(derive_seed(root, *path))


# ---------------------------------------------------------------------------
# BLAS thread control
# ---------------------------------------------------------------------------


class _OpenBlas(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    corename: str  # the kernel family OpenBLAS picked for this CPU, or "unknown"


# (prefix, suffix) of the thread-control names, in the order tried: numpy's
# bundled build, other 64-bit-integer builds, the plain build
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _openblas() -> _OpenBlas | None:
    """Thread-count calls and core name of the OpenBLAS mapped into this
    process, through ctypes; None when no OpenBLAS with thread control is
    loaded."""
    try:
        with open("/proc/self/maps") as maps:
            # a mapping of the library ends in its path
            paths = [line.split(None, 5)[-1].strip() for line in maps if "openblas" in line.lower()]
    except OSError:
        return None
    for path in dict.fromkeys(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            name = None
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if core is not None:
                core.argtypes, core.restype = [], ctypes.c_char_p
                name = core()
            return _OpenBlas(get, put, name.decode() if name else "unknown")
    return None
