"""Contracts every tensor op keeps on generated shapes and values.

For each op in `autodiff.__all__` that returns a `Tensor`, plus the
reductions and operators `Tensor` exposes:
- its output under `no_grad()` is bitwise equal to its taped output, and
  records no graph;
- its output has the expected shape and the input dtype, with 0-d
  results for full reductions.

Values include signed zeros, so an op whose no-grad path computes
differently (say relu as `np.maximum(x, 0)`, which turns -0.0 into 0.0)
fails. Examples are derandomized and bounded, so every run draws the
same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from voxseg import autodiff
from voxseg.autodiff import (
    Tensor,
    concat,
    contract,
    conv3d,
    conv_transpose3d,
    dropout,
    global_avg_pool,
    group_norm,
    maxpool3d,
    no_grad,
    relu,
    sigmoid,
    softmax,
)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

dtypes = st.sampled_from([np.float32, np.float64])
small = st.integers(1, 3)


@st.composite
def arrays(draw, shape, dtype, positive=False):
    """Normal values with some exact 0.0 and -0.0, or values in [0.5, 2)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if positive:
        return np.asarray(rng.uniform(0.5, 2.0, shape), dtype=dtype)
    values = np.asarray(rng.standard_normal(shape), dtype=dtype)
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.2]))
    values[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return values


def volume_shapes(channels=st.integers(1, 9), even=False):
    extent = st.integers(1, 4).map(lambda n: 2 * n) if even else st.integers(1, 9)
    return st.tuples(st.integers(1, 2), channels, extent, extent, extent)


# Each strategy draws (op, operand arrays, expected output shape); `op`
# maps the operand tensors to the output and draws any randomness afresh
# per call.


@st.composite
def broadcast_cases(draw, op, positive_b=False):
    (sa, sb), out = draw(mutually_broadcastable_shapes(num_shapes=2, max_dims=4, max_side=4))
    dtype = draw(dtypes)
    return op, [draw(arrays(sa, dtype)), draw(arrays(sb, dtype, positive=positive_b))], out


@st.composite
def activation_cases(draw, fn):
    shape = draw(st.lists(small, max_size=5).map(tuple))
    return fn, [draw(arrays(shape, draw(dtypes)))], shape


@st.composite
def softmax_cases(draw):
    shape = draw(st.lists(small, min_size=1, max_size=5).map(tuple))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    return (lambda t: softmax(t, axis)), [draw(arrays(shape, draw(dtypes)))], shape


@st.composite
def tensor_method_cases(draw):
    """Tensor's reductions, reshape and the operators without an op name."""
    shape = draw(st.lists(small, min_size=1, max_size=4).map(tuple))
    x = draw(arrays(shape, draw(dtypes)))
    kind = draw(st.sampled_from(["sum", "mean", "sum-axis", "reshape", "sub", "div", "neg"]))
    if kind == "sum":
        return (lambda t: t.sum()), [x], ()
    if kind == "mean":
        return (lambda t: t.mean()), [x], ()
    if kind == "reshape":
        return (lambda t: t.reshape(-1)), [x], (x.size,)
    if kind == "sum-axis":
        axis = draw(st.integers(0, len(shape) - 1))
        return (lambda t: t.sum(axis)), [x], shape[:axis] + shape[axis + 1:]
    if kind == "neg":
        return (lambda t: -t), [x], shape
    ops = {"sub": lambda a, b: a - b, "div": lambda a, b: a / b}
    return draw(broadcast_cases(ops[kind], positive_b=kind == "div"))


@st.composite
def concat_cases(draw):
    shape = draw(st.lists(small, min_size=1, max_size=4))
    axis = draw(st.integers(0, len(shape) - 1))
    dtype = draw(dtypes)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        part = list(shape)
        part[axis] = draw(small)
        parts.append(draw(arrays(tuple(part), dtype)))
    out = list(shape)
    out[axis] = sum(p.shape[axis] for p in parts)
    return (lambda *ts: concat(list(ts), axis)), parts, tuple(out)


@st.composite
def dropout_cases(draw):
    shape = draw(volume_shapes())
    rate = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    seed = draw(st.integers(0, 2**32 - 1))
    sample = draw(st.booleans())

    def op(t):
        return dropout(t, rate, np.random.default_rng(seed) if sample else None)

    return op, [draw(arrays(shape, draw(dtypes)))], shape


@st.composite
def conv3d_cases(draw):
    B, Cin, D, H, W = draw(volume_shapes())
    cout, k, dilation = draw(st.integers(1, 9)), draw(st.sampled_from([1, 3, 5, 7])), draw(small)
    dtype = draw(dtypes)
    operands = [draw(arrays((B, Cin, D, H, W), dtype)), draw(arrays((cout, Cin, k, k, k), dtype)),
                draw(arrays((cout,), dtype))]
    return (lambda x, w, b: conv3d(x, w, b, dilation)), operands, (B, cout, D, H, W)


@st.composite
def conv_transpose3d_cases(draw):
    B, Cin, D, H, W = draw(volume_shapes())
    cout, dtype = draw(st.integers(1, 9)), draw(dtypes)
    operands = [draw(arrays((B, Cin, D, H, W), dtype)), draw(arrays((Cin, cout, 2, 2, 2), dtype)),
                draw(arrays((cout,), dtype))]
    return conv_transpose3d, operands, (B, cout, 2 * D, 2 * H, 2 * W)


@st.composite
def maxpool3d_cases(draw):
    B, C, D, H, W = draw(volume_shapes(even=True))
    return maxpool3d, [draw(arrays((B, C, D, H, W), draw(dtypes)))], (B, C, D // 2, H // 2, W // 2)


@st.composite
def global_avg_pool_cases(draw):
    shape = draw(volume_shapes())
    return global_avg_pool, [draw(arrays(shape, draw(dtypes)))], shape[:2] + (1, 1, 1)


@st.composite
def group_norm_cases(draw):
    groups = draw(small)
    shape = draw(volume_shapes(channels=small.map(lambda n: n * groups)))
    dtype = draw(dtypes)
    C = shape[1]
    operands = [draw(arrays(shape, dtype)), draw(arrays((C,), dtype, positive=True)), draw(arrays((C,), dtype))]
    return (lambda x, g, b: group_norm(x, groups, g, b)), operands, shape


@st.composite
def contract_cases(draw):
    batch = draw(st.lists(small, max_size=2).map(tuple))
    m, k, n = draw(small), draw(st.integers(1, 5)), draw(small)
    transpose_b, dtype = draw(st.booleans()), draw(dtypes)
    b_shape = batch + ((n, k) if transpose_b else (k, n))
    operands = [draw(arrays(batch + (m, k), dtype)), draw(arrays(b_shape, dtype))]
    return (lambda a, b: contract(a, b, transpose_b)), operands, batch + (m, n)


CASES = {
    "add": broadcast_cases(autodiff.add),
    "mul": broadcast_cases(autodiff.mul),
    "relu": activation_cases(relu),
    "sigmoid": activation_cases(sigmoid),
    "softmax": softmax_cases(),
    "concat": concat_cases(),
    "dropout": dropout_cases(),
    "conv3d": conv3d_cases(),
    "conv_transpose3d": conv_transpose3d_cases(),
    "maxpool3d": maxpool3d_cases(),
    "global_avg_pool": global_avg_pool_cases(),
    "group_norm": group_norm_cases(),
    "contract": contract_cases(),
    "Tensor": tensor_method_cases(),
}

# names in autodiff.__all__ that are not ops returning a Tensor
NOT_OPS = {"DropoutMode", "no_grad", "backward", "grad_check", "derive_rng", "derive_seed"}


def test_every_op_has_a_case():
    assert set(CASES) == set(autodiff.__all__) - NOT_OPS


def run_both(op, operands):
    """The op's taped output on leaves that require grad, and its output
    under no_grad on fresh leaves holding the same values."""
    taped = op(*(Tensor(a.copy(), requires_grad=True) for a in operands))
    with no_grad():
        untaped = op(*(Tensor(a.copy(), requires_grad=True) for a in operands))
    return taped, untaped


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_no_grad_output_is_bitwise_the_taped_output(name, data):
    op, operands, _ = data.draw(CASES[name])
    taped, untaped = run_both(op, operands)
    assert untaped.dtype == taped.dtype and untaped.shape == taped.shape
    assert untaped.data.tobytes() == taped.data.tobytes()
    assert taped.requires_grad
    # dropout off returns its leaf, which still requires grad: check the graph, not the flag
    assert untaped._backward_rule is None and untaped._parents == ()


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_output_shape_and_dtype(name, data):
    op, operands, shape = data.draw(CASES[name])
    for out in run_both(op, operands):
        assert isinstance(out, Tensor)
        assert out.shape == shape
        assert out.dtype == operands[0].dtype
