"""Float64 gradient-check suite covering every primitive and block.

Each check builds a small float64 problem, nudges parameters off the
zero-initialized point (so no ReLU rests exactly on its kink), and
compares backward gradients against Richardson-extrapolated central
differences. The CLI `gradcheck` subcommand runs the suite and exits
nonzero on any failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import (
    Tensor,
    contract,
    conv3d,
    conv_transpose3d,
    global_avg_pool,
    grad_check,
    group_norm,
    maxpool3d,
    relu,
    sigmoid,
    softmax,
)
from .losses import combined_loss
from .network import (
    AdaptiveAttention,
    ChannelAttention,
    FeatureCalibration,
    MultiScaleFusion,
    NetworkConfig,
    SkipRecalibration,
    TumorSegNet,
)

__all__ = ["CheckResult", "run_gradient_checks"]

DEFAULT_TOL = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _randt(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _perturb(module, rng, scale=0.05):
    for _, p in module.named_parameters():
        p.data = p.data + rng.uniform(-scale, scale, p.data.shape)
    return module


def _small_cfg():
    return NetworkConfig(in_channels=2, stage_widths=(4, 4, 4, 4), gn_groups=2, dropout_rate=0.0)


def _sumsq(t: Tensor) -> Tensor:
    return (t * t).sum()


def _check_conv3d_plain(rng):
    x = _randt(rng, (1, 2, 4, 4, 3))
    w = _randt(rng, (3, 2, 3, 3, 3))
    b = _randt(rng, (3,))
    return lambda: _sumsq(conv3d(x, w, b)), [x, w, b]


def _check_conv3d_dilated(rng):
    x = _randt(rng, (1, 2, 6, 6, 5))
    w = _randt(rng, (2, 2, 3, 3, 3))
    b = _randt(rng, (2,))
    return lambda: _sumsq(conv3d(x, w, b, dilation=2)), [x, w, b]


def _check_conv_transpose(rng):
    x = _randt(rng, (1, 3, 3, 2, 3))
    w = _randt(rng, (3, 2, 2, 2, 2))
    b = _randt(rng, (2,))
    return lambda: _sumsq(conv_transpose3d(x, w, b)), [x, w, b]


def _check_maxpool(rng):
    vals = rng.permutation(2 * 4 * 4 * 4).astype(np.float64).reshape(1, 2, 4, 4, 4) * 0.05
    x = Tensor(vals, requires_grad=True)
    return lambda: _sumsq(maxpool3d(x)), [x]


def _check_group_norm(rng):
    x = _randt(rng, (2, 4, 3, 2, 2))
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = _randt(rng, (4,))
    return lambda: _sumsq(group_norm(x, 2, gamma, beta)), [x, gamma, beta]


def _check_softmax(rng):
    x = _randt(rng, (2, 5, 3))
    w = rng.standard_normal((2, 5, 3))
    return lambda: (softmax(x, axis=1) * Tensor(w)).sum(), [x]


def _check_sigmoid(rng):
    x = _randt(rng, (40,))
    return lambda: _sumsq(sigmoid(x)), [x]


def _check_relu(rng):
    x = Tensor(rng.uniform(0.1, 1.0, 50) * rng.choice([-1.0, 1.0], 50), requires_grad=True)
    return lambda: _sumsq(relu(x)), [x]


def _check_contract(rng):
    k = _randt(rng, (2, 3, 5))
    q = _randt(rng, (2, 3, 5))
    v = _randt(rng, (2, 3, 5))

    def f():
        attn = softmax(contract(k, q, "bin,bjn->bij"), axis=2)
        return _sumsq(contract(attn, v, "bij,bjn->bin"))

    return f, [k, q, v]


def _check_global_avg_pool(rng):
    x = _randt(rng, (2, 3, 2, 2, 2))
    return lambda: _sumsq(global_avg_pool(x)), [x]


def _check_broadcast_mul(rng):
    a = _randt(rng, (2, 3, 1, 1, 1))
    b = _randt(rng, (2, 3, 2, 2, 2))
    return lambda: _sumsq(a * b), [a, b]


def _check_channel_attention(rng):
    ca = _perturb(ChannelAttention(4, rng).cast_parameters(np.float64), rng)
    x = _randt(rng, (1, 4, 2, 2, 2))
    return lambda: _sumsq(ca.forward(x)), [x] + ca.parameters()


def _check_fcm(rng):
    fcm = _perturb(FeatureCalibration(4, 2, 0.0, rng).cast_parameters(np.float64), rng)
    x = _randt(rng, (1, 4, 2, 2, 2))
    return lambda: _sumsq(fcm.forward(x, None)), [x] + fcm.parameters()


def _check_msff(rng):
    block = _perturb(MultiScaleFusion(2, 4, _small_cfg(), rng).cast_parameters(np.float64), rng)
    x = _randt(rng, (1, 2, 3, 3, 3))
    return lambda: _sumsq(block.forward(x, None)), [x] + block.parameters()


def _check_aam(rng):
    aam = _perturb(AdaptiveAttention(4, _small_cfg(), rng).cast_parameters(np.float64), rng)
    aam.gate.data[:] = rng.standard_normal(4) * 0.5
    x = _randt(rng, (1, 4, 2, 2, 1))
    return lambda: _sumsq(aam.forward(x, None)), [x] + aam.parameters()


def _check_skip(rng):
    skip = _perturb(SkipRecalibration(3, rng).cast_parameters(np.float64), rng)
    x = _randt(rng, (1, 3, 2, 2, 2))
    return lambda: _sumsq(skip.forward(x)), [x] + skip.parameters()


def _check_full_network(rng):
    cfg = NetworkConfig(dropout_rate=0.0)
    net = _perturb(TumorSegNet(cfg, seed=11).cast_parameters(np.float64), rng, scale=0.02)
    x = _randt(rng, (1, 5, 8, 8, 8))
    target = (rng.random((1, 3, 8, 8, 8)) > 0.5).astype(np.float64)
    return lambda: combined_loss(net.forward(x), target), [x] + net.parameters()


def run_gradient_checks(tolerance: float = DEFAULT_TOL, seed: int = 0) -> list[CheckResult]:
    """Run every gradient check; returns one result per check."""
    builders: list[tuple[str, Callable, dict]] = [
        ("conv3d_k3", _check_conv3d_plain, {}),
        ("conv3d_k3_dilation2", _check_conv3d_dilated, {}),
        ("conv_transpose3d", _check_conv_transpose, {}),
        ("maxpool3d", _check_maxpool, {"h": 1e-6}),
        ("group_norm", _check_group_norm, {}),
        ("softmax", _check_softmax, {}),
        ("sigmoid", _check_sigmoid, {}),
        ("relu", _check_relu, {}),
        ("contract_attention", _check_contract, {}),
        ("global_avg_pool", _check_global_avg_pool, {}),
        ("broadcast_mul", _check_broadcast_mul, {}),
        ("channel_attention", _check_channel_attention, {}),
        ("feature_calibration", _check_fcm, {}),
        ("multi_scale_fusion", _check_msff, {"max_coords": 150}),
        ("adaptive_attention_channel", _check_aam, {"max_coords": 150}),
        ("skip_recalibration", _check_skip, {}),
        ("full_network_combined_loss", _check_full_network, {"max_coords": 3}),
    ]
    results = []
    for name, builder, kwargs in builders:
        rng = np.random.default_rng(np.random.SeedSequence([seed, len(name)]))
        f, leaves = builder(rng)
        err = grad_check(f, leaves, rng_seed=seed, **kwargs)
        results.append(CheckResult(name, err, tolerance))
    return results
