"""Training losses: soft Dice, binary cross-entropy, and their mean.

All three are differentiable through the autodiff tape. Multi-channel
inputs (B, 3, D, H, W) are scored per region channel and averaged.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _coerce, clamp, tlog, tsum

__all__ = ["DICE_EPS", "BCE_CLIP", "dice_loss", "bce_loss", "combined_loss"]

DICE_EPS = 1e-5
BCE_CLIP = 1e-7


def _channel_axes(t: Tensor):
    # (B, C, D, H, W) inputs reduce everything except the channel axis;
    # plain grids reduce to a scalar
    if t.ndim == 5:
        return (0, 2, 3, 4)
    return None


def dice_loss(p: Tensor, g, eps: float = DICE_EPS) -> Tensor:
    """1 - (2*sum(p*g) + eps) / (sum(p) + sum(g) + eps), channel-averaged."""
    if np.min(p.data) < 0.0 or np.max(p.data) > 1.0:
        raise ValueError("predictions outside [0, 1]")
    g = _coerce(g, p.dtype)
    if g.shape != p.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    axes = _channel_axes(p)
    eps_t = Tensor(np.asarray(eps, dtype=p.dtype))
    inter = tsum(p * g, axes)
    sums = tsum(p, axes) + tsum(g, axes)
    dice = (inter * 2.0 + eps_t) / (sums + eps_t)
    return (1.0 - dice).mean()


def bce_loss(p: Tensor, g, clip: float = BCE_CLIP) -> Tensor:
    """Mean binary cross-entropy with natural logs; p clipped away from {0, 1}."""
    g = _coerce(g, p.dtype)
    if g.shape != p.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    pc = clamp(p, clip, 1.0 - clip)
    ll = g * tlog(pc) + (1.0 - g) * tlog(1.0 - pc)
    return -ll.mean()


def combined_loss(p: Tensor, g) -> Tensor:
    """Arithmetic mean of the Dice and cross-entropy terms."""
    return (dice_loss(p, g) + bce_loss(p, g)) * 0.5
