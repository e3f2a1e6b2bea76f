"""3D encoder-decoder segmentation network.

Four encoder stages of multi-scale fusion blocks with max-pool
downsampling, three decoder stages that upsample with transposed
convolutions, merge recalibrated skip features, and refine them with
adaptive attention plus another fusion block. The head emits three
independent sigmoid channels (enhancing tumor, whole tumor, tumor core).

Ablation switches swap the fusion blocks for plain convolutions and the
attention blocks for identities, reproducing a vanilla four-conv /
three-pool U-Net baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from .autodiff import (
    DropoutMode,
    Tensor,
    add,
    concat,
    contract,
    conv3d,
    conv_transpose3d,
    dropout,
    global_avg_pool,
    group_norm,
    maxpool3d,
    mul,
    relu,
    reshape,
    sigmoid,
    softmax,
)
from .metrics import REGIONS

__all__ = [
    "NetworkConfig",
    "Module",
    "Conv3d",
    "ConvTranspose3d",
    "GroupNorm",
    "ChannelAttention",
    "FeatureCalibration",
    "MultiScaleFusion",
    "PlainConvBlock",
    "AdaptiveAttention",
    "SkipRecalibration",
    "TumorSegNet",
    "count_params",
]

# Channel-attention bottleneck: the hidden width is channels // CA_REDUCTION.
CA_REDUCTION = 2


@dataclass
class NetworkConfig:
    """Architecture hyperparameters, including the ablation switches."""

    out_channels: ClassVar[int] = len(REGIONS)  # one sigmoid channel per region
    in_channels: int = 5
    stage_widths: tuple[int, int, int, int] = (8, 16, 32, 64)
    gn_groups: int = 4
    dropout_rate: float = 0.2
    msff_kernel: int = 3
    msff_dilation: int = 2
    use_msff: bool = True
    use_aam: bool = True

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        if self.msff_kernel not in (1, 3, 5, 7):
            raise ValueError(f"msff_kernel {self.msff_kernel} not in (1, 3, 5, 7)")
        if len(self.stage_widths) != 4:
            raise ValueError(f"need exactly 4 stage widths, got {len(self.stage_widths)}")
        for w in self.stage_widths:
            if w < 1:
                raise ValueError(f"stage width {w} must be at least 1")
            if w % self.gn_groups:
                raise ValueError(f"stage width {w} not divisible by gn_groups {self.gn_groups}")
            if w % CA_REDUCTION:
                raise ValueError(f"stage width {w} not divisible by {CA_REDUCTION}")


class Module:
    """Minimal layer base: parameter discovery via attribute order."""

    def children(self) -> Iterator["Module"]:
        for attr in vars(self).values():
            for item in attr if isinstance(attr, (list, tuple)) else (attr,):
                if isinstance(item, Module):
                    yield item

    def flops(self, n_out: int) -> int:
        """Forward FLOPs at `n_out` output voxels: the sub-modules' sum.
        Layers with arithmetic of their own override it."""
        return sum(child.flops(n_out) for child in self.children())

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, attr in vars(self).items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(attr, Tensor) and attr.requires_grad:
                yield full, attr
            elif isinstance(attr, Module):
                yield from attr.named_parameters(full)
            elif isinstance(attr, (list, tuple)):
                for i, item in enumerate(attr):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def cast_parameters(self, dtype) -> "Module":
        """In-place precision change of every parameter (for grad checks)."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        if set(own) != set(state):
            missing = sorted(set(own) - set(state))
            extra = sorted(set(state) - set(own))
            raise ValueError(f"state mismatch; missing={missing} unexpected={extra}")
        for name, p in own.items():
            if state[name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {state[name].shape} vs {p.data.shape}")
            p.data = state[name].astype(p.data.dtype)


def _he_weight(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    std = float(np.sqrt(2.0 / fan_in))
    return Tensor(rng.normal(0.0, std, size=shape).astype(np.float32), requires_grad=True)


class Conv3d(Module):
    def __init__(self, cin: int, cout: int, kernel: int, rng: np.random.Generator,
                 dilation: int = 1):
        self.kernel = kernel
        self.dilation = dilation
        self.weight = _he_weight(rng, (cout, cin, kernel, kernel, kernel), cin * kernel ** 3)
        self.bias = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return conv3d(x, self.weight, self.bias, dilation=self.dilation)

    def flops(self, n_out: int) -> int:
        cout, cin, k = self.weight.shape[0], self.weight.shape[1], self.kernel
        return 2 * cin * k ** 3 * cout * n_out


class ConvTranspose3d(Module):
    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        self.weight = _he_weight(rng, (cin, cout, 2, 2, 2), cin)
        self.bias = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return conv_transpose3d(x, self.weight, self.bias)

    def flops(self, n_out: int) -> int:
        cin, cout = self.weight.shape[0], self.weight.shape[1]
        return 2 * cin * cout * n_out


class GroupNorm(Module):
    def __init__(self, groups: int, channels: int):
        self.groups = groups
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return group_norm(x, self.groups, self.gamma, self.beta)


class ChannelAttention(Module):
    """Squeeze-excite gate: per-channel sigmoid weights from pooled stats."""

    def __init__(self, channels: int, rng: np.random.Generator):
        if channels % CA_REDUCTION:
            raise ValueError(f"channels {channels} not divisible by {CA_REDUCTION}")
        hidden = channels // CA_REDUCTION
        self.reduce = Conv3d(channels, hidden, 1, rng)
        self.expand = Conv3d(hidden, channels, 1, rng)

    def forward(self, x: Tensor) -> Tensor:
        s = sigmoid(self.expand.forward(relu(self.reduce.forward(global_avg_pool(x)))))
        return mul(x, s)

    def flops(self, n_out: int) -> int:
        return self.reduce.flops(1) + self.expand.flops(1)  # on the one pooled voxel


class FeatureCalibration(Module):
    """ReLU -> group norm -> dropout -> channel attention, in that order."""

    def __init__(self, channels: int, gn_groups: int, rate: float,
                 rng: np.random.Generator, use_ca: bool = True):
        self.norm = GroupNorm(gn_groups, channels)
        self.rate = rate
        self.attn = ChannelAttention(channels, rng) if use_ca else None

    def forward(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        y = dropout(self.norm.forward(relu(x)), self.rate, rng)
        if self.attn is not None:
            y = self.attn.forward(y)
        return y


class MultiScaleFusion(Module):
    """Parallel point / local / dilated conv branches with residual fusion.

    Each branch is calibrated, the local and dilated outputs are summed
    and refined by a pointwise conv, and the pointwise branch is added
    back as the residual.
    """

    def __init__(self, cin: int, cout: int, cfg: NetworkConfig, rng: np.random.Generator):
        k = cfg.msff_kernel
        self.branch_point = Conv3d(cin, cout, 1, rng)
        self.branch_local = Conv3d(cin, cout, k, rng)
        self.branch_dilated = Conv3d(cin, cout, k, rng, dilation=cfg.msff_dilation)
        self.calib_point = FeatureCalibration(cout, cfg.gn_groups, cfg.dropout_rate, rng)
        self.calib_local = FeatureCalibration(cout, cfg.gn_groups, cfg.dropout_rate, rng)
        self.calib_dilated = FeatureCalibration(cout, cfg.gn_groups, cfg.dropout_rate, rng)
        self.fuse = Conv3d(cout, cout, 1, rng)

    def forward(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        b1 = self.calib_point.forward(self.branch_point.forward(x), rng)
        b2 = self.calib_local.forward(self.branch_local.forward(x), rng)
        b3 = self.calib_dilated.forward(self.branch_dilated.forward(x), rng)
        return add(b1, self.fuse.forward(add(b2, b3)))


class PlainConvBlock(Module):
    """Ablation stand-in for the fusion block: one conv plus calibration
    without channel attention."""

    def __init__(self, cin: int, cout: int, cfg: NetworkConfig, rng: np.random.Generator):
        self.conv = Conv3d(cin, cout, 3, rng)
        self.calib = FeatureCalibration(cout, cfg.gn_groups, cfg.dropout_rate, rng, use_ca=False)

    def forward(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        return self.calib.forward(self.conv.forward(x), rng)


class AdaptiveAttention(Module):
    """Key/query/value attention with a learned, zero-initialized gate.

    The attention is a CxC gram matrix over the flattened volume.
    The gated attention output modulates the input elementwise and is
    added back, so a freshly initialized block is the identity map.
    """

    def __init__(self, channels: int, cfg: NetworkConfig, rng: np.random.Generator):
        self.proj_k = Conv3d(channels, channels, 1, rng)
        self.proj_q = Conv3d(channels, channels, 1, rng)
        self.proj_v = Conv3d(channels, channels, 1, rng)
        self.rate = cfg.dropout_rate
        self.gate = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        b, c = x.shape[0], x.shape[1]
        n = int(np.prod(x.shape[2:]))
        # k and q are dropped once their logits exist, and v once mixed, so
        # that without a tape at most two projections are alive at a time
        k = reshape(dropout(self.proj_k.forward(x), self.rate, rng), (b, c, n))
        q = reshape(dropout(self.proj_q.forward(x), self.rate, rng), (b, c, n))
        scale = 1.0 / float(np.sqrt(n))
        logits = mul(contract(k, q, transpose_b=True), Tensor(np.asarray(scale, dtype=x.dtype)))
        del k, q
        v = reshape(dropout(self.proj_v.forward(x), self.rate, rng), (b, c, n))
        attn = softmax(logits, axis=2)
        mixed = contract(attn, v)
        del v
        mixed = reshape(mixed, x.shape)
        gate = reshape(self.gate, (1, c, 1, 1, 1))
        return add(mul(mul(gate, x), mixed), x)

    def flops(self, n_out: int) -> int:
        c = self.gate.shape[0]
        # the two contractions: logits, then the attention-weighted mix
        return super().flops(n_out) + 4 * c * c * n_out


class SkipRecalibration(Module):
    """Pointwise conv applied to encoder features before the skip merge."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.conv = Conv3d(channels, channels, 1, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv.forward(x)


class _DecoderStage(Module):
    def __init__(self, cin: int, width: int, cfg: NetworkConfig, rng: np.random.Generator):
        self.up = ConvTranspose3d(cin, width, rng)
        self.skip = SkipRecalibration(width, rng)
        self.attn = AdaptiveAttention(2 * width, cfg, rng) if cfg.use_aam else None
        block = MultiScaleFusion if cfg.use_msff else PlainConvBlock
        self.block = block(2 * width, width, cfg, rng)

    def forward(self, x: Tensor, enc_feat: Tensor, rng: np.random.Generator | None) -> Tensor:
        up = self.up.forward(x)
        merged = concat([self.skip.forward(enc_feat), up], axis=1)
        del up, enc_feat  # without a tape, `merged` is the only copy left
        if self.attn is not None:
            merged = self.attn.forward(merged, rng)
        return self.block.forward(merged, rng)


# layer_manifest's kind of each macro-block module type
_KINDS = {MultiScaleFusion: "multiscale_block", PlainConvBlock: "conv_block",
          ConvTranspose3d: "transposed_conv", SkipRecalibration: "skip_recalibration",
          AdaptiveAttention: "adaptive_attention"}


class TumorSegNet(Module):
    """Encoder-decoder network producing three sigmoid region channels."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.config = config
        widths = config.stage_widths
        block = MultiScaleFusion if config.use_msff else PlainConvBlock
        chain = [config.in_channels] + list(widths)
        self.encoders = [block(chain[i], chain[i + 1], config, rng) for i in range(4)]
        self.decoders = [
            _DecoderStage(widths[i + 1], widths[i], config, rng) for i in (2, 1, 0)
        ]
        self.head = Conv3d(widths[0], config.out_channels, 1, rng)

    def forward(self, x: Tensor, mode: DropoutMode = DropoutMode.OFF, rng=None) -> Tensor:
        """TRAIN (alias MC_ACTIVE) draws every dropout mask from `rng`, a seed or Generator."""
        if x.ndim != 5:
            raise ValueError(f"expected (B,C,D,H,W) input, got {x.shape}")
        if x.shape[1] != self.config.in_channels:
            raise ValueError(f"expected {self.config.in_channels} input channels, got {x.shape[1]}")
        for n in x.shape[2:]:
            if n % 8:
                raise ValueError(f"spatial extents must be divisible by 8, got {x.shape[2:]}")
        if mode is not DropoutMode.OFF and rng is None:
            raise ValueError("sampling dropout needs a seed or Generator")
        rng = None if mode is DropoutMode.OFF else np.random.default_rng(rng)  # a Generator passes through

        feats = []
        for i, enc in enumerate(self.encoders):
            x = enc.forward(x, rng)
            feats.append(x)
            if i < 3:
                x = maxpool3d(x)
        for stage, skip_idx in zip(self.decoders, (2, 1, 0)):
            # popped, so the decoder can free the skip feature once merged
            x = stage.forward(x, feats.pop(skip_idx), rng)
        return sigmoid(self.head.forward(x))

    def layer_manifest(self) -> list[tuple[str, str]]:
        """Ordered (name, kind) description of the macro blocks, read from
        the modules the network holds."""
        entries = []
        for i, enc in enumerate(self.encoders):
            entries.append((f"encoder{i}", _KINDS[type(enc)]))
            if i < len(self.encoders) - 1:
                entries.append((f"pool{i}", "maxpool"))
        for stage, lvl in zip(self.decoders, (2, 1, 0)):
            parts = {"upsample": stage.up, "skip": stage.skip, "attention": stage.attn, "block": stage.block}
            entries += [(f"decoder{lvl}.{part}", _KINDS[type(m)]) for part, m in parts.items() if m is not None]
        return entries + [("head", "output_head")]

    def count_flops(self, spatial: tuple[int, int, int]) -> int:
        """Forward multiply-accumulates x2 of the convolutions, transposed
        convolutions and attention contractions; elementwise ops,
        normalization, pooling and dropout are not counted."""
        n = int(np.prod(spatial))
        total = sum(enc.flops(n // 8 ** i) for i, enc in enumerate(self.encoders))
        total += sum(stage.flops(n // 8 ** lvl) for stage, lvl in zip(self.decoders, (2, 1, 0)))
        return total + self.head.flops(n)


def count_params(net: Module) -> int:
    return sum(p.data.size for _, p in net.named_parameters())
