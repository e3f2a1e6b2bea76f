"""Evaluation metrics: region composition, Dice overlap, Hausdorff distance.

Regions follow the nested convention: enhancing tumor is label 4, tumor
core is labels {1, 4}, whole tumor is labels {1, 2, 4}. The Hausdorff
distance is the full (not percentile) symmetric maximum over boundary
point sets, using Euclidean distance with optional voxel spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .volume_io import check_label_codes

__all__ = [
    "REGIONS",
    "RegionMasks",
    "MetricReport",
    "UndefinedMetricError",
    "compose_regions",
    "dice_score",
    "extract_boundary",
    "hausdorff",
]

# voxels per block of lines in one distance-transform pass: bounds the
# pass's work arrays at a few tens of MB whatever the box size
_EDT_BLOCK = 1 << 21


class UndefinedMetricError(Exception):
    """Raised when a metric has no defined value (e.g. empty boundary set)."""


@dataclass(frozen=True)
class RegionMasks:
    """Binary masks for the three nested evaluation regions. The field
    order is the channel order of every stacked region array."""

    et: np.ndarray
    wt: np.ndarray
    tc: np.ndarray

    def stack(self) -> np.ndarray:
        """(3, D, H, W) array of the masks; `RegionMasks(*stack)` undoes it."""
        return np.stack([getattr(self, region) for region in REGIONS])


REGIONS = tuple(f.name for f in fields(RegionMasks))


@dataclass
class MetricReport:
    """Per-region Dice and Hausdorff values; NaN marks undefined distances.

    `flags` records degenerate cases (both-empty Dice, undefined HD) so
    they are never silently folded into the numbers.
    """

    dice_et: float
    dice_wt: float
    dice_tc: float
    hd_et: float
    hd_wt: float
    hd_tc: float
    flags: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"dice_et={self.dice_et!r}",
            f"dice_wt={self.dice_wt!r}",
            f"dice_tc={self.dice_tc!r}",
            f"hd_et={self.hd_et!r}",
            f"hd_wt={self.hd_wt!r}",
            f"hd_tc={self.hd_tc!r}",
        ]
        lines += [f"flag_{name}=1" for name in self.flags]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MetricReport":
        values: dict[str, float] = {}
        flags: list[str] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, raw = line.partition("=")
            if key.startswith("flag_"):
                flags.append(key[5:])
            else:
                values[key] = float(raw)
        return cls(flags=flags, **values)


def compose_regions(labels: np.ndarray) -> RegionMasks:
    """ET = {4}, TC = {1, 4}, WT = {1, 2, 4} from a coded label grid."""
    labels = np.asarray(labels)
    check_label_codes(labels)
    return RegionMasks(et=labels == 4, wt=labels > 0, tc=(labels == 1) | (labels == 4))


def dice_score(a: np.ndarray, b: np.ndarray) -> float:
    """2|A n B| / (|A| + |B|); two empty masks count as perfect agreement."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    denom = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    if denom == 0:
        return 1.0
    # Python ints give a Python float, whose repr MetricReport's text parses back
    return 2.0 * int(np.count_nonzero(a & b)) / denom


def extract_boundary(mask: np.ndarray) -> np.ndarray:
    """Coordinates (N, 3) of mask voxels with a 6-neighbor outside the mask.

    Voxels on the volume border count as boundary. Empty mask gives an
    empty (0, 3) array. Only the mask's bounding box is scanned. A mask
    that is not 3-D raises ValueError.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 3:
        raise ValueError(f"expected a 3-D mask, got shape {mask.shape}")
    box = []
    for axis in range(3):
        hit = np.flatnonzero(mask.any(axis=tuple(a for a in range(3) if a != axis)))
        if hit.size == 0:
            return np.empty((0, 3), dtype=np.int64)
        box.append(slice(hit[0], hit[-1] + 1))
    mask = mask[tuple(box)]
    padded = np.pad(mask, 1)
    interior = np.ones_like(mask)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return np.argwhere(mask & ~interior) + [b.start for b in box]


def hausdorff(pred: np.ndarray, gt: np.ndarray, spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> float:
    """Symmetric Hausdorff distance between two 3-D mask boundaries.

    Raises UndefinedMetricError when either mask is empty; callers must
    report that, never substitute zero. Spacing must be three finite
    values > 0.

    Each direction reads an exact squared distance transform of one
    boundary at the other boundary's points, then recomputes each
    farthest point's distance against the other boundary's points near
    it (see `_farthest_sq`), so the value is the brute-force maximum bit
    for bit. A direction whose points all lie on the other boundary is
    0 without a transform.
    """
    if np.shape(pred) != np.shape(gt):
        raise ValueError(f"shape mismatch {np.shape(pred)} vs {np.shape(gt)}")
    sp = np.asarray(spacing, dtype=np.float64)
    if sp.shape != (3,) or not np.all(np.isfinite(sp)) or not np.all(sp > 0):
        raise ValueError(f"spacing must be three finite values > 0, got {spacing!r}")
    pb = extract_boundary(pred)
    gb = extract_boundary(gt)
    if len(pb) == 0 or len(gb) == 0:
        raise UndefinedMetricError("Hausdorff undefined for an empty mask")
    lo = np.minimum(pb.min(axis=0), gb.min(axis=0))
    box = tuple(np.maximum(pb.max(axis=0), gb.max(axis=0)) - lo + 1)

    def directed_sq(src, dst):
        features = np.zeros(box, dtype=bool)
        features[tuple((dst - lo).T)] = True
        at_src = tuple((src - lo).T)
        if features[at_src].all():
            return 0.0
        d2 = _squared_edt(features, sp)[at_src]
        top = d2.max()
        # rounding in the transform is far below this; exact ties all stay in
        far = src[d2 >= top * (1.0 - 1e-9)]
        return _farthest_sq(far, dst, features, lo, sp, top)

    return float(np.sqrt(max(directed_sq(pb, gb), directed_sq(gb, pb))))


def _farthest_sq(far: np.ndarray, dst: np.ndarray, features: np.ndarray, lo: np.ndarray,
                 sp: np.ndarray, top: float) -> float:
    """max over the `far` points of the squared distance to the nearest
    `dst` point, each pair computed as brute force computes it.

    `features` marks the `dst` points on a grid whose origin is `lo`, and
    `top` is the transform's value at the far points, so each far point's
    nearest `dst` point lies within `reach` of it. Its candidates are the
    marked voxels under the stencil of offsets o with |o * sp| <= reach;
    when that stencil would hold at least as many offsets as there are
    `dst` points, every `dst` point is a candidate. Pairs are taken in
    blocks of at most 2**20.
    """
    reach2 = top * (1.0 + 1e-6)
    half = np.floor(np.sqrt(reach2) / sp).astype(np.int64)
    offsets = None
    if math.prod(int(2 * h + 1) for h in half) < len(dst):
        grid = np.indices(2 * half + 1).reshape(3, -1).T - half
        offsets = grid[((grid * sp) ** 2).sum(axis=1) <= reach2]
    rows = max(1, (1 << 20) // len(dst if offsets is None else offsets))
    worst = 0.0
    for i in range(0, len(far), rows):
        p = far[i : i + rows, None, :]
        cand = dst[None, :, :] if offsets is None else p + offsets
        d2 = ((p * sp - cand * sp) ** 2).sum(axis=2)
        if offsets is not None:
            hit = np.all((cand >= lo) & (cand < lo + features.shape), axis=2)
            hit[hit] = features[tuple((cand[hit] - lo).T)]
            d2[~hit] = np.inf
        worst = max(worst, float(d2.min(axis=1).max()))
    return worst


def _squared_edt(features: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every voxel to the nearest feature.

    Three separable 1-D passes (Felzenszwalb & Huttenlocher 2012). The
    start value of non-features exceeds every squared distance inside
    the grid, so it never wins a minimum and needs no infinity.
    """
    far = float(((np.array(features.shape) * spacing) ** 2).sum()) + 1.0
    dist = np.where(features, 0.0, far)
    for axis in range(3):
        lines = np.moveaxis(dist, axis, 0)
        n = lines.shape[0]
        flat = np.ascontiguousarray(lines).reshape(n, -1)
        width = max(1, _EDT_BLOCK // n)
        for j in range(0, flat.shape[1], width):
            flat[:, j : j + width] = _envelope_pass(np.ascontiguousarray(flat[:, j : j + width]),
                                                    float(spacing[axis]) ** 2)
        dist = np.moveaxis(flat.reshape(lines.shape), 0, axis)
    return dist


def _envelope_pass(f: np.ndarray, s2: float) -> np.ndarray:
    """out[q, j] = min over p of s2 * (q - p)**2 + f[p, j] for every column j.

    The lower envelope of the parabolas rooted at each p is built and
    read for all columns in lockstep. State arrays are flat, row-major
    (n, L), and `at` holds k * L + column for each column's current
    envelope parabola k, so each step gathers with one index.
    """
    n, L = f.shape
    cols = np.arange(L)
    h = (f + s2 * (np.arange(n, dtype=np.float64) ** 2)[:, None]).ravel()
    roots = np.zeros(n * L, dtype=np.int32)  # apex of the k-th envelope parabola
    z = np.empty((n + 1) * L)  # parabola k rules on [z[k], z[k + 1])
    z[:L] = -np.inf
    z[L : 2 * L] = np.inf
    at = cols.copy()

    def cross(q, sel):
        r = roots[at[sel]]
        return (h[q * L + sel] - h[r * L + sel]) / (2.0 * s2 * (q - r))

    for q in range(1, n):
        s = cross(q, cols)
        sel = np.flatnonzero(s <= z[at])
        while sel.size:
            at[sel] -= L
            s[sel] = cross(q, sel)
            sel = sel[s[sel] <= z[at[sel]]]
        at += L
        roots[at] = q
        z[at] = s
        z[at + L] = np.inf
    out = np.empty_like(f)
    flat_f = f.ravel()
    at = cols.copy()
    for q in range(n):
        sel = np.flatnonzero(z[at + L] < q)
        while sel.size:
            at[sel] += L
            sel = sel[z[at[sel] + L] < q]
        r = roots[at]
        out[q] = s2 * (q - r) ** 2 + flat_f[r * L + cols]
    return out
