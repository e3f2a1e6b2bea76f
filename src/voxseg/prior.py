"""Classical tumor-prior pipeline and five-channel input assembly.

An Otsu threshold over the nonzero FLAIR voxels isolates hyperintense
candidates, the largest connected component is kept, seed voxels are
sampled from it, and a region grows outward from the seeds by intensity
similarity. The grown mask becomes the fifth network input channel next
to the four z-scored modalities.

The growth acceptance test compares each voxel against the mean
intensity of the seed set, fixed before growth, so the result does not
depend on traversal order. The intensity tolerance defaults to the
median tumor-region standard deviation of a labeled training set, with
a documented fallback constant when no labels are available.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .volume_io import MultiModalVolume

__all__ = [
    "DEFAULT_DELTA",
    "PriorConfig",
    "TumorStdStats",
    "otsu_threshold",
    "largest_component",
    "select_seeds",
    "region_grow",
    "tumor_std_stats",
    "derive_delta",
    "generate_prior",
    "build_input",
]

log = logging.getLogger(__name__)

DEFAULT_DELTA = 35.0

_OFFSETS_6 = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
_OFFSETS_26 = tuple(
    (d, h, w)
    for d in (-1, 0, 1)
    for h in (-1, 0, 1)
    for w in (-1, 0, 1)
    if (d, h, w) != (0, 0, 0)
)


def _offsets(connectivity: int):
    if connectivity == 6:
        return _OFFSETS_6
    if connectivity == 26:
        return _OFFSETS_26
    raise ValueError(f"connectivity {connectivity} not in (6, 26)")


def _flat_steps(shape, offsets) -> list[int]:
    """Flat-index distance of each neighbour offset in a C-ordered grid."""
    _, H, W = shape
    return [(d * H + h) * W + w for d, h, w in offsets]


@dataclass(frozen=True)
class PriorConfig:
    histogram_bins: int = 256
    component_connectivity: int = 26
    growth_connectivity: int = 6
    n_seeds: int = 10
    delta: float = DEFAULT_DELTA
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if self.histogram_bins < 2:
            raise ValueError("need at least 2 histogram bins")
        _offsets(self.component_connectivity)
        _offsets(self.growth_connectivity)


@dataclass(frozen=True)
class TumorStdStats:
    """Per-case tumor-intensity standard deviations with summary values.

    The median of an even-length list is the lower of the two central
    values so it always corresponds to an actual case.
    """

    per_case: tuple[float, ...]
    min: float
    max: float
    median: float

    @classmethod
    def from_values(cls, values) -> "TumorStdStats":
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError("no usable cases")
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite std among {values}")
        ordered = sorted(values)
        return cls(values, ordered[0], ordered[-1], ordered[(len(ordered) - 1) // 2])


def otsu_threshold(flair: np.ndarray, bins: int = 256) -> float:
    """Histogram bin edge maximizing the between-class variance.

    Only nonzero voxels enter the histogram, so background air is
    excluded. Ties resolve to the lowest threshold. The histogram is taken
    over those values in float64, one chunk of the flat volume at a time,
    so no float64 copy of the whole brain is made; the counts equal those
    of one histogram over all of them.
    """
    flat = np.ravel(flair)
    chunks = [flat[i : i + (1 << 18)] for i in range(0, flat.size, 1 << 18)]
    ends = np.array([(v.min(), v.max()) for v in (c[c != 0] for c in chunks) if v.size], np.float64)
    if len(ends) == 0 or ends[:, 0].min() == ends[:, 1].max():
        raise ValueError("Otsu needs at least two distinct nonzero intensities")
    lo, hi = float(ends[:, 0].min()), float(ends[:, 1].max())
    counts = 0
    for c in chunks:
        part, edges = np.histogram(c[c != 0].astype(np.float64), bins, range=(lo, hi))
        counts = counts + part
    counts = counts.astype(np.float64)
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = counts.sum()
    w0 = np.cumsum(counts)[:-1]  # class sizes left of each interior edge
    w1 = total - w0
    csum = np.cumsum(counts * centers)[:-1]
    # an edge whose preceding bin is empty splits the data identically to a
    # lower edge, so dropping it realizes the lowest-threshold tie rule
    valid = (w0 > 0) & (w1 > 0) & (counts[:-1] > 0)
    score = np.full(bins - 1, -np.inf)
    mu0 = np.where(valid, csum / np.where(w0 > 0, w0, 1.0), 0.0)
    mu1 = np.where(valid, (csum[-1] + counts[-1] * centers[-1] - csum) / np.where(w1 > 0, w1, 1.0), 0.0)
    score[valid] = (w0[valid] / total) * (w1[valid] / total) * (mu0[valid] - mu1[valid]) ** 2
    best = int(np.argmax(score))  # argmax takes the first (lowest) maximizer
    return float(edges[best + 1])


def largest_component(mask: np.ndarray, connectivity: int = 26) -> np.ndarray:
    """Keep only the connected component with the most voxels.

    Ties go to the component whose first voxel comes earliest in scan
    order. An empty mask passes through unchanged.

    Components are labeled over maximal runs of candidate voxels along W
    (Wu, Otoo & Suzuki 2009), not over single voxels. Two runs in
    neighbouring rows touch when their intervals overlap: directly for
    6-connectivity, and with one run widened by a voxel on each side for
    26-connectivity. Runs are sorted and disjoint, so the runs a shifted
    interval touches form one contiguous range, found by two binary
    searches. Hooking along those edges alternates with pointer jumping
    (Shiloach & Vishkin 1982) until every edge joins one root. Roots only
    ever point to lower run indices, so each component's root is its
    earliest run, which holds its earliest voxel in scan order.
    """
    mask = np.asarray(mask, dtype=bool)
    # the neighbouring rows that come later in scan order
    rows = sorted({(d, h) for d, h, _ in _offsets(connectivity) if (d, h) > (0, 0)})
    widen = int(connectivity == 26)
    # on the padded grid every run is bounded by False voxels within its
    # row, so a run's flat interval and its shifts never leave their rows
    padded = np.pad(mask, 1)
    flat = padded.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    if edges.size == 0:
        return np.zeros(mask.shape, dtype=bool)
    starts, stops = edges[0::2], edges[1::2]  # stop is one past the last voxel
    _, Hp, Wp = padded.shape
    a_parts, b_parts = [], []
    for dd, dh in rows:
        step = (dd * Hp + dh) * Wp
        # runs j with starts[j] < hi and stops[j] > lo overlap [lo, hi)
        lo = np.searchsorted(stops, starts + (step - widen), side="right")
        count = np.searchsorted(starts, stops + (step + widen), side="left") - lo
        a = np.repeat(np.arange(starts.size), count)
        a_parts.append(a)
        b_parts.append(np.arange(a.size) - np.repeat(np.cumsum(count) - count - lo, count))
    a = np.concatenate(a_parts).astype(np.int32)
    b = np.concatenate(b_parts).astype(np.int32)
    parent = np.arange(starts.size, dtype=np.int32)
    while True:
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        a, b = a[split], b[split]
        ra, rb = ra[split], rb[split]
        hi = np.maximum(ra, rb)
        np.minimum.at(parent, hi, np.minimum(ra, rb, out=ra))
    lengths = stops - starts
    # float64 sums of voxel counts are exact; argmax takes the lowest root
    # among equal sizes: the earliest component
    best = np.argmax(np.bincount(parent, weights=lengths, minlength=starts.size))
    keep = parent == best
    lengths = lengths[keep]
    # a run lies within one row, so it stays contiguous off the padding
    d, h, w = np.unravel_index(starts[keep], padded.shape)
    begin = np.ravel_multi_index((d - 1, h - 1, w - 1), mask.shape)
    out = np.zeros(mask.shape, dtype=bool)
    out.ravel()[np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths - begin, lengths)] = True
    return out


def select_seeds(component: np.ndarray, n: int, rng_seed: int) -> list[tuple[int, int, int]]:
    """Uniform sample of component voxels without replacement.

    Returns every voxel when the component holds fewer than n.
    """
    component = np.asarray(component, dtype=bool)
    voxels = np.flatnonzero(component)
    if voxels.size == 0:
        raise ValueError("cannot select seeds from an empty component")
    rng = np.random.default_rng(rng_seed)
    chosen = voxels[rng.choice(voxels.size, size=min(n, voxels.size), replace=False)]
    return list(zip(*(c.tolist() for c in np.unravel_index(chosen, component.shape))))


def region_grow(
    flair: np.ndarray,
    seeds,
    delta: float,
    connectivity: int = 6,
) -> np.ndarray:
    """Frontier growth from all seeds against a fixed reference mean.

    A voxel joins when |intensity - mean(seed intensities)| <= delta and
    it touches the region; seeds are members regardless of the predicate.
    Each round adds every accepted neighbour of the last round's new
    voxels, so the region does not depend on the order of the seeds.
    The predicate is evaluated in float64, whatever the input dtype, and
    only on voxels a round reaches for the first time: a voxel it
    rejects is marked seen and never tested again, so no whole-volume
    float64 copy is made.
    """
    flair = np.asarray(flair)
    seeds = [tuple(int(v) for v in s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    D, H, W = flair.shape
    for s in seeds:
        if not (0 <= s[0] < D and 0 <= s[1] < H and 0 <= s[2] < W):
            raise ValueError(f"seed {s} outside grid {flair.shape}")
    mu = float(np.mean([float(flair[s]) for s in seeds]))
    # a border marked seen stops growth at the volume's faces without
    # bounds tests
    seen = np.ones((D + 2, H + 2, W + 2), dtype=bool)
    seen[1:-1, 1:-1, 1:-1] = False
    steps = _flat_steps(seen.shape, _offsets(connectivity))
    region = np.zeros(flair.shape, dtype=bool)
    coords = tuple(np.array(seeds).T)
    region[coords] = True
    frontier = np.unique(np.ravel_multi_index(tuple(c + 1 for c in coords), seen.shape))
    flat = seen.ravel()
    flat[frontier] = True
    while frontier.size:
        reached = np.concatenate([frontier + s for s in steps])
        reached = np.sort(reached[~flat[reached]])
        # sorted, so a repeat sits next to its first copy: this dedupe is
        # many times faster than np.unique's hashing on scattered indices
        reached = reached[np.diff(reached, prepend=-1) != 0]
        flat[reached] = True
        voxels = tuple(c - 1 for c in np.unravel_index(reached, seen.shape))
        dev = np.subtract(flair[voxels], mu, dtype=np.float64)
        accept = np.abs(dev, out=dev) <= delta
        region[tuple(c[accept] for c in voxels)] = True
        frontier = reached[accept]
    return region


def _tumor_std(flair, labels) -> float | None:
    """FLAIR intensity std inside labeled tumor; None below two voxels or if not finite."""
    tumor = np.asarray(flair)[np.asarray(labels) != 0].astype(np.float64)
    with np.errstate(invalid="ignore"):  # non-finite FLAIR gives a NaN std
        std = float(np.std(tumor)) if tumor.size >= 2 else np.nan
    return std if np.isfinite(std) else None


def tumor_std_stats(cases) -> TumorStdStats:
    """Population std of FLAIR intensities inside labeled tumor, per case.

    Cases with fewer than two tumor voxels or a non-finite std are
    skipped with a warning; raises when nothing usable remains.
    """
    stds = [_tumor_std(flair, labels) for flair, labels in cases]
    for i, std in enumerate(stds):
        if std is None:
            warnings.warn(f"case {i}: fewer than 2 tumor voxels or a non-finite std, skipped", stacklevel=2)
    return TumorStdStats.from_values(std for std in stds if std is not None)


def derive_delta(volumes) -> float:
    """Median tumor-region intensity std over labeled volumes.

    Falls back to the documented constant when no volume carries a usable
    tumor region. Unusable volumes are skipped silently.
    """
    stds = [_tumor_std(v.flair, v.labels) for v in volumes if v.labels is not None]
    usable = [std for std in stds if std is not None]
    median = TumorStdStats.from_values(usable).median if usable else 0.0
    return median if median > 0 else DEFAULT_DELTA


def generate_prior(flair: np.ndarray, config: PriorConfig) -> np.ndarray:
    """Full pipeline: threshold, largest component, seeds, region growth.

    Degrades gracefully: when thresholding or component extraction finds
    nothing usable the result is an all-zero prior plus a log diagnostic,
    never an exception. The input keeps its dtype; every comparison is
    made in float64.
    """
    flair = np.asarray(flair)
    try:
        threshold = otsu_threshold(flair, config.histogram_bins)
    except ValueError as exc:
        log.warning("prior degraded to empty mask: %s", exc)
        return np.zeros(flair.shape, dtype=bool)
    # a float64 scalar keeps the comparison in float64 for a float32 volume
    candidates = flair > np.float64(threshold)
    component = largest_component(candidates, config.component_connectivity)
    if not component.any():
        log.warning("prior degraded to empty mask: no voxels above threshold %.4g", threshold)
        return np.zeros(flair.shape, dtype=bool)
    seeds = select_seeds(component, config.n_seeds, config.rng_seed)
    return region_grow(flair, seeds, config.delta, config.growth_connectivity)


def build_input(volume: MultiModalVolume, prior: np.ndarray | None) -> Tensor:
    """Stack z-scored modalities and the binary prior into (1, C, D, H, W).

    Each modality is normalized over its nonzero voxels only and the
    background stays zero, so air never skews the statistics. Passing
    `prior=None` builds the 4-channel variant for the no-prior ablation.
    """
    channels = [    # FLAIR, T1ce, T1, T2 order is fixed by MultiModalVolume
        _zscore_nonzero(volume.modalities[i]) for i in range(4)
    ]
    if prior is not None:
        prior = np.asarray(prior)
        if prior.shape != volume.dims:
            raise ValueError(f"prior dims {prior.shape} != volume dims {volume.dims}")
        channels.append((prior != 0).astype(np.float32))
    return Tensor(np.stack(channels)[None])


def _zscore_nonzero(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.float32)
    support = grid != 0
    values = grid[support]
    out = np.zeros_like(grid)
    std = values.std() if values.size >= 2 else 0
    if std != 0:
        out[support] = (values - values.mean()) / std
    return out
