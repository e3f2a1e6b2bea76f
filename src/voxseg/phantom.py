"""Synthetic multi-modal phantoms with nested tumor regions.

Each case is a centered ellipsoidal "brain" containing three nested
tumor ellipsoids labeled edema (2), necrosis (1), and enhancing core
(4), so the derived regions always satisfy ET within TC within WT. The
FLAIR intensities of all tumor tissues sit far above brain tissue,
which makes the classical prior pipeline succeed by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import derive_rng
from .volume_io import MultiModalVolume

__all__ = ["PhantomSpec", "DEFAULT_INTENSITIES", "gen_phantom", "split_dataset"]

# per tissue class: (FLAIR, T1ce, T1, T2) mean intensity
DEFAULT_INTENSITIES: dict[str, tuple[float, float, float, float]] = {
    "background": (0.0, 0.0, 0.0, 0.0),
    "brain": (80.0, 90.0, 100.0, 70.0),
    "edema": (250.0, 110.0, 80.0, 180.0),
    "necrosis": (255.0, 60.0, 50.0, 200.0),
    "enhancing": (265.0, 240.0, 120.0, 160.0),
}


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (32, 32, 16)
    n_cases: int = 10
    rng_seed: int = 0
    tumor_radius_range: tuple[float, float] = (0.18, 0.28)  # fraction of min extent
    noise_sigma: float = 4.0

    def __post_init__(self):
        if self.n_cases < 1:
            raise ValueError(f"n_cases must be >= 1, got {self.n_cases}")
        d, h, w = self.dims
        if d < 16 or h < 16 or w < 8:
            raise ValueError(f"dims {self.dims} below the 16x16x8 minimum")
        lo, hi = self.tumor_radius_range
        if not 0 < lo <= hi < 0.5:
            raise ValueError(f"bad tumor radius range {self.tumor_radius_range}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def _ellipsoid(dims, center, radii) -> np.ndarray:
    grids = np.indices(dims).astype(np.float64)
    dist = sum(((grids[i] - center[i]) / radii[i]) ** 2 for i in range(3))
    return dist <= 1.0


def gen_phantom(spec: PhantomSpec, case_index: int) -> MultiModalVolume:
    """Deterministic phantom for (spec.rng_seed, case_index).

    The tumor center is resampled until the outer tumor ellipsoid fits
    inside the brain ellipsoid (up to 100 tries).
    """
    rng = derive_rng(spec.rng_seed, case_index)
    dims = np.array(spec.dims)
    brain_center = dims / 2.0 - 0.5
    brain_radii = dims * 0.45
    brain = _ellipsoid(spec.dims, brain_center, brain_radii)

    r_wt = rng.uniform(*spec.tumor_radius_range) * float(dims.min())
    r_tc = 0.70 * r_wt
    r_et = 0.42 * r_wt
    for _ in range(100):
        center = np.array([rng.uniform(r_wt, n - 1 - r_wt) for n in dims])
        # outer ellipsoid fits when the scaled center offset leaves room
        offset = np.abs(center - brain_center) + r_wt
        if np.all(offset / brain_radii <= 1.0):
            break
    else:
        raise RuntimeError(f"no tumor placement found for case {case_index}")

    wt = _ellipsoid(spec.dims, center, (r_wt,) * 3) & brain
    tc = _ellipsoid(spec.dims, center, (r_tc,) * 3) & brain
    et = _ellipsoid(spec.dims, center, (r_et,) * 3) & brain

    labels = np.zeros(spec.dims, dtype=np.uint8)
    labels[wt] = 2  # edema shell
    labels[tc] = 1  # necrosis shell
    labels[et] = 4  # enhancing core

    tissue_masks = [
        ("brain", brain & (labels == 0)),
        ("edema", labels == 2),
        ("necrosis", labels == 1),
        ("enhancing", labels == 4),
    ]
    modalities = np.zeros((4,) + spec.dims, dtype=np.float64)
    for name, mask in tissue_masks:
        means = DEFAULT_INTENSITIES[name]
        for m in range(4):
            modalities[m][mask] = means[m]
    if spec.noise_sigma > 0:
        noise = rng.normal(0.0, spec.noise_sigma, size=modalities.shape)
        inside = np.broadcast_to(brain, modalities.shape)
        modalities = np.where(inside, modalities + noise, modalities)
    return MultiModalVolume(modalities.astype(np.float32), labels)


def split_dataset(case_ids, ratios: tuple[int, int, int] = (8, 1, 1), seed: int = 0):
    """Shuffle deterministically, then slice by largest-remainder quotas.

    Returns (train, val, test) lists that are disjoint and exhaustive.
    """
    case_ids = list(case_ids)
    n = len(case_ids)
    if n < 10:
        raise ValueError(f"need at least 10 cases for a non-empty test split, got {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shuffled = [case_ids[i] for i in order]

    total = sum(ratios)
    quotas = [n * r / total for r in ratios]
    sizes = [int(q) for q in quotas]
    remainders = [q - s for q, s in zip(quotas, sizes)]
    for _ in range(n - sum(sizes)):
        # ties resolve to the earliest split (train, then val, then test)
        idx = max(range(3), key=lambda i: (remainders[i], -i))
        sizes[idx] += 1
        remainders[idx] = -1.0
    train = shuffled[: sizes[0]]
    val = shuffled[sizes[0] : sizes[0] + sizes[1]]
    test = shuffled[sizes[0] + sizes[1] :]
    return train, val, test
