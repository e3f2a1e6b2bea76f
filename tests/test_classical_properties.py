"""Properties of the classical layer on generated grids: each vectorized
function equals its slow oracle in `oracles.py` on every drawn case.

Examples are derandomized and bounded, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voxseg.metrics import dice_score
from voxseg.prior import largest_component, region_grow, select_seeds
from voxseg.volume_io import LABEL_CODES, check_label_codes

from oracles import dice_pair, largest_component_bfs, region_grow_bfs, select_seeds_argwhere

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

extents = st.tuples(*[st.integers(1, 12)] * 3)


@st.composite
def masks(draw, shape=None):
    """A random grid at a drawn density; sparse grids join mostly through
    diagonal contacts, and dense ones fill rows from face to face."""
    shape = shape or draw(extents)
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < density


@st.composite
def diagonal_chains(draw):
    """Voxels linked only through edge or corner contacts, plus a straight
    run beside them, so 6- and 26-connectivity keep different components."""
    shape = draw(extents)
    mask = np.zeros(shape, dtype=bool)
    start = [draw(st.integers(0, n - 1)) for n in shape]
    step = draw(st.sampled_from([(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, -1, 1), (0, 1, -1)]))
    p = np.array(start)
    while all(0 <= v < n for v, n in zip(p, shape)):
        mask[tuple(p)] = True
        p += step
    d, h = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
    mask[d, h, draw(st.integers(0, shape[2] - 1)):] = True
    return mask


@PROPERTY
@given(st.one_of(masks(), diagonal_chains()), st.sampled_from([6, 26]))
def test_largest_component_equals_bfs(mask, connectivity):
    np.testing.assert_array_equal(largest_component(mask, connectivity),
                                  largest_component_bfs(mask, connectivity))


@st.composite
def growth_cases(draw):
    shape = draw(extents)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float64, np.float32, np.uint8]))
    # few distinct levels put many voxels exactly on the |x - mu| = delta edge
    flair = rng.integers(0, draw(st.sampled_from([2, 4, 16])), shape).astype(dtype)
    seeds = draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in shape]), min_size=1, max_size=4))
    delta = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]))
    return flair, seeds, delta


@PROPERTY
@given(growth_cases(), st.sampled_from([6, 26]))
def test_region_grow_equals_bfs(case, connectivity):
    flair, seeds, delta = case
    np.testing.assert_array_equal(region_grow(flair, seeds, delta, connectivity),
                                  region_grow_bfs(flair, seeds, delta, connectivity))


label_values = st.sampled_from([0.0, 1.0, 2.0, 4.0, -0.0, 3.0, -1.0, 1.5, 4.5, 255.0, -7.25, np.nan, np.inf])


@PROPERTY
@given(st.lists(label_values, min_size=1, max_size=40),
       st.sampled_from([np.float64, np.float32, np.int16, np.uint8]))
def test_check_label_codes_reports_setdiff1d(values, dtype):
    values = np.array(values)
    if np.dtype(dtype).kind in "iu":
        values = values[np.isfinite(values)]
    with np.errstate(invalid="ignore"):
        labels = values.astype(dtype)
    unknown = np.setdiff1d(labels, sorted(LABEL_CODES)).tolist()
    try:
        check_label_codes(labels)
    except ValueError as exc:
        shown = ", ".join(map(repr, unknown[:5])) + (", ..." if len(unknown) > 5 else "")
        assert str(exc) == f"{len(unknown)} unknown label codes: {shown}"
    else:
        assert unknown == []


@PROPERTY
@given(masks(), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_select_seeds_equals_argwhere_draw(component, n, seed):
    if component.any():
        assert select_seeds(component, n, seed) == select_seeds_argwhere(component, n, seed)


@PROPERTY
@given(extents.flatmap(lambda shape: st.tuples(masks(shape), masks(shape))))
def test_dice_score_equals_dice_pair(pair):
    got = dice_score(*pair)
    assert type(got) is float and got == dice_pair(*pair)
