"""Metric tests: region composition, Dice, boundary, Hausdorff oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from voxseg import metrics
from voxseg.metrics import (
    REGIONS,
    MetricReport,
    RegionMasks,
    UndefinedMetricError,
    compose_regions,
    dice_score,
    extract_boundary,
    hausdorff,
)

from oracles import dice_pair, extract_boundary_padded, hausdorff_brute, hausdorff_pointloop, random_blob_mask


class TestComposeRegions:
    def test_background_only(self):
        masks = compose_regions(np.zeros((3, 3, 3), dtype=np.uint8))
        assert not masks.et.any() and not masks.wt.any() and not masks.tc.any()

    def test_one_voxel_each(self):
        labels = np.zeros((1, 1, 3), dtype=np.uint8)
        labels[0, 0] = [1, 2, 4]
        masks = compose_regions(labels)
        assert masks.et.sum() == 1
        assert masks.tc.sum() == 2
        assert masks.wt.sum() == 3

    def test_nesting_on_random_grids(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            labels = rng.choice([0, 1, 2, 4], size=(6, 5, 4)).astype(np.uint8)
            masks = compose_regions(labels)
            assert np.all(masks.et <= masks.tc)
            assert np.all(masks.tc <= masks.wt)

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            compose_regions(np.array([[[3]]], dtype=np.uint8))


class TestRegionMasksStack:
    def test_stack_order_and_round_trip(self):
        labels = np.zeros((4, 5, 3), dtype=np.uint8)
        labels[0, 0, 0] = 4
        labels[1, 1, 1] = 1
        labels[2, 2, 2] = 2
        masks = compose_regions(labels)
        stack = masks.stack()
        assert REGIONS == ("et", "wt", "tc")
        assert stack.shape == (3, 4, 5, 3) and stack.dtype == bool
        for i, region in enumerate(REGIONS):
            np.testing.assert_array_equal(stack[i], getattr(masks, region))
        back = RegionMasks(*stack)
        for region in REGIONS:
            np.testing.assert_array_equal(getattr(back, region), getattr(masks, region))

    def test_wrong_channel_count_raises(self):
        with pytest.raises(TypeError):
            RegionMasks(*np.zeros((4, 2, 2, 2), dtype=bool))


class TestDiceScore:
    def test_identical_masks(self):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[1:3] = True
        assert dice_score(m, m) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((2, 2, 2), dtype=bool)
        b = np.zeros((2, 2, 2), dtype=bool)
        a[0, 0, 0] = True
        b[1, 1, 1] = True
        assert dice_score(a, b) == 0.0

    def test_two_one_overlap_one(self):
        a = np.zeros(8, dtype=bool)
        b = np.zeros(8, dtype=bool)
        a[:2] = True
        b[0] = True
        assert math.isclose(dice_score(a, b), 2.0 / 3.0)

    def test_both_empty_is_one(self):
        z = np.zeros((2, 2, 2), dtype=bool)
        assert dice_score(z, z) == 1.0

    def test_empty_vs_nonempty_is_zero(self):
        a = np.zeros((2, 2, 2), dtype=bool)
        b = a.copy()
        b[0, 0, 0] = True
        assert dice_score(a, b) == 0.0
        assert dice_score(b, a) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            dice_score(np.ones((8, 8, 8), dtype=bool), np.ones((16, 8, 4), dtype=bool))

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.random((8, 8, 8)) > 0.6
            b = rng.random((8, 8, 8)) > 0.6
            assert dice_score(a, b) == dice_pair(a, b)
            assert dice_score(a, b) == dice_score(b, a)


class TestBoundary:
    def test_single_voxel(self):
        m = np.zeros((3, 3, 3), dtype=bool)
        m[1, 1, 1] = True
        np.testing.assert_array_equal(extract_boundary(m), [[1, 1, 1]])

    def test_solid_cube_surface(self):
        m = np.zeros((5, 5, 5), dtype=bool)
        m[1:4, 1:4, 1:4] = True
        boundary = extract_boundary(m)
        assert len(boundary) == 26  # all cube voxels except the center
        assert [2, 2, 2] not in boundary.tolist()

    def test_boundary_subset_of_mask(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.random((6, 6, 6)) > 0.5
            for d, h, w in extract_boundary(m):
                assert m[d, h, w]

    def test_volume_border_counts(self):
        m = np.ones((2, 2, 2), dtype=bool)
        assert len(extract_boundary(m)) == 8

    def test_empty_mask(self):
        assert extract_boundary(np.zeros((3, 3, 3), dtype=bool)).shape == (0, 3)

    @pytest.mark.parametrize("face", [(0, 0), (0, -1), (1, 0), (1, -1), (2, 0), (2, -1)])
    def test_mask_touching_a_face_matches_padded_oracle(self, face):
        axis, end = face
        rng = np.random.default_rng(21 + axis)
        m = np.zeros((9, 10, 11), dtype=bool)
        m[2:7, 3:7, 2:9] = rng.random((5, 4, 7)) > 0.3
        index = [slice(None)] * 3
        index[axis] = end
        m[tuple(index)] |= rng.random(m[tuple(index)].shape) > 0.5
        got = extract_boundary(m)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, extract_boundary_padded(m))

    def test_offset_single_voxel_matches_padded_oracle(self):
        m = np.zeros((6, 7, 8), dtype=bool)
        m[4, 2, 5] = True
        np.testing.assert_array_equal(extract_boundary(m), [[4, 2, 5]])
        np.testing.assert_array_equal(extract_boundary(m), extract_boundary_padded(m))

    @pytest.mark.parametrize("shape", [(6, 7), (2, 4, 5, 3)])
    def test_non_3d_mask_rejected(self, shape):
        with pytest.raises(ValueError, match=r"3-D mask, got shape \(" + ", ".join(map(str, shape))):
            extract_boundary(np.ones(shape, dtype=bool))

    def test_random_masks_match_padded_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            m = random_blob_mask(rng, (12, 9, 10), p_empty=0.1)
            np.testing.assert_array_equal(extract_boundary(m), extract_boundary_padded(m))
        empty = np.zeros((4, 5, 6), dtype=bool)
        assert extract_boundary(empty).shape == extract_boundary_padded(empty).shape == (0, 3)


class TestHausdorff:
    def test_identical_masks_zero(self):
        rng = np.random.default_rng(3)
        m = random_blob_mask(rng, (10, 10, 10))
        assert hausdorff(m, m) == 0.0

    def test_three_four_five(self):
        a = np.zeros((5, 6, 2), dtype=bool)
        b = np.zeros((5, 6, 2), dtype=bool)
        a[0, 0, 0] = True
        b[3, 4, 0] = True
        assert hausdorff(a, b) == 5.0

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = random_blob_mask(rng, (9, 9, 9))
        b = random_blob_mask(rng, (9, 9, 9))
        assert hausdorff(a, b) == hausdorff(b, a)

    def test_empty_mask_is_undefined(self):
        a = np.zeros((3, 3, 3), dtype=bool)
        b = a.copy()
        b[0, 0, 0] = True
        with pytest.raises(UndefinedMetricError):
            hausdorff(a, b)
        with pytest.raises(UndefinedMetricError):
            hausdorff(b, a)

    def test_spacing_scales_distances(self):
        a = np.zeros((1, 1, 3), dtype=bool)
        b = np.zeros((1, 1, 3), dtype=bool)
        a[0, 0, 0] = True
        b[0, 0, 2] = True
        assert hausdorff(a, b, spacing=(1.0, 1.0, 2.5)) == 5.0

    def test_matches_pointloop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = random_blob_mask(rng, (12, 12, 12))
            b = random_blob_mask(rng, (12, 12, 12))
            want = hausdorff_pointloop(extract_boundary(a), extract_boundary(b))
            assert math.isclose(hausdorff(a, b), want, rel_tol=1e-12)

    def test_single_voxels_at_opposite_corners(self):
        a = np.zeros((7, 5, 6), dtype=bool)
        b = np.zeros((7, 5, 6), dtype=bool)
        a[0, 0, 0] = True
        b[-1, -1, -1] = True
        for sp in [(1.0, 1.0, 1.0), (1.0, 0.7, 2.5)]:
            assert hausdorff(a, b, sp) == hausdorff_brute(a, b, sp)
        assert hausdorff(a, b) == math.sqrt(36 + 16 + 25)

    def test_identical_masks_zero_with_spacing(self):
        rng = np.random.default_rng(8)
        m = random_blob_mask(rng, (11, 9, 10))
        assert hausdorff(m, m, (1.0, 0.7, 2.5)) == 0.0

    def test_anisotropic_spacing_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            shape = tuple(rng.integers(6, 15, size=3))
            a = random_blob_mask(rng, shape)
            b = random_blob_mask(rng, shape)
            assert hausdorff(a, b, (1.0, 0.7, 2.5)) == hausdorff_brute(a, b, (1.0, 0.7, 2.5))

    def test_masks_on_the_border(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = rng.random((8, 6, 7)) < 0.2
            b = rng.random((8, 6, 7)) < 0.2
            a[0], b[:, -1], a[:, :, -1], b[-1] = True, True, True, True
            assert hausdorff(a, b) == hausdorff_brute(a, b)
            assert hausdorff(a, b, (2.0, 1.0, 0.5)) == hausdorff_brute(a, b, (2.0, 1.0, 0.5))

    def test_transform_in_blocks_of_lines(self, monkeypatch):
        monkeypatch.setattr(metrics, "_EDT_BLOCK", 40)  # a few lines per block
        rng = np.random.default_rng(11)
        for _ in range(5):
            shape = tuple(rng.integers(6, 15, size=3))
            a = random_blob_mask(rng, shape)
            b = random_blob_mask(rng, shape)
            assert hausdorff(a, b, (1.0, 0.7, 2.5)) == hausdorff_brute(a, b, (1.0, 0.7, 2.5))

    def test_shape_mismatch_rejected(self):
        # equal voxel counts, and boundaries that would give a finite distance
        with pytest.raises(ValueError, match="shape mismatch"):
            hausdorff(np.ones((8, 8, 8), dtype=bool), np.ones((16, 8, 4), dtype=bool))

    @pytest.mark.parametrize("spacing", [(1.0, 0.0, 1.0), (1.0, -1.0, 1.0), (1.0, float("nan"), 1.0),
                                         (float("inf"), 1.0, 1.0), (1.0, 1.0)])
    def test_invalid_spacing_rejected(self, spacing):
        m = np.zeros((3, 3, 3), dtype=bool)
        m[1, 1, 1] = True
        with pytest.raises(ValueError, match="spacing"):
            hausdorff(m, m, spacing)

    def test_agrees_exactly_with_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            shape = tuple(rng.integers(6, 17, size=3))
            a = random_blob_mask(rng, shape)
            b = random_blob_mask(rng, shape)
            assert hausdorff(a, b) == hausdorff_brute(a, b)

    def test_agrees_exactly_with_brute_force_with_spacing(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_blob_mask(rng, (10, 10, 10))
            b = random_blob_mask(rng, (10, 10, 10))
            sp = tuple(rng.uniform(0.5, 3.0, size=3))
            assert hausdorff(a, b, sp) == hausdorff_brute(a, b, sp)

    @pytest.mark.parametrize("shape", [(6, 7), (2, 4, 5, 3)])
    def test_non_3d_masks_rejected(self, shape):
        a = np.zeros(shape, dtype=bool)
        b = np.zeros(shape, dtype=bool)
        a.flat[0] = b.flat[-1] = True
        with pytest.raises(ValueError, match="3-D mask, got shape"):
            hausdorff(a, b)


def _ball_and_block(shape=(22, 22, 22)):
    """A ball with a block attached: flat faces and curved ones, so a
    translate has many boundary points tied at the farthest distance."""
    grid = np.indices(shape) - np.array(shape)[:, None, None, None] // 2
    mask = (grid ** 2).sum(axis=0) <= 36
    mask[6:11, 9:17, 8:14] = True
    return mask


class TestHausdorffLocalRecount:
    """The farthest points' distances are recounted against nearby target
    points only; every value must still equal brute force bit for bit."""

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.0, 0.7, 2.5)])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_translates_match_brute_force(self, k, axis, spacing):
        a = _ball_and_block()
        b = np.roll(a, k, axis=axis)
        assert hausdorff(a, b, spacing) == hausdorff_brute(a, b, spacing)
        assert hausdorff(b, a, spacing) == hausdorff_brute(b, a, spacing)
        if spacing == (1.0, 1.0, 1.0):
            assert hausdorff(a, b) == float(k)

    def test_boundary_subset_is_zero_one_way_only(self, monkeypatch):
        a = np.zeros((16, 12, 14), dtype=bool)
        a[2:7, 2:8, 3:9] = True
        b = a.copy()
        b[10:14, 4:9, 5:12] = True  # a second block apart from the first
        assert set(map(tuple, extract_boundary(a))) < set(map(tuple, extract_boundary(b)))
        calls = []
        edt = metrics._squared_edt
        monkeypatch.setattr(metrics, "_squared_edt", lambda *args: calls.append(1) or edt(*args))
        for sp in [(1.0, 1.0, 1.0), (1.0, 0.7, 2.5)]:
            want = hausdorff_brute(a, b, sp)
            assert want > 0
            assert hausdorff(a, b, sp) == want
            assert hausdorff(b, a, sp) == want
        assert len(calls) == 4  # one transform per call: the a -> b direction has none
        calls.clear()
        assert hausdorff(b, b) == 0.0
        assert calls == []

    def test_far_false_positive_stays_small(self):
        # one stray voxel far from the target: a stencil of radius ~38 voxels
        # would hold ~460k offsets, so the recount must pair with all
        # target points instead of building it
        a = np.zeros((60, 60, 40), dtype=bool)
        b = np.zeros_like(a)
        a[24:36, 24:36, 14:26] = True
        b[26:38, 24:36, 14:26] = True
        a[0, 0, 0] = b[-1, -1, -1] = True
        for sp in [(1.0, 1.0, 1.0), (1.0, 0.7, 2.5)]:
            tracemalloc.start()
            try:
                got = hausdorff(a, b, sp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == hausdorff_brute(a, b, sp)
            assert peak < 12 * 2**20, f"{peak / 2**20:.1f} MiB traced"


class TestMetricReport:
    def test_text_round_trip(self):
        report = MetricReport(0.9, 0.95, 0.85, 2.5, float("nan"), 1.0, flags=["hd_wt_undefined"])
        back = MetricReport.from_text(report.to_text())
        assert back.dice_et == report.dice_et
        assert back.hd_et == report.hd_et
        assert math.isnan(back.hd_wt)
        assert back.flags == ["hd_wt_undefined"]
