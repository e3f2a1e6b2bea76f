"""Prior pipeline tests: Otsu, components, seeds, growth, input assembly."""

import tracemalloc
import warnings

import numpy as np
import pytest

from voxseg import prior as prior_module
from voxseg.phantom import PhantomSpec, gen_phantom
from voxseg.prior import (
    PriorConfig,
    TumorStdStats,
    build_input,
    generate_prior,
    largest_component,
    otsu_threshold,
    region_grow,
    select_seeds,
    tumor_std_stats,
)
from voxseg.metrics import compose_regions, dice_score
from voxseg.volume_io import MultiModalVolume

from oracles import (
    label_components_unionfind,
    largest_component_bfs,
    otsu_scan,
    region_grow_bfs,
    region_grow_fixpoint,
)


class TestOtsu:
    def test_bimodal_threshold_between_modes(self):
        values = np.concatenate([np.zeros(500), np.full(100, 10.0), np.full(100, 200.0)])
        grid = values.reshape(10, 10, 7)
        t = otsu_threshold(grid, bins=64)
        assert 10.0 < t <= 200.0
        assert t == otsu_scan(grid[grid != 0], 64)

    def test_two_value_split(self):
        grid = np.array([5.0] * 50 + [9.0] * 50).reshape(10, 10, 1)
        t = otsu_threshold(grid, bins=16)
        assert 5.0 < t <= 9.0

    def test_constant_masked_values_rejected(self):
        grid = np.full((3, 3, 3), 4.0)
        with pytest.raises(ValueError, match="distinct"):
            otsu_threshold(grid)

    def test_matches_exhaustive_scan_on_random_histograms(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n_modes = rng.integers(2, 5)
            chunks = [
                rng.normal(rng.uniform(10, 200), rng.uniform(1, 12), size=rng.integers(40, 200))
                for _ in range(n_modes)
            ]
            values = np.abs(np.concatenate(chunks)) + 1.0
            grid = values.reshape(1, 1, -1)
            bins = int(rng.integers(16, 129))
            assert otsu_threshold(grid, bins=bins) == otsu_scan(values, bins), f"trial {trial}"

    def test_chunked_histogram_matches_one_shot(self):
        # more nonzero voxels than one chunk of the flat volume, with the
        # smallest and largest values in different chunks
        rng = np.random.default_rng(3)
        flair = rng.gamma(3.0, 40.0, size=(80, 64, 64)).astype(np.float32)
        flair[rng.random(flair.shape) < 0.2] = 0
        flair[:10] *= 0.5
        flair[-10:] += 300.0
        values = flair[flair != 0].astype(np.float64)
        assert values.size > 1 << 18
        for bins in (64, 256):
            assert otsu_threshold(flair, bins=bins) == otsu_scan(values, bins)

    def test_excludes_zero_background(self):
        # huge zero background must not drag the threshold below the head
        grid = np.zeros((10, 10, 10))
        grid[0, 0, :5] = 50.0
        grid[0, 1, :5] = 100.0
        t = otsu_threshold(grid)
        assert t > 50.0


class TestLargestComponent:
    def test_keeps_bigger_blob(self):
        mask = np.zeros((10, 10, 10), dtype=bool)
        mask[1:3, 1:3, 1] = True  # 4 voxels
        mask[6:9, 6:9, 6] = True  # 9 voxels
        out = largest_component(mask, 26)
        assert out.sum() == 9
        assert out[7, 7, 6] and not out[1, 1, 1]

    def test_single_blob_unchanged(self):
        mask = np.zeros((6, 6, 6), dtype=bool)
        mask[2:5, 2:4, 3] = True
        np.testing.assert_array_equal(largest_component(mask, 6), mask)

    def test_empty_mask_passthrough(self):
        empty = np.zeros((4, 4, 4), dtype=bool)
        assert largest_component(empty, 26).sum() == 0

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_matches_unionfind_oracle(self, connectivity):
        rng = np.random.default_rng(1)
        for _ in range(15):
            mask = rng.random((8, 8, 8)) > 0.7
            got = largest_component(mask, connectivity)
            labels = label_components_unionfind(mask, connectivity)
            if labels.max() == 0:
                assert got.sum() == 0
                continue
            sizes = np.bincount(labels.ravel())[1:]
            assert got.sum() == sizes.max()
            # returned component is exactly one oracle component
            ids = np.unique(labels[got])
            assert len(ids) == 1 and ids[0] != 0

    def test_tie_breaks_to_first_in_scan_order(self):
        mask = np.zeros((5, 5, 5), dtype=bool)
        mask[0, 0, 0] = True
        mask[4, 4, 4] = True
        out = largest_component(mask, 6)
        assert out[0, 0, 0] and not out[4, 4, 4]

    def test_diagonal_visibility_depends_on_connectivity(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 1] = mask[2, 2, 2] = True
        assert largest_component(mask, 26).sum() == 3
        assert largest_component(mask, 6).sum() == 1

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_equal_sizes_earliest_first_voxel_wins(self, connectivity):
        mask = np.zeros((6, 6, 6), dtype=bool)
        mask[4, 0:3, 0] = True  # first voxel (4, 0, 0)
        mask[1, 5, 3:6] = True  # first voxel (1, 5, 3) comes earlier in scan order
        mask[3, 2, 5] = True
        out = largest_component(mask, connectivity)
        np.testing.assert_array_equal(out, largest_component_bfs(mask, connectivity))
        assert out[1, 5, 3:6].all() and out.sum() == 3

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_noise_matches_bfs_oracle(self, connectivity):
        rng = np.random.default_rng(11)
        for _ in range(6):
            shape = tuple(rng.integers(5, 21, size=3))
            mask = rng.random(shape) < 0.3
            np.testing.assert_array_equal(largest_component(mask, connectivity),
                                          largest_component_bfs(mask, connectivity))

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_mask_touching_every_face(self, connectivity):
        rng = np.random.default_rng(12)
        mask = rng.random((7, 9, 5)) < 0.45
        for axis in range(3):
            for end in (0, -1):
                face = [slice(None)] * 3
                face[axis] = end
                mask[tuple(face)] = True
        np.testing.assert_array_equal(largest_component(mask, connectivity),
                                      largest_component_bfs(mask, connectivity))


class TestSelectSeeds:
    def test_exhausts_small_component(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0, 0, 0] = mask[1, 2, 3] = mask[3, 3, 3] = True
        seeds = select_seeds(mask, 10, rng_seed=5)
        assert sorted(seeds) == [(0, 0, 0), (1, 2, 3), (3, 3, 3)]

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        mask = rng.random((6, 6, 6)) > 0.5
        assert select_seeds(mask, 4, 9) == select_seeds(mask, 4, 9)
        assert select_seeds(mask, 4, 9) != select_seeds(mask, 4, 10)

    def test_membership_and_uniqueness(self):
        rng = np.random.default_rng(3)
        mask = rng.random((6, 6, 6)) > 0.4
        seeds = select_seeds(mask, 12, 1)
        assert len(set(seeds)) == 12
        for s in seeds:
            assert mask[s]

    def test_empty_component_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_seeds(np.zeros((3, 3, 3), dtype=bool), 3, 0)


class TestRegionGrow:
    def test_uniform_grid_fills_everything(self):
        grid = np.full((5, 6, 4), 7.0)
        out = region_grow(grid, [(2, 2, 2)], delta=1.0, connectivity=6)
        assert out.all()

    def test_bright_cube_exact(self):
        grid = np.zeros((10, 10, 10))
        grid[3:7, 3:7, 3:7] = 100.0
        out = region_grow(grid, [(4, 4, 4)], delta=35.0, connectivity=6)
        want = grid == 100.0
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(out, region_grow_fixpoint(grid, [(4, 4, 4)], 35.0, 6))

    def test_delta_zero_exact_matches_only(self):
        grid = np.zeros((4, 4, 4))
        grid[1, 1, 1] = grid[1, 1, 2] = 5.0
        grid[1, 1, 3] = 5.5
        out = region_grow(grid, [(1, 1, 1)], delta=1e-12, connectivity=6)
        assert out[1, 1, 1] and out[1, 1, 2] and not out[1, 1, 3]

    def test_seed_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            region_grow(np.zeros((3, 3, 3)), [(5, 0, 0)], 1.0)

    def test_seed_order_invariant(self):
        rng = np.random.default_rng(4)
        grid = rng.uniform(0, 100, (8, 8, 8))
        seeds = [(1, 1, 1), (6, 6, 6), (3, 4, 5)]
        a = region_grow(grid, seeds, 20.0, 6)
        b = region_grow(grid, seeds[::-1], 20.0, 6)
        np.testing.assert_array_equal(a, b)

    def test_matches_fixpoint_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            grid = rng.uniform(0, 60, (7, 7, 7))
            seeds = [tuple(rng.integers(0, 7, 3))]
            delta = float(rng.uniform(5, 30))
            got = region_grow(grid, seeds, delta, 6)
            np.testing.assert_array_equal(got, region_grow_fixpoint(grid, seeds, delta, 6))

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(6)
        grid = rng.uniform(0, 100, (8, 8, 8))
        seeds = [(4, 4, 4)]
        small = region_grow(grid, seeds, 10.0, 6)
        large = region_grow(grid, seeds, 30.0, 6)
        assert np.all(small <= large)

    def test_contains_all_seeds(self):
        grid = np.zeros((5, 5, 5))
        grid[0, 0, 0] = 999.0  # outlier seed still belongs to the region
        out = region_grow(grid, [(0, 0, 0), (2, 2, 2)], delta=1.0, connectivity=6)
        assert out[0, 0, 0] and out[2, 2, 2]

    def test_seed_failing_the_predicate(self):
        grid = np.zeros((6, 6, 6))
        grid[2:5, 2:5, 2:5] = 50.0
        grid[0, 0, 0] = 500.0  # pulls the seed mean far from its own value
        seeds = [(0, 0, 0), (3, 3, 3)]
        out = region_grow(grid, seeds, 30.0, 6)
        np.testing.assert_array_equal(out, region_grow_bfs(grid, seeds, 30.0, 6))
        assert out[0, 0, 0] and not out[0, 0, 1]

    def test_duplicate_seeds(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(0, 100, (8, 8, 8))
        seeds = [(4, 4, 4), (4, 4, 4), (1, 2, 3), (4, 4, 4)]
        out = region_grow(grid, seeds, 25.0, 6)
        np.testing.assert_array_equal(out, region_grow_bfs(grid, seeds, 25.0, 6))

    def test_seeds_in_disjoint_components(self):
        grid = np.zeros((9, 9, 9))
        grid[1:4, 1:4, 1:4] = 60.0
        grid[5:8, 5:8, 5:8] = 60.0
        seeds = [(2, 2, 2), (6, 6, 6)]
        out = region_grow(grid, seeds, 10.0, 6)
        np.testing.assert_array_equal(out, region_grow_bfs(grid, seeds, 10.0, 6))
        np.testing.assert_array_equal(out, grid == 60.0)

    def test_float32_input_compares_in_float64(self):
        # |1e-8 - 3| is 3 - 1e-8 in float64 but rounds to 3.0 in float32;
        # delta sits between the two, so only float64 arithmetic rejects
        flair = np.array([[[3.0, 1e-8, 3.0]]], dtype=np.float32)
        dev = 3.0 - float(flair[0, 0, 1])
        delta = dev - 1e-9
        assert np.float32(delta) == np.float32(3.0)
        got = region_grow(flair, [(0, 0, 0)], delta)
        want = region_grow(flair.astype(np.float64), [(0, 0, 0)], delta)
        np.testing.assert_array_equal(got, want)
        assert got.tolist() == [[[True, False, False]]]

    def test_26_connectivity_matches_bfs_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            shape = tuple(rng.integers(5, 15, size=3))
            grid = rng.uniform(0, 100, shape)
            seeds = [tuple(int(rng.integers(0, n)) for n in shape) for _ in range(2)]
            delta = float(rng.uniform(10, 40))
            out = region_grow(grid, seeds, delta, 26)
            np.testing.assert_array_equal(out, region_grow_bfs(grid, seeds, delta, 26))
            np.testing.assert_array_equal(out, region_grow_fixpoint(grid, seeds, delta, 26))


class TestTumorStdStats:
    def test_constant_tumor_gives_zero(self):
        flair = np.zeros((2, 2, 2))
        labels = np.zeros((2, 2, 2), dtype=np.uint8)
        flair[0, 0, :2] = 10.0
        labels[0, 0, :2] = 2
        stats = tumor_std_stats([(flair, labels)])
        assert stats.per_case == (0.0,)

    def test_population_std(self):
        flair = np.zeros((1, 1, 2))
        flair[0, 0] = [0.0, 10.0]
        labels = np.full((1, 1, 2), 4, dtype=np.uint8)
        stats = tumor_std_stats([(flair, labels)])
        assert stats.per_case == (5.0,)

    def test_skips_small_cases_with_warning(self):
        good_flair = np.zeros((1, 1, 3))
        good_flair[0, 0] = [1.0, 2.0, 3.0]
        good_labels = np.full((1, 1, 3), 1, dtype=np.uint8)
        bad_labels = np.zeros((1, 1, 3), dtype=np.uint8)
        with pytest.warns(UserWarning, match="skipped"):
            stats = tumor_std_stats([(good_flair, bad_labels), (good_flair, good_labels)])
        assert len(stats.per_case) == 1

    def test_all_skipped_raises(self):
        flair = np.ones((1, 1, 1))
        labels = np.zeros((1, 1, 1), dtype=np.uint8)
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="no usable"):
            tumor_std_stats([(flair, labels)])

    def test_median_lower_of_central_pair(self):
        stats = TumorStdStats.from_values([4.0, 1.0, 3.0, 2.0])
        assert stats.median == 2.0
        assert stats.min == 1.0 and stats.max == 4.0

    @pytest.mark.parametrize("values", [[np.nan, 1.0, 2.0, 3.0], [3.0, 2.0, np.nan, 1.0], [1.0, np.inf]])
    def test_non_finite_value_rejected(self, values):
        # sorted() places a NaN by input order, so the summary would depend on case order
        with pytest.raises(ValueError, match="non-finite"):
            TumorStdStats.from_values(values)

    def test_skips_non_finite_case_with_warning(self):
        flair = np.zeros((1, 1, 3))
        flair[0, 0] = [1.0, 2.0, 3.0]
        labels = np.full((1, 1, 3), 1, dtype=np.uint8)
        bad_flair = flair.copy()
        bad_flair[0, 0, 1] = np.nan
        with pytest.warns(UserWarning, match="case 0: .*non-finite std, skipped"):
            stats = tumor_std_stats([(bad_flair, labels), (flair, labels)])
        assert stats.per_case == (float(np.std([1.0, 2.0, 3.0])),)


class TestGeneratePrior:
    def test_phantom_prior_overlaps_tumor(self):
        spec = PhantomSpec(rng_seed=11)
        vol = gen_phantom(spec, 0)
        prior = generate_prior(vol.flair, PriorConfig(rng_seed=3))
        wt = compose_regions(vol.labels).wt
        assert dice_score(prior, wt) >= 0.9

    def test_all_zero_flair_degrades_to_empty(self):
        prior = generate_prior(np.zeros((8, 8, 8)), PriorConfig())
        assert prior.shape == (8, 8, 8) and prior.sum() == 0

    def test_deterministic_given_seed(self):
        vol = gen_phantom(PhantomSpec(rng_seed=12), 1)
        cfg = PriorConfig(rng_seed=7)
        np.testing.assert_array_equal(generate_prior(vol.flair, cfg), generate_prior(vol.flair, cfg))

    def test_float32_threshold_compares_in_float64(self, monkeypatch):
        # the threshold lies between two float32 neighbours, nearer the upper
        # one: as a float32 it would equal `hi` and drop the `hi` voxels
        lo = np.float32(100.0)
        hi = np.nextafter(lo, np.float32(np.inf))
        threshold = float(lo) + 0.75 * (float(hi) - float(lo))
        assert np.float32(threshold) == hi
        flair = np.zeros((6, 6, 6), dtype=np.float32)
        flair[1:5, 1:5, 1:5] = lo
        flair[2:4, 2:4, 2:4] = hi
        monkeypatch.setattr(prior_module, "otsu_threshold", lambda *a, **k: threshold)
        cfg = PriorConfig(delta=1e-9, rng_seed=2)
        got = generate_prior(flair, cfg)
        np.testing.assert_array_equal(got, generate_prior(flair.astype(np.float64), cfg))
        np.testing.assert_array_equal(got, flair == hi)

    def test_float32_volume_gives_the_float64_threshold(self):
        flair = gen_phantom(PhantomSpec(rng_seed=13), 0).flair.astype(np.float32)
        assert otsu_threshold(flair) == otsu_threshold(flair.astype(np.float64))

    def test_brats_size_peak_memory_below_twice_the_volume(self):
        # a clinical-size float32 case: a dim brain ball around a bright tumor
        d, h, w = (np.arange(n, dtype=np.float32) - n // 2 for n in (240, 240, 155))
        r2 = d[:, None, None] ** 2 + h[None, :, None] ** 2 + w[None, None, :] ** 2
        flair = np.zeros(r2.shape, dtype=np.float32)
        flair[r2 <= 100.0**2] = 100.0
        flair[r2 <= 25.0**2] = 200.0
        del r2
        tracemalloc.start()
        try:
            prior = generate_prior(flair, PriorConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(prior, flair == 200.0)
        assert peak < 2 * flair.nbytes, f"peak {peak / flair.nbytes:.2f}x the volume's bytes"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PriorConfig(n_seeds=0)
        for delta in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta"):
                PriorConfig(delta=delta)
        with pytest.raises(ValueError):
            PriorConfig(histogram_bins=1)
        with pytest.raises(ValueError):
            PriorConfig(growth_connectivity=18)


class TestDeriveDelta:
    def test_median_of_labeled_volumes(self):
        from voxseg.prior import derive_delta

        spec = PhantomSpec(rng_seed=20)
        volumes = [gen_phantom(spec, i) for i in range(3)]
        delta = derive_delta(volumes)
        flair0 = volumes[0].modalities[0]
        assert 0 < delta < np.std(flair0[volumes[0].labels != 0]) * 3

    def test_fallback_without_labels(self):
        from voxseg.prior import DEFAULT_DELTA, derive_delta

        vol = gen_phantom(PhantomSpec(rng_seed=21), 0)
        unlabeled = MultiModalVolume(vol.modalities)
        assert derive_delta([unlabeled]) == DEFAULT_DELTA

    def test_skips_unusable_volumes_without_touching_the_warnings_filter(self, monkeypatch):
        # the filter list is process-wide, so changing it races other threads
        from voxseg.prior import derive_delta

        def refuse(*args, **kwargs):
            raise AssertionError("warnings.simplefilter called")

        volumes = [gen_phantom(PhantomSpec(rng_seed=20), i) for i in range(3)]
        no_tumor = MultiModalVolume(volumes[0].modalities, np.zeros_like(volumes[0].labels))
        want = tumor_std_stats([(v.flair, v.labels) for v in volumes]).median
        # patched only around the call: pytest's own reporting uses simplefilter
        with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as caught:
            patch.setattr(warnings, "simplefilter", refuse)
            delta = derive_delta([no_tumor, *volumes])
        assert delta == want
        assert caught == []


    def test_skips_non_finite_flair_volume_in_any_position(self):
        from voxseg.prior import derive_delta

        volumes = [gen_phantom(PhantomSpec(rng_seed=20), i) for i in range(3)]
        mods = volumes[0].modalities.copy()
        mods[(0, *np.argwhere(volumes[0].labels)[0])] = np.nan
        nan_flair = MultiModalVolume(mods, volumes[0].labels)
        want = derive_delta(volumes)
        for at in range(len(volumes) + 1):
            assert derive_delta([*volumes[:at], nan_flair, *volumes[at:]]) == want


class TestBuildInput:
    def make_volume(self, rng, dims=(8, 8, 8)):
        mods = rng.uniform(1.0, 10.0, (4,) + dims).astype(np.float32)
        mods[:, :2] = 0.0  # background slab
        return MultiModalVolume(mods)

    def test_prior_passthrough_channel(self):
        rng = np.random.default_rng(7)
        vol = self.make_volume(rng)
        prior = rng.random((8, 8, 8)) > 0.5
        x = build_input(vol, prior)
        assert x.shape == (1, 5, 8, 8, 8)
        np.testing.assert_array_equal(x.data[0, 4], prior.astype(np.float32))

    def test_modalities_zscored_over_support(self):
        rng = np.random.default_rng(8)
        vol = self.make_volume(rng)
        x = build_input(vol, np.zeros((8, 8, 8), dtype=bool))
        for c in range(4):
            support = vol.modalities[c] != 0
            vals = x.data[0, c][support]
            assert abs(vals.mean()) < 1e-5
            assert abs(vals.std() - 1.0) < 1e-4

    def test_zero_prior_still_valid(self):
        rng = np.random.default_rng(9)
        x = build_input(self.make_volume(rng), np.zeros((8, 8, 8)))
        assert x.shape == (1, 5, 8, 8, 8)
        assert np.all(x.data[0, 4] == 0)

    def test_no_prior_gives_four_channels(self):
        rng = np.random.default_rng(10)
        assert build_input(self.make_volume(rng), None).shape == (1, 4, 8, 8, 8)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="dims"):
            build_input(self.make_volume(rng), np.zeros((4, 4, 4)))
