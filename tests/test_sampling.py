"""Tests for nested deterministic subsampling."""

import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtlearn import sampling


class TestFractionGrid:
    def test_exact_grid(self):
        grid = sampling.FRACTION_GRID
        assert grid == (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_endpoints_and_step(self):
        grid = sampling.FRACTION_GRID
        assert grid[0] == 0.2
        assert grid[-1] == 1.0
        assert len(grid) == 9
        for a, b in zip(grid, grid[1:]):
            assert b - a == pytest.approx(0.1, abs=1e-12)


class TestSubsample:
    def test_full_fraction_is_identity(self):
        manifest = sampling.subsample(100, [1.0], seed=5)[0]
        assert manifest.indices == list(range(100))

    def test_ceiling_rule(self):
        manifest = sampling.subsample(10, [0.25], seed=3)[0]
        assert len(manifest.indices) == 3  # ceil(2.5)

    def test_ceiling_rule_randomized(self):
        rnd = random.Random(11)
        for _ in range(100):
            n = rnd.randrange(1, 5000)
            fraction = rnd.uniform(0.001, 1.0)
            manifest = sampling.subsample(n, [fraction], seed=rnd.getrandbits(64))[0]
            assert len(manifest.indices) == math.ceil(fraction * n)

    def test_indices_sorted_unique_in_range(self):
        manifest = sampling.subsample(500, [0.37], seed=9)[0]
        assert manifest.indices == sorted(set(manifest.indices))
        assert all(0 <= i < 500 for i in manifest.indices)

    def test_nesting_on_grid(self):
        subsets = {
            f: set(sampling.subsample(1000, [f], seed=77)[0].indices)
            for f in sampling.FRACTION_GRID
        }
        assert subsets[0.2] <= subsets[0.7] <= subsets[1.0]
        grid = sampling.FRACTION_GRID
        for f1, f2 in zip(grid, grid[1:]):
            assert subsets[f1] <= subsets[f2]

    def test_nesting_random_triples(self):
        rnd = random.Random(13)
        for _ in range(100):
            n = rnd.randrange(1, 2000)
            seed = rnd.getrandbits(64)
            f1, f2 = sorted((rnd.uniform(0.01, 1.0), rnd.uniform(0.01, 1.0)))
            small = sampling.subsample(n, [f1], seed)[0]
            large = sampling.subsample(n, [f2], seed)[0]
            assert set(small.indices) <= set(large.indices)

    def test_deterministic_across_calls(self):
        a = sampling.subsample(1234, [0.4], seed=2**63 + 17)[0]
        b = sampling.subsample(1234, [0.4], seed=2**63 + 17)[0]
        assert a == b
        assert a.to_json() == b.to_json()

    def test_frozen_golden_subset(self):
        # Frozen output: guards against accidental RNG or ordering drift.
        manifest = sampling.subsample(20, [0.3], seed=42)[0]
        assert manifest.indices == [3, 8, 11, 16, 17, 18]

    def test_validation(self):
        with pytest.raises(ValueError):
            sampling.subsample(0, [0.5], seed=0)
        with pytest.raises(ValueError):
            sampling.subsample(10, [0.0], seed=0)
        with pytest.raises(ValueError):
            sampling.subsample(10, [1.2], seed=0)

    def test_uniformity_over_seeds(self):
        # Statistical sanity: every index lands in the 20% subset with
        # frequency close to 0.2. With n = 1000 and 2000 seeds the binomial
        # standard deviation per index is ~0.009; the extreme frequency
        # across 1000 indices is expected near 3.7 sigma, so the band is
        # +-0.04 (about 4.5 sigma, far below any real sampling bias). The
        # mean across indices is exactly 200/1000 by construction.
        n, seeds = 1000, 2000
        counts = [0] * n
        for seed in range(seeds):
            for i in sampling.subsample(n, [0.2], seed)[0].indices:
                counts[i] += 1
        freqs = [c / seeds for c in counts]
        assert min(freqs) > 0.2 - 0.04
        assert max(freqs) < 0.2 + 0.04
        assert sum(freqs) / n == pytest.approx(0.2, abs=1e-12)


    @given(
        st.integers(1, 2000),
        st.integers(0, 2**64 - 1),
        st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=9, unique=True),
    )
    def test_one_call_makes_nested_subsets_each_as_if_alone(self, n, seed, fractions):
        fractions.sort()
        subsets = sampling.subsample(n, fractions, seed)
        assert [s.fraction for s in subsets] == fractions
        for subset in subsets:
            assert subset.indices == sorted(set(subset.indices))
            assert len(subset.indices) == math.ceil(subset.fraction * n)
            assert subset == sampling.subsample(n, [subset.fraction], seed)[0]
        for small, large in zip(subsets, subsets[1:]):
            assert set(small.indices) <= set(large.indices)


class TestSubsetManifest:
    def test_json_roundtrip(self):
        manifest = sampling.subsample(50, [0.5], seed=8, src="es", tgt="pt")[0]
        restored = sampling.SubsetManifest.from_dict(json.loads(manifest.to_json()))
        assert restored == manifest

    def test_file_roundtrip(self, tmp_path):
        manifest = sampling.subsample(50, [0.5], seed=8, src="aa", tgt="bb")[0]
        path = tmp_path / "subset.json"
        path.write_text(manifest.to_json() + "\n", encoding="utf-8")
        assert sampling.SubsetManifest.read(path) == manifest

    def test_json_fields(self):
        manifest = sampling.subsample(4, [0.5], seed=1, src="it", tgt="ro")[0]
        data = json.loads(manifest.to_json())
        assert set(data) == {"src", "tgt", "fraction", "seed", "n_train", "indices"}
        assert data["src"] == "it"
        assert data["n_train"] == 4
