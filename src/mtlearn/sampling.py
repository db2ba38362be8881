"""Deterministic, nested training subsets over the fraction grid.

For a fixed seed, the subset at fraction f1 is contained in the subset at
any f2 >= f1: all fractions share one seeded permutation of the training
indices and differ only in how long a prefix they keep. That nesting keeps
learning curves smooth, so area differences between language pairs reflect
data quantity rather than sampling noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ._rng import permutation

# The canonical evaluation grid: 20% to 100% in steps of 10%.
FRACTION_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class SubsetManifest:
    """A reproducible selection of training-pair indices."""

    fraction: float
    seed: int
    n_train: int
    indices: list[int]
    src: str | None = None
    tgt: str | None = None

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "tgt": self.tgt,
            "fraction": self.fraction,
            "seed": self.seed,
            "n_train": self.n_train,
            "indices": self.indices,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SubsetManifest":
        """ValueError, naming the problem, unless d is an object with every field."""
        if not isinstance(d, dict):
            raise ValueError(f"a subset manifest must be a JSON object, not a {type(d).__name__}")
        missing = [key for key in ("fraction", "seed", "n_train", "indices") if key not in d]
        if missing:
            raise ValueError(f"subset manifest lacks {', '.join(missing)}")
        return cls(
            fraction=d["fraction"],
            seed=d["seed"],
            n_train=d["n_train"],
            indices=list(d["indices"]),
            src=d.get("src"),
            tgt=d.get("tgt"),
        )

    @classmethod
    def read(cls, path: str | Path) -> "SubsetManifest":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@lru_cache(maxsize=1)
def _order(n_train: int, seed: int) -> tuple[int, ...]:
    """The permutation behind every subset of one pair.

    A pair's fractions are subsampled one after another, so one cached
    entry computes it once per pair, and the subsets share its int objects.
    """
    return tuple(permutation(n_train, seed))


def subsample(n_train: int, fraction: float, seed: int,
              src: str | None = None, tgt: str | None = None) -> SubsetManifest:
    """Select ceil(fraction * n_train) training indices.

    The selection is the prefix of one SplitMix64-seeded permutation of
    range(n_train), so subsets are nested across fractions for a fixed seed
    and identical across runs and platforms. Indices are returned sorted.
    """
    if n_train < 1:
        raise ValueError(f"n_train must be >= 1, got {n_train}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = math.ceil(fraction * n_train)
    order = _order(n_train, seed)
    return SubsetManifest(
        fraction=fraction,
        seed=seed,
        n_train=n_train,
        indices=sorted(order[:k]),
        src=src,
        tgt=tgt,
    )
