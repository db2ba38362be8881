"""Deterministic, nested training subsets over the fraction grid.

One `subsample` call makes all of a pair's subsets: it draws one seeded
permutation of the training indices, and each fraction keeps a prefix of
it. So for a fixed seed the subset at fraction f1 is contained in the
subset at any f2 >= f1. That nesting keeps learning curves smooth, so area
differences between language pairs reflect data quantity rather than
sampling noise.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from ._rng import permutation
from .corpus import read_text

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

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SubsetManifest":
        """ValueError, naming the problem, unless d is an object with every
        field, whose n_train is an integer and indices an array of integers
        (a bool is not an integer)."""
        if not isinstance(d, dict):
            raise ValueError(f"a subset manifest must be a JSON object, not a {type(d).__name__}")
        missing = [key for key in ("fraction", "seed", "n_train", "indices") if key not in d]
        if missing:
            raise ValueError(f"subset manifest lacks {', '.join(missing)}")
        if type(d["n_train"]) is not int:
            raise ValueError(f"subset manifest n_train must be an integer, not {d['n_train']!r}")
        indices = d["indices"]
        if type(indices) is not list:
            raise ValueError(f"subset manifest indices must be an array, not {indices!r}")
        for index in indices:
            if type(index) is not int:
                raise ValueError(f"subset manifest indices must be integers, not {index!r}")
        return cls(
            fraction=d["fraction"],
            seed=d["seed"],
            n_train=d["n_train"],
            indices=indices,
            src=d.get("src"),
            tgt=d.get("tgt"),
        )

    @classmethod
    def read(cls, path: str | Path) -> "SubsetManifest":
        """The manifest in the file at path; ValueError naming the file when
        it is not UTF-8, not JSON, or not a subset manifest."""
        text = read_text(path)
        try:
            return cls.from_dict(json.loads(text))
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            raise ValueError(f"{path}: {exc}") from exc


def subsample(n_train: int, fractions: Sequence[float], seed: int,
              src: str | None = None, tgt: str | None = None) -> list[SubsetManifest]:
    """One manifest per fraction, in the order given, each holding
    ceil(fraction * n_train) training indices.

    Every selection is a prefix of one SplitMix64-seeded permutation of
    range(n_train), drawn once per call, so the subsets are nested across
    fractions for a fixed seed and identical across runs and platforms; a
    subset does not depend on which other fractions were asked for.
    Indices are returned sorted.
    """
    if n_train < 1:
        raise ValueError(f"n_train must be >= 1, got {n_train}")
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    order = permutation(n_train, seed)
    return [
        SubsetManifest(
            fraction=fraction,
            seed=seed,
            n_train=n_train,
            indices=sorted(order[:math.ceil(fraction * n_train)]),
            src=src,
            tgt=tgt,
        )
        for fraction in fractions
    ]
