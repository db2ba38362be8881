"""Fixed, platform-independent pseudo-random primitives.

Subset sampling and corpus splitting must reproduce bit-for-bit across
interpreter versions and operating systems, so nothing here may depend on
``random`` module internals or on numpy generator method implementations.
Instead we pin one small, fully specified algorithm:

SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014). State update and output mix, all mod 2**64::

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Bounded draws use rejection sampling (no modulo bias) and permutations use
the descending Fisher-Yates shuffle, so every value produced by this module
is a pure function of the seed.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit unsigned integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling, for 1 <= n <= 2**64."""
        if not 0 < n <= _MASK64 + 1:
            raise ValueError(f"bound must be in [1, 2**64], got {n}")
        # Largest multiple of n that fits in 64 bits; draws at or above it
        # would be biased and are rejected (at most one expected retry).
        # Above 2**64 no multiple fits, so no draw would be accepted.
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


def permutation(n: int, seed: int) -> list[int]:
    """Seeded Fisher-Yates permutation of range(n)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = SplitMix64(seed)
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def derive_seed(*parts: object) -> int:
    """Derive a 64-bit seed from arbitrary labeled parts, reproducibly.

    Hashes the repr of the parts with SHA-256, so the result is stable
    across processes and platforms (unlike the builtin hash). Used to give
    each (pair, purpose) its own independent stream from one root seed.

    >>> derive_seed(42, "split", "es", "pt") == derive_seed(42, "split", "es", "pt")
    True
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
