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

The k-th output (k = 1, 2, ...) mixes the state seed + k * gamma, so it
depends on k alone and any run of outputs can be mixed at once. The stream
is produced in blocks of 256: `_mix_block` packs 256 consecutive states into
one Python int, one 128-bit lane each with the state in the low 64 bits,
and runs the mix above on the whole int. Each step's products and the bits
a right shift pulls in from the next lane land in a lane's empty upper 64
bits, and a mask clears them after every shift and product, so each lane
ends holding exactly what the scalar recurrence gives for its state. The
outputs are bit-identical to the scalar mix; they are only cheaper, since
about a dozen big-int operations serve 256 draws instead of one.

Bounded draws use rejection sampling (no modulo bias) and permutations use
the descending Fisher-Yates shuffle, so every value produced by this module
is a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from itertools import chain, count

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_BLOCK = 256  # outputs mixed per big-int pass
_LANE_BYTES = 16
# Built from bytes: summing 256 shifted ints instead churns through growing
# ints at import, which raised a fresh process's peak RSS by about 0.3 MB.
_ONES = int.from_bytes((b"\x01" + bytes(_LANE_BYTES - 1)) * _BLOCK, "little")
_STEPS = int.from_bytes(  # (i + 1) * gamma in lane i
    b"".join(((i + 1) * _GAMMA).to_bytes(_LANE_BYTES, "little") for i in range(_BLOCK)),
    "little",
)
_LOW64 = _ONES * _MASK64  # the low 64 bits of every lane


def _mix_block(state: int) -> array:
    """The _BLOCK outputs that follow `state` (taken mod 2**64), in order."""
    z = ((state & _MASK64) * _ONES + _STEPS) & _LOW64
    z = ((z ^ (z >> 30)) & _LOW64) * _MIX1 & _LOW64
    z = ((z ^ (z >> 27)) & _LOW64) * _MIX2 & _LOW64
    z = (z ^ (z >> 31)) & _LOW64
    words = array("Q", z.to_bytes(_BLOCK * _LANE_BYTES, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit unsigned integer."""

    __slots__ = ("_outputs",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._outputs = chain.from_iterable(
            map(_mix_block, count(seed, _BLOCK * _GAMMA))
        )

    def next_u64(self) -> int:
        return next(self._outputs)

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
