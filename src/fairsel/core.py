"""Shared primitives: errors, validated fractional points, RNG stream derivation.

Everything downstream that draws randomness derives an independent generator
from a master seed plus an integer path (stream tag, index, ...). Identical
paths give identical streams on every platform, which is what makes whole
runs byte-reproducible.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

# coordinates this close to an integer bound are treated as exactly 0 or 1
SNAP_EPS = 1e-9


class FeasibilityError(ValueError):
    """The fairness requirements cannot all be met within the budget."""


class SizeLimitError(ValueError):
    """An exhaustive routine was asked to run beyond its size cap."""


class ContractError(ValueError):
    """A caller handed a routine input that violates its stated contract."""


def as_vector(values: Iterable[float], n: int, name: str) -> np.ndarray:
    """``values`` as a float vector of length n; a ValueError naming ``name``
    if it has any other shape (no broadcasting of a short vector)."""
    v = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} vector has shape {v.shape}, expected ({n},)")
    return v


class FractionalPoint:
    """A vector in the unit box [0, 1]^n.

    Coordinates within ``SNAP_EPS`` of 0 or 1 are snapped to the exact bound
    so downstream integrality tests stay stable; anything further outside the
    box is rejected. Instances are immutable.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[float]):
        arr = np.array(coords, dtype=float)
        if arr.ndim != 1:
            raise ContractError(f"expected a 1-d vector, got shape {arr.shape}")
        arr[np.abs(arr) <= SNAP_EPS] = 0.0
        arr[np.abs(arr - 1.0) <= SNAP_EPS] = 1.0
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0 or not np.isfinite(arr).all()):
            bad = int(np.argmax((arr < 0.0) | (arr > 1.0) | ~np.isfinite(arr)))
            raise ContractError(f"coordinate {bad} = {arr[bad]!r} outside [0, 1]")
        arr.flags.writeable = False
        self.coords = arr

    @classmethod
    def coerce(cls, y: "FractionalPoint | Iterable[float]") -> "FractionalPoint":
        return y if isinstance(y, FractionalPoint) else cls(y)

    @classmethod
    def zeros(cls, n: int) -> "FractionalPoint":
        return cls(np.zeros(n))

    @property
    def n(self) -> int:
        return self.coords.size

    def sum(self) -> float:
        return float(self.coords.sum())

    def __getitem__(self, u: int) -> float:
        return float(self.coords[u])

    def __len__(self) -> int:
        return self.coords.size

    def __iter__(self):
        return iter(self.coords.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionalPoint):
            return NotImplemented
        return self.coords.shape == other.coords.shape and bool(
            np.array_equal(self.coords, other.coords)
        )

    def __hash__(self):
        return hash(self.coords.tobytes())

    def __repr__(self) -> str:
        return f"FractionalPoint({self.coords.tolist()!r})"


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for the stream identified by (seed, *path).

    Distinct paths give statistically independent streams; the derivation is
    stable across platforms and numpy releases, so anything seeded this way
    reproduces exactly.
    """
    entropy = [_entropy_term(master_seed)] + [_entropy_term(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _entropy_term(value: int) -> int:
    term = int(value)
    if term < 0:
        raise ValueError(f"seed path terms must be non-negative, got {term}")
    return term


# numpy's SeedSequence (pool of four uint32 words) and PCG64 constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U1, _U11, _U32, _U58, _U63 = (np.uint64(v) for v in (1, 11, 32, 58, 63))
_LOW = np.uint64(_MASK32)
# the multiplier's 64-bit halves, and the two 32-bit limbs of its low half
_M_HI, _M_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
_M00, _M01 = np.uint64(_PCG_MULT & _MASK32), np.uint64((_PCG_MULT >> 32) & _MASK32)


def derive_draws(master_seed: int, path: Iterable[int], rounds, n: int) -> np.ndarray:
    """``derive_rng(master_seed, *path, t).random(n)`` for every t in ``rounds``.

    Returns a (len(rounds), n) float array whose row i equals, bit for bit,
    the first n uniforms of the generator for round ``rounds[i]``. It runs
    the same SeedSequence hashing and PCG64 seeding and stepping, in numpy
    across all rounds at once: uint32 words for the hash, and the 128-bit
    LCG state as two uint64 halves (see ``_lcg_step``). Seed and path terms
    of any size work; round indices must lie in [0, 2^32), which keeps each
    to one entropy word.
    """
    t = np.asarray(rounds, dtype=np.int64).reshape(-1)
    if t.size and (t.min() < 0 or t.max() > _MASK32):
        raise ContractError("round indices must lie in [0, 2^32)")
    words = [w for term in (master_seed, *path) for w in _uint32_words(_entropy_term(term))]
    entropy = [np.full(t.size, w, dtype=np.uint32) for w in words] + [t.astype(np.uint32)]

    # SeedSequence.mix_entropy: the hash constant advances the same way for
    # every row, so it stays a Python int
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(t.size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight words, cycling the pool
    hash_const = _INIT_B
    state_words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state_words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))

    # PCG64 seeding: the little-endian uint64 pairs (w0|w1, w2|w3) are the
    # high and low halves of initstate, (w4|w5, w6|w7) those of initseq
    words64 = [state_words[i] | state_words[i + 1] << _U32 for i in range(0, 8, 2)]
    seed_hi, seed_lo, seq_hi, seq_lo = words64
    inc_hi = seq_hi << _U1 | seq_lo >> _U63
    inc_lo = seq_lo << _U1 | _U1
    # state 0 -> inc -> inc + initstate -> (inc + initstate) * M + inc
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    draws = np.empty((t.size, n))
    for col in range(n):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: fold the halves together, rotate right by the top six bits
        folded = hi ^ lo
        rot = hi >> _U58
        out = folded >> rot | folded << (-rot & _U63)
        draws[:, col] = (out >> _U11).astype(np.float64) * 2.0**-53
    return draws


def _uint32_words(value: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int, lowest first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * PCG_MULT + inc mod 2^128, on uint64 halves.

    Products that wrap mod 2^64 are one numpy multiply each. The high word
    of lo * M_lo is summed from its four 32-bit partial products, all of
    which fit in uint64.
    """
    lo0, lo1 = lo & _LOW, lo >> _U32
    p00, p01, p10, p11 = lo0 * _M00, lo0 * _M01, lo1 * _M00, lo1 * _M01
    mid = (p00 >> _U32) + (p01 & _LOW) + (p10 & _LOW)
    carry = p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_lo = lo * _M_LO + inc_lo
    new_hi = carry + hi * _M_LO + lo * _M_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def format_float(x: float) -> str:
    """Shortest exact decimal form; used everywhere CSVs must be byte-stable."""
    return repr(float(x))
