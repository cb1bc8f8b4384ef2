"""Shared primitives: errors, checked vectors, RNG stream derivation.

``as_vector`` and ``unit_vector`` check a caller's vector (its length, and
for points its place in the unit box) and hand it on unmoved: no layer but
``rounding`` snaps a coordinate onto 0 or 1.

Everything downstream that draws randomness derives an independent generator
from a master seed plus an integer path (stream tag, index, ...). Identical
paths give identical streams on every platform, which is what makes whole
runs byte-reproducible. The rounding draws of a run are one randomly shifted
Kronecker sequence (``derive_draws``): its shift comes from such a stream,
and the rest is IEEE basic arithmetic.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np


class FeasibilityError(ValueError):
    """The fairness requirements cannot all be met within the budget."""


class SizeLimitError(ValueError):
    """An exhaustive routine was asked to run beyond its size cap."""


class ContractError(ValueError):
    """A caller handed a routine input that violates its stated contract."""


def as_vector(values: Iterable[float], n: int, name: str) -> np.ndarray:
    """``values`` as a float vector of length n; a ValueError naming ``name``
    if it has any other shape (no broadcasting of a short vector)."""
    v = np.asarray(values if hasattr(values, "__array__") else list(values), dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} vector has shape {v.shape}, expected ({n},)")
    return v


def unit_vector(values: Iterable[float], n: int, name: str) -> np.ndarray:
    """``as_vector``, checked to lie in the unit box [0, 1]^n and returned as
    given: a ContractError names the first coordinate that is NaN, infinite
    or outside [0, 1]. Nothing is snapped or clipped."""
    v = as_vector(values, n, name)
    outside = ~((v >= 0.0) & (v <= 1.0))
    if outside.any():
        bad = int(np.argmax(outside))
        raise ContractError(f"{name} coordinate {bad} = {float(v[bad])!r} outside [0, 1]")
    return v


class FractionalPoint:
    """The continuous-greedy point y1: a read-only copy of a vector in
    [0, 1]^n, checked by ``unit_vector`` and kept exactly as computed.
    ``np.asarray(point)`` gives the coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[float]):
        arr = np.array(coords, dtype=float)
        self.coords = unit_vector(arr, arr.size, "point")
        self.coords.flags.writeable = False

    def __array__(self, dtype=None, copy=None):
        return np.array(self.coords, dtype=dtype, copy=copy)


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


def derive_draws(master_seed: int, path: Iterable[int], rounds, n: int) -> np.ndarray:
    """Row i holds round ``rounds[i]``'s n uniforms, frac(U + rounds[i] * alpha).

    The shift U = ``derive_rng(master_seed, *path).random(n)`` rotates the
    R_n Kronecker sequence alpha (``kronecker_alpha``). Each row alone is
    uniform on [0, 1)^n; across rounds the rows are low-discrepancy, which
    is randomized QMC with a Cranley-Patterson rotation. Rounds are
    non-negative ints, and all arithmetic is IEEE basic operations, so the
    rows are the same on every platform.
    """
    shift = derive_rng(master_seed, *path).random(n)
    t = np.asarray(rounds, dtype=float).reshape(-1, 1)
    return np.mod(shift + t * kronecker_alpha(n), 1.0)


def kronecker_alpha(n: int) -> np.ndarray:
    """phi^-1, ..., phi^-n for the root phi in (1, 2) of x^(n+1) = x + 1: the
    golden ratio at n = 1, the plastic number at n = 2.

    Bisection until the interval stops shrinking finds phi, and repeated
    multiplication the powers: no pow, whose last bit varies by platform.
    """
    lo, hi = 1.0, 2.0
    mid = 1.5
    while mid not in (lo, hi):
        if math.prod([mid] * (n + 1)) > mid + 1.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return np.cumprod(np.full(n, 1.0 / lo))


def format_float(x: float) -> str:
    """Shortest exact decimal form; used everywhere CSVs must be byte-stable."""
    return repr(float(x))
