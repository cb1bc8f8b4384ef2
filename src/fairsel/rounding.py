"""Randomized dependent rounding of a fractional point with integral sum.

Repeatedly pair the first two fractional coordinates (ascending id) and move
probability mass between them so that at least one lands on 0 or 1. Each move
keeps the coordinate sum exactly fixed and each coordinate's expectation
unchanged, so the final set has exactly sum(y) elements and contains u with
probability y_u.

``dep_round_many`` is the one implementation of that pairing chain: it rounds
one point once per row of draws, all rows in lock-step. ``dep_round`` is its
one-row case. This module is the only layer that snaps: a coordinate within
``SNAP_EPS`` of 0 or 1 is set onto that bound, on entry and after every
pairing, so integrality tests stay exact.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import ContractError, unit_vector

# coordinates this close to an integer bound are treated as exactly 0 or 1
SNAP_EPS = 1e-9


def dep_round(y: Iterable[float], rng: np.random.Generator) -> tuple[int, ...]:
    """Round y (sum within 1e-9 of an integer) to a set of that exact size.

    Returns the selected ids as an ascending tuple: one row of
    ``dep_round_many``, whose draws are exactly one ``rng.random(n)`` call
    (at most n - 1 of them are used).
    """
    coords, _ = _checked_point(y)
    row = dep_round_many(coords, rng.random(coords.size)[None, :])[0]
    return tuple(np.flatnonzero(row).tolist())


def dep_round_many(y: Iterable[float], draws: np.ndarray) -> np.ndarray:
    """Dependent rounding of the same point once per row of ``draws``.

    ``draws`` is a (rows, n) matrix of uniforms in [0, 1); row i of the
    returned (rows, n) boolean matrix is the set its draws select. A live
    row's p-th pairing (p = 0, 1, ...) reads its draw p and goes up on the
    lower coordinate when draw * (a + b) < b.
    """
    coords, target = _checked_point(y)
    n = coords.size
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != n:
        raise ContractError(f"draws have shape {draws.shape}, expected (rows, {n})")
    if not ((draws >= 0.0) & (draws < 1.0)).all():
        raise ContractError("draws must lie in [0, 1)")
    vals = np.repeat(coords[None, :], draws.shape[0], axis=0)
    # a row's first fractional coordinate is i and its second is j: every
    # pairing leaves the coordinates before its j integral. Each pairing
    # takes one draw, so a live row makes its step-th pairing with draw
    # number step
    for step in range(n):
        frac = (vals != 0.0) & (vals != 1.0)
        live = np.flatnonzero(frac.any(axis=1))
        if live.size == 0:
            break
        frac = frac[live]
        at = np.arange(live.size)
        i = frac.argmax(axis=1)
        frac[at, i] = False
        j = frac.argmax(axis=1)
        if not frac[at, j].all():
            raise ContractError("single fractional coordinate left; sum drifted")
        yi, yj = vals[live, i], vals[live, j]
        a = np.minimum(1.0 - yi, yj)
        b = np.minimum(yi, 1.0 - yj)
        if not ((a > 0.0) & (b > 0.0)).all():
            raise ContractError("pairing picked an integral coordinate")
        up = draws[live, step] * (a + b) < b
        vals[live, i] = _snap_many(np.where(up, yi + a, yi - b))
        vals[live, j] = _snap_many(np.where(up, yj - a, yj + b))

    selected = vals == 1.0
    counts = selected.sum(axis=1)
    if (counts != target).any():
        bad = int(counts[np.argmax(counts != target)])
        raise ContractError(f"rounded to {bad} elements, expected {target}")
    return selected


def _checked_point(y: Iterable[float]) -> tuple[np.ndarray, int]:
    """The point with near-integral coordinates snapped, then checked to lie
    in the unit box, and its integral coordinate sum.

    Snapping comes first, so a coordinate such as 1 + 5e-10 counts as 1.
    """
    coords = np.asarray(y, dtype=float)
    if coords.ndim != 1:
        raise ContractError(f"expected a 1-d vector, got shape {coords.shape}")
    coords = unit_vector(_snap_many(coords), coords.size, "point")
    total = sum(coords.tolist())
    target = round(total)
    if abs(total - target) > 1e-9:
        raise ContractError(f"coordinate sum {total!r} is not within 1e-9 of an integer")
    return coords, target


def _snap_many(v: np.ndarray) -> np.ndarray:
    """Each coordinate within ``SNAP_EPS`` of 0 or 1 set onto that bound."""
    return np.where(np.abs(v) <= SNAP_EPS, 0.0, np.where(np.abs(v - 1.0) <= SNAP_EPS, 1.0, v))
