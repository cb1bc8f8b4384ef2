"""Randomized dependent rounding of a fractional point with integral sum.

Repeatedly pair the first two fractional coordinates (ascending id) and move
probability mass between them so that at least one lands on 0 or 1. Each move
keeps the coordinate sum exactly fixed and each coordinate's expectation
unchanged, so the final set has exactly sum(y) elements and contains u with
probability y_u.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import ContractError, FractionalPoint, SNAP_EPS


def dep_round(
    y: FractionalPoint | Iterable[float], rng: np.random.Generator
) -> tuple[int, ...]:
    """Round y (sum within 1e-9 of an integer) to a set of that exact size.

    Returns the selected ids as an ascending tuple. Takes exactly n uniform
    draws from ``rng`` (one ``rng.random(n)`` call) and uses at most n - 1.
    """
    point, target = _checked_point(y)
    vals = point.coords.tolist()
    n = len(vals)
    draws = rng.random(n)
    used = 0
    i = 0
    while i < n and vals[i] in (0.0, 1.0):
        i += 1
    while i < n:
        j = i + 1
        while j < n and vals[j] in (0.0, 1.0):
            j += 1
        if j == n:
            raise ContractError("single fractional coordinate left; sum drifted")
        yi, yj = vals[i], vals[j]
        a = min(1.0 - yi, yj)
        b = min(yi, 1.0 - yj)
        if not (a > 0.0 and b > 0.0):
            raise ContractError("pairing picked an integral coordinate")
        if draws[used] * (a + b) < b:
            yi += a
            yj -= a
        else:
            yi -= b
            yj += b
        used += 1
        vals[i] = _snap(yi)
        vals[j] = _snap(yj)
        if vals[i] in (0.0, 1.0):
            i = j if vals[j] not in (0.0, 1.0) else j + 1
            while i < n and vals[i] in (0.0, 1.0):
                i += 1
        # else: i stays fractional and pairs with the next fractional index

    selected = tuple(u for u, v in enumerate(vals) if v == 1.0)
    if len(selected) != target:
        raise ContractError(f"rounded to {len(selected)} elements, expected {target}")
    return selected


def dep_round_many(
    y: FractionalPoint | Iterable[float], draws: np.ndarray
) -> np.ndarray:
    """``dep_round`` of the same point once per row of ``draws``, in lock-step.

    Row i of the returned (rows, n) boolean matrix is the set that
    ``dep_round(y, rng)`` selects when ``rng.random(n)`` returns
    ``draws[i]``. Every row makes the same float operations, snaps and
    checks as the scalar routine and raises the same ``ContractError``s.
    """
    point, target = _checked_point(y)
    n = point.n
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != n:
        raise ContractError(f"draws have shape {draws.shape}, expected (rows, {n})")
    vals = np.repeat(point.coords[None, :], draws.shape[0], axis=0)
    # a row's first fractional coordinate is dep_round's i and its second is
    # j: every pairing leaves the coordinates before its j integral. Each
    # pairing takes one draw, so a live row makes its step-th pairing with
    # draw number step
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


def _checked_point(y: FractionalPoint | Iterable[float]) -> tuple[FractionalPoint, int]:
    """The point (near-integral coords snapped, the box checked) and its
    integral coordinate sum."""
    point = FractionalPoint.coerce(y)
    total = sum(point.coords.tolist())
    target = round(total)
    if abs(total - target) > 1e-9:
        raise ContractError(f"coordinate sum {total!r} is not within 1e-9 of an integer")
    return point, target


def _snap_many(v: np.ndarray) -> np.ndarray:
    """``_snap`` elementwise."""
    return np.where(np.abs(v) <= SNAP_EPS, 0.0, np.where(np.abs(v - 1.0) <= SNAP_EPS, 1.0, v))


def _snap(v: float) -> float:
    if abs(v) <= SNAP_EPS:
        return 0.0
    if abs(v - 1.0) <= SNAP_EPS:
        return 1.0
    return v
