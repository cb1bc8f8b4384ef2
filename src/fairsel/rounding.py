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

    Returns the selected ids as an ascending tuple. Consumes at most n
    uniform draws from ``rng``.
    """
    point = FractionalPoint.coerce(y)  # snaps near-integral coords, checks the box
    vals = point.coords.tolist()
    n = len(vals)
    total = sum(vals)
    target = round(total)
    if abs(total - target) > 1e-9:
        raise ContractError(f"coordinate sum {total!r} is not within 1e-9 of an integer")

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


def _snap(v: float) -> float:
    if abs(v) <= SNAP_EPS:
        return 0.0
    if abs(v - 1.0) <= SNAP_EPS:
        return 1.0
    return v
