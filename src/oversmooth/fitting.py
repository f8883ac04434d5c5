"""Least-squares slope fitting on log-log data."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["SlopeFit", "fit_slope", "NOISE_FLOOR"]

#: Values at or below this are treated as numerical noise and excluded from fits.
NOISE_FLOOR = 10.0 * np.finfo(float).eps


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def fit_slope(points: Sequence[tuple[float, float]]) -> SlopeFit:
    """Ordinary least squares of log(y) against log(x).

    Requires at least three strictly positive (x, y) pairs, with at least two distinct x values.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("slope fitting needs at least three points")
    if any(x <= 0.0 or y <= 0.0 for x, y in pts):
        raise ValueError("slope fitting needs strictly positive points")
    lx = np.log([x for x, _ in pts])
    if (lx == lx[0]).all():
        raise ValueError("slope fitting needs at least two distinct x values")
    ly = np.log([y for _, y in pts])
    lx_c = lx - lx.mean()
    slope = float(np.dot(lx_c, ly - ly.mean()) / np.dot(lx_c, lx_c))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    total = np.dot(ly - ly.mean(), ly - ly.mean())
    r_squared = 1.0 if total == 0.0 else float(1.0 - np.dot(resid, resid) / total)
    return SlopeFit(slope=slope, intercept=intercept, r_squared=r_squared)
