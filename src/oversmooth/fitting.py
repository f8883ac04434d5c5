"""Least-squares slope fitting on log-log data."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["fit_slope", "NOISE_FLOOR"]

#: Values at or below this are treated as numerical noise and excluded from fits.
NOISE_FLOOR = 10.0 * np.finfo(float).eps


def fit_slope(points: Sequence[tuple[float, float]]) -> float:
    """The slope of the ordinary least-squares line of log(y) against log(x).

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
    return float(np.dot(lx_c, ly - ly.mean()) / np.dot(lx_c, lx_c))
