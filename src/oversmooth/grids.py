"""Real-valued functions sampled on the uniform grid of [0, 1], and the CSV format of the report tables."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["GridFunction"]


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A function known at the nodes x_i = i/(n-1), i = 0..n-1, with sup-norm semantics.

    Values are stored read-only; arithmetic returns new instances, so grid
    functions can be shared freely across threads.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("grid function values must be one-dimensional")
        if vals.size < 2:
            raise ValueError("a grid function needs at least two sample points")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        """Mesh width 1/(n-1)."""
        return 1.0 / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    # -- arithmetic -----------------------------------------------------

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.n != other.n:
            raise ValueError(f"grid size mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.values - other.values)

    def __neg__(self) -> "GridFunction":
        return GridFunction(-self.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.values * float(c))

    __rmul__ = __mul__

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "GridFunction":
        return cls(np.zeros(n))

    @classmethod
    def ones(cls, n: int) -> "GridFunction":
        return cls(np.ones(n))


def csv_table(header: str, rows: Iterable[Iterable[object]]) -> str:
    """The frozen report format: the header line, then one comma-separated line per row.

    Floats (numpy.float64 included) print at 17 significant digits, which reads
    back bit for bit; bools (numpy.bool_ included) print as 0/1; ints and
    strings print as they are.
    """

    def cell(v: object) -> str:
        if isinstance(v, (bool, np.bool_)):
            return str(int(v))
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    lines = [header] + [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _integer(name: str, value: object, least: int | None = None) -> int:
    """``value`` as a Python int (numpy integers included) of at least ``least``; an error names ``name``."""
    try:
        n = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and n < least:
        raise ValueError(f"{name} must be {f'at least {least}' if least else 'non-negative'}")
    return n
