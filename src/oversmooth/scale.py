"""The Volterra generator on the grid and its operator calculus.

The running-integral operator u -> int_0^x u, discretized with composite
trapezoid weights, is lower triangular with diagonal h/2 (first row zero), so
shifted systems (G + beta I) v = f solve in O(n) by forward substitution;
differenced, that substitution is one unit lower-bidiagonal system, which
LAPACK's banded triangular solve (``dtbtrs``) takes for a whole block at once.
That routine is called from scipy's ``linalg._flapack`` extension
(``_flapack``), loaded on the first solve by ``_scipy_extension``, the
package's one way into scipy's extensions (``tikhonov`` takes L-BFGS-B's
``setulb`` through it too): it loads the file alone, so no scipy Python
package is imported, and imports ``scipy.<module>`` only where the file
cannot be loaded alone.  The OpenBLAS that file links is the one whose thread
setter the harness's worker pool finds through it.  On the grid the operator
is of positive type with constant kappa_* = 2, i.e. ||(G + beta I)^-1|| <=
2/beta in the sup operator norm for every beta > 0.

Fractional powers G^p for 0 < p < 1 are evaluated with the Balakrishnan
integral

    G^p u = (sin pi p / pi) * int_0^inf s^(p-1) (G + s I)^-1 G u ds

after the substitution s = exp(t), truncated so that both neglected tails stay
below 1e-6, and integrated by the composite trapezoid rule at step 0.05 in t
(``QuadratureConfig``, the one quadrature: neither value is a setting);
general p >= 0 composes the fractional part with repeated applications of G.
Because every shifted solve is the same first-order recurrence, the whole
trapezoid sum is one causal convolution kernel per (n, q): it is built in
O(K) memory for K nodes, cached, and applied by FFT.  A
product-integration discretization of the Riemann-Liouville integral, its
two weight convolutions also done by numpy's FFT, is provided as an
independent cross-check route.

The private value-level primitives (``_apply_values``,
``_apply_adjoint_values``, ``_solve_values`` and ``_balakrishnan``) act along
the last axis: they take one vector, or a (k, n)
block whose rows they map exactly as k separate calls would, bit for bit.
Callers that push many vectors through the same operators, such as the probe
sampling of ``lavrentiev.decay_check``, do so in blocks of ``ROW_BLOCK`` rows.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path
from types import ModuleType
from typing import ClassVar

import numpy as np

from .grids import GridFunction, _integer

__all__ = [
    "GROWTH_BOUND",
    "QuadratureConfig",
    "QuadratureError",
    "ScaleOperator",
    "log_smooth_element",
    "InterpolationReport",
    "interpolation_check",
    "riemann_liouville",
]

#: Engineering bound on the growth rate omega of ||G^q|| <= C exp(omega q);
#: on this operator ||G^q|| <= max(1, 1/Gamma(q+1)) <= 1.14, so 0.5 is safe.
GROWTH_BOUND = 0.5

# Truncation margin: the geometric tail bounds carry resolvent prefactors up to
# kappa_* + 1, so the cut points are pushed out by log(8) to keep each neglected
# tail below tail_tol outright.
_TAIL_MARGIN = math.log(8.0)


class QuadratureError(RuntimeError):
    """Raised when the fractional-power quadrature produces non-finite values (an input near overflow)."""


@dataclass(frozen=True)
class QuadratureConfig:
    """The log-substituted Balakrishnan quadrature: the one every fractional power runs at.

    It has no settings, so ``QuadratureConfig()`` takes no arguments.
    ``step`` is the node spacing in t = log s; the truncation bounds are
    derived per order from ``tail_tol``: with q_eff the fractional order
    clamped to [0.1, 0.9],

        t_min = (log tail_tol - log 8) / q_eff,
        t_max = (-log tail_tol + log 8) / (1 - q_eff),

    which keeps both neglected tails below tail_tol including their resolvent
    prefactors.  The tail guarantee therefore covers fractional orders inside
    the clamp range [0.1, 0.9]; outside it the truncation degrades gracefully.
    ``log_smooth_element`` also takes its q-grid from ``step`` and its
    truncation point from ``tail_tol``.
    """

    step: ClassVar[float] = 0.05
    tail_tol: ClassVar[float] = 1e-6

    @classmethod
    def bounds_for(cls, q: float) -> tuple[float, float]:
        q_eff = min(max(q, 0.1), 0.9)
        t_min = (math.log(cls.tail_tol) - _TAIL_MARGIN) / q_eff
        t_max = (-math.log(cls.tail_tol) + _TAIL_MARGIN) / (1.0 - q_eff)
        return t_min, t_max


#: Rows per block when many vectors go through the operators together (the
#: probes of ``decay_check``, the samples of ``nonlinearity_check``): 8 rows at
#: n=4097 are 256 KB, small enough to stay in cache through a chain of solves.
ROW_BLOCK = 8


def split_order(p: float) -> tuple[int, float]:
    """Split an order p >= 0 into its integer part k and fractional residue q = p - k.

    A residue within 1e-9 of a whole number counts as that number, so p = 2
    is (2, 0.0) and never a quadrature of order 1e-16.
    """
    k = int(math.floor(p + 1e-9))
    q = p - k
    return k, (0.0 if q < 1e-9 else q)


#: The order-q kernels built so far, keyed (n, q), least recently used
#: first.  One suite pass at a single grid size uses about 20 kernels (the
#: log-class q-grid plus the Hoelder orders); each holds n complex values, 64 KB
#: at n=4097.  Every array is read-only because every caller shares it.  A pool
#: worker hands the kernels it built back with its result
#: (``harness._pool_map``), so the caller's next pool inherits them by fork.
_kernels: dict[tuple[int, float], np.ndarray] = {}
_KERNEL_CACHE_SIZE = 64


def _remember_kernels(built: dict[tuple[int, float], np.ndarray]) -> None:
    """Add kernels to the cache, read-only, dropping the least recently used beyond its size."""
    for key, spectrum in built.items():
        spectrum.setflags(write=False)
        _kernels.pop(key, None)
        _kernels[key] = spectrum
    while len(_kernels) > _KERNEL_CACHE_SIZE:
        del _kernels[next(iter(_kernels))]


def _balakrishnan_spectrum(n: int, q: float) -> np.ndarray:
    """The cached kernel of ``_build_spectrum``, built on first use."""
    key = (n, q)
    spectrum = _kernels.get(key)
    if spectrum is None:
        spectrum = _build_spectrum(n, q)
    _remember_kernels({key: spectrum})
    return spectrum


def _build_spectrum(n: int, q: float) -> np.ndarray:
    """Real FFT, at length 2(n-1), of the causal kernel of the order-q quadrature.

    For g = G u (so g_0 = 0) the shifted solve of ``ScaleOperator.solve_shifted``
    unrolls to ((G + s I)^-1 g)_i = sum_{j=1..i} rho^(i-j) (g_j - g_{j-1}) / d
    with d = s + h/2 and rho = (s - h/2) / d.  The trapezoid node sum
    C sum_k w_k (G + s_k I)^-1 g is therefore the causal convolution of
    diff(g) with kappa(m) = sum_k (C w_k / d_k) rho_k^m, which one length-K
    recurrence builds; at length 2(n-1) the FFT convolution cannot wrap.
    Every kernel is finite: exp(t) stays within 1e-69 .. 1e69 at the fixed
    tail tolerance, and |rho| < 1.
    """
    t_min, t_max = QuadratureConfig.bounds_for(q)
    m = int(math.ceil((t_max - t_min) / QuadratureConfig.step))
    t = np.linspace(t_min, t_max, m + 1)
    h2 = 0.5 / (n - 1)
    s = np.exp(t)
    d = s + h2
    rho = (s - h2) / d
    w = np.exp(q * t)
    w[0] *= 0.5
    w[-1] *= 0.5
    r = (math.sin(math.pi * q) / math.pi) * ((t_max - t_min) / m) * w / d
    kappa = np.empty(n - 1)
    for j in range(n - 1):
        kappa[j] = r.sum()
        r *= rho
    return np.fft.rfft(kappa, 2 * (n - 1))


# -- scipy's extension modules, and LAPACK's banded triangular solve -------------


def _scipy_extension(module: str) -> ModuleType:
    """scipy's extension module ``scipy.<module>``, such as ``"linalg._flapack"``, loaded alone where it can be.

    The file is found through ``find_spec("scipy")``, which imports nothing,
    and loaded by an ``ExtensionFileLoader``, so no ``__init__`` of a scipy
    package runs.  The module is kept out of ``sys.modules``, where the load
    puts it, so a later import of its package loads its own as usual.  A
    missing file or a failed load imports ``scipy.<module>`` instead, with its
    packages; where that fails too, as without scipy, its ImportError is raised.
    """
    name = f"scipy.{module}"
    spec = importlib.util.find_spec("scipy")
    pkgs = (spec and spec.submodule_search_locations) or ()
    *parents, stem = module.split(".")
    files = (Path(pkg, *parents, stem + suffix) for pkg in pkgs for suffix in EXTENSION_SUFFIXES)
    path = next((f for f in files if f.is_file()), None)
    if path is not None:
        loaded = sys.modules.get(name)
        loader = ExtensionFileLoader(name, str(path))
        try:
            extension = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(extension)
            return extension
        except ImportError:
            pass
        finally:
            if loaded is None:
                sys.modules.pop(name, None)
    return importlib.import_module(name)


@functools.cache
def _flapack() -> ModuleType:
    """scipy's ``linalg._flapack`` extension (``_scipy_extension``).

    Its ``dtbtrs`` runs every shifted solve, and the pool's one OpenBLAS thread-count
    setter (``harness._bundled_blas_setter``) is looked up through its file.
    """
    return _scipy_extension("linalg._flapack")


def _banded_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LAPACK's ``dtbtrs`` from ``_flapack()`` with uplo="U", trans="T", diag="U", kd=1.

    ``band`` is the (2, m) upper band and ``rhs`` the (k, m) or (m,) array of
    right-hand sides; a C-ordered float64 ``rhs`` is the Fortran-ordered
    (m, k) array LAPACK takes, and is solved in place and returned.
    """
    # f2py does not compare the two lengths: a short band solves without an error, wrongly.
    if band.shape[-1] != rhs.shape[-1]:
        raise ValueError(f"dtbtrs band has {band.shape[-1]} columns for right-hand sides of length {rhs.shape[-1]}")
    if rhs.size == 0:  # the wrapper writes outside an empty (m, 0) array for m > 1
        return rhs
    x, info = _flapack().dtbtrs(band, rhs.T, uplo="U", trans="T", diag="U", overwrite_b=True)
    if info != 0:
        raise RuntimeError(f"LAPACK dtbtrs returned info={info}")
    return x.T


@dataclass(frozen=True)
class ScaleOperator:
    """The discretized running-integral generator on an n-point grid."""

    n: int
    #: Positive-type constant of the running-integral operator (known, not estimated).
    kappa_star: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer("n", self.n))
        if self.n < 2:
            raise ValueError("need at least two grid points")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    def _check_size(self, u: GridFunction) -> None:
        if u.n != self.n:
            raise ValueError(f"grid size mismatch: operator has n={self.n}, input has n={u.n}")

    # -- forward action ----------------------------------------------------

    def _apply_values(self, u: np.ndarray) -> np.ndarray:
        # h * (cumsum(u) - (u + u_0) / 2) along the last axis, so each row of a
        # (k, n) block maps on its own.  The cumsum method (no dispatch wrapper)
        # and the in-place steps keep one vector faster than that plain formula.
        out = u.cumsum(-1)
        out -= 0.5 * (u + u[..., :1])
        out *= self.h
        out[..., 0] = 0.0
        return out

    def apply(self, u: GridFunction) -> GridFunction:
        """Composite-trapezoid running integral; the result vanishes at x = 0."""
        self._check_size(u)
        return GridFunction(self._apply_values(u.values))

    def _apply_adjoint_values(self, w: np.ndarray) -> np.ndarray:
        # Column sums of the trapezoid matrix: column 0 carries weight h/2 on
        # every row >= 1, interior columns weight h below the diagonal and h/2
        # on it.  Along the last axis, as in _apply_values: w.T has the grid on
        # its first axis for one vector and a (k, n) block alike.  The cumsum
        # method and the in-place step match the out-of-place formula bit for
        # bit, faster.
        w = w.T
        tail = w[::-1].cumsum(0)[::-1]
        out = self.h * tail
        out -= 0.5 * self.h * w
        out[0] = 0.5 * self.h * (tail[0] - w[0])
        return out.T

    def dense(self) -> np.ndarray:
        """The explicit lower-triangular matrix (test and diagnostics helper)."""
        m = np.tril(np.full((self.n, self.n), self.h))
        np.fill_diagonal(m, 0.5 * self.h)
        m[:, 0] = 0.5 * self.h
        m[0, :] = 0.0
        return m

    # -- shifted solves ----------------------------------------------------

    def solve_shifted(self, beta: float, f: GridFunction) -> GridFunction:
        """Solve (G + beta I) v = f exactly in the discretization.

        Row 0 decouples (v_0 = f_0/beta); differencing consecutive rows turns
        forward substitution into the stable first-order recurrence

            v_{i+1} = rho v_i + (f_{i+1} - f_i)/(beta + h/2),
            rho = (beta - h/2)/(beta + h/2),   |rho| < 1.
        """
        if not 0.0 < beta < math.inf:
            raise ValueError(f"shift beta must be positive and finite, got {beta:g}")
        self._check_size(f)
        return GridFunction(self._solve_values(beta, f.values))

    def _solve_values(self, beta: float, f: np.ndarray) -> np.ndarray:
        """``solve_shifted`` along the last axis: one LAPACK banded solve (``dtbtrs``) for all rows.

        The recurrence for v_1..v_{n-1} is a unit lower-bidiagonal system, -rho
        below the diagonal, with one right-hand side per row.  It goes in as the
        transpose (trans="T") of its upper band, which rounds each step as the
        recurrence does (the lower form's update kernel may fuse the multiply
        and add).  With diag="U" LAPACK never reads the diagonal row and cannot
        report a singular system.  The C-ordered (k, n-1) right-hand side is
        the Fortran-ordered array LAPACK takes: no copy, solved in place.
        ``_banded_solve`` calls the routine from scipy's ``_flapack`` extension.
        """
        h2 = 0.5 * self.h
        d = beta + h2
        band = np.empty((self.n - 1, 2)).T
        band[0] = -(beta - h2) / d
        out = np.empty_like(f)
        first = f[..., 0] / beta
        out[..., 0] = first
        rhs = np.subtract(f[..., 1:], f[..., :-1], dtype=float, order="C")
        rhs[..., 0] = f[..., 1] - h2 * first
        rhs /= d
        out[..., 1:] = _banded_solve(band, rhs)
        return out

    # -- fractional powers ---------------------------------------------------

    def power(self, p: float, u: GridFunction) -> GridFunction:
        """Fractional power G^p u for p >= 0.

        Integer parts are applied exactly; a fractional remainder q in (0, 1)
        is evaluated with the truncated log-substituted Balakrishnan integral
        at the one quadrature, ``QuadratureConfig``.
        """
        if not 0.0 <= p < math.inf:
            raise ValueError(f"fractional order must be nonnegative and finite, got {p:g}")
        self._check_size(u)
        k, q = split_order(p)
        vals = u.values
        for _ in range(k):
            vals = self._apply_values(vals)
        if q > 0.0:
            vals = self._balakrishnan(q, vals)
        return GridFunction(np.array(vals))

    def _balakrishnan(self, q: float, vals: np.ndarray) -> np.ndarray:
        spectrum = _balakrishnan_spectrum(self.n, q)
        size = 2 * (self.n - 1)
        out = np.zeros_like(vals)
        with np.errstate(over="ignore", invalid="ignore"):
            dg = np.diff(self._apply_values(vals), axis=-1)
            out[..., 1:] = np.fft.irfft(np.fft.rfft(dg, size) * spectrum, size)[..., : self.n - 1]
        if not np.all(np.isfinite(out)):
            raise QuadratureError(f"fractional power quadrature failed for q={q}")
        return out

    def range_part(self, u: GridFunction) -> GridFunction:
        """Project u onto the discrete range {v : v(0) = 0} by zeroing node 0.

        The trapezoid matrix has the alternating vector (1, -1, 1, ...) as its
        nullspace and u(0) times that vector as the spectral nullspace
        component, so any u with u(0) = 0 is free of nullspace content; zeroing
        the first node is the local projection with that property.
        """
        self._check_size(u)
        vals = np.array(u.values)
        vals[0] = 0.0
        return GridFunction(vals)


# -- scale elements ----------------------------------------------------------


def log_smooth_element(op: ScaleOperator, w: GridFunction, lam: float = 2.0) -> GridFunction:
    """Element of the logarithmic smoothness class built from w.

    Evaluates the truncated exponentially weighted power integral

        u = int_0^Q exp(-lam q) G^q w~ dq,  w~ = range part of w,

    by the trapezoid rule in q on the grid q = j * dq, dq = 0.05 (the
    quadrature's ``step``, whose reciprocal 20 is the nodes per unit of q).
    The requirement lam > omega (the semigroup growth bound) makes the
    neglected tail geometric; Q is chosen so it stays below the quadrature
    tail tolerance 1e-6.  The result lies in the domain of log G by
    construction.
    """
    if not GROWTH_BOUND < lam < math.inf:
        raise ValueError(f"lam must exceed the growth bound {GROWTH_BOUND} and be finite, got {lam:g}")
    op._check_size(w)
    dq = QuadratureConfig.step
    per_unit = round(1.0 / dq)
    q_max = -math.log(QuadratureConfig.tail_tol) / (lam - GROWTH_BOUND)
    m = int(math.ceil(q_max / dq))
    wt = op.range_part(w).values
    weights = np.full(m + 1, dq)
    weights[0] *= 0.5
    weights[-1] *= 0.5

    # Group nodes q = j*dq by fractional residue so each Balakrishnan
    # evaluation is reused across all integer translates.
    acc = np.zeros(op.n)
    for j0 in range(min(per_unit, m + 1)):
        vals = wt if j0 == 0 else op._balakrishnan(j0 * dq, wt)
        for j in range(j0, m + 1, per_unit):
            if j > j0:
                vals = op._apply_values(vals)
            acc += weights[j] * math.exp(-lam * j * dq) * vals
    return GridFunction(acc)


# -- interpolation inequality -------------------------------------------------


@dataclass(frozen=True)
class InterpolationReport:
    p: float
    q: float
    lhs: float
    rhs: float
    constant: float
    holds: bool


def interpolation_check(op: ScaleOperator, p: float, q: float, u: GridFunction) -> InterpolationReport:
    """Check ||G^p u|| <= c ||G^q u||^(p/q) ||u||^(1-p/q) with c = 2(kappa_*+1).

    The moment inequality for fractional powers of a positive-type operator;
    ``holds`` allows a slack of four quadrature tail tolerances, 4e-6 times
    max(1, ||u||).
    """
    if not 0.0 < p < q <= 1.0:
        raise ValueError("orders must satisfy 0 < p < q <= 1")
    lhs = op.power(p, u).sup_norm()
    c = 2.0 * (op.kappa_star + 1.0)
    rhs = c * op.power(q, u).sup_norm() ** (p / q) * u.sup_norm() ** (1.0 - p / q)
    tol = 4.0 * QuadratureConfig.tail_tol * max(1.0, u.sup_norm())
    return InterpolationReport(p=p, q=q, lhs=lhs, rhs=rhs, constant=c, holds=lhs <= rhs + tol)


# -- independent fractional-integral route ------------------------------------


def riemann_liouville(p: float, u: GridFunction) -> GridFunction:
    """Fractional running integral by product integration of the singular kernel.

    Evaluates (1/Gamma(p)) int_0^x (x - xi)^(p-1) u(xi) dxi with u replaced by
    its piecewise-linear interpolant, integrating the kernel exactly on every
    subinterval.  Independent of the resolvent-based route, which it serves to
    cross-check; exact for constant and linear u.  The two weight convolutions
    run by numpy's real FFT at a power-of-two length >= 2n - 1, in O(n log n):
    at that length they cannot wrap, and an odd length such as 2n - 1 would
    take numpy's much slower path.
    """
    if not 0.0 < p < math.inf:
        raise ValueError(f"fractional order must be positive and finite, got {p:g}")
    n = u.n
    h = u.h
    k = np.arange(n, dtype=float)
    kp = k**p
    kp1 = k ** (p + 1.0)
    i0 = (kp[1:] - kp[:-1]) / p
    i1 = (kp1[1:] - kp1[:-1]) / (p + 1.0)
    a = i1 - (k[1:] - 1.0) * i0  # weight on the left node of each subinterval
    b = k[1:] * i0 - i1  # weight on the right node
    vals = u.values
    size = 1 << (2 * n - 2).bit_length()  # the least power of two >= 2n - 1
    fft = functools.partial(np.fft.rfft, n=size)
    # Both weight sequences start with a zero, so entry 0 of the right-node
    # convolution is 0 and its entry i pairs b with u_1..u_i: one inverse
    # transform returns the sum of both.
    left = fft(np.concatenate([[0.0], a])) * fft(vals)
    right = fft(np.concatenate([[0.0], b])) * fft(vals[1:])
    out = np.fft.irfft(left + right, size)[:n]
    out *= h**p / math.gamma(p)
    out[0] = 0.0
    return GridFunction(out)
