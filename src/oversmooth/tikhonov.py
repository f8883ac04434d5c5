"""Sup-norm Tikhonov functional with a strong-norm penalty, minimized with a certificate.

The functional is

    T(u) = ||F(u) - f_delta||^r + alpha ||u - u_bar||_1^r,

where the strong norm of u - u_bar is the sup norm of its witness v with
u = u_bar + G v.  Minimization runs over the witness: both max terms are
replaced by a log-sum-exp surrogate with annealed temperature, each stage
solved by L-BFGS, and the true nonsmooth T is evaluated at every candidate.
The forward map exp(G u_bar + G G v) and T are each computed in one place,
``_forward`` and ``_evaluate``, shared by the solver, its certificate and ``objective``.
scipy's optimizer is imported on the first solve, not with this module, so a
process that only runs the operator tools never loads ``scipy.optimize``.
Each descent runs scipy's L-BFGS-B routine ``setulb`` from the short loop
``_lbfgsb``, which takes the same iterates as scipy's "L-BFGS-B" driver without
that driver's Python wrapper; where ``setulb`` has another signature, descents
fall back to the driver.

Every returned minimizer carries a certificate: its true objective does not
exceed T at the auxiliary element u_aux(beta) with beta = alpha^kappa,
kappa = 1/(r(1+a)).  That single inequality is exactly what the error
estimates behind the rate theory require of a minimizer, so certified
approximate minimizers inherit the theory; the descent starts at the
auxiliary witness and keeps it as a candidate, which makes certification
achievable by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from .grids import GridFunction
from .lavrentiev import RegularizerFamily, auxiliary_element
from .scale import DEFAULT_QUADRATURE, QuadratureConfig

if TYPE_CHECKING:
    from .exp_volterra import ExpVolterraProblem

__all__ = [
    "TikhonovProblem",
    "coupling_exponent",
    "objective",
    "SmoothedObjective",
    "ParamChoice",
    "choose_alpha",
    "MinimizeResult",
    "UncertifiedResultError",
    "minimize",
]

#: Relative slack separating solver noise from a genuine certificate failure.
CERTIFICATE_RTOL = 1e-9

#: Annealing schedule: temperatures relative to the current max of each term.
ANNEAL_TEMPS = (1e-1, 1e-2, 1e-3)

#: scipy's ``minimize``, through which every descent runs; bound by ``_load_lbfgs`` on first use.
_lbfgs = None


def _load_lbfgs() -> None:
    """Import scipy's optimizer and bind it to ``_lbfgs``, unless something is bound there already.

    The import costs about 0.3 s and 20 MB, so a process that never solves
    never pays it.  A function put on ``_lbfgs`` before the first solve, such
    as a tracing wrapper, stays in place and receives every descent.
    """
    global _lbfgs
    if _lbfgs is None:
        from scipy.optimize import minimize

        _lbfgs = minimize


#: First line of ``setulb.__doc__`` in scipy's C port of L-BFGS-B (scipy 1.17), the call ``_lbfgsb`` makes.
_SETULB_SIGNATURE = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"

#: scipy's cap on objective evaluations in an L-BFGS-B descent (its ``maxfun`` default).
_MAXFUN = 15000


@cache
def _setulb():
    """scipy's ``setulb`` if its signature is ``_SETULB_SIGNATURE``, else None.

    Older scipy (the Fortran wrapper) and any later change of the routine's
    arguments give None, and descents then run scipy's own "L-BFGS-B" driver.
    """
    try:
        from scipy.optimize._lbfgsb import setulb
    except ImportError:
        return None
    return setulb if (setulb.__doc__ or "").split("\n", 1)[0] == _SETULB_SIGNATURE else None


def _lbfgsb(fun, x0, args, jac, hess, hessp, bounds, constraints, callback, maxiter, ftol, gtol, maxcor):
    """Unbounded L-BFGS-B from ``x0``: scipy 1.17's ``_minimize_lbfgsb`` loop around ``setulb``.

    A custom ``method`` for scipy's ``minimize``, which passes ``args``
    through ``callback``; descents leave them unset, and an option other
    than the four named raises a TypeError.  ``fun(x)`` returns
    ``(f, grad)`` and must not write into ``x``.  The calls and arguments are scipy's, so ``x``, ``fun``,
    ``nit`` and ``nfev`` equal those of ``minimize(fun, x0, jac=True,
    method="L-BFGS-B")`` bit for bit.  As in scipy's ``ScalarFunction``,
    ``fun`` runs at ``x0`` and then whenever ``setulb`` asks for f and g at
    an ``x`` unequal to the last one evaluated; an equal ``x`` reuses that
    pair.  ``setulb`` writes into the gradient it is passed on some calls,
    so the cached one is kept apart.  The status is 0 on convergence, 1 at
    ``maxiter`` iterations or past ``_MAXFUN`` evaluations, and 2 when
    ``setulb`` gives up, as on an abnormal line search.
    """
    from scipy.optimize import OptimizeResult

    setulb = _setulb()
    x = np.array(x0, dtype=np.float64)
    n, m = x.size, maxcor
    seen = x.copy()
    f_seen, g_seen = fun(seen)
    nfev, nit = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    lower, upper, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    while True:
        # maxls = 20, scipy's default line-search cap
        setulb(m, x, lower, upper, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if not (x == seen).all():
                seen = x.copy()
                f_seen, g_seen = fun(seen)
                nfev += 1
            f = f_seen
            g[:] = g_seen
        elif task[0] == 1:  # a new iteration
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # stop: iteration cap
            elif nfev > _MAXFUN:
                task[:] = 5, 502  # stop: evaluation cap
        else:
            break
    if task[0] == 4:  # converged
        status = 0
    elif nfev > _MAXFUN or nit >= maxiter:
        status = 1
    else:
        status = 2
    return OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev, status=status)


def coupling_exponent(r: float, a: float) -> float:
    """The exponent kappa = 1/(r(1+a)) linking alpha to the smoothing scale beta."""
    if r <= 0.0 or a <= 0.0:
        raise ValueError("exponents r and a must be positive")
    return 1.0 / (r * (1.0 + a))


@dataclass(frozen=True)
class TikhonovProblem:
    """One instance: forward problem, noisy data, initial guess, exponents, alpha."""

    forward_problem: "ExpVolterraProblem"
    f_delta: GridFunction
    delta: float
    u_bar_witness: GridFunction
    alpha: float
    r: float = 1.0
    a: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.r <= 0.0 or self.a <= 0.0:
            raise ValueError("exponents r and a must be positive")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")

    @cached_property
    def u_bar(self) -> GridFunction:
        return self.forward_problem.op.apply(self.u_bar_witness)

    @cached_property
    def g_bar(self) -> np.ndarray:
        """G u_bar (read-only), the fixed part of the forward map's exponent on the slice."""
        return self.forward_problem.op.apply(self.u_bar).values


def objective(prob: TikhonovProblem, u: GridFunction, v_witness: GridFunction) -> float:
    """Evaluate T at a point of the search slice u = u_bar + G v.

    The pair must be consistent: u is recomputed from the witness and compared.
    T comes from the witness through the solver's evaluator, so it matches exactly.
    """
    op = prob.forward_problem.op
    u_from_v = prob.u_bar.values + op._apply_values(v_witness.values)
    scale = 1.0 + np.max(np.abs(u.values))
    if np.max(np.abs(u.values - u_from_v)) > 1e-8 * scale:
        raise ValueError("u is not u_bar + G v for the supplied witness")
    value = _evaluate(prob, v_witness.values)[0]
    if not np.isfinite(value):
        raise OverflowError("forward map overflowed for an extreme input")
    return value


@dataclass(frozen=True)
class ParamChoice:
    """A priori regularization-parameter rule.

    regime "hoelder" with order p uses alpha = C delta^(r(1+a)/(p+a)); regime
    "low_order" uses alpha = C delta; regime "none" uses alpha = C delta^r,
    which satisfies both limit conditions alpha -> 0 and
    delta / alpha^(kappa a) = delta^(1/(1+a)) -> 0.
    """

    regime: str
    p: float | None = None
    C: float = 1.0

    def __post_init__(self) -> None:
        if self.regime not in ("none", "hoelder", "low_order"):
            raise ValueError(f"unknown parameter-choice regime: {self.regime!r}")
        if self.C <= 0.0:
            raise ValueError("the rule constant C must be positive")


def choose_alpha(pc: ParamChoice, delta: float, r: float, a: float) -> float:
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if r <= 0.0 or a <= 0.0:
        raise ValueError("exponents r and a must be positive")
    if pc.regime == "hoelder":
        if pc.p is None or not 0.0 < pc.p <= 1.0:
            raise ValueError("hoelder rule needs an order p in (0, 1]")
        return pc.C * delta ** (r * (1.0 + a) / (pc.p + a))
    if pc.regime == "low_order":
        return pc.C * delta
    return pc.C * delta**r


@dataclass(frozen=True)
class MinimizeResult:
    """A certified approximate minimizer and its bookkeeping."""

    u_min: GridFunction
    v_min: GridFunction
    objective: float
    residual: float
    penalty: float
    certificate_bound: float
    certified: bool


class UncertifiedResultError(RuntimeError):
    """The minimizer missed the certificate; carries the best point found."""

    def __init__(self, message: str, result: MinimizeResult):
        super().__init__(message)
        self.result = result

    def __reduce__(self):
        return type(self), (self.args[0], self.result)


def _soft_abs_max(z: np.ndarray, temp: float) -> tuple[float, np.ndarray]:
    """Smooth max of |z| by log-sum-exp over +-z; returns value and d/dz weights."""
    m = float(np.abs(z).max())
    ep = z - m
    ep /= temp
    np.exp(ep, out=ep)
    en = -z
    en -= m
    en /= temp
    np.exp(en, out=en)
    total = float(ep.sum() + en.sum())
    value = m + temp * np.log(total)
    ep -= en
    ep /= total
    return value, ep


def _forward(prob: TikhonovProblem, v: np.ndarray) -> np.ndarray:
    """F(u_bar + G v) = exp(g_bar + G G v) as values; entries that overflow are inf."""
    op = prob.forward_problem.op
    with np.errstate(over="ignore"):
        x = op._apply_values(op._apply_values(v))
        x += prob.g_bar
        return np.exp(x, out=x)


def _evaluate(prob: TikhonovProblem, v: np.ndarray) -> tuple[float, float, float]:
    """The true T at witness v, with its residual and penalty sup norms (T = inf on overflow)."""
    penalty = float(np.max(np.abs(v)))
    f = _forward(prob, v)
    if not math.isfinite(f.max()):
        return np.inf, np.inf, penalty
    residual = float(np.max(np.abs(f - prob.f_delta.values)))
    return residual**prob.r + prob.alpha * penalty**prob.r, residual, penalty


class SmoothedObjective:
    """Fixed-temperature smooth surrogate of T over the witness variable."""

    def __init__(self, prob: TikhonovProblem, temps: tuple[float, float]):
        self.prob = prob
        self.temp_res, self.temp_pen = temps

    def value_and_grad(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        prob, op = self.prob, self.prob.forward_problem.op
        f = _forward(prob, v)
        # f = exp(...) is >= 0, so its max is finite exactly when every entry is.
        if not math.isfinite(f.max()):
            return np.inf, np.zeros_like(v)
        s_res, w_res = _soft_abs_max(f - prob.f_delta.values, self.temp_res)
        s_pen, w_pen = _soft_abs_max(v, self.temp_pen)
        r = prob.r
        value = s_res**r + prob.alpha * s_pen**r
        w_res *= f
        grad = op._apply_adjoint_values(op._apply_adjoint_values(w_res))
        grad *= r * s_res ** (r - 1.0)
        w_pen *= prob.alpha * r * s_pen ** (r - 1.0)
        grad += w_pen
        return value, grad


def minimize(
    prob: TikhonovProblem,
    fam: RegularizerFamily,
    u_true_for_certificate: GridFunction,
    seed: int = 0,
    max_iter: int = 300,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MinimizeResult:
    """Certified approximate minimization of T over the witness slice.

    The descent is anchored at the auxiliary-element witness for
    beta = alpha^kappa, the comparison point the error analysis is built on.
    One annealing sweep runs from it: each stage descends the surrogate by
    L-BFGS from the previous candidate, at temperatures relative to that
    candidate's residual and penalty.  Every candidate (the anchor and each
    stage's iterate) is scored once by ``_evaluate``, the same evaluator
    behind ``objective``; the anchor's score is the certificate bound, and
    the result is the argmin of the scores, so its objective never exceeds
    the bound.  The solve is deterministic: ``seed`` is accepted for call
    compatibility and unused.  Each descent calls scipy's ``minimize``
    through the module attribute ``_lbfgs``, which the first solve binds
    (``_load_lbfgs``) unless a function was put there before it.  It passes
    ``method=_lbfgsb``, the in-module loop around scipy's ``setulb``, or,
    where ``_setulb`` finds another signature, ``jac=True,
    method="L-BFGS-B"``; both take the same iterates.
    """
    kap = coupling_exponent(prob.r, prob.a)
    beta = prob.alpha**kap
    aux = auxiliary_element(fam, beta, u_true_for_certificate, prob.u_bar_witness, prob.a, cfg)

    _load_lbfgs()
    driver = {"method": _lbfgsb} if _setulb() else {"jac": True, "method": "L-BFGS-B"}
    anchor = np.array(aux.witness.values)
    scored = [(_evaluate(prob, anchor), anchor)]
    for rel in ANNEAL_TEMPS:
        (_, residual, penalty), v = scored[-1]
        floor = 1e-12
        temps = (rel * max(residual, floor), rel * max(penalty, floor, 1e-3 * residual))
        sol = _lbfgs(
            SmoothedObjective(prob, temps).value_and_grad,
            v,
            **driver,
            options={"maxiter": max_iter, "ftol": 1e-16, "gtol": 1e-12, "maxcor": 20},
        )
        scored.append((_evaluate(prob, sol.x), sol.x))
    bound = scored[0][0][0]
    (obj, residual, penalty), best_v = min(scored, key=lambda sv: sv[0][0])
    certified = obj <= bound * (1.0 + CERTIFICATE_RTOL)
    result = MinimizeResult(
        u_min=GridFunction(prob.u_bar.values + prob.forward_problem.op._apply_values(best_v)),
        v_min=GridFunction(best_v),
        objective=obj,
        residual=residual,
        penalty=penalty,
        certificate_bound=bound,
        certified=certified,
    )
    if not certified:
        raise UncertifiedResultError(
            f"objective {obj} exceeds the certificate bound {bound}", result
        )
    return result
