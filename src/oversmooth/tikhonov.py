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
fall back to the driver.  ``minimize_many`` solves several problems on one grid
as rows of one block: each row keeps its own ``setulb`` state, the rows descend
in lockstep, and each step evaluates the surrogate once, along the last axis,
for every row that asks.  No row's floats depend on the others, so each result
is its problem's own ``minimize`` result, and ``minimize`` is the block of one
row, at 1-D witnesses.

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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grids import GridFunction
from .lavrentiev import RegularizerFamily, auxiliary_element
from .scale import DEFAULT_QUADRATURE, QuadratureConfig, ScaleOperator

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
    "minimize_many",
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


def _lbfgsb(fun, x0, args, jac, hess, hessp, bounds, constraints, callback, maxiter, ftol, gtol, maxcor, rows=1):
    """Unbounded L-BFGS-B: scipy 1.17's ``_minimize_lbfgsb`` loop around ``setulb``, for one row or several in lockstep.

    A custom ``method`` for scipy's ``minimize``, which passes ``args``
    through ``callback``; descents leave them unset, and an option other
    than the five named raises a TypeError.  The calls and arguments are
    scipy's, so each row's ``x``, ``fun``, ``nit``, ``nfev`` and status equal
    those of ``minimize(fun, x0, jac=True, method="L-BFGS-B")`` on that row
    alone, bit for bit.  As in scipy's ``ScalarFunction``, a row is evaluated
    at its start and then whenever ``setulb`` asks for f and g at an ``x``
    unequal to the last one evaluated; an equal ``x`` reuses that pair.
    ``setulb`` writes into the gradient it is passed on some calls, so the
    cached one is kept apart.

    With one row, ``fun(x)`` takes the 1-D ``x`` and returns ``(f, grad)``.
    With ``rows`` = k > 1, ``x0`` holds k witnesses of one length n back to
    back (scipy's ``minimize`` takes only a 1-D ``x0``), each row with its own
    ``setulb`` state.  Each step advances every unfinished row until it asks
    for a new evaluation or stops; then ``fun(x, idx)`` evaluates the asking
    rows ``idx`` at their (len(idx), n) block ``x`` in one call and returns
    their f values and gradients.  ``fun`` must not write into ``x``.

    A row's status is 0 on convergence, 1 at ``maxiter`` iterations or past
    ``_MAXFUN`` evaluations, and 2 when ``setulb`` gives up, as on an abnormal
    line search.  The result holds ``x`` and ``fun`` (1-D and a scalar for one
    row, else (k, n) and (k,)); ``row_nit``, ``row_nfev`` and ``row_status``;
    ``nit``, the most iterations of any row; ``nfev``, the calls of ``fun``;
    and ``status``, the largest row status.  For one row the last three are
    scipy's.
    """
    from scipy.optimize import OptimizeResult

    setulb = _setulb()
    x = np.array(x0, dtype=np.float64).reshape(rows, -1)
    (k, n), m = x.shape, maxcor
    seen, f_seen, g_seen = x.copy(), np.zeros(k), np.zeros((k, n))

    def evaluate(asking: list[int]) -> None:
        if rows == 1:
            seen[0] = x[0]
            f_seen[0], g_seen[0] = fun(seen[0])
        else:
            idx = np.array(asking)
            seen[idx] = block = x[idx]
            f_seen[idx], g_seen[idx] = fun(block, idx)

    evaluate(list(range(k)))
    nfev, nit, calls = [1] * k, [0] * k, 1
    f, g = [0.0] * k, np.zeros((k, n))
    lower, upper, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros((k, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    iwa = np.zeros((k, 3 * n), np.int32)
    task, ln_task = np.zeros((k, 2), np.int32), np.zeros((k, 2), np.int32)
    lsave, isave, dsave = np.zeros((k, 4), np.int32), np.zeros((k, 44), np.int32), np.zeros((k, 29))
    factr = ftol / np.finfo(float).eps
    state = list(zip(x, g, seen, wa, iwa, task, lsave, isave, dsave, ln_task))  # row views
    active = list(range(k))
    while active:
        asking = []
        for i in active:
            xi, gi, seen_i, wai, iwai, ti, lsi, isi, dsi, lni = state[i]
            while True:
                # maxls = 20, scipy's default line-search cap
                setulb(m, xi, lower, upper, nbd, f[i], gi, factr, gtol, wai, iwai, ti, lsi, isi, dsi, 20, lni)
                if ti[0] == 3:  # f and g wanted at x
                    if not (xi == seen_i).all():
                        asking.append(i)
                        break
                    f[i] = f_seen[i]
                    gi[:] = g_seen[i]
                elif ti[0] == 1:  # a new iteration
                    nit[i] += 1
                    if nit[i] >= maxiter:
                        ti[:] = 5, 504  # stop: iteration cap
                    elif nfev[i] > _MAXFUN:
                        ti[:] = 5, 502  # stop: evaluation cap
                else:
                    break
        if asking:
            evaluate(asking)
            calls += 1
            for i in asking:
                nfev[i] += 1
                f[i] = f_seen[i]
                g[i] = g_seen[i]
        active = asking
    status = [0 if task[i, 0] == 4 else 1 if nfev[i] > _MAXFUN or nit[i] >= maxiter else 2 for i in range(k)]
    one = rows == 1
    return OptimizeResult(
        x=x[0] if one else x,
        fun=f[0] if one else np.array(f),
        nit=max(nit),
        nfev=calls,
        status=max(status),
        row_nit=nit,
        row_nfev=nfev,
        row_status=status,
    )


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


def _soft_abs_max(z: np.ndarray, temp) -> tuple:
    """Smooth max of |z| along the last axis by log-sum-exp over +-z; returns value and d/dz weights.

    A 1-D z takes a scalar temperature and gives a scalar value; a (k, n)
    block takes and gives (k, 1) columns, each row exactly as on its own.
    """
    block = z.ndim > 1
    m = np.abs(z).max(-1, keepdims=True) if block else float(np.abs(z).max())
    ep = z - m
    ep /= temp
    en = -z
    en -= m
    en /= temp
    # No lane is below -2m/temp.  exp underflows to +0 below -745.14, and
    # numpy's exp takes about 4 times as long to get there from a finite
    # input as from -inf; subnormal results are left to exp.  A block is
    # gated on its largest m/temp, one scalar, as one vector is.
    if (max((m / temp).ravel().tolist()) if block else m / temp) > 372.5:
        np.copyto(ep, -np.inf, where=ep < -746.0)
        np.copyto(en, -np.inf, where=en < -746.0)
    np.exp(ep, out=ep)
    np.exp(en, out=en)
    total = ep.sum(-1, keepdims=True) + en.sum(-1, keepdims=True) if block else float(ep.sum() + en.sum())
    value = m + temp * np.log(total)
    ep -= en
    ep /= total
    return value, ep


def _forward(op: ScaleOperator, g_bar: np.ndarray, v: np.ndarray) -> np.ndarray:
    """F(u_bar + G v) = exp(g_bar + G G v) as values, along the last axis; entries that overflow are inf."""
    with np.errstate(over="ignore"):
        x = op._apply_values(op._apply_values(v))
        x += g_bar
        return np.exp(x, out=x)


def _evaluate(prob: TikhonovProblem, v: np.ndarray) -> tuple[float, float, float]:
    """The true T at witness v, with its residual and penalty sup norms (T = inf on overflow)."""
    penalty = float(np.max(np.abs(v)))
    f = _forward(prob.forward_problem.op, prob.g_bar, v)
    if not math.isfinite(f.max()):
        return np.inf, np.inf, penalty
    residual = float(np.max(np.abs(f - prob.f_delta.values)))
    return residual**prob.r + prob.alpha * penalty**prob.r, residual, penalty


def _chain(s_res, s_pen, alpha, r: float) -> tuple:
    """The surrogate from its two soft maxima, and its derivatives in them: (value, d/ds_res, d/ds_pen).

    Scalars for one problem.  For (k, 1) columns the value comes as (k,) and
    the derivatives as (k, 1); each row is computed from Python floats with
    C's ``pow``, as numpy's scalar power computes one problem's, since an
    array power may round differently.  A Python float power raises where
    numpy's gives inf (a finite s_res near 1e200 at r = 2), so then the
    block's rows are taken as numpy scalars, exactly as one problem's are.
    """
    if not isinstance(s_res, np.ndarray):
        return s_res**r + alpha * s_pen**r, r * s_res ** (r - 1.0), alpha * r * s_pen ** (r - 1.0)
    rows = zip(s_res.ravel().tolist(), s_pen.ravel().tolist(), alpha.ravel().tolist())
    try:
        terms = np.array([_chain(*row, r) for row in rows])
    except ArithmeticError:
        terms = np.array([_chain(*row, r) for row in zip(s_res[:, 0], s_pen[:, 0], alpha[:, 0])])
    return terms[:, 0], terms[:, 1:2], terms[:, 2:3]


class SmoothedObjective:
    """Fixed-temperature smooth surrogate of T over the witness variable, for one problem or a block.

    ``SmoothedObjective(prob, (temp_res, temp_pen))`` evaluates one problem at
    a 1-D witness.  Given a sequence of k problems on one grid with one r,
    and k temperature pairs, it evaluates rows of that block
    at once along the last axis, with f_delta, G u_bar, alpha and the
    temperatures as per-row columns; each row gets exactly the floats of its
    own one-problem call.
    """

    def __init__(self, prob, temps):
        if isinstance(prob, TikhonovProblem):
            self.op, self.r = prob.forward_problem.op, prob.r
            self.f_delta, self.g_bar, self.alpha = prob.f_delta.values, prob.g_bar, prob.alpha
            self.temp_res, self.temp_pen = temps
            return
        probs = tuple(prob)
        self.op, self.r = probs[0].forward_problem.op, probs[0].r
        if any(p.forward_problem.op != self.op or p.r != self.r for p in probs):
            raise ValueError("a block of problems must share the grid and r")
        self.f_delta = np.array([p.f_delta.values for p in probs])
        self.g_bar = np.array([p.g_bar for p in probs])
        self.alpha = np.array([[p.alpha] for p in probs])
        self.temp_res, self.temp_pen = np.array(temps, dtype=float).T[..., np.newaxis]

    def value_and_grad(self, v: np.ndarray, rows: np.ndarray | None = None) -> tuple:
        """The surrogate and its gradient: one problem at a 1-D v, or block rows at a (j, n) v.

        ``rows`` indexes the block's rows that v holds, all of them when None.
        A row whose forward map overflows gets value inf and gradient 0.
        """
        op, r = self.op, self.r
        f_delta, g_bar, alpha, temp_res, temp_pen = (
            (self.f_delta, self.g_bar, self.alpha, self.temp_res, self.temp_pen)
            if rows is None
            else (self.f_delta[rows], self.g_bar[rows], self.alpha[rows], self.temp_res[rows], self.temp_pen[rows])
        )
        f = _forward(op, g_bar, v)
        # f = exp(...) is >= 0, so a row's max is finite exactly when every entry is.
        if v.ndim == 1:
            if not math.isfinite(f.max()):
                return np.inf, np.zeros_like(v)
        elif not (finite := np.isfinite(f.max(axis=-1))).all():
            value, grad = np.full(len(v), np.inf), np.zeros_like(v)
            if finite.any():
                rows = np.arange(len(v)) if rows is None else rows
                value[finite], grad[finite] = self.value_and_grad(v[finite], rows[finite])
            return value, grad
        s_res, w_res = _soft_abs_max(f - f_delta, temp_res)
        s_pen, w_pen = _soft_abs_max(v, temp_pen)
        value, c_res, c_pen = _chain(s_res, s_pen, alpha, r)
        w_res *= f
        grad = op._apply_adjoint_values(op._apply_adjoint_values(w_res))
        grad *= c_res
        w_pen *= c_pen
        grad += w_pen
        return value, grad


def _descend(
    probs: list[TikhonovProblem], starts: list[np.ndarray], temps: list[tuple[float, float]], max_iter: int
) -> list[np.ndarray]:
    """One annealing stage: L-BFGS on each problem's surrogate from its start; the iterates, in order.

    All problems descend in one call of ``_lbfgs`` with ``method=_lbfgsb``,
    in lockstep as rows of one block; one problem is the case of one row,
    at 1-D witnesses.  Where ``_setulb`` finds another signature, each problem
    runs scipy's ``jac=True, method="L-BFGS-B"`` in turn, with the same iterates.
    """
    options = {"maxiter": max_iter, "ftol": 1e-16, "gtol": 1e-12, "maxcor": 20}
    if not _setulb():
        return [
            _lbfgs(SmoothedObjective(prob, t).value_and_grad, v, jac=True, method="L-BFGS-B", options=options).x
            for prob, v, t in zip(probs, starts, temps)
        ]
    if len(probs) == 1:
        surrogate, x0 = SmoothedObjective(probs[0], temps[0]), starts[0]
    else:
        surrogate, x0 = SmoothedObjective(probs, temps), np.concatenate(starts)
        options["rows"] = len(probs)
    return list(_lbfgs(surrogate.value_and_grad, x0, method=_lbfgsb, options=options).x.reshape(len(probs), -1))


def minimize_many(
    probs: Sequence[TikhonovProblem],
    fam: RegularizerFamily,
    u_true_for_certificate: GridFunction,
    max_iter: int = 300,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[MinimizeResult]:
    """``minimize`` for each of the problems, which share the grid and r, in one lockstep block.

    Each annealing stage descends all problems together (``_descend``): one
    evaluation of the surrogate per step serves every problem that asks for
    one.  Each result equals, bit for bit, what ``minimize`` gives for its
    problem alone, and an uncertified one is returned with
    ``certified=False`` instead of raised.
    """
    probs = list(probs)
    _load_lbfgs()
    scored = []
    for prob in probs:
        beta = prob.alpha ** coupling_exponent(prob.r, prob.a)
        aux = auxiliary_element(fam, beta, u_true_for_certificate, prob.u_bar_witness, prob.a, cfg)
        anchor = np.array(aux.witness.values)
        scored.append([(_evaluate(prob, anchor), anchor)])
    floor = 1e-12
    for rel in ANNEAL_TEMPS:
        temps = [
            (rel * max(residual, floor), rel * max(penalty, floor, 1e-3 * residual))
            for (_, residual, penalty), _ in (candidates[-1] for candidates in scored)
        ]
        iterates = _descend(probs, [candidates[-1][1] for candidates in scored], temps, max_iter)
        for prob, candidates, v in zip(probs, scored, iterates):
            candidates.append((_evaluate(prob, v), v))
    return [_certify(prob, candidates) for prob, candidates in zip(probs, scored)]


def _certify(prob: TikhonovProblem, scored: list) -> MinimizeResult:
    """The best of the scored candidates, certified against the anchor's score (the first)."""
    bound = scored[0][0][0]
    (obj, residual, penalty), best_v = min(scored, key=lambda sv: sv[0][0])
    return MinimizeResult(
        u_min=GridFunction(prob.u_bar.values + prob.forward_problem.op._apply_values(best_v)),
        v_min=GridFunction(best_v),
        objective=obj,
        residual=residual,
        penalty=penalty,
        certificate_bound=bound,
        certified=obj <= bound * (1.0 + CERTIFICATE_RTOL),
    )


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
    compatibility and unused.  This is ``minimize_many`` on one problem, a
    block of one row.  Each descent calls scipy's ``minimize`` through the
    module attribute ``_lbfgs``, which the first solve binds
    (``_load_lbfgs``) unless a function was put there before it.  It passes
    ``method=_lbfgsb``, the in-module loop around scipy's ``setulb``, or,
    where ``_setulb`` finds another signature, ``jac=True,
    method="L-BFGS-B"``; both take the same iterates.
    """
    (result,) = minimize_many([prob], fam, u_true_for_certificate, max_iter, cfg)
    if not result.certified:
        raise UncertifiedResultError(
            f"objective {result.objective} exceeds the certificate bound {result.certificate_bound}", result
        )
    return result
