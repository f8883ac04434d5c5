"""Sup-norm Tikhonov functional with a strong-norm penalty, minimized with a certificate.

The functional is

    T(u) = ||F(u) - f_delta||^r + alpha ||u - u_bar||_1^r,

where the strong norm of u - u_bar is the sup norm of its witness v with
u = u_bar + G v.  Minimization runs over the witness: both max terms are
replaced by a log-sum-exp surrogate with annealed temperature, each stage
solved by L-BFGS, and the true nonsmooth T is evaluated at every candidate.
The forward map F(u_bar + G v) = exp(G u_bar + G G v) is the model's own,
``exp_volterra._exp_map``, and T is computed in one place, ``_evaluate``,
shared by the solver, its certificate and ``objective``.
No scipy Python package is imported: each descent runs L-BFGS-B's routine
``setulb`` from scipy's ``_lbfgsb`` extension, loaded alone on the first
solve (``_setulb``), in the short loop ``_lbfgsb``, which takes the same
iterates as scipy's "L-BFGS-B" driver without that driver's Python wrapper;
where the extension cannot be loaded or ``setulb`` has another signature,
descents fall back to the driver.  Below ``minimize_many`` the solver's one unit is a
block of problems on one grid, and ``minimize`` is a block of one row: the rows
descend in lockstep, each with its own ``setulb`` state and exactly the floats
it has alone, and each step evaluates the surrogate once for every row that
asks.  Only ``SmoothedObjective.value_and_grad`` tells one row from many: one
row takes scalar steps on 1-D arrays.

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
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .exp_volterra import ExpVolterraProblem, _exp_map
from .grids import GridFunction
from .lavrentiev import RegularizerFamily, auxiliary_element
from .scale import DEFAULT_QUADRATURE, QuadratureConfig, _scipy_extension

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

#: Annealing schedule: temperatures relative to the current max of each term.
ANNEAL_TEMPS = (1e-1, 1e-2, 1e-3)

#: A function with scipy's ``minimize`` calling convention that receives every
#: descent; unbound (None), descents call ``_lbfgsb`` directly.  ``_load_lbfgs``
#: binds scipy's ``minimize`` here only where it is needed.
_lbfgs = None


def _load_lbfgs() -> None:
    """Load ``setulb`` (``_setulb``), and bind scipy's ``minimize`` to an unbound ``_lbfgs`` where it is needed.

    ``minimize`` is bound only while ``_lbfgs`` is unbound, and only when
    ``_setulb`` gives None or ``scipy.optimize`` is imported already: the
    latter for a tracer that imports it and then hooks ``_lbfgs`` by identity
    with its ``minimize``, which passes the callable method ``_lbfgsb``
    straight through, so both routes take the same iterates bit for bit.
    Otherwise no process imports ``scipy.optimize``: importing it costs about
    0.3 s and 40 MB.  A function put on ``_lbfgs`` before the first solve, such
    as a tracing wrapper, stays in place and receives every descent.
    """
    global _lbfgs
    if (_setulb() is None or "scipy.optimize" in sys.modules) and _lbfgs is None:
        from scipy.optimize import minimize

        _lbfgs = minimize


#: First line of ``setulb.__doc__`` in scipy's C port of L-BFGS-B (scipy 1.17), the call ``_lbfgsb`` makes.
_SETULB_SIGNATURE = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"

#: scipy's cap on objective evaluations in an L-BFGS-B descent (its ``maxfun`` default).
_MAXFUN = 15000


@cache
def _setulb():
    """``setulb`` from scipy's ``_lbfgsb`` extension if its signature is ``_SETULB_SIGNATURE``, else None.

    The extension is loaded alone by ``scale._scipy_extension``, so
    ``scipy/optimize/__init__`` never runs, and kept out of ``sys.modules``.
    A missing file, a failed load, older scipy (the Fortran wrapper) and any
    later change of the routine's arguments give None, and descents then run
    scipy's own "L-BFGS-B" driver.
    """
    setulb = getattr(_scipy_extension("optimize._lbfgsb"), "setulb", None)
    return setulb if (setulb.__doc__ or "").split("\n", 1)[0] == _SETULB_SIGNATURE else None


class _Descent(NamedTuple):
    """The result of ``_lbfgsb`` (see there)."""

    x: np.ndarray
    fun: np.ndarray
    nit: int
    nfev: int
    status: int
    row_nit: list[int]
    row_nfev: list[int]
    row_status: list[int]


def _lbfgsb(
    fun, x0, maxiter, ftol, gtol, maxcor, rows=1, args=(), jac=None, hess=None, hessp=None, bounds=None, constraints=(), callback=None
):
    """Unbounded L-BFGS-B for ``rows`` problems in lockstep: scipy 1.17's ``_minimize_lbfgsb`` loop around ``setulb``.

    Descents call it directly, as ``_lbfgsb(fun, x0, **options)``; it is also
    a custom ``method`` for scipy's ``minimize``, which passes ``args`` through
    ``callback``, all left unset by descents; an option other than the five
    named raises a TypeError.  ``x0`` holds the k = ``rows``
    witnesses of one length n back to back (scipy's ``minimize`` takes only a
    1-D ``x0``), each row with its own ``setulb`` state; one problem is k = 1,
    whose evaluations take scalar steps.  Each step advances every unfinished
    row until it asks for a new evaluation or stops; then ``fun(x, idx)``
    evaluates the asking rows ``idx`` (None when every row asks) at their
    (j, n) block ``x`` in one call and returns their (j,) f values and (j, n)
    gradients.  ``fun`` must not write into ``x``.

    The calls and arguments are scipy's, so each row's ``x``, ``fun``,
    ``nit``, ``nfev`` and status equal those of ``minimize(fun, x0, jac=True,
    method="L-BFGS-B")`` on that row alone, bit for bit.  As in scipy's
    ``ScalarFunction``, a row is evaluated at its start and then whenever
    ``setulb`` asks for f and g at an ``x`` unequal to the last one evaluated;
    an equal ``x`` reuses that pair.  ``setulb`` writes into the gradient it
    is passed on some calls, so the cached one is kept apart.

    A row's status is 0 on convergence, 1 at ``maxiter`` iterations or past
    ``_MAXFUN`` evaluations, and 2 when ``setulb`` gives up, as on an abnormal
    line search.  The ``_Descent`` holds the (k, n) ``x`` and (k,) ``fun``;
    ``row_nit``, ``row_nfev`` and ``row_status``; ``nit``, the most
    iterations of any row; ``nfev``, the calls of ``fun``; and ``status``,
    the largest row status.  For one row the last three are scipy's.
    """
    setulb = _setulb()
    x = np.array(x0, dtype=np.float64).reshape(rows, -1)
    (k, n), m = x.shape, maxcor
    seen, f_seen, g_seen = x.copy(), np.zeros(k), np.zeros((k, n))

    def evaluate(asking: list[int]) -> None:
        if len(asking) == k:  # every row: no fancy indexing
            seen[:] = x
            f_seen[:], g_seen[:] = fun(seen, None)
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
    return _Descent(x, np.array(f), max(nit), calls, max(status), nit, nfev, status)


def coupling_exponent(r: float, a: float) -> float:
    """The exponent kappa = 1/(r(1+a)) linking alpha to the smoothing scale beta."""
    if not (0.0 < r < math.inf and 0.0 < a < math.inf):
        raise ValueError(f"exponents r and a must be positive and finite, got r={r:g}, a={a:g}")
    return 1.0 / (r * (1.0 + a))


@dataclass(frozen=True)
class TikhonovProblem:
    """One instance: forward problem, noisy data, initial guess, exponents, alpha."""

    forward_problem: ExpVolterraProblem
    f_delta: GridFunction
    delta: float
    u_bar_witness: GridFunction
    alpha: float
    r: float = 1.0
    a: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha:g}")
        coupling_exponent(self.r, self.a)  # raises unless r and a are positive and finite
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta:g}")
        self.forward_problem.op._check_size(self.f_delta)
        self.forward_problem.op._check_size(self.u_bar_witness)

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
    T comes from the witness through the solver's evaluator, so it matches
    exactly; where that T is inf, an OverflowError names F or the r-th power.
    """
    op = prob.forward_problem.op
    op._check_size(u)
    op._check_size(v_witness)
    u_from_v = prob.u_bar.values + op._apply_values(v_witness.values)
    scale = 1.0 + np.max(np.abs(u.values))
    if np.max(np.abs(u.values - u_from_v)) > 1e-8 * scale:
        raise ValueError("u is not u_bar + G v for the supplied witness")
    value, residual, _ = _evaluate(prob, v_witness.values)
    if not math.isfinite(residual):
        raise OverflowError("forward map overflowed for an extreme input")
    if not math.isfinite(value):
        raise OverflowError(f"T overflowed: the r-th power (r={prob.r:g}) of its residual or penalty is too large")
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
        if not 0.0 < self.C < math.inf:
            raise ValueError(f"the rule constant C must be positive and finite, got {self.C:g}")


def choose_alpha(pc: ParamChoice, delta: float, r: float, a: float) -> float:
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta:g}")
    coupling_exponent(r, a)  # raises unless r and a are positive and finite
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


def _evaluate(prob: TikhonovProblem, v: np.ndarray) -> tuple[float, float, float]:
    """The true T at witness v, with its residual and penalty sup norms (T = inf where F or a power overflows)."""
    op = prob.forward_problem.op
    penalty = np.max(np.abs(v))
    f = _exp_map(op, op._apply_values(v), prob.g_bar)  # an inf entry makes the residual and T inf
    residual = np.max(np.abs(f - prob.f_delta.values))
    with np.errstate(over="ignore"):  # numpy scalar powers, as in _chain: inf where they overflow
        return float(residual**prob.r + prob.alpha * penalty**prob.r), float(residual), float(penalty)


def _chain(s_res, s_pen, alpha, r: float) -> tuple:
    """The surrogate from its two soft maxima, and its derivatives in them: (value, d/ds_res, d/ds_pen).

    Scalars for one problem.  For (k, 1) columns the value comes as (k,) and
    the derivatives as (k, 1); each row is computed on its numpy scalars with
    C's ``pow``, as one problem's is, since an array power may round
    differently.  A power that overflows gives inf.
    """
    if not isinstance(s_res, np.ndarray):
        return s_res**r + alpha * s_pen**r, r * s_res ** (r - 1.0), alpha * r * s_pen ** (r - 1.0)
    terms = np.array([_chain(*row, r) for row in zip(s_res[:, 0], s_pen[:, 0], alpha[:, 0])])
    return terms[:, 0], terms[:, 1:2], terms[:, 2:3]


class SmoothedObjective:
    """Fixed-temperature smooth surrogate of T over the witness variable, for a block of problems.

    Takes k problems on one grid with one r, and k pairs ``(temp_res,
    temp_pen)``; one problem is a block of one.  Rows are evaluated at once
    along the last axis, with f_delta, G u_bar, alpha and the temperatures as
    per-row columns, and each row gets exactly the floats of its block of one.
    A lone row takes the scalar steps, on 1-D arrays and Python floats: on a
    (1, n) block each step is slower, and an evaluation takes 1.20 times as long at
    n=1025 and 1.31 times at n=256 (medians of 21 rounds; README).
    """

    def __init__(self, probs: Sequence[TikhonovProblem], temps: Sequence[tuple[float, float]]):
        probs = tuple(probs)
        self.op, self.r = probs[0].forward_problem.op, probs[0].r
        if any(p.forward_problem.op != self.op or p.r != self.r for p in probs):
            raise ValueError("a block of problems must share the grid and r")
        f_delta, g_bar = np.array([p.f_delta.values for p in probs]), np.array([p.g_bar for p in probs])
        scalars = [(float(p.alpha), *map(float, t)) for p, t in zip(probs, temps)]  # alpha, temp_res, temp_pen
        # The operands of block rows, (k, n) arrays and (k, 1) columns, and of each row alone: 1-D arrays and floats.
        self.block_operands = (f_delta, g_bar, *np.array(scalars).T[..., np.newaxis])
        self.row_operands = [(f, g, *s) for f, g, s in zip(f_delta, g_bar, scalars)]

    def value_and_grad(self, v: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The surrogate at the (j, n) witnesses v of block rows: (j,) values and (j, n) gradients.

        ``rows`` indexes the block's rows that v holds, all of them when None.
        A row whose forward map overflows gets value inf and gradient 0; one
        whose forward map is finite but whose value's r-th power overflows
        gets value inf, with numpy's overflow warnings unless the caller
        ignores them, as each descent does (``_descend``).
        """
        if len(v) == 1:
            f_delta, g_bar, alpha, temp_res, temp_pen = self.row_operands[0 if rows is None else rows[0]]
            x = v[0]
        else:
            f_delta, g_bar, alpha, temp_res, temp_pen = [c if rows is None else c[rows] for c in self.block_operands]
            x = v
        f = _exp_map(self.op, self.op._apply_values(x), g_bar)
        # f = exp(...) is >= 0, so its max is finite exactly when every entry of every row is.
        if not math.isfinite(f.max()):
            finite = np.isfinite(f.reshape(v.shape).max(axis=-1))
            value, grad = np.full(len(v), np.inf), np.zeros_like(v)
            if finite.any():
                rows = np.arange(len(v)) if rows is None else rows
                value[finite], grad[finite] = self.value_and_grad(v[finite], rows[finite])
            return value, grad
        s_res, w_res = _soft_abs_max(f - f_delta, temp_res)
        s_pen, w_pen = _soft_abs_max(x, temp_pen)
        value, c_res, c_pen = _chain(s_res, s_pen, alpha, self.r)
        w_res *= f
        grad = self.op._apply_adjoint_values(self.op._apply_adjoint_values(w_res))
        grad *= c_res
        w_pen *= c_pen
        grad += w_pen
        return np.array(value, ndmin=1), grad.reshape(v.shape)


def _descend(
    probs: list[TikhonovProblem], starts: list[np.ndarray], temps: list[tuple[float, float]], max_iter: int
) -> list[np.ndarray]:
    """One annealing stage: L-BFGS on each problem's surrogate from its start; the iterates, in order.

    All problems descend in one ``_lbfgsb`` call, in lockstep as the rows of
    one block; a lone problem is a block of one, whose evaluations take scalar
    steps.  The call goes through ``_lbfgs``, with ``method=_lbfgsb``, when a
    function is bound there.  Where ``_setulb`` gives None, each problem runs
    scipy's ``jac=True, method="L-BFGS-B"`` through ``_lbfgs`` in turn, with
    the same iterates, as a block of one behind a 1-D adapter.  Every descent
    runs under ``np.errstate(over="ignore")``: a row whose forward map is
    finite but whose r-th power overflows has the surrogate inf, as
    documented, not a warning.
    """
    surrogate = SmoothedObjective(probs, temps)
    options = {"maxiter": max_iter, "ftol": 1e-16, "gtol": 1e-12, "maxcor": 20}
    with np.errstate(over="ignore"):
        if not _setulb():
            funs = [lambda x, i=(i,): [y[0] for y in surrogate.value_and_grad(x[np.newaxis], i)] for i in range(len(probs))]
            return [_lbfgs(fun, v, jac=True, method="L-BFGS-B", options=options).x for fun, v in zip(funs, starts)]
        fun, x0, options["rows"] = surrogate.value_and_grad, np.concatenate(starts), len(probs)
        descent = _lbfgsb(fun, x0, **options) if _lbfgs is None else _lbfgs(fun, x0, method=_lbfgsb, options=options)
    return list(descent.x)


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
    ``certified=False`` instead of raised.  No problems give no results.
    """
    probs = list(probs)
    if not probs:
        return []
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
    """The best of the scored candidates, certified against the anchor's score (the first).

    This holds by construction: the anchor's score, from a finite witness, is finite or inf, never
    NaN, so ``min`` picks no score above it.  ``certified=False``, ``UncertifiedResultError`` and a
    study's abort on too few certified levels are reached only where tests replace ``minimize_many``
    or ``harness._solve_group``.
    """
    bound = scored[0][0][0]
    (obj, residual, penalty), best_v = min(scored, key=lambda sv: sv[0][0])
    return MinimizeResult(
        u_min=GridFunction(prob.u_bar.values + prob.forward_problem.op._apply_values(best_v)),
        v_min=GridFunction(best_v),
        objective=obj,
        residual=residual,
        penalty=penalty,
        certificate_bound=bound,
        certified=obj <= bound,
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
    compatibility and unused.  This is ``minimize_many`` on a block of one
    row, the solver's one calling convention; its evaluations take the scalar
    steps.  Each descent runs ``_lbfgsb`` (``_descend``), through ``_lbfgs``
    where a function is bound there: one put there before the first solve, or
    scipy's ``minimize`` where ``_load_lbfgs`` binds it.
    """
    (result,) = minimize_many([prob], fam, u_true_for_certificate, max_iter, cfg)
    if not result.certified:
        raise UncertifiedResultError(
            f"objective {result.objective} exceeds the certificate bound {result.certificate_bound}", result
        )
    return result
