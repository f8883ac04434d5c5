import math
import pickle

import numpy as np
import pytest
import scipy.optimize

from oversmooth import (
    GridFunction,
    NoiseSpec,
    ParamChoice,
    RegularizerFamily,
    ScaleOperator,
    TikhonovProblem,
    UncertifiedResultError,
    add_noise,
    choose_alpha,
    coupling_exponent,
    make_problem,
    make_truth,
    minimize,
    objective,
)
from oversmooth import scale, tikhonov
from oversmooth.exp_volterra import _exp_map
from oversmooth.tikhonov import ANNEAL_TEMPS, SmoothedObjective


@pytest.fixture(scope="module")
def setup(op256, quad):
    u_true = make_truth("hoelder", op256, p=1.0, cfg=quad)
    problem = make_problem(op256, u_true)
    fam = RegularizerFamily(op256, m=2)
    return problem, fam, u_true


def make_prob(problem, delta, alpha, seed=0, r=1.0):
    f_delta = add_noise(problem.f_true, NoiseSpec(delta, "random_sign", seed))
    return TikhonovProblem(
        forward_problem=problem,
        f_delta=f_delta,
        delta=delta,
        u_bar_witness=GridFunction.zeros(problem.op.n),
        alpha=alpha,
        r=r,
    )


# -- exponent arithmetic -----------------------------------------------------


def test_coupling_exponent():
    assert coupling_exponent(1.0, 1.0) == 0.5
    assert coupling_exponent(2.0, 1.0) == 0.25
    assert coupling_exponent(1.0, 3.0) == 0.25
    with pytest.raises(ValueError):
        coupling_exponent(0.0, 1.0)
    for r, a in [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="^exponents r and a must be positive and finite, got "):
            coupling_exponent(r, a)


def test_choose_alpha_hoelder():
    pc = ParamChoice("hoelder", p=1.0)
    assert choose_alpha(pc, 1e-2, 1.0, 1.0) == pytest.approx(1e-2, rel=1e-15)
    pc = ParamChoice("hoelder", p=0.5, C=2.0)
    assert choose_alpha(pc, 1e-3, 1.0, 1.0) == pytest.approx(2.0 * 1e-4, rel=1e-12)


def test_choose_alpha_low_order():
    assert choose_alpha(ParamChoice("low_order"), 1e-3, 1.0, 1.0) == 1e-3


def test_choose_alpha_none_limits():
    # alpha = C delta^r satisfies alpha -> 0 and delta/alpha^(kappa a) -> 0.
    r, a = 1.0, 1.0
    pc = ParamChoice("none")
    alpha = choose_alpha(pc, 1e-2, r, a)
    assert alpha == pytest.approx(1e-2, rel=1e-15)
    kap = coupling_exponent(r, a)
    assert 1e-2 / alpha ** (kap * a) == pytest.approx(np.sqrt(1e-2), rel=1e-12)


def test_choose_alpha_validation():
    with pytest.raises(ValueError):
        ParamChoice("other")
    with pytest.raises(ValueError):
        choose_alpha(ParamChoice("hoelder", p=2.0), 1e-2, 1.0, 1.0)
    with pytest.raises(ValueError):
        choose_alpha(ParamChoice("low_order"), 0.0, 1.0, 1.0)
    for delta in [math.nan, math.inf]:
        with pytest.raises(ValueError, match="^delta must be positive and finite, got "):
            choose_alpha(ParamChoice("low_order"), delta, 1.0, 1.0)
    for c in [math.nan, math.inf]:
        with pytest.raises(ValueError, match="^the rule constant C must be positive and finite, got "):
            ParamChoice("low_order", C=c)
    with pytest.raises(ValueError, match="^exponents r and a"):
        choose_alpha(ParamChoice("low_order"), 1e-2, math.nan, 1.0)


# -- the functional ------------------------------------------------------------


def test_objective_at_initial_guess(setup):
    problem, _, _ = setup
    prob = make_prob(problem, 0.1, 0.3)
    u_bar = prob.u_bar
    value = objective(prob, u_bar, GridFunction.zeros(256))
    assert value == (problem.forward(u_bar) - prob.f_delta).sup_norm()


def test_objective_alpha_linearity(setup):
    problem, _, _ = setup
    rng = np.random.default_rng(0)
    v = GridFunction(rng.uniform(-1.0, 1.0, 256))
    u = GridFunction(problem.op._apply_values(v.values))
    prob1 = make_prob(problem, 0.1, 0.25)
    prob2 = make_prob(problem, 0.1, 0.5)
    t1 = objective(prob1, u, v)
    t2 = objective(prob2, u, v)
    assert t2 - t1 == pytest.approx(0.25 * v.sup_norm(), rel=1e-12)


def test_objective_rejects_inconsistent_pair(setup):
    problem, _, _ = setup
    prob = make_prob(problem, 0.1, 0.3)
    with pytest.raises(ValueError, match="witness"):
        objective(prob, GridFunction.ones(256), GridFunction.zeros(256))


@pytest.mark.parametrize("entry", ["f_delta", "u_bar_witness", "objective u", "objective v_witness", "derivative h"])
def test_wrong_grid_size_is_rejected_where_it_enters(op64, entry):
    # A 65-point f_delta would build a problem that minimize fails on later, with numpy's broadcast
    # error; each entry point rejects a wrong size at once, naming both sizes.
    problem = make_problem(op64, GridFunction.zeros(64))
    right, wrong = GridFunction.zeros(64), GridFunction.zeros(65)
    with pytest.raises(ValueError, match="^grid size mismatch: operator has n=64, input has n=65$"):
        if entry == "f_delta":
            TikhonovProblem(problem, wrong, 0.1, right, 0.1)
        elif entry == "u_bar_witness":
            TikhonovProblem(problem, problem.f_true, 0.1, wrong, 0.1)
        elif entry == "derivative h":
            problem.derivative(right, wrong)
        else:
            prob = TikhonovProblem(problem, problem.f_true, 0.1, right, 0.1)
            u, v = (wrong, right) if entry == "objective u" else (right, wrong)
            objective(prob, u, v)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_overflowing_witness_scores_inf(setup, r):
    # G G v passes exp's overflow threshold on the right half of the grid only: T and
    # the residual are inf, the penalty is the witness's sup norm, and no warning is
    # raised; objective reports the overflow.
    problem, _, _ = setup
    prob = make_prob(problem, 0.1, 0.3, r=r)
    v = np.where(np.arange(256) < 128, 0.0, 1e4)
    f = _exp_map(problem.op, problem.op._apply_values(v), prob.g_bar)
    assert np.isfinite(f[:128]).all() and f[-1] == math.inf
    assert tikhonov._evaluate(prob, v) == (math.inf, math.inf, 1e4)
    u = GridFunction(prob.u_bar.values + problem.op._apply_values(v))
    with pytest.raises(OverflowError, match="^forward map overflowed for an extreme input$"):
        objective(prob, u, GridFunction(v))


def test_overflowing_power_scores_inf(op64, quad):
    # F is finite, near 1e200, but its residual's square overflows: T is inf, as
    # for an overflowing F, with no warning; objective names the power.
    problem = make_problem(op64, make_truth("hoelder", op64, p=1.0, cfg=quad))
    prob = make_prob(problem, 0.1, 0.3, r=2.0)
    v = np.full(64, 921.0)
    value, residual, penalty = tikhonov._evaluate(prob, v)
    assert value == math.inf and 9.83e199 < residual < 9.84e199 and penalty == 921.0
    u = GridFunction(prob.u_bar.values + problem.op._apply_values(v))
    with pytest.raises(OverflowError, match=r"^T overflowed: the r-th power \(r=2\) of its residual or penalty"):
        objective(prob, u, GridFunction(v))


def test_problem_validation(setup):
    problem, _, _ = setup
    with pytest.raises(ValueError):
        make_prob(problem, 0.1, 0.0)
    with pytest.raises(ValueError):
        make_prob(problem, 0.1, 1.0, r=0.0)
    for alpha in [math.nan, math.inf]:
        with pytest.raises(ValueError, match="^alpha must be positive and finite, got "):
            make_prob(problem, 0.1, alpha)
    with pytest.raises(ValueError, match="^exponents r and a"):
        make_prob(problem, 0.1, 1.0, r=math.inf)
    zero = GridFunction.zeros(problem.op.n)
    for delta in [math.nan, math.inf, -1e-3]:
        with pytest.raises(ValueError, match="^delta must be nonnegative and finite, got "):
            TikhonovProblem(problem, problem.f_true, delta, zero, 0.1)


# -- minimization ----------------------------------------------------------------


def test_minimize_exact_data_at_guess(setup):
    # delta = 0 with data generated at the initial guess: zero is optimal.
    problem, fam, _ = setup
    u_bar_w = GridFunction.zeros(256)
    u_bar = problem.op.apply(u_bar_w)
    prob = TikhonovProblem(
        forward_problem=problem,
        f_delta=problem.forward(u_bar),
        delta=0.0,
        u_bar_witness=u_bar_w,
        alpha=0.37,
    )
    res = minimize(prob, fam, u_bar, seed=0)
    assert res.objective <= 1e-12
    assert res.residual == 0.0
    assert res.penalty == 0.0
    assert res.certified


def test_minimize_is_certified(setup):
    problem, fam, u_true = setup
    for delta in (1e-1, 1e-3):
        prob = make_prob(problem, delta, delta, seed=2)
        res = minimize(prob, fam, u_true, seed=2)
        assert res.certified
        assert res.objective <= res.certificate_bound * (1.0 + 1e-9)


def test_minimize_objective_identity(setup):
    problem, fam, u_true = setup
    prob = make_prob(problem, 1e-2, 1e-2, seed=3)
    res = minimize(prob, fam, u_true, seed=3)
    recomputed = res.residual**prob.r + prob.alpha * res.penalty**prob.r
    assert res.objective == pytest.approx(recomputed, rel=1e-12)
    # residual-penalty split mirrors the max-form bound
    assert res.residual <= res.objective ** (1.0 / prob.r) * (1.0 + 1e-12)
    assert res.penalty <= (res.objective / prob.alpha) ** (1.0 / prob.r) * (1.0 + 1e-12)


def test_minimize_result_consistent_with_objective(setup):
    problem, fam, u_true = setup
    prob = make_prob(problem, 1e-2, 1e-2, seed=4)
    res = minimize(prob, fam, u_true, seed=4)
    assert objective(prob, res.u_min, res.v_min) == pytest.approx(res.objective, rel=1e-12)


def test_objective_reproduces_solver_value_exactly(op256, quad):
    # With a nonzero initial guess, F(u) and exp(G u_bar + G G v) round
    # differently; objective() must read T from the solver's own evaluator.
    u_true = make_truth("hoelder", op256, p=0.5, cfg=quad)
    problem = make_problem(op256, u_true)
    x = np.linspace(0.0, 1.0, 256)
    prob = TikhonovProblem(
        forward_problem=problem,
        f_delta=add_noise(problem.f_true, NoiseSpec(0.1, "random_sign", 0)),
        delta=0.1,
        u_bar_witness=GridFunction(0.3 * np.sin(3.0 * x)),
        alpha=choose_alpha(ParamChoice("hoelder", p=0.5), 0.1, 1.0, 1.0),
    )
    res = minimize(prob, RegularizerFamily(op256, m=2), u_true, max_iter=60, cfg=quad)
    assert objective(prob, res.u_min, res.v_min) == res.objective


def test_minimize_penalty_dominates_for_large_alpha(setup):
    problem, fam, u_true = setup
    prob = make_prob(problem, 0.1, 1e6, seed=5)
    res = minimize(prob, fam, u_true, seed=5)
    u_bar = prob.u_bar
    t_guess = objective(prob, u_bar, GridFunction.zeros(256))
    assert res.penalty <= 1e-6
    assert res.objective <= t_guess * (1.0 + 1e-6)
    assert (res.u_min - u_bar).sup_norm() <= 1e-6


def test_minimize_scores_each_candidate_once(setup, monkeypatch):
    # The candidates are the anchor and one iterate per annealing stage.
    problem, fam, u_true = setup
    prob = make_prob(problem, 1e-2, 1e-2, seed=6)
    calls = []
    evaluate = tikhonov._evaluate
    monkeypatch.setattr(tikhonov, "_evaluate", lambda prob, v: calls.append(1) or evaluate(prob, v))
    minimize(prob, fam, u_true, max_iter=20)
    assert len(calls) == 1 + len(ANNEAL_TEMPS)


def test_minimize_deterministic(setup):
    problem, fam, u_true = setup
    prob = make_prob(problem, 1e-2, 1e-2, seed=7)
    a = minimize(prob, fam, u_true, seed=7)
    b = minimize(prob, fam, u_true, seed=7)
    assert np.array_equal(a.v_min.values, b.v_min.values)
    assert a.objective == b.objective


def test_minimize_ignores_seed(setup):
    # The solve is deterministic; a seeded random start would break this.
    problem, fam, u_true = setup
    prob = make_prob(problem, 1e-2, 1e-2, seed=8)
    a = minimize(prob, fam, u_true, seed=0)
    b = minimize(prob, fam, u_true, seed=12345)
    assert np.array_equal(a.v_min.values, b.v_min.values)
    assert a.objective == b.objective


def test_smoothed_gradient_matches_finite_differences(op64, quad):
    # Directional derivatives of the fixed-temperature surrogate at n = 64.
    u_true = make_truth("hoelder", op64, p=1.0, cfg=quad)
    problem = make_problem(op64, u_true)
    prob = make_prob(problem, 0.1, 0.1, seed=1)
    surrogate = SmoothedObjective([prob], [(0.05, 0.02)])  # a block of one row
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.uniform(-1.0, 1.0, (1, 64))
        d = rng.standard_normal(64)
        d /= np.linalg.norm(d)
        _, (grad,) = surrogate.value_and_grad(v)
        t = 1e-6
        (fp,), _ = surrogate.value_and_grad(v + t * d)
        (fm,), _ = surrogate.value_and_grad(v - t * d)
        fd = (fp - fm) / (2.0 * t)
        exact = float(grad @ d)
        assert abs(fd - exact) <= 1e-5 * max(abs(exact), 1e-10)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_value_and_grad_is_the_plain_formula(op256, quad, r):
    # The in-place evaluation of a block of one row must give exactly the floats
    # of the out-of-place formula written out here, the overflow return
    # included, and leave v alone.
    op = op256
    u_true = make_truth("hoelder", op, p=1.0, cfg=quad)
    problem = make_problem(op, u_true)
    rng = np.random.default_rng(8)
    prob = TikhonovProblem(
        forward_problem=problem,
        f_delta=add_noise(problem.f_true, NoiseSpec(0.05, "random_sign", 2)),
        delta=0.05,
        u_bar_witness=GridFunction(rng.uniform(-1.0, 1.0, op.n)),
        alpha=0.01,
        r=r,
    )
    temp_res, temp_pen = 0.03, 0.01
    surrogate = SmoothedObjective([prob], [(temp_res, temp_pen)])

    def soft_abs_max(z, temp):
        m = float(np.max(np.abs(z)))
        ep = np.exp((z - m) / temp)
        en = np.exp((-z - m) / temp)
        total = float(np.sum(ep) + np.sum(en))
        return m + temp * np.log(total), (ep - en) / total

    def adjoint(w):
        tail = np.cumsum(w[::-1])[::-1]
        out = op.h * tail - 0.5 * op.h * w
        out[0] = 0.5 * op.h * (tail[0] - w[0])
        return out

    def plain(v):
        with np.errstate(over="ignore"):
            f = np.exp(prob.g_bar + op._apply_values(op._apply_values(v)))
        if not np.all(np.isfinite(f)):
            return np.inf, np.zeros_like(v)
        s_res, w_res = soft_abs_max(f - prob.f_delta.values, temp_res)
        s_pen, w_pen = soft_abs_max(v, temp_pen)
        value = s_res**r + prob.alpha * s_pen**r
        back = adjoint(adjoint(f * w_res))
        return value, r * s_res ** (r - 1.0) * back + prob.alpha * r * s_pen ** (r - 1.0) * w_pen

    overflow = np.full(op.n, 1e4)
    assert plain(overflow)[0] == np.inf
    for v in (*rng.uniform(-1.0, 1.0, (5, op.n)), overflow):
        kept = v.copy()
        (value,), (grad,) = surrogate.value_and_grad(v[np.newaxis])
        want_value, want_grad = plain(v)
        assert value == want_value
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(v, kept)


# -- the L-BFGS-B loop around setulb ---------------------------------------------

DESCENT_OPTIONS = {"ftol": 1e-16, "gtol": 1e-12, "maxcor": 20}


def descent_problem(op, case, r):
    """A problem and surrogate temperatures for a descent from v = 0 that shows ``case``, and its iteration cap."""
    problem = make_problem(op, make_truth("low_order", op))
    if case == "overflow":  # data near 1e10: the line search steps far enough for exp to overflow
        prob = TikhonovProblem(problem, GridFunction(np.full(op.n, 1e10)), 0.1, GridFunction.zeros(op.n), 1e-3, r=r)
        maxiter = 300
    else:
        delta, alpha, maxiter = {"capped": (1e-2, 1e-2**r, 20), "converged": (1e-2, 1e3, 300), "re-request": (1e-3, 1e-3**r, 300)}[case]
        prob = make_prob(problem, delta, alpha, r=r)
    residual = tikhonov._evaluate(prob, np.zeros(op.n))[1]
    return prob, (0.1 * residual, 1e-4 * residual), maxiter


def one_row(prob, temps):
    """The surrogate of one problem, a block of one row, as a function of its 1-D witness for scipy's driver."""
    block = SmoothedObjective([prob], [temps])
    return lambda x: [out[0] for out in block.value_and_grad(x[np.newaxis])]


@pytest.mark.skipif(tikhonov._setulb() is None, reason="scipy's setulb has another signature")
@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("case", ["capped", "converged", "overflow", "re-request"])
def test_lbfgsb_loop_matches_scipy_driver(op64, monkeypatch, case, r):
    # The loop must take scipy's iterates bit for bit and count as scipy does,
    # on one problem, a block of one row.
    prob, temps, maxiter = descent_problem(op64, case, r)
    options = {"maxiter": maxiter, **DESCENT_OPTIONS}
    x0 = np.zeros(op64.n)
    want = scipy.optimize.minimize(one_row(prob, temps), x0, jac=True, method="L-BFGS-B", options=options)

    setulb, requests, values = tikhonov._setulb(), [], []

    def counting_setulb(*args):
        setulb(*args)
        requests.append(args[11][0] == 3)  # task: f and g wanted

    block = SmoothedObjective([prob], [temps])

    def recording(x, rows):
        assert rows is None and x.shape == (1, op64.n)  # the only row asks
        value, grad = block.value_and_grad(x, rows)
        values.extend(value.tolist())
        return value, grad

    monkeypatch.setattr(tikhonov, "_setulb", lambda: counting_setulb)
    got = scipy.optimize.minimize(recording, x0, method=tikhonov._lbfgsb, options=options)
    assert got.x.shape == (1, op64.n) and got.fun.shape == (1,)
    assert got.x[0].tobytes() == want.x.tobytes()
    assert got.fun[0] == want.fun
    assert (got.nit, got.nfev, got.status) == (want.nit, want.nfev, want.status)
    assert len(values) == got.nfev
    # Each case shows what it is named for.
    if case == "capped":
        assert got.nit == maxiter and got.status == 1
    elif case == "converged":
        assert got.nit < maxiter and got.status == 0
    elif case == "overflow":
        assert np.inf in values
    else:  # the x0 evaluation answers the first request; more requests than that reused an unchanged x
        assert sum(requests) > got.nfev


@pytest.mark.skipif(tikhonov._setulb() is None, reason="scipy's setulb has another signature")
@pytest.mark.parametrize("maxfun", [3, 5, 8])
def test_lbfgsb_evaluation_cap_matches_scipy_driver(op64, monkeypatch, maxfun):
    # With the evaluation cap lowered, the loop stops where scipy's driver stops with that maxfun.
    prob, temps, maxiter = descent_problem(op64, "re-request", 1.0)
    options = {"maxiter": maxiter, **DESCENT_OPTIONS}
    x0 = np.zeros(op64.n)
    want = scipy.optimize.minimize(
        one_row(prob, temps), x0, jac=True, method="L-BFGS-B", options={**options, "maxfun": maxfun}
    )
    monkeypatch.setattr(tikhonov, "_MAXFUN", maxfun)
    got = tikhonov._lbfgsb(SmoothedObjective([prob], [temps]).value_and_grad, x0, **options)
    assert got.x[0].tobytes() == want.x.tobytes()
    assert (got.nit, got.nfev, got.status) == (want.nit, want.nfev, want.status)
    assert got.status == 1 and got.nit < maxiter and got.nfev > maxfun


@pytest.mark.skipif(tikhonov._setulb() is None, reason="scipy's setulb has another signature")
@pytest.mark.parametrize("r", [1.0, 2.0])
def test_lockstep_rows_match_their_own_descents(op64, r):
    # Three rows descend as one block under one cap: one converges before it,
    # one is capped, and one's line search meets an overflow.  Each row takes
    # the iterates and counts of scipy's driver on that row alone.
    setups = [descent_problem(op64, case, r)[:2] for case in ("converged", "capped", "overflow")]
    block = SmoothedObjective(*zip(*setups))
    options = {"maxiter": 20, **DESCENT_OPTIONS}
    overflowed = []

    def recording(x, rows):
        values, grads = block.value_and_grad(x, rows)
        overflowed.extend((np.arange(3) if rows is None else rows)[values == np.inf].tolist())
        return values, grads

    x0 = np.zeros(3 * op64.n)
    got = scipy.optimize.minimize(recording, x0, method=tikhonov._lbfgsb, options={**options, "rows": 3})
    assert got.x.shape == (3, op64.n)
    for i, (prob, temps) in enumerate(setups):
        fun = one_row(prob, temps)
        want = scipy.optimize.minimize(fun, np.zeros(op64.n), jac=True, method="L-BFGS-B", options=options)
        assert got.x[i].tobytes() == want.x.tobytes()
        assert got.fun[i] == want.fun
        assert (got.row_nit[i], got.row_nfev[i], got.row_status[i]) == (want.nit, want.nfev, want.status)
    assert got.row_status[:2] == [0, 1] and got.row_nit[0] < 20 == got.row_nit[1]
    assert set(overflowed) == {2}
    assert (got.nit, got.status) == (20, 1) and max(got.row_nfev) <= got.nfev < sum(got.row_nfev)


def test_block_objective_needs_one_grid_and_r(setup, op64, quad):
    problem, _, _ = setup
    prob = make_prob(problem, 0.1, 0.3)
    coarse = make_problem(op64, make_truth("hoelder", op64, p=1.0, cfg=quad))
    for other in (make_prob(problem, 0.1, 0.3, r=2.0), make_prob(coarse, 0.1, 0.3)):
        with pytest.raises(ValueError, match="^a block of problems must share the grid and r$"):
            SmoothedObjective([prob, other], [(1e-2, 1e-2)] * 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("n", [64, 257])
def test_block_objective_rows_match_one_row_calls(n, k, r, quad):
    # Each row of a (k, n) block, and of a block of some of its rows, gets exactly
    # the floats of its own block of one; an overflowing row gets (inf, 0) and
    # leaves the other rows alone, and when every row overflows each gets
    # (inf, 0).  Row 0's temperatures put most soft-max lanes
    # below exp's underflow.  A large row's forward map peaks near 1e200, finite,
    # so at r = 2 its value's power overflows to inf, on its own and in the block.
    # The surrogate is evaluated as a descent evaluates it, ignoring overflow;
    # any other floating-point warning fails, and so does an overflow warning
    # from a descent that starts at the large row.
    op = ScaleOperator(n)
    problem = make_problem(op, make_truth("hoelder", op, p=0.5, cfg=quad))
    rng = np.random.default_rng(10 * n + k)
    probs = [
        TikhonovProblem(
            forward_problem=problem,
            f_delta=add_noise(problem.f_true, NoiseSpec(0.05, "random_sign", i)),
            delta=0.05,
            u_bar_witness=GridFunction(rng.uniform(-0.5, 0.5, n) if i % 2 else np.zeros(n)),
            alpha=10.0 ** -(i % 4 + 1),
            r=r,
        )
        for i in range(k)
    ]
    temps = [((1e-4, 1e-1, 1e-2)[i % 3], (1e-3, 1e-2, 1e-1)[i % 3]) for i in range(k)]
    block = SmoothedObjective(probs, temps)
    v = rng.uniform(-1.0, 1.0, (k, n))
    overflow, large, every = v.copy(), v.copy(), np.full((k, n), 1e4)
    overflow[k // 2] = 1e4
    large[k // 2] = 921.0
    f_large = _exp_map(op, op._apply_values(large[k // 2]), probs[k // 2].g_bar)
    assert np.isfinite(f_large).all() and 1e199 < f_large.max() < 1e201
    for witnesses in (v, large, every, overflow):
        kept = witnesses.copy()
        with np.errstate(over="ignore"):
            values, grads = block.value_and_grad(witnesses)
            assert values.shape == (k,) and grads.shape == (k, n)
            for i, (prob, t) in enumerate(zip(probs, temps)):
                (value,), (grad,) = SmoothedObjective([prob], [t]).value_and_grad(witnesses[i : i + 1])
                assert values[i] == value
                if witnesses is large and i == k // 2:
                    assert (value == np.inf) == (r == 2.0)
                assert np.array_equal(grads[i], grad)
            rows = np.arange(k)[::-2]
            some_values, some_grads = block.value_and_grad(witnesses[rows], rows)
        assert np.array_equal(some_values, values[rows]) and np.array_equal(some_grads, grads[rows])
        assert np.array_equal(witnesses, kept)
        if witnesses is every:
            assert (values == np.inf).all() and not grads.any()
    assert values[k // 2] == np.inf and not grads[k // 2].any()
    assert np.isfinite(np.delete(values, k // 2)).all()
    (stuck,) = tikhonov._descend([probs[k // 2]], [large[k // 2]], [temps[k // 2]], max_iter=5)
    assert np.array_equal(stuck, large[k // 2]) == (r == 2.0)  # an inf start with gradient 0 does not move


@pytest.mark.parametrize("temp", [1.0 / 380.0, 1.0 / 740.0])
def test_soft_abs_max_underflowing_lanes_match_exp(temp):
    # Lanes sent to -inf before exp are ones exp takes to +0 anyway: lanes from
    # 0 down to -2/temp temperatures below the max (1 here), subnormal results
    # included, give the floats of the plain formula, for one vector and as a
    # row of a block.  At temp = 1/740 the lanes near z = 0 are subnormal on
    # both sides, so their weights are too.
    z = np.linspace(-1.0, 1.0, 40001)
    ep, en = np.exp((z - 1.0) / temp), np.exp((-z - 1.0) / temp)
    assert 0.0 < ep[ep > 0.0].min() < np.finfo(float).tiny  # subnormal lanes
    total = float(np.sum(ep) + np.sum(en))
    want_value, want_weights = 1.0 + temp * np.log(total), (ep - en) / total
    value, weights = tikhonov._soft_abs_max(z, temp)
    assert value == want_value and np.array_equal(weights, want_weights)
    values, block = tikhonov._soft_abs_max(np.array([z, 0.5 * z]), np.array([[temp], [1.0]]))
    assert values[0, 0] == want_value and np.array_equal(block[0], want_weights)
    assert np.array_equal(block[1], tikhonov._soft_abs_max(0.5 * z, 1.0)[1])
    if temp < 1.0 / 720.0:
        assert np.abs(weights[weights != 0.0]).min() < np.finfo(float).tiny


def test_minimize_many_of_no_problems_is_empty(op64):
    assert tikhonov.minimize_many([], RegularizerFamily(op64, m=2), GridFunction.zeros(64)) == []


@pytest.mark.parametrize("driver", ["loop", "scipy"])
def test_minimize_many_matches_one_by_one(op64, quad, monkeypatch, driver):
    # Three problems solved as one block give each problem's own minimize result,
    # bit for bit, also where setulb has another signature and rows descend in turn.
    if driver == "scipy":
        monkeypatch.setattr(tikhonov, "_setulb", lambda: None)
    u_true = make_truth("hoelder", op64, p=0.5, cfg=quad)
    problem, fam = make_problem(op64, u_true), RegularizerFamily(op64, m=2)
    probs = [make_prob(problem, delta, delta**1.5, seed=i) for i, delta in enumerate((1e-1, 1e-2, 1e-3))]
    got = tikhonov.minimize_many(probs, fam, u_true, max_iter=60)
    for prob, res in zip(probs, got):
        try:
            want = minimize(prob, fam, u_true, max_iter=60)
        except UncertifiedResultError as exc:
            want = exc.result
        for field in ("u_min", "v_min"):
            assert getattr(res, field).values.tobytes() == getattr(want, field).values.tobytes()
        for field in ("objective", "residual", "penalty", "certificate_bound", "certified"):
            assert getattr(res, field) == getattr(want, field)


def test_minimize_falls_back_to_scipy_driver(setup, monkeypatch):
    # Where setulb has another signature, descents run scipy's "L-BFGS-B" with the same result.
    problem, fam, u_true = setup
    prob = make_prob(problem, 1e-2, 1e-2, seed=9)
    want = minimize(prob, fam, u_true, max_iter=60)
    methods = []
    lbfgs = tikhonov._lbfgs

    def recording(*args, **kwargs):
        methods.append(kwargs["method"])
        return lbfgs(*args, **kwargs)

    monkeypatch.setattr(tikhonov, "_setulb", lambda: None)
    monkeypatch.setattr(tikhonov, "_lbfgs", recording)
    got = minimize(prob, fam, u_true, max_iter=60)
    assert methods == ["L-BFGS-B"] * len(ANNEAL_TEMPS)
    for field in ("u_min", "v_min"):
        assert getattr(got, field).values.tobytes() == getattr(want, field).values.tobytes()
    for field in ("objective", "residual", "penalty", "certificate_bound", "certified"):
        assert getattr(got, field) == getattr(want, field)


@pytest.fixture
def reload_setulb():
    """Clears ``_setulb``'s cache after a test, so the next call loads the extension again without its patches."""
    yield
    tikhonov._setulb.cache_clear()


@pytest.mark.parametrize("broken", ["missing extension file", "unloadable file", "other signature"])
def test_broken_setulb_falls_back_to_scipy_driver(setup, monkeypatch, reload_setulb, broken):
    # A missing _lbfgsb extension, a file that does not load as one (scipy's
    # _lbfgsb_py.py) and a setulb with another signature each leave no routine
    # to loop around: descents run scipy's "L-BFGS-B", with the same result.
    problem, fam, u_true = setup
    prob = make_prob(problem, 1e-2, 1e-2, seed=9)
    want = minimize(prob, fam, u_true, max_iter=60)
    methods = []

    def recording(*args, **kwargs):
        methods.append(kwargs["method"])
        return scipy.optimize.minimize(*args, **kwargs)

    if broken == "missing extension file":
        monkeypatch.setattr(scale, "EXTENSION_SUFFIXES", [".no-such-extension.so"])
    elif broken == "unloadable file":
        monkeypatch.setattr(scale, "EXTENSION_SUFFIXES", ["_py.py"])
    else:
        monkeypatch.setattr(tikhonov, "_SETULB_SIGNATURE", "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,csave,lsave,isave,dsave)")
    tikhonov._setulb.cache_clear()
    assert tikhonov._setulb() is None
    monkeypatch.setattr(tikhonov, "_lbfgs", recording)
    got = minimize(prob, fam, u_true, max_iter=60)
    assert methods == ["L-BFGS-B"] * len(ANNEAL_TEMPS)
    for field in ("u_min", "v_min"):
        assert getattr(got, field).values.tobytes() == getattr(want, field).values.tobytes()
    for field in ("objective", "residual", "penalty", "certificate_bound", "certified"):
        assert getattr(got, field) == getattr(want, field)


def test_minimize_raises_uncertified_result(setup, monkeypatch):
    # A result that misses its certificate is raised by minimize, and carries that result.
    problem, fam, u_true = setup
    zero = GridFunction.zeros(256)
    missed = tikhonov.MinimizeResult(zero, zero, 2.0, 1.0, 1.0, 1.5, certified=False)
    monkeypatch.setattr(tikhonov, "minimize_many", lambda *args: [missed])
    with pytest.raises(UncertifiedResultError, match="^objective 2.0 exceeds the certificate bound 1.5$") as info:
        minimize(make_prob(problem, 1e-2, 1e-2), fam, u_true)
    assert info.value.result is missed


def test_uncertified_error_pickle_round_trip(setup):
    # An error that crosses a process boundary is pickled; it must come back
    # with its message and the best point found.
    problem, fam, u_true = setup
    prob = make_prob(problem, 1e-2, 1e-2, seed=10)
    res = minimize(prob, fam, u_true, seed=10)
    err = UncertifiedResultError("objective exceeds the certificate bound", res)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is UncertifiedResultError
    assert str(back) == str(err)
    assert back.result.objective == res.objective
    assert np.array_equal(back.result.v_min.values, res.v_min.values)
