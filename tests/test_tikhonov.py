import pickle

import numpy as np
import pytest
import scipy.optimize

from oversmooth import (
    GridFunction,
    NoiseSpec,
    ParamChoice,
    RegularizerFamily,
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
from oversmooth import tikhonov
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


def test_problem_validation(setup):
    problem, _, _ = setup
    with pytest.raises(ValueError):
        make_prob(problem, 0.1, 0.0)
    with pytest.raises(ValueError):
        make_prob(problem, 0.1, 1.0, r=0.0)


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
    surrogate = SmoothedObjective(prob, (0.05, 0.02))
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.uniform(-1.0, 1.0, 64)
        d = rng.standard_normal(64)
        d /= np.linalg.norm(d)
        _, grad = surrogate.value_and_grad(v)
        t = 1e-6
        fp, _ = surrogate.value_and_grad(v + t * d)
        fm, _ = surrogate.value_and_grad(v - t * d)
        fd = (fp - fm) / (2.0 * t)
        exact = float(grad @ d)
        assert abs(fd - exact) <= 1e-5 * max(abs(exact), 1e-10)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_value_and_grad_is_the_plain_formula(op256, quad, r):
    # The in-place evaluation must give exactly the floats of the out-of-place
    # formula written out here, the overflow return included, and leave v alone.
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
    surrogate = SmoothedObjective(prob, (0.03, 0.01))

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
        s_res, w_res = soft_abs_max(f - prob.f_delta.values, surrogate.temp_res)
        s_pen, w_pen = soft_abs_max(v, surrogate.temp_pen)
        value = s_res**r + prob.alpha * s_pen**r
        back = adjoint(adjoint(f * w_res))
        return value, r * s_res ** (r - 1.0) * back + prob.alpha * r * s_pen ** (r - 1.0) * w_pen

    overflow = np.full(op.n, 1e4)
    assert plain(overflow)[0] == np.inf
    for v in (*rng.uniform(-1.0, 1.0, (5, op.n)), overflow):
        kept = v.copy()
        value, grad = surrogate.value_and_grad(v)
        want_value, want_grad = plain(v)
        assert value == want_value
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(v, kept)


# -- the L-BFGS-B loop around setulb ---------------------------------------------

DESCENT_OPTIONS = {"ftol": 1e-16, "gtol": 1e-12, "maxcor": 20}


def descent_case(op, case, r):
    """A surrogate from v = 0 at n = 64 that shows ``case``, and the iteration cap to run it with."""
    problem = make_problem(op, make_truth("low_order", op))
    if case == "overflow":  # data near 1e10: the line search steps far enough for exp to overflow
        prob = TikhonovProblem(problem, GridFunction(np.full(op.n, 1e10)), 0.1, GridFunction.zeros(op.n), 1e-3, r=r)
        maxiter = 300
    else:
        delta, alpha, maxiter = {"capped": (1e-2, 1e-2**r, 20), "converged": (1e-2, 1e3, 300), "re-request": (1e-3, 1e-3**r, 300)}[case]
        prob = make_prob(problem, delta, alpha, r=r)
    residual = tikhonov._evaluate(prob, np.zeros(op.n))[1]
    return SmoothedObjective(prob, (0.1 * residual, 1e-4 * residual)).value_and_grad, maxiter


@pytest.mark.skipif(tikhonov._setulb() is None, reason="scipy's setulb has another signature")
@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("case", ["capped", "converged", "overflow", "re-request"])
def test_lbfgsb_loop_matches_scipy_driver(op64, monkeypatch, case, r):
    # The loop must take scipy's iterates bit for bit and count as scipy does.
    fun, maxiter = descent_case(op64, case, r)
    options = {"maxiter": maxiter, **DESCENT_OPTIONS}
    x0 = np.zeros(op64.n)
    want = scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", options=options)

    setulb, requests, values = tikhonov._setulb(), [], []

    def counting_setulb(*args):
        setulb(*args)
        requests.append(args[11][0] == 3)  # task: f and g wanted

    def recording(x):
        value, grad = fun(x)
        values.append(value)
        return value, grad

    monkeypatch.setattr(tikhonov, "_setulb", lambda: counting_setulb)
    got = scipy.optimize.minimize(recording, x0, method=tikhonov._lbfgsb, options=options)
    assert got.x.tobytes() == want.x.tobytes()
    assert got.fun == want.fun
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
