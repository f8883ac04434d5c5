import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oversmooth import (
    GridFunction,
    NoiseSpec,
    add_noise,
    make_problem,
    make_truth,
    nonlinearity_check,
)


@pytest.fixture(scope="module")
def ramp_problem(op256):
    return make_problem(op256, make_truth("hoelder", op256, p=1.0))


def test_forward_of_zero(op256):
    prob = make_problem(op256, GridFunction.zeros(256))
    out = prob.forward(GridFunction.zeros(256))
    assert np.array_equal(out.values, np.ones(256))


def test_forward_of_constant(op256):
    prob = make_problem(op256, GridFunction.zeros(256))
    x = np.linspace(0.0, 1.0, 256)
    out = prob.forward(GridFunction.ones(256))
    assert np.max(np.abs(out.values - np.exp(x))) < 1e-14


def test_forward_of_ramp(op256):
    prob = make_problem(op256, GridFunction.zeros(256))
    x = np.linspace(0.0, 1.0, 256)
    out = prob.forward(GridFunction(x))
    assert np.max(np.abs(out.values - np.exp(x**2 / 2.0))) < 1e-13


def test_forward_starts_at_one(ramp_problem):
    assert ramp_problem.f_true.values[0] == 1.0


def test_forward_overflow(op256):
    prob = make_problem(op256, GridFunction.zeros(256))
    with pytest.raises(OverflowError):
        prob.forward(GridFunction(np.full(256, 1e6)))


def test_truth_too_large_for_forward_map(op64):
    with pytest.raises(OverflowError, match="^truth is too large for the exponential forward map$"):
        make_problem(op64, GridFunction(np.full(64, 1000.0)))


def test_derivative_of_zero_direction(ramp_problem):
    out = ramp_problem.derivative(GridFunction.ones(256), GridFunction.zeros(256))
    assert out.sup_norm() == 0.0


def test_derivative_at_zero_point(op256):
    prob = make_problem(op256, GridFunction.zeros(256))
    x = np.linspace(0.0, 1.0, 256)
    out = prob.derivative(GridFunction.zeros(256), GridFunction.ones(256))
    assert np.array_equal(out.values, x)


def test_derivative_matches_finite_difference(ramp_problem):
    rng = np.random.default_rng(8)
    u = GridFunction(rng.uniform(-1.0, 1.0, 256))
    h = GridFunction(rng.uniform(-1.0, 1.0, 256))
    t = 1e-6
    fd = (1.0 / (2.0 * t)) * (
        ramp_problem.forward(u + t * h) - ramp_problem.forward(u + (-t) * h)
    )
    exact = ramp_problem.derivative(u, h)
    assert (fd - exact).sup_norm() <= 1e-5 * max(exact.sup_norm(), 1.0)


def test_derivative_two_sided_comparison(ramp_problem):
    # c1 |G h| <= |F'(u_true) h| <= c2 |G h| pointwise.
    rng = np.random.default_rng(9)
    for _ in range(100):
        h = GridFunction(rng.uniform(-1.0, 1.0, 256))
        gh = np.abs(ramp_problem.op.apply(h).values)
        dv = np.abs(ramp_problem.derivative(ramp_problem.u_true, h).values)
        assert np.all(ramp_problem.c1 * gh <= dv + 1e-14)
        assert np.all(dv <= ramp_problem.c2 * gh + 1e-14)


def test_constants_are_reciprocal(ramp_problem):
    assert ramp_problem.c1 == 1.0 / ramp_problem.c2
    assert 0.0 < ramp_problem.c1 <= 1.0 <= ramp_problem.c2


@given(
    arrays(np.float64, 32, elements=st.floats(min_value=-2.0, max_value=2.0)),
    arrays(np.float64, 32, elements=st.floats(min_value=0.0, max_value=1.0)),
)
def test_forward_monotone(base, shift):
    # u <= v pointwise implies F(u) <= F(v) pointwise (positive kernel).
    from oversmooth import ScaleOperator

    op = ScaleOperator(32)
    prob = make_problem(op, GridFunction.zeros(32))
    lo = prob.forward(GridFunction(base)).values
    hi = prob.forward(GridFunction(base + shift)).values
    assert np.all(lo <= hi + 1e-12)


# -- ground truths ---------------------------------------------------------------


def test_truth_hoelder_one_is_ramp(op256):
    u = make_truth("hoelder", op256, p=1.0)
    assert np.array_equal(u.values, np.linspace(0.0, 1.0, 256))


def test_truth_hoelder_half_interior(op256):
    x = np.linspace(0.0, 1.0, 256)
    u = make_truth("hoelder", op256, p=0.5)
    exact = 2.0 * np.sqrt(x / np.pi)
    assert np.max(np.abs(u.values - exact)[x > 0.1]) < 5e-3
    assert abs(u.values[-1] - 2.0 / math.sqrt(math.pi)) < 2e-3


def test_truth_hoelder_validation(op256):
    with pytest.raises(ValueError):
        make_truth("hoelder", op256, p=0.0)
    with pytest.raises(ValueError):
        make_truth("hoelder", op256, p=1.5)
    with pytest.raises(ValueError):
        make_truth("unknown", op256)


def test_truth_generic_continuous(op256):
    u = make_truth("generic_continuous", op256)
    assert u.values[0] == 0.0
    assert u.values[-1] == 1.0
    assert np.max(np.abs(np.diff(u.values))) < 0.25  # continuous profile
    assert np.all(np.diff(u.values) > 0.0)


def test_truth_low_order_in_range(op256):
    u = make_truth("low_order", op256)
    assert u.values[0] == 0.0


# -- noise ------------------------------------------------------------------------


def test_noise_zero_level(ramp_problem):
    spec = NoiseSpec(0.0, "random_sign", 3)
    out = add_noise(ramp_problem.f_true, spec)
    assert np.array_equal(out.values, ramp_problem.f_true.values)


@pytest.mark.parametrize("kind", ["random_sign", "smooth_bump"])
@pytest.mark.parametrize("delta", [1e-2, 1e-5])
def test_noise_exact_level(ramp_problem, kind, delta):
    from oversmooth.exp_volterra import noise_vector

    eta = noise_vector(256, NoiseSpec(delta, kind, 5))
    assert abs(eta.sup_norm() - delta) <= 1e-15 * delta
    # Through the data difference one representation rounding per node enters.
    out = add_noise(ramp_problem.f_true, NoiseSpec(delta, kind, 5))
    achieved = (out - ramp_problem.f_true).sup_norm()
    f_scale = ramp_problem.f_true.sup_norm()
    assert abs(achieved - delta) <= 4.0 * np.finfo(float).eps * f_scale


def test_noise_deterministic(ramp_problem):
    a = add_noise(ramp_problem.f_true, NoiseSpec(1e-2, "random_sign", 7))
    b = add_noise(ramp_problem.f_true, NoiseSpec(1e-2, "random_sign", 7))
    assert np.array_equal(a.values, b.values)
    c = add_noise(ramp_problem.f_true, NoiseSpec(1e-2, "random_sign", 8))
    assert not np.array_equal(a.values, c.values)


def test_noise_validation():
    for delta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^noise level must be nonnegative and finite, got {delta:g}$"):
            NoiseSpec(delta, "random_sign", 0)
    with pytest.raises(ValueError):
        NoiseSpec(0.1, "pink", 0)


# -- nonlinearity conditions ---------------------------------------------------------


def test_nonlinearity_zero_truth_small_step(op64):
    # With zero truth both constants are 1 and exp(t) - 1 >= t makes the
    # second condition hold with eps = 1/2 for nonnegative steps.
    prob = make_problem(op64, GridFunction.zeros(64))
    rep = nonlinearity_check(prob, rho=0.5, eps=0.5, n_samples=200, seed=1)
    assert rep.all_pass
    assert rep.worst_margin >= -1e-12


def test_nonlinearity_full_sample(ramp_problem):
    rep = nonlinearity_check(ramp_problem, rho=0.5, n_samples=1000, seed=0)
    assert rep.n_prep_fail == 0
    assert rep.n_a_fail == 0
    assert rep.n_b_fail == 0
    assert rep.worst_margin >= -1e-12
    assert len(rep.rows) == 1000


def test_nonlinearity_validation(ramp_problem):
    with pytest.raises(ValueError):
        nonlinearity_check(ramp_problem, rho=1.5)
    with pytest.raises(ValueError):
        nonlinearity_check(ramp_problem, rho=0.5, eps=ramp_problem.c1 * 2.0)


def test_nonlinearity_blocks_match_per_sample_loop(op64):
    # The samples run in row blocks; every row must equal the per-sample
    # computation written out, bit for bit.  37 samples leave a partial last block.
    prob = make_problem(op64, make_truth("hoelder", op64, p=1.0))
    rho, eps, n_samples, seed = 0.5, prob.c1 / 2.0, 37, 3
    rng = np.random.default_rng(seed)
    f_truth = prob.forward(prob.u_true).values
    want = []
    for i in range(n_samples):
        step = op64.apply(GridFunction(rng.uniform(-1.0, 1.0, 64))).values
        theta_raw = op64.apply(GridFunction(step)).values
        nrm = np.max(np.abs(theta_raw))
        target = rng.uniform(0.0, rho)
        scale = 0.0 if nrm == 0.0 else target / nrm
        theta = scale * theta_raw
        delta = prob.forward(GridFunction(prob.u_true.values + scale * step)).values - f_truth
        theta_norm = float(np.max(np.abs(theta)))
        delta_norm = float(np.max(np.abs(delta)))
        prep = float(np.min(np.abs(theta) * np.abs(delta) - np.abs(delta - f_truth * theta)))
        margins = [prep]
        ok_a = ok_b = True
        if theta_norm <= rho:
            margins.append(theta_norm - (1.0 - rho) / prob.c2 * delta_norm)
            ok_a = margins[-1] >= -1e-12
        if delta_norm <= prob.c1 - eps:
            margins.append(delta_norm - eps * theta_norm)
            ok_b = margins[-1] >= -1e-12
        want.append((i, theta_norm, delta_norm, prep >= -1e-12, ok_a, ok_b, min(margins)))
    rep = nonlinearity_check(prob, rho=rho, n_samples=n_samples, seed=seed)
    assert rep.rows == tuple(want)


def test_nonlinearity_csv(ramp_problem):
    rep = nonlinearity_check(ramp_problem, rho=0.5, n_samples=3, seed=0)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "sample,theta_norm,delta_norm,ineq_prep,ineq_a,ineq_b,margin"
    assert len(lines) == 4
