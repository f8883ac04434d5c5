"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criteria with a structural obstruction at desk-scale grids are implemented
exactly as stated and marked as expected failures, with the analysis in the
README (known limitations) and quantified by companion tests here and in the
module suites.
"""

import math

import numpy as np
import pytest

from oversmooth import (
    GridFunction,
    NoiseSpec,
    QuadratureConfig,
    RegularizerFamily,
    TikhonovProblem,
    add_noise,
    decay_check,
    fit_slope,
    gap_table,
    interpolation_check,
    log_smooth_element,
    make_problem,
    make_truth,
    minimize,
    nonlinearity_check,
    riemann_liouville,
)
from oversmooth.tikhonov import SmoothedObjective


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if passed else 'FAIL'}: {criterion} ({detail})")


# -- 1. fractional-power oracle agreement -----------------------------------------


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("shape", ["x", "sin_pi_x"])
def test_criterion_1_fracpow_oracle(op256, p, shape):
    x = np.linspace(0.0, 1.0, 256)
    u = GridFunction(x if shape == "x" else np.sin(np.pi * x))
    err = (op256.power(p, u) - riemann_liouville(p, u)).sup_norm()
    report("1 fracpow-oracle", err <= 1e-3, f"p={p} u={shape} sup_err={err:.2e}")
    assert err <= 1e-3


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.xfail(
    strict=True,
    reason="structural first-node mismatch h^p |2^(1-p) - 1/Gamma(1+p)| for "
    "inputs with u(0) != 0; quantified in test_scale and README",
)
def test_criterion_1_fracpow_oracle_constant(op256, p):
    u = GridFunction.ones(256)
    err = (op256.power(p, u) - riemann_liouville(p, u)).sup_norm()
    report("1 fracpow-oracle", err <= 1e-3, f"p={p} u=ones sup_err={err:.2e}")
    assert err <= 1e-3


# -- 2. semigroup property ----------------------------------------------------------


def test_criterion_2_semigroup(op256):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(0.1, 0.8)
        q = rng.uniform(0.1, min(0.9 - p, 0.8))
        vals = rng.uniform(-1.0, 1.0, 256)
        u = GridFunction(vals / np.max(np.abs(vals)))
        defect = (
            op256.power(p, op256.power(q, u)) - op256.power(p + q, u)
        ).sup_norm()
        worst = max(worst, defect)
    passed = worst <= 4.0 * QuadratureConfig.tail_tol
    report("2 semigroup", passed, f"worst defect={worst:.2e} bound={4.0 * QuadratureConfig.tail_tol:.2e}")
    assert passed


# -- 3. interpolation inequality ------------------------------------------------------


def test_criterion_3_interpolation(op256):
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(100):
        vals = rng.uniform(-1.0, 1.0, 256)
        u = GridFunction(vals / np.max(np.abs(vals)))
        for p in (0.25, 0.5, 0.75):
            if not interpolation_check(op256, p, 1.0, u).holds:
                violations += 1
    report("3 interpolation", violations == 0, f"violations={violations}/300")
    assert violations == 0


# -- 4. companion decay ----------------------------------------------------------------


def test_criterion_4_companion_decay(op256):
    fam = RegularizerFamily(op256, m=2)
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    bound = (op256.kappa_star + 1.0) ** 2
    *bounded, half = decay_check(fam, [0.0, 1.0, 2.0, 0.5], betas, seed=0)
    ratios = {rep.p: rep.max_ratio for rep in bounded}
    slope = half.fitted_slope
    passed = all(r <= bound for r in ratios.values()) and 0.45 <= slope <= 0.55
    report(
        "4 companion-decay",
        passed,
        f"ratios={[f'{v:.2f}' for v in ratios.values()]} <= {bound}, half-order slope={slope:.3f}",
    )
    assert all(r <= bound for r in ratios.values())
    assert 0.45 <= slope <= 0.55


# -- 5. gap functions ---------------------------------------------------------------------


def test_criterion_5_gaps_hoelder(op256):
    fam = RegularizerFamily(op256, m=2)
    u_true = make_truth("hoelder", op256, p=0.5)
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    table = gap_table(fam, betas, u_true, GridFunction.zeros(256), a=1.0)
    slopes = [fit_slope(list(zip(betas, vals))) for vals in (table.g1, table.g2, table.g3)]
    passed = all(abs(s - 0.5) <= 0.07 for s in slopes)
    report("5 gaps-hoelder", passed, "slopes=" + ",".join(f"{s:.3f}" for s in slopes))
    assert passed


@pytest.mark.xfail(
    strict=True,
    reason="below the mesh scale every grid vector is maximally smooth, so the "
    "gap functions decay faster than 1/log once beta < h and the max/min band "
    "over [1e-6, 1e-1] blows up; the resolved-zone companion test passes "
    "(test_lavrentiev.test_gap_log_truth_bounded_in_resolved_zone, README)",
)
def test_criterion_5_gaps_log_order(op256):
    fam = RegularizerFamily(op256, m=2)
    u_true = make_truth("low_order", op256)
    betas = list(np.geomspace(1e-1, 1e-6, 11))
    table = gap_table(fam, betas, u_true, GridFunction.zeros(256), a=1.0)
    worst = 0.0
    for vals in (table.g1, table.g2, table.g3):
        scaled = [g * math.log(1.0 / b) for b, g in zip(betas, vals)]
        worst = max(worst, max(scaled) / min(scaled))
    report("5 gaps-log-order", worst <= 5.0, f"max band ratio={worst:.1f}")
    assert worst <= 5.0


# -- 6. nonlinearity conditions ---------------------------------------------------------------


def test_criterion_6_nonlinearity(op256):
    problem = make_problem(op256, make_truth("hoelder", op256, p=1.0))
    rep = nonlinearity_check(problem, rho=0.5, n_samples=1000, seed=0)
    passed = rep.all_pass
    report(
        "6 nonlinearity",
        passed,
        f"failures prep/a/b = {rep.n_prep_fail}/{rep.n_a_fail}/{rep.n_b_fail}, "
        f"worst margin={rep.worst_margin:.1e}",
    )
    assert passed


# -- 7. Hoelder rate reproduction ------------------------------------------------------------


def test_criterion_7_hoelder_rate_p1(study_hoelder_p1):
    rep = study_hoelder_p1
    all_certified = all(r.certified for r in rep.rows)
    passed = all_certified and abs(rep.fitted_slope - 0.5) <= 0.12
    report(
        "7 hoelder-rate p=1",
        passed,
        f"slope={rep.fitted_slope:.3f} expected=0.5+-0.12 certified={all_certified}",
    )
    assert all_certified
    assert abs(rep.fitted_slope - 0.5) <= 0.12


def test_criterion_7_hoelder_rate_p05(study_hoelder_p05):
    rep = study_hoelder_p05
    all_certified = all(r.certified for r in rep.rows)
    passed = all_certified and abs(rep.fitted_slope - 1.0 / 3.0) <= 0.12
    report(
        "7 hoelder-rate p=0.5",
        passed,
        f"slope={rep.fitted_slope:.3f} expected=0.333+-0.12 certified={all_certified}",
    )
    assert all_certified
    assert abs(rep.fitted_slope - 1.0 / 3.0) <= 0.12


def test_criterion_7_supplement_p1_envelope(study_hoelder_p1):
    # The theorem's actual content at p = 1: certified errors stay below a
    # sqrt(delta) envelope and decay overall.
    errs = [r.error_sup for r in study_hoelder_p1.rows]
    deltas = [r.delta for r in study_hoelder_p1.rows]
    ratio = max(e / math.sqrt(d) for d, e in zip(deltas, errs))
    passed = ratio <= 0.5 and errs[-1] < errs[0]
    report("7s envelope p=1", passed, f"max err/sqrt(delta)={ratio:.3f}")
    assert passed


# -- 8. low-order regime -----------------------------------------------------------------------


def test_criterion_8_low_order(study_low_order):
    rep = study_low_order
    errs = [r.error_sup for r in rep.rows]
    converges = all(b < a for a, b in zip(errs[1:], errs[2:])) and errs[-1] < errs[0]
    all_certified = all(r.certified for r in rep.rows)
    passed = all_certified and rep.statistic <= 5.0 and converges
    report(
        "8 low-order",
        passed,
        f"max/min of err*log(1/delta)={rep.statistic:.2f} converges={converges} certified={all_certified}",
    )
    assert passed


# -- 9. no-smoothness convergence ----------------------------------------------------------------


def test_criterion_9_no_smoothness(study_none):
    rep = study_none
    errs = [r.error_sup for r in rep.rows]
    monotone = all(b < a for a, b in zip(errs[1:], errs[2:]))
    all_certified = all(r.certified for r in rep.rows)
    passed = all_certified and monotone and errs[-1] < errs[0]
    report(
        "9 no-smoothness",
        passed,
        f"errors decrease after first point={monotone} certified={all_certified}",
    )
    assert passed


# -- 10. minimizer sanity --------------------------------------------------------------------------


def test_criterion_10_minimizer_sanity(op64):
    u_true = make_truth("hoelder", op64, p=1.0)
    problem = make_problem(op64, u_true)
    fam = RegularizerFamily(op64, m=2)
    u_bar_w = GridFunction.zeros(64)
    u_bar = problem.op.apply(u_bar_w)
    prob0 = TikhonovProblem(
        forward_problem=problem,
        f_delta=problem.forward(u_bar),
        delta=0.0,
        u_bar_witness=u_bar_w,
        alpha=0.5,
    )
    res = minimize(prob0, fam, u_bar, seed=0)
    exact_ok = res.objective <= 1e-12

    f_delta = add_noise(problem.f_true, NoiseSpec(0.1, "random_sign", 1))
    prob = TikhonovProblem(
        forward_problem=problem,
        f_delta=f_delta,
        delta=0.1,
        u_bar_witness=u_bar_w,
        alpha=0.1,
    )
    surrogate = SmoothedObjective([prob], [(0.05, 0.02)])  # a block of one row
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        v = rng.uniform(-1.0, 1.0, (1, 64))
        d = rng.standard_normal(64)
        d /= np.linalg.norm(d)
        _, (grad,) = surrogate.value_and_grad(v)
        t = 1e-6
        (fp,), _ = surrogate.value_and_grad(v + t * d)
        (fm,), _ = surrogate.value_and_grad(v - t * d)
        worst = max(worst, abs((fp - fm) / (2.0 * t) - grad @ d) / max(abs(grad @ d), 1e-10))
    grad_ok = worst <= 1e-5
    report(
        "10 minimizer-sanity",
        exact_ok and grad_ok,
        f"exact-data objective={res.objective:.1e}, gradient rel err={worst:.1e}",
    )
    assert exact_ok
    assert grad_ok