import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oversmooth import (
    GridFunction,
    InternalConsistencyError,
    RegularizerFamily,
    auxiliary_element,
    decay_check,
    fit_slope,
    gap_table,
    lavrentiev,
    NoiseSpec,
    log_smooth_element,
    make_problem,
    make_truth,
    nonlinearity_check,
    unit_probes,
)


@pytest.fixture(scope="module")
def fam(op256):
    return RegularizerFamily(op256, m=2)


@pytest.fixture(scope="module")
def hoelder_truth(op256):
    return make_truth("hoelder", op256, p=0.5)


def random_unit(op, rng):
    vals = rng.uniform(-1.0, 1.0, op.n)
    return GridFunction(vals / np.max(np.abs(vals)))


def test_family_validation(op256):
    with pytest.raises(ValueError):
        RegularizerFamily(op256, m=0)
    assert RegularizerFamily(op256, m=3).saturation == 3.0


def test_regularize_zero(fam):
    assert fam.regularize(0.1, GridFunction.zeros(256)).sup_norm() == 0.0
    assert fam.companion(0.1, GridFunction.zeros(256)).sup_norm() == 0.0


def test_rejects_nonpositive_beta(fam):
    # Also non-finite: each shifted solve would fail later with a generic message.
    for beta, apply in itertools.product((0.0, -0.1, math.nan, math.inf), (fam.regularize, fam.companion)):
        with pytest.raises(ValueError, match=f"^beta must be positive and finite, got {beta:g}$"):
            apply(beta, GridFunction.ones(256))


def test_single_iteration_is_classical(op256):
    fam1 = RegularizerFamily(op256, m=1)
    f = GridFunction.ones(256)
    assert np.array_equal(
        fam1.regularize(0.5, f).values, op256.solve_shifted(0.5, f).values
    )


def test_single_iteration_closed_form(op256):
    # R_beta 1 = 2 exp(-2x) and S_beta 1 = exp(-2x) for beta = 1/2.
    fam1 = RegularizerFamily(op256, m=1)
    x = np.linspace(0.0, 1.0, 256)
    r = fam1.regularize(0.5, GridFunction.ones(256))
    s = fam1.companion(0.5, GridFunction.ones(256))
    assert np.max(np.abs(r.values - 2.0 * np.exp(-2.0 * x))) < 1e-5
    assert np.max(np.abs(s.values - np.exp(-2.0 * x))) < 1e-5


def test_regularizer_norm_bound(fam):
    # Sampled ||R_beta|| <= m kappa_* / beta at m = 2, beta = 0.01.
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = random_unit(fam.op, rng)
        assert fam.regularize(0.01, f).sup_norm() <= 2 * fam.op.kappa_star / 0.01


def test_identity_companion_plus_regularized_integral(fam):
    # S_beta f + R_beta G f = f to near machine precision.
    rng = np.random.default_rng(5)
    for beta in (1e-4, 1e-2, 1.0):
        f = random_unit(fam.op, rng)
        recon = fam.companion(beta, f) + fam.regularize(beta, fam.op.apply(f))
        assert (recon - f).sup_norm() <= 1e-12 * f.sup_norm()


def test_regularizer_commutes_with_integral(fam):
    rng = np.random.default_rng(6)
    for beta in (1e-4, 1e-2, 1e-1):
        f = random_unit(fam.op, rng)
        lhs = fam.regularize(beta, fam.op.apply(f))
        rhs = fam.op.apply(fam.regularize(beta, f))
        assert (lhs - rhs).sup_norm() <= 1e-10 * f.sup_norm()


def test_regularized_power_bound(fam):
    # ||R_beta G^p u|| <= c beta^(p-1) with a uniform sampled constant.
    probes = unit_probes(fam.op.n, 30, 3)
    for p in (0.25, 0.5, 0.75, 1.0):
        powered = [fam.op.power(p, u) for u in probes]
        for beta in (1e-4, 1e-3, 1e-2, 1e-1):
            worst = max(fam.regularize(beta, w).sup_norm() for w in powered)
            assert worst * beta ** (1.0 - p) <= 4.0


# -- companion decay ------------------------------------------------------------


def test_decay_validation(fam):
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    with pytest.raises(ValueError, match="saturation"):
        decay_check(fam, [2.5], betas)
    with pytest.raises(ValueError, match="decreasing"):
        decay_check(fam, [0.5], [1e-4, 1e-1])
    with pytest.raises(ValueError):
        decay_check(fam, [-1.0], betas)
    for bad in ([0.1, math.nan, 0.01], [math.inf, 0.1, 0.01], [0.1, 0.0]):
        with pytest.raises(ValueError, match=f"^betas must be positive and finite, got {re.escape(str(bad))}$"):
            decay_check(fam, [0.5], bad)


BETAS = [1e-1, 1e-2, 1e-3]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda op: NoiseSpec(0.1, "random_sign", -1), "seed must be non-negative"),
        (lambda op: unit_probes(op.n, -1, 0), "count must be non-negative"),
        (lambda op: decay_check(RegularizerFamily(op), [0.5], BETAS, n_samples=-3), "n_samples must be non-negative"),
        *(
            (
                lambda op, k=k: nonlinearity_check(make_problem(op, make_truth("hoelder", op, p=1.0)), n_samples=k),
                "n_samples must be at least 1",
            )
            for k in (-1, 0)
        ),
        *(
            (
                lambda op, b=BETAS[:k]: decay_check(RegularizerFamily(op), [0.5], b),
                f"a decay slope fit needs at least three betas, got {k}",
            )
            for k in (0, 1, 2)
        ),
        (
            lambda op: gap_table(
                RegularizerFamily(op), [], GridFunction.ones(op.n), GridFunction.zeros(op.n), a=math.nan
            ),
            "betas must not be empty",
        ),
    ],
    ids=[
        "noise-seed",
        "unit-probes",
        "decay-samples",
        "nonlinearity-samples",
        "nonlinearity-no-samples",
        "no-beta",
        "one-beta",
        "two-betas",
        "gap-table-no-beta",
    ],
)
def test_seeds_counts_and_betas_fail_where_they_enter(op64, call, message):
    # Not numpy's error from the draw, a silent zero probes or samples, a failed slope fit after the
    # sampling, or an empty gap table in which no a was checked.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(op64)


@pytest.mark.parametrize(
    "seed, error, message",
    [(-1, ValueError, "seed must be non-negative"), (0.5, TypeError, "seed must be an integer, got 0.5")],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda op, seed: unit_probes(op.n, 2, seed),
        lambda op, seed: decay_check(RegularizerFamily(op), [0.5], BETAS, n_samples=2, seed=seed),
        lambda op, seed: nonlinearity_check(make_problem(op, make_truth("hoelder", op, p=1.0)), seed=seed),
    ],
    ids=["unit-probes", "decay-check", "nonlinearity-check"],
)
def test_sampling_seeds_fail_where_they_enter(op64, call, seed, error, message):
    # Not numpy's "expected non-negative integer" or SeedSequence's TypeError from the draw.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(op64, seed)


@pytest.mark.parametrize("a", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", ["auxiliary_element", "gap_table"])
def test_auxiliary_element_rejects_bad_a(op64, entry, a):
    # Not power's "fractional order" error after the element's m-step solves, nor a saturation
    # shortfall against 1 + a = inf; a = 0 is outside the scale as in coupling_exponent.
    fam, ones, zero = RegularizerFamily(op64, m=2), GridFunction.ones(64), GridFunction.zeros(64)
    with pytest.raises(ValueError, match=f"^a must be positive and finite, got {a:g}$"):
        if entry == "auxiliary_element":
            auxiliary_element(fam, 0.1, ones, zero, a=a)
        else:
            gap_table(fam, [0.1], ones, zero, a=a)


def test_decay_bounded_at_zero_order(fam):
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    (rep,) = decay_check(fam, [0.0], betas, seed=0)
    assert rep.max_ratio <= (fam.op.kappa_star + 1.0) ** fam.m
    assert abs(rep.fitted_slope) <= 0.2


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_decay_integer_orders(fam, p):
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    (rep,) = decay_check(fam, [p], betas, seed=0)
    assert rep.max_ratio <= (fam.op.kappa_star + 1.0) ** fam.m
    assert abs(rep.fitted_slope - p) <= 0.15


def test_decay_half_order_slope(fam):
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    (rep,) = decay_check(fam, [0.5], betas, seed=0)
    assert 0.45 <= rep.fitted_slope <= 0.55


def test_decay_csv_format(fam):
    betas = list(np.geomspace(1e-1, 1e-3, 3))
    (rep,) = decay_check(fam, [1.0], betas, n_samples=5, seed=0)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "beta,norm,ratio"
    assert len(lines) == 4


def test_decay_orders_match_written_out_definition(fam, monkeypatch):
    # One call for all orders against max over probes w of ||S_beta G^p w|| per order and beta.
    # Orders 0 and 0.5 take the same operations as the definition; orders 1 and 2
    # apply G after S_beta instead of before, so they agree up to rounding.
    # 4 + 37 probes leave a partial last block of rows; its probe is scaled up
    # so that the largest norms come from it.
    probes = unit_probes(fam.op.n, 37, 0)
    probes[-1] = probes[-1] * 100.0
    monkeypatch.setattr(lavrentiev, "unit_probes", lambda n, count, seed: list(probes))
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    orders = (0.0, 1.0, 2.0, 0.5)
    reports = decay_check(fam, orders, betas, n_samples=37, seed=0)
    assert [rep.p for rep in reports] == list(orders)
    for p, rep in zip(orders, reports):
        powered = [fam.op.power(p, w) for w in probes]
        want = [max(fam.companion(b, w).sup_norm() for w in powered) for b in betas]
        assert rep.betas == tuple(betas)
        if p in (0.0, 0.5):
            assert list(rep.norms) == want
        else:
            np.testing.assert_allclose(rep.norms, want, rtol=1e-9, atol=0.0)
        assert rep.ratios == tuple(nrm / b**p for nrm, b in zip(rep.norms, betas))


@pytest.mark.parametrize(
    "orders, match",
    [
        ([], "at least one power order"),
        ([-1.0, 0.5], "nonnegative"),
        ([0.0, 1.0, -0.5], "nonnegative"),
        ([2.5, 0.5], "saturation"),
        ([0.0, 1.0, 2.0, 2.5], "saturation"),
    ],
)
def test_decay_rejects_bad_order_lists(fam, orders, match):
    with pytest.raises(ValueError, match=match):
        decay_check(fam, orders, list(np.geomspace(1e-1, 1e-4, 7)))


def test_decay_single_order_returns_its_report(fam):
    betas = list(np.geomspace(1e-1, 1e-3, 3))
    single = decay_check(fam, 0.5, betas, n_samples=5, seed=0)
    assert single == decay_check(fam, [0.5], betas, n_samples=5, seed=0)[0]


# -- auxiliary elements -----------------------------------------------------------


def test_aux_with_exact_guess(fam):
    # u_bar = truth: every gap quantity vanishes.
    w = GridFunction.ones(256)
    u_true = fam.op.apply(w)
    aux = auxiliary_element(fam, 0.05, u_true, w)
    assert aux.residual_to_truth == 0.0
    assert aux.a_norm_gap == 0.0
    assert aux.one_norm == 0.0
    assert (aux.u_aux - u_true).sup_norm() == 0.0


def test_aux_forms_agree(fam):
    u_true = make_truth("hoelder", fam.op, p=0.5)
    aux = auxiliary_element(fam, 0.02, u_true, GridFunction.zeros(256))
    op = fam.op
    direct = op.apply(GridFunction.zeros(256)) + op.apply(aux.witness)
    assert (aux.u_aux - direct).sup_norm() == 0.0
    d = u_true - op.apply(GridFunction.zeros(256))
    companion_form = u_true - fam.companion(0.02, d)
    assert (aux.u_aux - companion_form).sup_norm() <= 1e-12 * (1.0 + u_true.sup_norm())


def test_aux_consistency_guard(fam, monkeypatch):
    u_true = make_truth("hoelder", fam.op, p=0.5)
    monkeypatch.setattr(lavrentiev, "_AUX_FORMS_RTOL", 1e-18)
    with pytest.raises(InternalConsistencyError):
        auxiliary_element(fam, 0.02, u_true, GridFunction.zeros(256))


def test_aux_hoelder_decay_slope(fam):
    u_true = make_truth("hoelder", fam.op, p=0.5)
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    g1 = [
        auxiliary_element(fam, b, u_true, GridFunction.zeros(256)).residual_to_truth
        for b in betas
    ]
    assert abs(fit_slope(list(zip(betas, g1))) - 0.5) <= 0.07


# -- gap tables --------------------------------------------------------------------


def test_gap_table_saturation_guard(op256):
    shallow = RegularizerFamily(op256, m=1)
    with pytest.raises(ValueError, match="saturation"):
        gap_table(shallow, [0.1], GridFunction.ones(256), GridFunction.zeros(256), a=1.0)


@pytest.mark.parametrize("betas", [[math.inf], [0.1, math.nan], [-0.1]])
def test_gap_table_rejects_bad_betas(fam, betas):
    with pytest.raises(ValueError, match=f"^betas must be positive and finite, got {re.escape(str(betas))}$"):
        gap_table(fam, betas, GridFunction.ones(256), GridFunction.zeros(256))


def test_gap_table_rows_are_auxiliary_elements(fam):
    u_true = make_truth("hoelder", fam.op, p=0.5)
    w = GridFunction(0.3 * np.sin(3.0 * np.linspace(0.0, 1.0, 256)))
    betas = [1e-1, 1e-2, 1e-3]
    table = gap_table(fam, betas, u_true, w, a=0.5)
    for i, beta in enumerate(betas):
        e = auxiliary_element(fam, beta, u_true, w, a=0.5)
        assert table.g1[i] == e.residual_to_truth
        assert table.g2[i] == e.a_norm_gap / beta**0.5
        assert table.g3[i] == beta * e.one_norm


def test_gap_table_zero_gap(fam):
    w = GridFunction.ones(256)
    u_true = fam.op.apply(w)
    table = gap_table(fam, [0.1, 0.01], u_true, w)
    assert all(v == 0.0 for v in table.g1 + table.g2 + table.g3)


def test_gap_table_hoelder_slopes(fam):
    u_true = make_truth("hoelder", fam.op, p=0.5)
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    table = gap_table(fam, betas, u_true, GridFunction.zeros(256), a=1.0)
    for vals in (table.g1, table.g2, table.g3):
        assert abs(fit_slope(list(zip(betas, vals))) - 0.5) <= 0.07


def test_gap_table_generic_truth_decreases(fam):
    u_true = make_truth("generic_continuous", fam.op)
    betas = list(np.geomspace(1e-1, 1e-6, 11))
    table = gap_table(fam, betas, u_true, GridFunction.zeros(256), a=1.0)
    for vals in (table.g1, table.g2, table.g3):
        assert all(b < a * (1.0 + 1e-9) for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1 * vals[0]


def test_gap_table_csv_format(fam):
    table = gap_table(fam, [0.1, 0.01], GridFunction.ones(256), GridFunction.zeros(256))
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "beta,g1,g2,g3"
    assert len(lines) == 3


# -- logarithmic rates ---------------------------------------------------------------


@pytest.fixture(scope="module")
def log_truth(op256):
    return log_smooth_element(op256, GridFunction.ones(256), 2.0)


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_companion_log_rate_bounded(fam, log_truth, p):
    # ||S_beta G^p u|| log(1/beta) / beta^p stays bounded for log-class u.
    powered = fam.op.power(p, log_truth)
    vals = [
        fam.companion(b, powered).sup_norm() * math.log(1.0 / b) / b**p
        for b in np.geomspace(1e-1, 1e-6, 11)
    ]
    assert max(vals) <= 1.0


def test_regularizer_log_rate_bounded(fam, log_truth):
    vals = [
        fam.regularize(b, log_truth).sup_norm() * b * math.log(1.0 / b)
        for b in np.geomspace(1e-1, 1e-6, 11)
    ]
    assert max(vals) <= 2.0


def test_gap_log_truth_bounded_in_resolved_zone():
    # In the zone beta >= mesh width the log-rate band is tight; below the
    # mesh the discrete surrogate decays faster than 1/log (see README).
    from oversmooth import ScaleOperator

    op = ScaleOperator(1025)
    fam = RegularizerFamily(op, m=2)
    u_true = log_smooth_element(op, GridFunction.ones(op.n), 2.0)
    betas = list(np.geomspace(1e-1, 1e-3, 9))
    table = gap_table(fam, betas, u_true, GridFunction.zeros(op.n), a=1.0)
    for vals in (table.g1, table.g2, table.g3):
        scaled = [g * math.log(1.0 / b) for b, g in zip(betas, vals)]
        assert max(scaled) / min(scaled) <= 5.0


def test_aux_saturation_guard(op256):
    shallow = RegularizerFamily(op256, m=1)
    with pytest.raises(ValueError, match="saturation"):
        auxiliary_element(shallow, 0.1, GridFunction.ones(256), GridFunction.zeros(256), a=1.0)


@given(
    beta=st.floats(min_value=1e-4, max_value=1.0),
    amp=st.floats(min_value=0.01, max_value=3.0),
    freq=st.floats(min_value=0.5, max_value=8.0),
)
def test_aux_witness_relation_property(fam, hoelder_truth, beta, amp, freq):
    # u_aux - u_bar = G witness for any nonzero strong-norm witness of u_bar,
    # and the surrogate also equals the companion form u_true - S_beta(u_true - u_bar).
    op = fam.op
    u_bar_w = GridFunction(amp * np.cos(freq * np.linspace(0.0, 1.0, op.n)))
    aux = auxiliary_element(fam, beta, hoelder_truth, u_bar_w)
    u_bar = op.apply(u_bar_w)
    scale = 1.0 + aux.u_aux.sup_norm()
    assert ((aux.u_aux - u_bar) - op.apply(aux.witness)).sup_norm() <= 1e-14 * scale
    companion_form = hoelder_truth - fam.companion(beta, hoelder_truth - u_bar)
    assert (aux.u_aux - companion_form).sup_norm() <= 1e-12 * scale
    assert aux.one_norm == aux.witness.sup_norm()
