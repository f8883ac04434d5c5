import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oversmooth import (
    GridFunction,
    QuadratureConfig,
    RegularizerFamily,
    ScaleOperator,
    decay_check,
    interpolation_check,
    log_smooth_element,
    riemann_liouville,
)
from oversmooth import scale


def unit_uniform(op, rng):
    vals = rng.uniform(-1.0, 1.0, op.n)
    return GridFunction(vals / np.max(np.abs(vals)))


# -- running integral ------------------------------------------------------


def test_apply_zero(op256):
    assert op256.apply(GridFunction.zeros(256)).sup_norm() == 0.0


def test_apply_constant_is_ramp(op256):
    out = op256.apply(GridFunction.ones(256))
    assert np.array_equal(out.values, np.linspace(0.0, 1.0, 256))


def test_apply_linear_exact(op256):
    x = np.linspace(0.0, 1.0, 256)
    out = op256.apply(GridFunction(x))
    assert np.max(np.abs(out.values - x**2 / 2.0)) < 1e-14


def test_apply_vanishes_at_origin(op256):
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert op256.apply(unit_uniform(op256, rng)).values[0] == 0.0


def test_apply_size_mismatch(op256):
    with pytest.raises(ValueError, match="mismatch"):
        op256.apply(GridFunction.zeros(64))


@given(st.integers(min_value=1, max_value=62), st.floats(min_value=-2.0, max_value=2.0))
def test_lower_triangular_causality(op64, j, bump):
    # Perturbing node j never changes the integral at nodes before j.
    rng = np.random.default_rng(7)
    base = rng.uniform(-1.0, 1.0, 64)
    perturbed = base.copy()
    perturbed[j] += bump
    before = op64.apply(GridFunction(base)).values
    after = op64.apply(GridFunction(perturbed)).values
    assert np.array_equal(before[:j], after[:j])


def test_adjoint_matches_dense(op64):
    dense = op64.dense()
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, 64)
        assert np.max(np.abs(op64._apply_adjoint_values(w) - dense.T @ w)) < 1e-14


# -- shifted solves ---------------------------------------------------------


def test_resolvent_zero(op256):
    assert op256.solve_shifted(0.3, GridFunction.zeros(256)).sup_norm() == 0.0


def test_resolvent_rejects_bad_shift(op256):
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^shift beta must be positive and finite, got {beta:g}$"):
            op256.solve_shifted(beta, GridFunction.ones(256))


def test_operator_needs_two_grid_points():
    with pytest.raises(ValueError, match="^need at least two grid points$"):
        ScaleOperator(1)


@pytest.mark.parametrize("n,bound", [(128, 4e-5), (256, 1e-5)])
def test_resolvent_closed_form(n, bound):
    # (G + 1/2 I) v = 1 has the solution 2 exp(-2x); trapezoid error is O(h^2).
    op = ScaleOperator(n)
    x = np.linspace(0.0, 1.0, n)
    v = op.solve_shifted(0.5, GridFunction.ones(n))
    assert np.max(np.abs(v.values - 2.0 * np.exp(-2.0 * x))) < bound


def test_resolvent_closed_form_second_order():
    errs = []
    for n in (128, 256):
        op = ScaleOperator(n)
        x = np.linspace(0.0, 1.0, n)
        v = op.solve_shifted(0.5, GridFunction.ones(n))
        errs.append(np.max(np.abs(v.values - 2.0 * np.exp(-2.0 * x))))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_resolvent_matches_dense_solve(op64):
    dense = op64.dense()
    rng = np.random.default_rng(3)
    for beta in (1e-3, 1e-1, 1.0):
        f = rng.uniform(-1.0, 1.0, 64)
        direct = np.linalg.solve(dense + beta * np.eye(64), f)
        fast = op64._solve_values(beta, f)
        assert np.max(np.abs(direct - fast)) < 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("n", [64, 4097])
def test_block_primitives_match_rows(n, k, quad):
    # A (k, n) block must give, row for row, exactly the floats of the 1-D call.
    op = ScaleOperator(n)
    block = np.random.default_rng(n + k).uniform(-1.0, 1.0, (k, n))
    applied = op._apply_values(block)
    assert applied.shape == (k, n)
    assert all(np.array_equal(applied[i], op._apply_values(block[i])) for i in range(k))
    adjoint = op._apply_adjoint_values(block)
    assert adjoint.shape == (k, n)
    assert all(np.array_equal(adjoint[i], op._apply_adjoint_values(block[i])) for i in range(k))
    for beta in (1e-4, 1e-2, 1.0):
        solved = op._solve_values(beta, block)
        assert solved.shape == (k, n)
        assert all(np.array_equal(solved[i], op._solve_values(beta, block[i])) for i in range(k))
    powered = op._balakrishnan(0.5, block, quad)
    assert all(np.array_equal(powered[i], op._balakrishnan(0.5, block[i], quad)) for i in range(k))


def test_apply_is_the_plain_trapezoid_formula(op256):
    u = np.random.default_rng(5).uniform(-1.0, 1.0, 256)
    plain = op256.h * (np.cumsum(u) - 0.5 * (u + u[0]))
    plain[0] = 0.0
    assert np.array_equal(op256._apply_values(u), plain)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("n", [64, 1025])
def test_shifted_solve_paths_agree(n, q, quad):
    # The convolution kernel folds all quadrature shifts into one pass; it must
    # equal the written-out node sum C sum_k w_k (G + s_k I)^-1 G u of
    # single-shift solves on the Balakrishnan grid of q.
    op = ScaleOperator(n)
    t_min, t_max = quad.bounds_for(q)
    m = int(math.ceil((t_max - t_min) / quad.step))
    t = np.linspace(t_min, t_max, m + 1)
    w = np.exp(q * t)
    w[[0, -1]] *= 0.5
    u = np.random.default_rng(4).uniform(-1.0, 1.0, n)
    g = op._apply_values(u)
    ref = sum(wk * op._solve_values(s, g) for wk, s in zip(w, np.exp(t)))
    ref *= math.sin(math.pi * q) / math.pi * (t_max - t_min) / m
    got = op._balakrishnan(q, u, quad)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def forward_substitution(op, beta, f):
    # Row i >= 1 of (G + beta I) v = f reads
    # h/2 v_0 + h (v_1 + ... + v_{i-1}) + (h/2 + beta) v_i = f_i; row 0 is beta v_0 = f_0.
    h = op.h
    v = [f[0] / beta]
    inner = 0.0
    for i in range(1, len(f)):
        v.append((f[i] - 0.5 * h * v[0] - h * inner) / (0.5 * h + beta))
        inner += v[i]
    return np.array(v)


@pytest.mark.parametrize("beta", [1e-6, 1e-3, 0.1, 1.0])
@pytest.mark.parametrize("n", [64, 1025])
def test_solve_matches_forward_substitution(n, beta):
    # rho = (beta - h/2)/(beta + h/2) runs from near -1 through near 0 to near +1
    # over these shifts; a (7, n) block and a single row go through the same solve.
    op = ScaleOperator(n)
    block = np.random.default_rng(n).uniform(-1.0, 1.0, (7, n))
    for got, f in [*zip(op._solve_values(beta, block), block), (op._solve_values(beta, block[0]), block[0])]:
        ref = forward_substitution(op, beta, f)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# -- the two routes to scipy's dtbtrs ------------------------------------------------


@pytest.fixture(params=["bundled", "fallback"])
def binding(request, monkeypatch):
    """The shifted solve bound to scipy's ``_flapack`` extension loaded alone, then imported with scipy.linalg."""
    if request.param == "bundled" and scale._scipy_extension("linalg._flapack") is None:
        pytest.skip("scipy's _flapack cannot be loaded alone")
    if request.param == "fallback":
        monkeypatch.setattr(scale, "_scipy_extension", lambda module: None)
    scale._flapack.cache_clear()
    yield request.param
    scale._flapack.cache_clear()


def lapack_solve(op, beta, f):
    """The shifted solve written out with scipy.linalg.lapack.dtbtrs on a C-ordered band."""
    h2 = 0.5 * op.h
    d = beta + h2
    band = np.empty((2, op.n - 1))
    band[0] = -(beta - h2) / d
    out = np.empty_like(f)
    out[..., 0] = f[..., 0] / beta
    rhs = f[..., 1:] - f[..., :-1]
    rhs[..., 0] = f[..., 1] - h2 * out[..., 0]
    rhs /= d
    out[..., 1:] = lapack_dtbtrs(band, rhs)
    return out


def lapack_dtbtrs(band, rhs):
    """scipy.linalg.lapack.dtbtrs on the (2, m) band and (..., m) right-hand sides, as the shifted solve calls it."""
    from scipy.linalg.lapack import dtbtrs

    return dtbtrs(band, rhs.T, uplo="U", trans="T", diag="U")[0].T


@pytest.mark.parametrize("n", [2, 65, 256, 1025, 4097])
def test_bindings_match_scipy_dtbtrs(binding, n):
    # Both routes run the same LAPACK routine on the same arrays, so they agree bit for bit, also
    # for beta below h/2 (rho < 0), for beta >> 1 and on the smallest grid (one unknown per row).
    op = ScaleOperator(n)
    rng = np.random.default_rng(n)
    for beta in (0.25 * op.h, 1e-6, 0.1, 1e3):
        for shape in [(n,), (3, n), (8, n)]:
            f = rng.uniform(-1.0, 1.0, shape)
            got = op._solve_values(beta, f)
            assert got.shape == shape and np.array_equal(got, lapack_solve(op, beta, f))


@pytest.mark.parametrize("n", [2, 65, 4097])
def test_bindings_take_empty_blocks(binding, monkeypatch, n):
    # The wrapper must never see an empty block: it writes outside an empty (m, 0) array when m > 1.
    flapack = scale._flapack()  # the binding fixture cleared its cache, so this is the route under test
    wrapper, calls = flapack.dtbtrs, []

    def nonempty_only(ab, b, **kwargs):
        assert b.size > 0, "scipy's dtbtrs called on an empty right-hand side"
        calls.append(b.shape)
        return wrapper(ab, b, **kwargs)

    monkeypatch.setattr(flapack, "dtbtrs", nonempty_only)
    op = ScaleOperator(n)
    assert op._solve_values(0.1, np.empty((0, n))).shape == (0, n)
    f = np.random.default_rng(n).uniform(-1.0, 1.0, (2, n))
    assert np.array_equal(op._solve_values(0.1, f), lapack_solve(op, 0.1, f))
    assert calls == [(n - 1, 2)]


@pytest.mark.parametrize("bad", ["C-ordered band", "float32 right-hand side", "Fortran-ordered right-hand side", "short band"])
def test_bundled_binding_checks_arrays_before_lapack(bad):
    # f2py converts a band or right-hand sides of another order or dtype before LAPACK sees them, so the
    # values are scipy.linalg.lapack's; it does not compare their lengths, so the binding must.
    m = 16
    band = np.asfortranarray(np.full((2, m), -0.5))
    rhs = np.random.default_rng(m).uniform(-1.0, 1.0, (3, m))
    if bad == "C-ordered band":
        band = np.ascontiguousarray(band)
    elif bad == "float32 right-hand side":
        rhs = rhs.astype(np.float32)
    elif bad == "Fortran-ordered right-hand side":
        rhs = np.asfortranarray(rhs)
    else:
        with pytest.raises(ValueError, match="^dtbtrs band has 15 columns for right-hand sides of length 16$"):
            scale._banded_solve(np.asfortranarray(band[:, 1:]), rhs)
        return
    expected = lapack_dtbtrs(band, rhs.astype(np.float64))
    assert np.array_equal(scale._banded_solve(band, rhs), expected)


def test_banded_solve_raises_on_lapack_info(monkeypatch):
    # dtbtrs with diag="U" cannot report a singular system, so a nonzero info means the call went wrong.
    def failing_dtbtrs(ab, b, **kwargs):
        return b, 1

    monkeypatch.setattr(scale, "_flapack", lambda: SimpleNamespace(dtbtrs=failing_dtbtrs))
    with pytest.raises(RuntimeError, match="^LAPACK dtbtrs returned info=1$"):
        ScaleOperator(65)._solve_values(0.1, np.ones(65))


def test_resolvent_norm_bound_random():
    # Sampled positive-type bound ||(G + beta)^-1 f|| <= kappa_*/beta.
    rng = np.random.default_rng(11)
    for op in (ScaleOperator(256), ScaleOperator(1025), ScaleOperator(4097)):
        for beta in (1e-3, 1e-2, 1e-1, 1.0):
            for _ in range(50):
                f = unit_uniform(op, rng)
                v = op.solve_shifted(beta, f)
                assert v.sup_norm() <= op.kappa_star / beta


@pytest.mark.parametrize("beta", [1e-3, 1e-2, 1e-1, 1.0])
def test_resolvent_operator_norm_bound(beta, op256):
    # Exact sup operator norm of the inverse (max absolute row sum).
    inv = np.linalg.inv(op256.dense() + beta * np.eye(256))
    norm = np.max(np.sum(np.abs(inv), axis=1))
    assert norm <= op256.kappa_star / beta


# -- fractional powers -------------------------------------------------------


def test_power_zero_is_identity(op256, quad):
    u = GridFunction(np.sin(3.0 * np.linspace(0.0, 1.0, 256)))
    assert np.array_equal(op256.power(0.0, u, quad).values, u.values)


def test_power_one_is_apply(op256, quad):
    u = GridFunction(np.cos(np.linspace(0.0, 1.0, 256)))
    assert np.array_equal(op256.power(1.0, u, quad).values, op256.apply(u).values)


def test_power_integer_is_repeated_apply(op256, quad):
    u = GridFunction.ones(256)
    expected = op256.apply(op256.apply(u))
    assert np.max(np.abs(op256.power(2.0, u, quad).values - expected.values)) < 1e-14


def test_power_rejects_negative(op256, quad):
    with pytest.raises(ValueError):
        op256.power(-0.5, GridFunction.ones(256), quad)


def test_power_semigroup_on_constant(op256, quad):
    # G^0.3 G^0.7 agrees with the plain running integral.
    u = GridFunction.ones(256)
    composed = op256.power(0.3, op256.power(0.7, u, quad), quad)
    assert (composed - op256.apply(u)).sup_norm() <= 2.0 * quad.tail_tol


def test_power_semigroup_random(op256, quad):
    # Orders stay inside the clamp window where the truncation rule guarantees
    # the tails; see QuadratureConfig.
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = rng.uniform(0.1, 0.8)
        q = rng.uniform(0.1, min(0.9 - p, 0.8))
        u = unit_uniform(op256, rng)
        lhs = op256.power(p, op256.power(q, u, quad), quad)
        rhs = op256.power(p + q, u, quad)
        assert (lhs - rhs).sup_norm() <= 4.0 * quad.tail_tol


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("shape", ["x", "sin"])
def test_power_matches_riemann_liouville(op256, quad, p, shape):
    x = np.linspace(0.0, 1.0, 256)
    u = GridFunction(x if shape == "x" else np.sin(np.pi * x))
    err = (op256.power(p, u, quad) - riemann_liouville(p, u)).sup_norm()
    assert err <= 1e-3


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.xfail(
    strict=True,
    reason="structural: for inputs not vanishing at 0 the resolvent-based power "
    "of the trapezoid matrix differs from the singular-kernel quadrature by "
    "h^p |2^(1-p) - 1/Gamma(1+p)| at the first node; see README known limitations",
)
def test_power_matches_riemann_liouville_constant(op256, quad, p):
    u = GridFunction.ones(256)
    diff = (op256.power(p, u, quad) - riemann_liouville(p, u)).sup_norm()
    assert diff <= 1e-3


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_power_constant_first_node_gap_closed_form(op256, quad, p):
    # Quantifies the xfail above: the disagreement on constants is the
    # first-node value with closed form h^p |2^(1-p) - 1/Gamma(1+p)|.
    u = GridFunction.ones(256)
    gap = np.abs((op256.power(p, u, quad) - riemann_liouville(p, u)).values)
    predicted = op256.h**p * abs(2.0 ** (1.0 - p) - 1.0 / math.gamma(1.0 + p))
    assert np.argmax(gap) == 1
    assert abs(gap[1] - predicted) < 1e-6


def test_riemann_liouville_exact_on_constants():
    x = np.linspace(0.0, 1.0, 256)
    for p in (0.25, 0.5, 0.75):
        out = riemann_liouville(p, GridFunction.ones(256))
        assert np.max(np.abs(out.values - x**p / math.gamma(1.0 + p))) < 1e-12


@pytest.mark.parametrize("p", [0.0, -0.5])
def test_riemann_liouville_rejects_nonpositive_order(p):
    with pytest.raises(ValueError, match=f"^fractional order must be positive and finite, got {p:g}$"):
        riemann_liouville(p, GridFunction.ones(16))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda op, v: op.power(v, GridFunction.ones(op.n)), "fractional order must be nonnegative and finite"),
        (lambda op, v: riemann_liouville(v, GridFunction.ones(op.n)), "fractional order must be positive and finite"),
        (
            lambda op, v: log_smooth_element(op, GridFunction.ones(op.n), lam=v),
            "lam must exceed the growth bound 0.5 and be finite",
        ),
        (
            lambda op, v: decay_check(RegularizerFamily(op, m=2), [v], [1e-1, 1e-2]),
            "power order must be nonnegative and finite",
        ),
    ],
    ids=["power", "riemann_liouville", "log_smooth_element", "decay_check"],
)
def test_non_finite_orders_fail_where_they_enter(op64, call, message, value):
    # Not a failed int conversion, an OverflowError or a RuntimeWarning further in: an error naming the value.
    with pytest.raises(ValueError, match=f"^{message}, got {value:g}$"):
        call(op64, value)


def test_riemann_liouville_exact_on_linear():
    x = np.linspace(0.0, 1.0, 256)
    for p in (0.25, 0.75):
        out = riemann_liouville(p, GridFunction(x))
        assert np.max(np.abs(out.values - x ** (p + 1.0) / math.gamma(2.0 + p))) < 1e-12


@pytest.mark.parametrize("p", [0.3, 0.5, 1.7])
@pytest.mark.parametrize("n", [65, 200, 257])
def test_riemann_liouville_matches_direct_convolution(n, p):
    # Product integration written out: on [x_j, x_{j+1}] the kernel integrates
    # exactly against the linear interpolant, which puts weight a_k on u_j and
    # b_k on u_{j+1} in output i = j + k.
    u = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    k = np.arange(1, n, dtype=float)
    i0 = (k**p - (k - 1.0) ** p) / p
    i1 = (k ** (p + 1.0) - (k - 1.0) ** (p + 1.0)) / (p + 1.0)
    a = i1 - (k - 1.0) * i0
    b = k * i0 - i1
    ref = np.zeros(n)
    ref[1:] = np.convolve(a, u)[: n - 1] + np.convolve(b, u[1:])[: n - 1]
    ref *= (1.0 / (n - 1)) ** p / math.gamma(p)
    got = riemann_liouville(p, GridFunction(u)).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_power_of_half_constant_interior(op256, quad):
    # Away from the first nodes the half power of the constant follows
    # 2 sqrt(x/pi); the boundary nodes carry the structural gap above.
    x = np.linspace(0.0, 1.0, 256)
    v = op256.power(0.5, GridFunction.ones(256), quad)
    exact = 2.0 * np.sqrt(x / np.pi)
    assert np.max(np.abs(v.values - exact)[x > 0.1]) < 5e-3


# -- logarithmic smoothness class ---------------------------------------------


def test_log_smooth_zero(op256, quad):
    assert log_smooth_element(op256, GridFunction.zeros(256), 2.0, quad).sup_norm() == 0.0


def test_log_smooth_linear(op256, quad):
    u1 = log_smooth_element(op256, GridFunction.ones(256), 2.0, quad)
    u2 = log_smooth_element(op256, GridFunction(2.0 * np.ones(256)), 2.0, quad)
    assert np.max(np.abs(u2.values - 2.0 * u1.values)) < 1e-14


@pytest.mark.parametrize("step", [0.05, 0.03])
def test_log_smooth_matches_nodewise_powers(op256, step):
    # The residue-grouped integrator equals the trapezoid sum of G^q w~ over
    # q = j / per_unit, each node evaluated by its own power call; a step whose
    # reciprocal is not an integer gets the next finer grid (0.03 -> 1/34).
    cfg = QuadratureConfig(step=step)
    w = GridFunction(np.cos(3.0 * np.linspace(0.0, 1.0, 256)))
    per_unit = math.ceil(1.0 / step - 1e-9)
    m = math.ceil(-math.log(cfg.tail_tol) / (2.0 - 0.5) / (1.0 / per_unit))
    wt = op256.range_part(w)
    ref = np.zeros(256)
    for j in range(m + 1):
        weight = (0.5 if j in (0, m) else 1.0) / per_unit
        ref += weight * math.exp(-2.0 * j / per_unit) * op256.power(j / per_unit, wt, cfg).values
    got = log_smooth_element(op256, w, 2.0, cfg).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_log_smooth_rejects_small_lam(op256, quad):
    with pytest.raises(ValueError):
        log_smooth_element(op256, GridFunction.ones(256), 0.4, quad)


def test_log_smooth_bounds_kernel_work(op64):
    # Step 2e-4 passes the node bound (883k nodes), but the log class would build
    # 4999 kernels of that size, minutes at n=64: it is rejected before the first.
    # A Hoelder truth builds one kernel, so it keeps the step.
    fine = QuadratureConfig(step=2e-4)
    with pytest.raises(ValueError, match=r"needs 2.78e\+11 kernel operations at n=64, over 1e\+10"):
        log_smooth_element(op64, GridFunction.ones(64), 2.0, fine)
    assert op64.power(0.5, GridFunction.ones(64), fine).sup_norm() > 0.0


def test_log_smooth_scalar_quadrature_oracle(op256, quad):
    # For the constant witness, node values follow the order-weighted integral
    # of x^q/Gamma(q+1); agreement is limited by the discretization of the
    # fractional powers near x = 0.
    from scipy.integrate import quad as scalar_quad

    u = log_smooth_element(op256, GridFunction.ones(256), 2.0, quad)
    x = np.linspace(0.0, 1.0, 256)

    def oracle(xx):
        val, _ = scalar_quad(
            lambda q: math.exp(-2.0 * q) * xx**q / math.gamma(q + 1.0), 0.0, 60.0, limit=300
        )
        return val

    idx = [26, 64, 128, 192, 255]  # x >= 0.1
    for i in idx:
        assert abs(u.values[i] - oracle(x[i])) < 1e-3
    # Nodes near x = 0 carry the structural boundary gap of the discrete
    # fractional powers (README known limitations); compare away from it.
    assert max(abs(u.values[i] - oracle(x[i])) for i in range(13, 256, 5)) < 2e-3


# -- interpolation inequality ---------------------------------------------------


def test_interpolation_zero(op256, quad):
    rep = interpolation_check(op256, 0.5, 1.0, GridFunction.zeros(256), quad)
    assert rep.lhs == rep.rhs == 0.0
    assert rep.holds


def test_interpolation_constant(op256, quad):
    rep = interpolation_check(op256, 0.5, 1.0, GridFunction.ones(256), quad)
    assert rep.rhs == 6.0  # c * ||G 1||^(1/2) * ||1||^(1/2) with exact norms
    assert abs(rep.lhs - 2.0 / math.sqrt(math.pi)) < 5e-3
    assert rep.holds


def test_interpolation_rejects_bad_orders(op256, quad):
    with pytest.raises(ValueError):
        interpolation_check(op256, 0.7, 0.5, GridFunction.ones(256), quad)


def test_interpolation_random_sample(op256, quad):
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = unit_uniform(op256, rng)
        for p in (0.25, 0.5, 0.75):
            assert interpolation_check(op256, p, 1.0, u, quad).holds


# -- quadrature config ------------------------------------------------------------


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(step=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(tail_tol=-1.0)
    # 1 bounds no tail; at 8 the range holds no node, and above it a negative count.
    for bad in (1.0, 8.0, 10.0):
        with pytest.raises(ValueError, match="^tail_tol must be positive, finite and below 1, got "):
            QuadratureConfig(tail_tol=bad)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(step=bad)
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(tail_tol=bad)


def test_quadrature_bounds_clamp():
    cfg = QuadratureConfig()
    lo_mid, hi_mid = cfg.bounds_for(0.5)
    lo_ext, hi_ext = cfg.bounds_for(0.01)
    assert lo_mid < 0.0 < hi_mid
    assert lo_ext == cfg.bounds_for(0.1)[0]
    assert hi_ext == cfg.bounds_for(0.1)[1]


def test_power_quadrature_failure_surfaces(op64):
    # An absurd tail tolerance pushes t_max past exp overflow; the failure
    # must surface as a QuadratureError rather than silent non-finite output.
    from oversmooth import QuadratureError

    bad = QuadratureConfig(tail_tol=1e-300)
    for _ in range(2):  # a failed kernel is not cached and served on the next call
        with pytest.raises(QuadratureError):
            op64.power(0.5, GridFunction.ones(64), bad)


def test_power_of_huge_input_fails_quadrature(op64, quad):
    # G u is finite, but the FFT convolution of its differences overflows: a
    # QuadratureError, not non-finite output.
    from oversmooth import QuadratureError

    with pytest.raises(QuadratureError, match="^fractional power quadrature failed for q=0.5$"):
        op64.power(0.5, GridFunction(np.full(64, 1e308)), quad)


def test_power_result_is_independent_of_cached_kernel(op256, quad):
    u = GridFunction(np.cos(np.linspace(0.0, 1.0, 256)))
    vals = op256.power(0.5, u, quad).values
    expected = vals.copy()
    vals.flags.writeable = True  # GridFunction freezes its values; a caller can unfreeze them
    vals[:] = 0.0
    assert np.array_equal(op256.power(0.5, u, quad).values, expected)


def test_power_kernel_keyed_by_tail_tol(op256):
    u = GridFunction(np.cos(np.linspace(0.0, 1.0, 256)))
    loose = op256.power(0.5, u, QuadratureConfig(tail_tol=1e-4)).values
    tight = op256.power(0.5, u, QuadratureConfig(tail_tol=1e-8)).values
    assert not np.array_equal(loose, tight)
    assert np.max(np.abs(loose - tight)) <= 1e-3
