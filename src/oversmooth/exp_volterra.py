"""Exponential-of-running-integral forward map and its test-problem toolkit.

The nonlinear forward operator is F(u) = exp(G u) pointwise, with Frechet
derivative F'(u) h = F(u) * G h.  Around a fixed truth the derivative is
two-sided comparable to G with constants c1 = exp(-||G u_true||) and
c2 = 1/c1, and the pointwise identity F(u) - F(u_true) =
F(u_true) (exp(theta) - 1), theta = G(u - u_true), yields the two sup-norm
nonlinearity inequalities that the rate theory requires; they are checked
empirically here by seeded sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .grids import GridFunction, _integer, csv_table
from .scale import ROW_BLOCK, QuadratureConfig, ScaleOperator, log_smooth_element

__all__ = [
    "ExpVolterraProblem",
    "make_problem",
    "NoiseSpec",
    "noise_vector",
    "add_noise",
    "make_truth",
    "NonlinearityReport",
    "nonlinearity_check",
]


def _exp_map(op: ScaleOperator, w: np.ndarray, g0: np.ndarray | float = 0.0) -> np.ndarray:
    """exp(g0 + G w) along the last axis, the one evaluation of F; entries that overflow are inf.

    F(u) is ``_exp_map(op, u)``; the solver's F(u_bar + G v) is
    ``_exp_map(op, G v, G u_bar)``.
    """
    with np.errstate(over="ignore"):
        x = op._apply_values(w)
        x += g0
        return np.exp(x, out=x)


@dataclass(frozen=True)
class ExpVolterraProblem:
    """A fixed-truth instance of the exponential Volterra problem.

    c1 and c2 are the two-sided derivative comparison constants at the truth;
    c1 * c2 = 1 exactly since both come from ||G u_true||.
    """

    op: ScaleOperator
    u_true: GridFunction
    f_true: GridFunction
    c1: float
    c2: float
    #: Degree of ill-posedness: the model is F(u) = exp(G^a u) at a = 1, the rates' a.
    a: ClassVar[float] = 1.0

    def forward(self, u: GridFunction) -> GridFunction:
        """F(u) = exp(G u); raises OverflowError if the exponential overflows."""
        self.op._check_size(u)
        return GridFunction(self._forward_values(u.values))

    def _forward_values(self, u: np.ndarray) -> np.ndarray:
        """F along the last axis: of one vector, or of each row of a (k, n) block."""
        vals = _exp_map(self.op, u)
        # F = exp(...) is >= 0, so its max is finite exactly when every entry is.
        if not math.isfinite(vals.max()):
            raise OverflowError("forward map overflowed for an extreme input")
        return vals

    def derivative(self, u: GridFunction, h: GridFunction) -> GridFunction:
        """Frechet derivative action F'(u) h = F(u) * G h."""
        self.op._check_size(h)
        return GridFunction(self.forward(u).values * self.op._apply_values(h.values))


def make_problem(op: ScaleOperator, u_true: GridFunction) -> ExpVolterraProblem:
    bound = op.apply(u_true).sup_norm()
    f_vals = _exp_map(op, u_true.values)
    if not math.isfinite(f_vals.max()):
        raise OverflowError("truth is too large for the exponential forward map")
    return ExpVolterraProblem(
        op=op,
        u_true=u_true,
        f_true=GridFunction(f_vals),
        c1=math.exp(-bound),
        c2=math.exp(bound),
    )


# -- ground truths -------------------------------------------------------------


def make_truth(
    regime: str,
    op: ScaleOperator,
    p: float | None = None,
    lam: float = 2.0,
    cfg: QuadratureConfig | None = None,
) -> GridFunction:
    """Construct a ground truth of prescribed smoothness.

    regime "hoelder": G^p applied to the witness 1, so the truth is
    x^p/Gamma(p+1) up to discretization; for p < 1 this lies outside the
    strong-norm space, the genuine oversmoothing scenario.
    regime "low_order": logarithmic-class element built from the witness 1.
    regime "generic_continuous": 1/log(e/x), continuous, vanishing at 0, with
    no constructed smoothness order; maximum value 1 at x = 1.
    Fractional powers run at the one quadrature, so ``cfg`` is accepted for
    call compatibility and unused.
    """
    if regime == "hoelder":
        if p is None or not 0.0 < p <= 1.0:
            raise ValueError("hoelder regime needs an order p in (0, 1]")
        return op.power(p, GridFunction.ones(op.n))
    if regime == "low_order":
        return log_smooth_element(op, GridFunction.ones(op.n), lam)
    if regime == "generic_continuous":
        x = np.linspace(0.0, 1.0, op.n)
        vals = np.zeros(op.n)
        vals[1:] = 1.0 / (1.0 - np.log(x[1:]))
        return GridFunction(vals)
    raise ValueError(f"unknown truth regime: {regime!r}")


# -- noise ----------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded noise of exact sup-norm level delta."""

    delta: float
    kind: str = "random_sign"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"noise level must be nonnegative and finite, got {self.delta:g}")
        if self.kind not in ("random_sign", "smooth_bump"):
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))


def noise_vector(n: int, spec: NoiseSpec) -> GridFunction:
    """The seeded perturbation, normalized so its sup norm equals delta exactly.

    random_sign puts independent +-1 values at every node (the sup-norm stress
    pattern); smooth_bump is a Gaussian bump with seeded center, modelling
    correlated noise.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "random_sign":
        z = rng.choice([-1.0, 1.0], size=n)
    else:
        x = np.linspace(0.0, 1.0, n)
        center = rng.uniform(0.2, 0.8)
        z = np.exp(-((x - center) ** 2) / (2 * 0.1**2))
    return GridFunction(spec.delta * (z / np.max(np.abs(z))))


def add_noise(f_true: GridFunction, spec: NoiseSpec) -> GridFunction:
    """Return data perturbed at sup-norm level exactly spec.delta.

    delta = 0 returns the data unchanged.  The perturbation itself carries the
    exact level; the sum inherits one rounding of order eps * ||f_true|| per
    node on top.
    """
    if spec.delta == 0.0:
        return f_true
    return f_true + noise_vector(f_true.n, spec)


# -- nonlinearity conditions ----------------------------------------------------


@dataclass(frozen=True)
class NonlinearityReport:
    """Sample-by-sample verification of the sup-norm nonlinearity conditions."""

    rho: float
    eps: float
    rows: tuple[tuple[int, float, float, bool, bool, bool, float], ...]
    n_prep_fail: int
    n_a_fail: int
    n_b_fail: int
    worst_margin: float

    @property
    def all_pass(self) -> bool:
        return self.n_prep_fail == 0 and self.n_a_fail == 0 and self.n_b_fail == 0

    def to_csv(self) -> str:
        return csv_table("sample,theta_norm,delta_norm,ineq_prep,ineq_a,ineq_b,margin", self.rows)


def nonlinearity_check(
    prob: ExpVolterraProblem,
    rho: float = 0.5,
    eps: float | None = None,
    n_samples: int = 1000,
    seed: int = 0,
) -> NonlinearityReport:
    """Sample u near the truth and verify the three nonlinearity estimates.

    Each sample is u = u_true + G(perturbation), scaled so that
    theta = G(u - u_true) has a prescribed sup norm at most rho.  Checked per
    sample, with Delta = F(u) - F(u_true):

      (prep)  |Delta - F(u_true) theta| <= |theta| |Delta| at every node;
      (a)     (1 - rho)/c2 ||Delta|| <= ||theta||  whenever ||theta|| <= rho;
      (b)     eps ||theta|| <= ||Delta||           whenever ||Delta|| <= c1 - eps.

    Failures are recorded, not raised; margins are the worst slack over the
    applicable inequalities.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if eps is None:
        eps = prob.c1 / 2.0
    if not 0.0 < eps < prob.c1:
        raise ValueError("eps must lie in (0, c1)")
    n_samples = _integer("n_samples", n_samples, 1)
    _integer("seed", seed, 0)

    op = prob.op
    rng = np.random.default_rng(seed)
    f_truth = prob.f_true.values
    theta_norms, delta_norms, prep_margins = np.empty((3, n_samples))
    for start in range(0, n_samples, ROW_BLOCK):
        count = min(ROW_BLOCK, n_samples - start)
        # A row of draws is a sample's uniform(-1, 1, n) perturbation, then its uniform(0, rho)
        # target, bit for bit, so a seed gives the same samples whatever the block size.
        draws = rng.random((count, op.n + 1))
        pert = draws[:, :-1] * 2.0 - 1.0
        target = draws[:, -1] * rho
        step = op._apply_values(pert)
        theta_raw = op._apply_values(step)
        nrm = np.max(np.abs(theta_raw), axis=1)
        scale = np.divide(target, nrm, out=np.zeros(count), where=nrm != 0.0)[:, None]
        theta = scale * theta_raw
        delta = prob._forward_values(prob.u_true.values + scale * step) - f_truth
        abs_theta = np.abs(theta)
        abs_delta = np.abs(delta)
        block = slice(start, start + count)
        theta_norms[block] = np.max(abs_theta, axis=1)
        delta_norms[block] = np.max(abs_delta, axis=1)
        prep_margins[block] = np.min(abs_theta * abs_delta - np.abs(delta - f_truth * theta), axis=1)

    # An inequality that does not apply to a sample has slack +inf there.
    a_margins = np.where(theta_norms <= rho, theta_norms - (1.0 - rho) / prob.c2 * delta_norms, np.inf)
    b_margins = np.where(delta_norms <= prob.c1 - eps, delta_norms - eps * theta_norms, np.inf)
    ok_prep, ok_a, ok_b = (m >= -1e-12 for m in (prep_margins, a_margins, b_margins))
    margins = np.minimum(np.minimum(prep_margins, a_margins), b_margins)
    columns = (theta_norms, delta_norms, ok_prep, ok_a, ok_b, margins)
    rows = tuple(zip(range(n_samples), *(c.tolist() for c in columns)))

    return NonlinearityReport(
        rho=rho,
        eps=eps,
        rows=rows,
        n_prep_fail=n_samples - int(ok_prep.sum()),
        n_a_fail=n_samples - int(ok_a.sum()),
        n_b_fail=n_samples - int(ok_b.sum()),
        worst_margin=float(margins.min(initial=np.inf)),
    )
