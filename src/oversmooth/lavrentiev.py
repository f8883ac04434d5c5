"""Iterated Lavrentiev smoothing operators and the auxiliary-element toolkit.

The m-times iterated method produces the regularizing family

    (G + beta I) v_k = beta v_{k-1} + f,   v_0 = 0,   R_beta f = v_m,

with companion S_beta = beta^m (G + beta I)^-m = I - R_beta G.  The companion
measures how far R_beta G is from the identity; its decay along fractional
powers, ||S_beta G^p|| <= c_p beta^p for p up to the saturation order m, is
what the convergence-rate machinery rests on.  Auxiliary elements

    u_aux(beta) = u_bar + R_beta G (u_true - u_bar) = u_true - S_beta (u_true - u_bar)

are smooth surrogates for a possibly non-smooth truth; the three gap functions

    g1 = ||S_beta d||,   g2 = beta^-a ||G^a S_beta d||,   g3 = beta ||R_beta d||,
    d = u_true - u_bar,

quantify them and are tabulated here for empirical rate checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fitting import NOISE_FLOOR, fit_slope
from .grids import GridFunction, _integer, csv_table
from .scale import DEFAULT_QUADRATURE, ROW_BLOCK, QuadratureConfig, ScaleOperator, split_order

__all__ = [
    "RegularizerFamily",
    "AuxiliaryElement",
    "auxiliary_element",
    "DecayReport",
    "decay_check",
    "GapTable",
    "gap_table",
    "unit_probes",
    "InternalConsistencyError",
]


class InternalConsistencyError(RuntimeError):
    """The two defining forms of an auxiliary element disagreed."""


@dataclass(frozen=True)
class RegularizerFamily:
    """The m-times iterated Lavrentiev pair (R_beta, S_beta) over a generator."""

    op: ScaleOperator
    m: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _integer("m", self.m, 1))

    @property
    def saturation(self) -> float:
        """Largest power order p0 = m up to which the companion decay holds."""
        return float(self.m)

    def regularize(self, beta: float, f: GridFunction) -> GridFunction:
        """Apply R_beta by m shifted solves; for m = 1 this is the classical method."""
        if not 0.0 < beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {beta:g}")
        self.op._check_size(f)
        v = np.zeros(self.op.n)
        for _ in range(self.m):
            v = self.op._solve_values(beta, beta * v + f.values)
        return GridFunction(v)

    def companion(self, beta: float, f: GridFunction) -> GridFunction:
        """Apply S_beta = beta^m (G + beta I)^-m = I - R_beta G."""
        if not 0.0 < beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {beta:g}")
        self.op._check_size(f)
        return GridFunction(self._companion_values(beta, f.values))

    def _companion_values(self, beta: float, v: np.ndarray) -> np.ndarray:
        """S_beta along the last axis: of one vector, or of each row of a (k, n) block."""
        for _ in range(self.m):
            v = beta * self.op._solve_values(beta, v)
        return v


def unit_probes(n: int, count: int, seed: int) -> list[GridFunction]:
    """Sup-norm-one probe stock for operator-norm sampling.

    Deterministic probes (constant, ramp, alternating and half-flipped signs)
    followed by ``count`` seeded random draws, alternating sign patterns with
    normalized uniform noise.
    """
    _integer("count", count, 0)
    x = np.linspace(0.0, 1.0, n)
    probes = [
        GridFunction(np.ones(n)),
        GridFunction(x),
        GridFunction(np.where(np.arange(n) % 2 == 0, 1.0, -1.0)),
        GridFunction(np.where(x < 0.5, 1.0, -1.0)),
    ]
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 2 == 0:
            vals = rng.choice([-1.0, 1.0], size=n)
        else:
            vals = rng.uniform(-1.0, 1.0, size=n)
            vals /= np.max(np.abs(vals))
        probes.append(GridFunction(vals))
    return probes


@dataclass(frozen=True)
class DecayReport:
    """Sampled companion decay along a fractional power."""

    p: float
    betas: tuple[float, ...]
    norms: tuple[float, ...]
    ratios: tuple[float, ...]  # norm / beta^p
    max_ratio: float
    fitted_slope: float

    def to_csv(self) -> str:
        return csv_table("beta,norm,ratio", zip(self.betas, self.norms, self.ratios))


def decay_check(
    fam: RegularizerFamily,
    orders: Sequence[float] | float,
    betas: Sequence[float],
    n_samples: int = 100,
    seed: int = 0,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[DecayReport] | DecayReport:
    """Estimate ||S_beta G^p|| by probe sampling for each order p; one report per order.

    Every order p must lie in [0, m], the family's saturation, and the betas,
    at least three for the slope fit, must strictly decrease.  The estimate
    is the largest sup norm of S_beta G^p u over the probes u of
    ``unit_probes``: a reproducible lower bound on the operator norm, adequate
    for slope fits.  The probes are stacked and taken ``ROW_BLOCK`` rows at a
    time.  Orders that share a fractional residue q share the work on a block:
    G^q is applied once, the companion once per beta, and an integer part k is
    added by k more applications of G, since S_beta commutes with G.  The
    reports come in the order of ``orders``; a single number in place of the
    list returns its report alone.
    """
    single = np.ndim(orders) == 0
    plist = [float(p) for p in np.atleast_1d(orders)]
    if not plist:
        raise ValueError("need at least one power order")
    for p in plist:
        if not 0.0 <= p < np.inf:
            raise ValueError(f"power order must be nonnegative and finite, got {p:g}")
        if p > fam.saturation:
            raise ValueError(f"power order {p} exceeds the saturation {fam.saturation}")
    blist = [float(b) for b in betas]
    if not all(0.0 < b < np.inf for b in blist):
        raise ValueError(f"betas must be positive and finite, got {blist}")
    if any(b2 >= b1 for b1, b2 in zip(blist, blist[1:])):
        raise ValueError("betas must be strictly decreasing")
    if len(blist) < 3:
        raise ValueError(f"a decay slope fit needs at least three betas, got {len(blist)}")
    _integer("n_samples", n_samples, 0)

    op = fam.op
    probes = np.stack([u.values for u in unit_probes(op.n, n_samples, seed)])
    parts = [split_order(p) for p in plist]
    # Per residue q, the norms by [k, beta] for k up to the largest integer part with that residue.
    peaks = {q: np.zeros((1 + max(k for k, r in parts if r == q), len(blist))) for _, q in parts}
    for start in range(0, len(probes), ROW_BLOCK):
        block = probes[start : start + ROW_BLOCK]
        for q, peak in peaks.items():
            powered = block if q == 0.0 else op._balakrishnan(q, block, cfg)
            for j, b in enumerate(blist):
                v = fam._companion_values(b, powered)
                for k in range(len(peak)):
                    if k > 0:
                        v = op._apply_values(v)
                    peak[k, j] = max(peak[k, j], np.max(np.abs(v)))

    reports = []
    for p, (k, q) in zip(plist, parts):
        norms = [float(nrm) for nrm in peaks[q][k]]
        ratios = [nrm / b**p for nrm, b in zip(norms, blist)]
        reports.append(
            DecayReport(
                p=p,
                betas=tuple(blist),
                norms=tuple(norms),
                ratios=tuple(ratios),
                max_ratio=max(ratios),
                fitted_slope=fit_slope([(b, nrm) for b, nrm in zip(blist, norms) if nrm > NOISE_FLOOR]),
            )
        )
    return reports[0] if single else reports


@dataclass(frozen=True)
class AuxiliaryElement:
    """Smooth surrogate u_aux(beta) for the truth, with its gap quantities.

    ``witness`` is R_beta (u_true - u_bar), so u_aux - u_bar = G witness holds
    exactly and the strong norm of the surrogate is the witness sup norm.
    """

    beta: float
    u_aux: GridFunction
    witness: GridFunction
    residual_to_truth: float  # ||u_aux - u_true||
    a_norm_gap: float  # ||G^a S_beta (u_true - u_bar)||
    one_norm: float  # ||u_aux - u_bar||_1 = sup norm of the witness


#: How far, relative to 1 + ||u_true||, the forms of an auxiliary element may disagree.
_AUX_FORMS_RTOL = 1e-9


def auxiliary_element(
    fam: RegularizerFamily,
    beta: float,
    u_true: GridFunction,
    u_bar_witness: GridFunction,
    a: float = 1.0,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> AuxiliaryElement:
    """Build u_aux(beta) from the truth and the strong-norm witness of u_bar.

    Requires saturation m >= 1 + a, the regime in which the element's gap
    quantities carry the error analysis.  Both defining forms are evaluated
    and must agree to ``_AUX_FORMS_RTOL`` relative; the returned element uses the form
    u_bar + G R_beta (u_true - u_bar), which makes the witness relation exact.
    """
    if fam.saturation < 1.0 + a:
        raise ValueError(
            f"saturation {fam.saturation} is below 1 + a = {1.0 + a}; increase m"
        )
    op = fam.op
    u_bar = op.apply(u_bar_witness)
    d = u_true - u_bar
    witness = fam.regularize(beta, d)
    s = fam.companion(beta, d)
    form_commuted = u_bar + op.apply(witness)
    form_direct = u_bar + fam.regularize(beta, op.apply(d))
    form_companion = u_true - s
    scale = 1.0 + u_true.sup_norm()
    for other in (form_direct, form_companion):
        if (form_commuted - other).sup_norm() > _AUX_FORMS_RTOL * scale:
            raise InternalConsistencyError(
                "auxiliary element forms disagree beyond tolerance"
            )
    return AuxiliaryElement(
        beta=beta,
        u_aux=form_commuted,
        witness=witness,
        residual_to_truth=s.sup_norm(),
        a_norm_gap=op.power(a, s, cfg).sup_norm(),
        one_norm=witness.sup_norm(),
    )


@dataclass(frozen=True)
class GapTable:
    """The three gap functions tabulated over a beta sweep."""

    a: float
    betas: tuple[float, ...]
    g1: tuple[float, ...]
    g2: tuple[float, ...]
    g3: tuple[float, ...]

    def to_csv(self) -> str:
        return csv_table("beta,g1,g2,g3", zip(self.betas, self.g1, self.g2, self.g3))


def gap_table(
    fam: RegularizerFamily,
    betas: Sequence[float],
    u_true: GridFunction,
    u_bar_witness: GridFunction,
    a: float = 1.0,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> GapTable:
    """Evaluate g1, g2, g3 at each beta from that beta's auxiliary element.

    Each row is g1 = ||u_aux - u_true||, g2 = ||G^a S_beta d|| / beta^a and
    g3 = beta ||witness||, so every row also passes the element's consistency
    check; ``auxiliary_element`` rejects a saturation m below 1 + a.
    """
    blist = [float(b) for b in betas]
    if not all(0.0 < b < np.inf for b in blist):
        raise ValueError(f"betas must be positive and finite, got {blist}")
    rows = [auxiliary_element(fam, beta, u_true, u_bar_witness, a, cfg) for beta in blist]
    return GapTable(
        a=a,
        betas=tuple(blist),
        g1=tuple(e.residual_to_truth for e in rows),
        g2=tuple(e.a_norm_gap / e.beta**a for e in rows),
        g3=tuple(e.beta * e.one_norm for e in rows),
    )
