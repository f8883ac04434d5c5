"""The benchmark's workloads: inputs from the seed, warm-up, timed calls, checks.

Each workload is a closed loop with one caller.  Its calls are grouped in
rounds (a whole study, a whole noise sweep, a whole four-suite pass) and the
time box stops only between rounds, so every run measures the same mix.
The constructor builds the fixed inputs from the seed; ``warm_up`` makes one
small call into each layer the workload uses, so lazy imports and first-call
costs fall in set-up; ``call`` is what gets timed; ``check`` returns the
reasons a call's output is wrong (empty when it is correct).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import oversmooth as ov

HERE = Path(__file__).resolve().parent

#: Relative tolerance when recomputing a solve's objective with ``objective``.
OBJECTIVE_RTOL = 1e-12

#: Tolerance when comparing suite artifacts with the seed-commit reference.
ARTIFACT_RTOL = 1e-6
ARTIFACT_ATOL = 1e-12

#: Iteration cap of the warm-up solves: enough to run every code path once.
WARM_UP_MAX_ITER = 5

OPERATOR_SUITES = ("fracpow-check", "decay-check", "aux-rates", "nonlinearity-check")

#: Full-size and smoke-size parameters; "smoke" exists for the self-tests.
#: The full sweep is the default 8-level one of ``ExperimentConfig``.
_DEFAULT_SWEEP = ov.ExperimentConfig().delta_list
SIZES = {
    "full": {"study_n": 256, "solve_n": 1025, "sweep": _DEFAULT_SWEEP, "ops_n": 4097},
    "smoke": {"study_n": 64, "solve_n": 65, "sweep": (1e-2, 1e-3), "ops_n": 129},
}


class StudyHoelderP05:
    """``run_rate_study`` on the Hoelder p=0.5 truth, repeated on the same seed."""

    name = "study-hoelder-p05"
    min_rounds = 2  # two same-seed studies must give byte-identical CSV

    def __init__(self, seed: int, scale: str) -> None:
        size = SIZES[scale]
        self.cfg = ov.ExperimentConfig(
            grid_n=size["study_n"], p=0.5, n_seeds=2, seed=seed, delta_list=size["sweep"]
        )
        self.first_csv: str | None = None

    def warm_up(self) -> None:
        warm = ov.ExperimentConfig(grid_n=64, p=0.5, n_seeds=1, delta_list=(1e-2,), max_iter=WARM_UP_MAX_ITER)
        ov.run_rate_study(warm, timestamp="warm-up")

    def round(self, k: int) -> list:
        return [self.cfg]

    def call(self, cfg):
        return ov.run_rate_study(cfg, timestamp="fixed")

    def work(self, cfg) -> int:
        return len(cfg.delta_list) * cfg.n_seeds

    def check(self, cfg, report) -> list[str]:
        bad = [f"uncertified solve at delta={r.delta:.3g}" for r in report.rows if not r.certified]
        csv_text = report.to_csv()
        if self.first_csv is None:
            self.first_csv = csv_text
        elif csv_text != self.first_csv:
            bad.append("same-seed study CSV differs from the first repetition")
        return bad

    def obj_ratios(self, cfg, report) -> list[float]:
        return []


class SolveLowOrderN1025:
    """``minimize`` on low-order-truth problems across the sweep, one at a time."""

    name = "solve-low-order-n1025"
    min_rounds = 3  # 24 calls, so the tail percentile (ten calls beyond it) lies above the median

    def __init__(self, seed: int, scale: str) -> None:
        size = SIZES[scale]
        self.seed = seed
        self.deltas = size["sweep"]
        self.op = ov.ScaleOperator(size["solve_n"])
        self.fam = ov.RegularizerFamily(self.op, m=2)
        self.quad = ov.QuadratureConfig()
        self.u_true = ov.make_truth("low_order", self.op, cfg=self.quad)
        self.problem = ov.make_problem(self.op, self.u_true)
        self.rule = ov.ParamChoice("low_order", C=1.0)

    def warm_up(self) -> None:
        small = ov.ScaleOperator(64)
        truth = ov.make_truth("low_order", small, cfg=self.quad)
        prob = self._problem(ov.make_problem(small, truth), 1e-2, 0)
        ov.minimize(prob, ov.RegularizerFamily(small, m=2), truth, max_iter=WARM_UP_MAX_ITER, cfg=self.quad)

    def _problem(self, problem, delta: float, noise_seed: int):
        f_delta = ov.add_noise(problem.f_true, ov.NoiseSpec(delta, "random_sign", noise_seed))
        return ov.TikhonovProblem(
            forward_problem=problem,
            f_delta=f_delta,
            delta=delta,
            u_bar_witness=ov.GridFunction.zeros(problem.op.n),
            alpha=ov.choose_alpha(self.rule, delta, 1.0, 1.0),
        )

    def round(self, k: int) -> list:
        """Sweep ``k``: one fresh noise draw per level, seeded from (seed, k)."""
        draws = np.random.SeedSequence([self.seed, k]).generate_state(2 * len(self.deltas))
        return [
            (self._problem(self.problem, d, int(draws[2 * i])), int(draws[2 * i + 1]))
            for i, d in enumerate(self.deltas)
        ]

    def call(self, item):
        prob, solve_seed = item
        try:
            return ov.minimize(prob, self.fam, self.u_true, seed=solve_seed, cfg=self.quad)
        except ov.UncertifiedResultError as exc:
            return exc.result

    def work(self, item) -> int:
        return 1

    def check(self, item, res) -> list[str]:
        prob, _ = item
        bad = [] if res.certified else [f"uncertified solve at delta={prob.delta:.3g}"]
        again = ov.objective(prob, res.u_min, res.v_min)
        if abs(again - res.objective) > OBJECTIVE_RTOL * abs(res.objective):
            bad.append(f"objective() gives {again!r}, the solver reported {res.objective!r}")
        return bad

    def obj_ratios(self, item, res) -> list[float]:
        return [res.objective / res.certificate_bound]


class OperatorsN4097:
    """``run_suite`` over the four operator suites; no solver runs."""

    name = "operators-n4097"
    min_rounds = 1

    def __init__(self, seed: int, scale: str) -> None:
        n = SIZES[scale]["ops_n"]
        self.cfg = ov.ExperimentConfig(grid_n=n, seed=seed)
        self.reference = json.loads((HERE / "reference.json").read_text())["operators"][str(n)]

    def warm_up(self) -> None:
        ov.run_suite(OPERATOR_SUITES, ov.ExperimentConfig(grid_n=65))

    def round(self, k: int) -> list:
        return [self.cfg]

    def call(self, cfg):
        return ov.run_suite(OPERATOR_SUITES, cfg)

    def work(self, cfg) -> int:
        return 1

    def check(self, cfg, results) -> list[str]:
        ref = self.reference
        verdicts = {r.name: r.passed for r in results}
        if verdicts != ref["verdicts"]:
            return [f"suite verdicts {verdicts} differ from the reference {ref['verdicts']}"]
        by_name = {r.name: r for r in results}
        bad = []
        for suite, artifacts in ref["artifacts"].items():
            for fname, text in artifacts.items():
                bad += _compare_csv(f"{suite}/{fname}", by_name[suite].artifacts.get(fname, ""), text)
        for fname, floor in ref["decay_floors"].items():
            rows = _rows(by_name["decay-check"].artifacts.get(fname, ""))
            norms = [float(r["norm"]) for r in rows]
            if len(norms) != len(floor) or any(x < f * (1.0 - ARTIFACT_RTOL) for x, f in zip(norms, floor)):
                bad.append(f"decay-check/{fname}: norms {norms} fall below the deterministic-probe floor {floor}")
        n_rows = len(_rows(by_name["nonlinearity-check"].artifacts.get("nonlinearity_check.csv", "")))
        if n_rows != ref["nonlinearity_samples"]:
            bad.append(f"nonlinearity-check sampled {n_rows} points, expected {ref['nonlinearity_samples']}")
        return bad

    def obj_ratios(self, cfg, results) -> list[float]:
        return []


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _compare_csv(label: str, got: str, want: str) -> list[str]:
    got_rows, want_rows = _rows(got), _rows(want)
    if len(got_rows) != len(want_rows) or (got_rows and got_rows[0].keys() != want_rows[0].keys()):
        return [f"{label}: shape differs from the reference"]
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        for key, wv in w.items():
            gv = g[key]
            try:
                ok = math.isclose(float(gv), float(wv), rel_tol=ARTIFACT_RTOL, abs_tol=ARTIFACT_ATOL)
            except ValueError:
                ok = gv == wv
            if not ok:
                return [f"{label}: row {i} {key}={gv}, reference {wv}"]
    return []


WORKLOADS = {w.name: w for w in (StudyHoelderP05, SolveLowOrderN1025, OperatorsN4097)}
