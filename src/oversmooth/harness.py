"""Experiment harness: noise sweeps, rate studies, verification suites, reports.

A rate study sweeps the noise level over a decreasing list, picks alpha by the
configured a priori rule, runs the certified Tikhonov solver for each level
and noise draw (independent solves, dealt on Linux to forked worker
processes, one per CPU the process may use, each of which descends its share
as one lockstep block), and summarizes the sup-norm
reconstruction errors: a fitted log-log slope for the Hoelder regime, a
boundedness statistic error * log(1/delta) with a monotone-decrease check for
the low-order regime, and the monotone-decrease check alone when no
smoothness is constructed.  Reports freeze to CSV and JSON; identical
configuration and seeds give byte-identical output
(the JSON timestamp is injectable for that purpose).  The verification suites
check the operator tools the rates rest on; the four operator suites run on
the same worker pool.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Sequence, TypeVar, get_type_hints

import numpy as np

from . import __version__, scale
from .exp_volterra import ExpVolterraProblem, NoiseSpec, add_noise, make_problem, make_truth, nonlinearity_check
from .fitting import NOISE_FLOOR, fit_slope
from .grids import GridFunction, _integer, csv_table
from .lavrentiev import RegularizerFamily, decay_check, gap_table
from .scale import QuadratureConfig, ScaleOperator, riemann_liouville
from .tikhonov import (
    ParamChoice,
    TikhonovProblem,
    choose_alpha,
    coupling_exponent,
    minimize_many,
)

__all__ = [
    "REGIME_NAMES",
    "ExperimentConfig",
    "RateRow",
    "RateReport",
    "run_rate_study",
    "CheckResult",
    "run_suite",
    "SUITE_NAMES",
    "parse_config_file",
]

T = TypeVar("T")
R = TypeVar("R")


#: Each regime spelling the CLI and ``ExperimentConfig`` take -> the one ``ExperimentConfig.regime`` stores.
REGIME_NAMES = {"none": "none", "hoelder": "hoelder", "low-order": "low_order", "low_order": "low_order"}


#: Most noise draws per level: ``run_rate_study`` seeds draw j of level i ``seed + _MAX_SEEDS * i + j``,
#: so more draws would reuse the next level's seeds.
_MAX_SEEDS = 1000

#: The rate study's gates, fixed in advance: a Hoelder study passes when its fitted slope is within
#: SLOPE_TOLERANCE of p/(p+a), a low-order one when max/min of error * log(1/delta) is at most
#: BOUNDED_RATIO_LIMIT (``aux-rates`` holds its gap tables to the same limit) and its errors converge.
SLOPE_TOLERANCE = 0.12
BOUNDED_RATIO_LIMIT = 5.0


@dataclass(frozen=True)
class ExperimentConfig:
    """A rate study's settings (and the suites' grid and seed); ``m`` and the alpha rule's C = 1 are fixed."""

    grid_n: int = 256
    regime: str = "hoelder"
    p: float = 1.0
    r: float = 1.0
    #: The Lavrentiev saturation: the least the error analysis admits, m >= 1 + a.
    m: ClassVar[int] = math.ceil(1 + ExpVolterraProblem.a)
    delta_list: tuple[float, ...] = field(default_factory=lambda: tuple(np.geomspace(1e-1, 10**-4.5, 8)))
    seed: int = 0
    n_seeds: int = 5
    noise_kind: str = "random_sign"
    max_iter: int = 300

    def __post_init__(self) -> None:
        for name, least in (("grid_n", 64), ("seed", 0), ("n_seeds", 1), ("max_iter", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        for name in ("p", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_seeds > _MAX_SEEDS:
            raise ValueError(f"n_seeds must be at most {_MAX_SEEDS}")
        if self.regime not in REGIME_NAMES:
            raise ValueError(f"unknown regime: {self.regime!r}")
        object.__setattr__(self, "regime", REGIME_NAMES[self.regime])
        deltas = tuple(float(d) for d in self.delta_list)
        if not deltas:
            raise ValueError("delta_list needs at least one noise level")
        if not all(math.isfinite(d) and d > 0.0 for d in deltas):
            raise ValueError("noise levels must be positive and finite")
        if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
            raise ValueError("noise levels must be strictly decreasing")
        if self.regime == "low_order" and deltas[0] >= 1.0:
            # The low-order statistic error * log(1/delta) needs log(1/delta) > 0.
            raise ValueError("low-order noise levels must be below 1")
        object.__setattr__(self, "delta_list", deltas)
        # Build the alpha rule and noise spec of a study: bad fields fail here, not mid-run.
        choose_alpha(self.param_choice(), deltas[0], self.r, ExpVolterraProblem.a)
        NoiseSpec(deltas[0], self.noise_kind)

    def quadrature(self) -> QuadratureConfig:
        """The one quadrature, ``scale.QuadratureConfig()``: not a setting, kept for callers that pass it on."""
        return QuadratureConfig()

    def param_choice(self) -> ParamChoice:
        return ParamChoice(self.regime, p=self.p)


@dataclass(frozen=True)
class RateRow:
    delta: float
    alpha: float
    beta: float
    error_sup: float
    residual: float
    penalty: float
    certified: bool


@dataclass(frozen=True)
class RateReport:
    config: ExperimentConfig
    rows: tuple[RateRow, ...]
    fitted_slope: float | None
    expected_slope: float | None
    #: The limit the verdict held: SLOPE_TOLERANCE (Hoelder), BOUNDED_RATIO_LIMIT (low-order), None (none).
    gate: float | None
    statistic: float | None
    passed: bool
    timestamp: str
    version: str

    def to_csv(self) -> str:
        return csv_table(
            "delta,alpha,beta,error_sup,residual,penalty,certified", map(dataclasses.astuple, self.rows)
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


#: The thread-count setter exported by the OpenBLAS build bundled in the scipy wheel.
_OPENBLAS_SETTER = "scipy_openblas_set_num_threads"

#: The per-library thread variables of OpenBLAS, MKL and BLIS; each library
#: reads its own first and falls back to OMP_NUM_THREADS.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

#: The CPU quota of the cgroup a container sees as its own: cgroup v2
#: ("QUOTA PERIOD" or "max PERIOD"), else v1 (quota -1 when unlimited).
_CGROUP_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")
_CGROUP_CFS_QUOTA = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
_CGROUP_CFS_PERIOD = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us")


@functools.cache
def _bundled_blas_setter() -> Callable[[int], None] | None:
    """The thread-count setter of scipy's bundled OpenBLAS, or None when it is not found.

    The setter is looked up in ``scale._flapack()``'s own file, which the
    dynamic loader resolves through that extension's link to the OpenBLAS it
    calls: the library of LAPACK's banded solve ``dtbtrs`` in every shifted
    solve, and of L-BFGS-B's ``setulb``.  A file that cannot be opened gives
    None, and so does a BLAS that exports no ``scipy_openblas_set_num_threads``
    (a conda or system scipy, an ILP64 build).  A pool worker holds that
    library to one thread: on a 2-CPU host with no thread variables set,
    workers that held no BLAS made the default p=0.5 study about 4 times
    slower in the median (4.9-12.0 s against 1.4-2.3 s, six runs each), with
    byte-identical reports.  numpy's BLAS runs no product in a solve and is
    left alone: holding it to one thread as well moved that study's time by
    less than its run-to-run spread (3.38-4.36 s against 3.32-4.04 s, six runs
    each).
    """
    path = scale._flapack().__file__
    try:
        setter = getattr(ctypes.CDLL(path), _OPENBLAS_SETTER)
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return setter


def _env_blas_one_thread() -> bool:
    """True when the thread variables hold OpenBLAS, MKL and BLIS alike to one thread."""
    env = os.environ
    return env.get("OMP_NUM_THREADS") == "1" and all(env.get(var, "1") == "1" for var in _BLAS_THREAD_VARS)


def _quota_cpus() -> int | None:
    """Whole CPUs the cgroup CPU quota allows (at least 1), or None without a readable quota."""
    try:
        if _CGROUP_CPU_MAX.exists():
            quota, period = _CGROUP_CPU_MAX.read_text().split()
        else:
            quota, period = _CGROUP_CFS_QUOTA.read_text().strip(), _CGROUP_CFS_PERIOD.read_text().strip()
        if quota in ("max", "-1"):
            return None
        return max(1, int(quota) // int(period))
    except (OSError, ValueError):
        return None


def _worker_count(n_tasks: int) -> int:
    """Processes to run n_tasks independent tasks on: one per usable CPU, at most one per task.

    Usable CPUs are the affinity mask cut to the cgroup CPU quota.  The count
    is 1 (no pool) off Linux, and when a worker could not hold scipy's BLAS to
    one thread: neither the one thread-count setter of scipy's bundled
    OpenBLAS, found through the ``_flapack`` extension of the shifted solve
    (``_bundled_blas_setter``), nor the thread variables do it, and uncapped
    BLAS threads of several workers fight over the cores.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    workers = min(cpus, _quota_cpus() or cpus, n_tasks)
    if workers == 1 or not (_env_blas_one_thread() or _bundled_blas_setter() is not None):
        return 1
    return workers


#: The function a pool worker maps its tasks through; set only inside pool workers, by ``_start_pool_worker``.
_pool_fn: Callable | None = None


def _start_pool_worker(fn: Callable) -> None:
    """Set the worker's task function, and hold scipy's OpenBLAS to one thread with its setter, if found."""
    global _pool_fn
    _pool_fn = fn
    if (setter := _bundled_blas_setter()) is not None:
        setter(1)


def _pool_task(task: object) -> tuple[object, dict]:
    """``_pool_fn(task)`` and the fractional-power kernels it built, for the caller's cache."""
    known = set(scale._kernels)
    result = _pool_fn(task)
    return result, {key: kernel for key, kernel in scale._kernels.items() if key not in known}


def _pool_map(fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
    """``[fn(task) for task in tasks]``, on ``_worker_count(len(tasks))`` forked worker processes.

    Each worker holds scipy's bundled OpenBLAS to one thread.  Results come
    back in task order whatever order the workers finish in, and an exception
    raised by ``fn`` in a worker reaches the caller with its type.  With one
    worker the tasks run in this process, one after another.  Every task
    returns the fractional-power kernels it built (``scale._kernels``) along
    with its result; they join this process's cache, so the workers of its
    next pool inherit them by fork instead of building them again.  Pool
    workers cannot start pools of their own, so ``fn`` must not call this.
    """
    workers = _worker_count(len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    # Loaded here, not on import, so a process that never forks never loads them;
    # loaded before the fork, so the workers inherit them.  numpy loads random
    # and fft lazily, on first use; a caller that has run no task itself has not.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import numpy.fft
    import numpy.random

    # Fork, not spawn: a spawned worker would import numpy, scipy and oversmooth
    # anew, and could not take fn when it is a closure.
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_pool_worker,
        initargs=(fn,),
    ) as pool:
        done = list(pool.map(_pool_task, tasks))
    for _, built in done:
        scale._remember_kernels(built)
    return [result for result, _ in done]


def _converges(errs: Sequence[float]) -> bool:
    """The errors strictly decrease after the first level, and the last is below the first."""
    return all(b < a for a, b in zip(errs[1:], errs[2:])) and errs[-1] < errs[0]


def _bounded_ratio(points: Iterable[tuple[float, float]]) -> float:
    """max / min of g * log(1/x) over the (x, g) points; it stays bounded when g decays like 1/log(1/x)."""
    scaled = [g * math.log(1.0 / x) for x, g in points]
    return max(scaled) / min(scaled)


def run_rate_study(cfg: ExperimentConfig, timestamp: str | None = None) -> RateReport:
    """Run the configured noise sweep and summarize the reconstruction errors.

    Each noise level is solved for n_seeds independent noise draws and the
    reported row is the worst draw by reconstruction error: the rate theory
    bounds the error uniformly over all data within the noise level, so the
    worst sampled draw is the statistic whose decay the theory constrains.  A
    level counts as certified when every draw certifies.  Uncertified levels
    are flagged and excluded from the fit; more than half uncertified aborts
    the study.

    The (level, draw) solves are independent, so on Linux they run on a pool of
    forked worker processes, one per CPU this process may use (its affinity
    mask cut to its cgroup CPU quota, at most one per solve), each with scipy's
    BLAS, which the solves run on, held to one thread.  They run in this
    process instead when there is one worker, or when that BLAS cannot be held
    to one thread per worker: the scipy wheel's bundled OpenBLAS can be, and
    any BLAS can be through OMP_NUM_THREADS=1 (with OPENBLAS_, MKL_ and
    BLIS_NUM_THREADS unset or 1).  The quota is read from the cgroup files a
    container sees as its own; a quota set on an ancestor cgroup is not seen.
    Every problem is built in this process, and the workers inherit them by
    fork; they are dealt round-robin into one group per worker, and each group
    is solved as one block by ``minimize_many``, its descents in lockstep (with
    one worker, all problems are one block in this process).  Each solve's floats
    are its own whatever block it is in, and results are put back in task
    order, so the report is byte-identical whatever the worker count.  An
    exception from a solve, such as the ``ImportError`` of a scipy without
    scipy 1.17's ``setulb``, reaches the caller with its type.  The pool is
    ``_pool_map``'s, and a pool worker cannot start one, so the study never
    runs in a worker: ``run_suite`` runs it in the caller, after its pooled
    suites.
    """
    op = ScaleOperator(cfg.grid_n)
    regime_truth = {"hoelder": "hoelder", "low_order": "low_order", "none": "generic_continuous"}
    u_true = make_truth(regime_truth[cfg.regime], op, p=cfg.p)
    problem, fam = make_problem(op, u_true), RegularizerFamily(op, m=cfg.m)
    pc = cfg.param_choice()
    alphas = tuple(choose_alpha(pc, delta, cfg.r, problem.a) for delta in cfg.delta_list)
    probs = [
        TikhonovProblem(
            forward_problem=problem,
            f_delta=add_noise(problem.f_true, NoiseSpec(delta, cfg.noise_kind, cfg.seed + _MAX_SEEDS * i + j)),
            delta=delta,
            u_bar_witness=GridFunction.zeros(cfg.grid_n),
            alpha=alpha,
            r=cfg.r,
        )
        for i, (delta, alpha) in enumerate(zip(cfg.delta_list, alphas))
        for j in range(cfg.n_seeds)
    ]
    workers = _worker_count(len(probs))

    def solve_group(w: int) -> list[tuple[tuple[float, float, float], bool]]:
        # Forked workers inherit probs, so a task is the group's index and only floats come back.
        results = minimize_many(probs[w::workers], fam, u_true, max_iter=cfg.max_iter)
        return [(((res.u_min - u_true).sup_norm(), res.residual, res.penalty), res.certified) for res in results]

    solved: list = [None] * len(probs)
    for w, group in enumerate(_pool_map(solve_group, range(workers))):
        solved[w::workers] = group

    kap = coupling_exponent(cfg.r, problem.a)
    rows: list[RateRow] = []
    for i, (delta, alpha) in enumerate(zip(cfg.delta_list, alphas)):
        level = solved[i * cfg.n_seeds : (i + 1) * cfg.n_seeds]
        err, residual, penalty = max((draw for draw, _ in level), key=lambda t: t[0])
        rows.append(
            RateRow(
                delta=delta,
                alpha=alpha,
                beta=alpha**kap,
                error_sup=err,
                residual=residual,
                penalty=penalty,
                certified=all(cert for _, cert in level),
            )
        )

    certified = [r for r in rows if r.certified]
    if len(certified) < len(rows) / 2.0:
        raise RuntimeError(f"rate study failed: only {len(certified)} of {len(rows)} solves certified")

    fit_points = [(r.delta, r.error_sup) for r in certified if r.error_sup > NOISE_FLOOR]
    fitted = fit_slope(fit_points) if len(fit_points) >= 3 else None

    expected = statistic = gate = None
    errs = [r.error_sup for r in rows]
    if cfg.regime == "hoelder":
        expected, gate = cfg.p / (cfg.p + problem.a), SLOPE_TOLERANCE
        passed = fitted is not None and abs(fitted - expected) <= gate
    elif cfg.regime == "low_order":
        # Like the Hoelder fit, the check needs 3 levels: over one level the ratio is 1 whatever the error.
        # Over the default deltas log(1/delta) spans a factor 4.5, so constant errors keep the ratio under
        # its limit: the errors must also converge.
        statistic, gate = _bounded_ratio((r.delta, r.error_sup) for r in certified), BOUNDED_RATIO_LIMIT
        passed = all(r.certified for r in rows) and len(certified) >= 3 and statistic <= gate and _converges(errs)
    else:
        passed = all(r.certified for r in rows) and _converges(errs)
        statistic = max(errs) / min(errs)

    ts = timestamp if timestamp is not None else datetime.now(timezone.utc).isoformat()
    return RateReport(
        config=cfg,
        rows=tuple(rows),
        fitted_slope=fitted,
        expected_slope=expected,
        gate=gate,
        statistic=statistic,
        passed=passed,
        timestamp=ts,
        version=__version__,
    )


# -- verification suites --------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    lines: tuple[str, ...]
    artifacts: dict[str, str]


def _suite_fracpow(cfg: ExperimentConfig) -> CheckResult:
    op = ScaleOperator(cfg.grid_n)
    x = np.linspace(0.0, 1.0, cfg.grid_n)
    probes = {
        "ones": GridFunction.ones(cfg.grid_n),
        "x": GridFunction(x),
        "sin_pi_x": GridFunction(np.sin(np.pi * x)),
    }
    tol = 1e-3
    lines = []
    rows = []
    for p in (0.25, 0.5, 0.75):
        for name, u in probes.items():
            err = (op.power(p, u) - riemann_liouville(p, u)).sup_norm()
            good = err <= tol
            lines.append(f"p={p} u={name}: sup_err={err:.3e} {'PASS' if good else 'FAIL'}")
            rows.append((p, name, err, tol, good))
    artifacts = {"fracpow_check.csv": csv_table("p,u,sup_err,tol,pass", rows)}
    return CheckResult("fracpow-check", all(row[-1] for row in rows), tuple(lines), artifacts)


def _suite_decay(cfg: ExperimentConfig) -> CheckResult:
    op = ScaleOperator(cfg.grid_n)
    fam = RegularizerFamily(op, m=cfg.m)
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    bound = (op.kappa_star + 1.0) ** cfg.m
    *bounded, half = decay_check(fam, (0.0, 1.0, float(cfg.m), 0.5), betas, seed=cfg.seed)
    lines = []
    artifacts = {}
    ok = True
    for rep in bounded:
        good = rep.max_ratio <= bound
        ok = ok and good
        lines.append(f"p={rep.p}: max ||S G^p||/beta^p = {rep.max_ratio:.3f} <= {bound} {'PASS' if good else 'FAIL'}")
        artifacts[f"decay_p{rep.p:g}.csv"] = rep.to_csv()
    good = 0.45 <= half.fitted_slope <= 0.55
    ok = ok and good
    lines.append(f"p=0.5: fitted slope = {half.fitted_slope:.4f} in [0.45, 0.55] {'PASS' if good else 'FAIL'}")
    artifacts["decay_p0.5.csv"] = half.to_csv()
    return CheckResult("decay-check", ok, tuple(lines), artifacts)


def _suite_aux_rates(cfg: ExperimentConfig) -> CheckResult:
    op = ScaleOperator(cfg.grid_n)
    fam = RegularizerFamily(op, m=cfg.m)
    zero = GridFunction.zeros(cfg.grid_n)
    lines = []
    artifacts = {}
    ok = True

    u_h = make_truth("hoelder", op, p=0.5)
    betas = list(np.geomspace(1e-1, 1e-4, 7))
    table = gap_table(fam, betas, u_h, zero, a=ExpVolterraProblem.a)
    artifacts["gaps_hoelder.csv"] = table.to_csv()
    for name, vals in (("g1", table.g1), ("g2", table.g2), ("g3", table.g3)):
        slope = fit_slope(list(zip(table.betas, vals)))
        good = abs(slope - 0.5) <= 0.07
        ok = ok and good
        lines.append(f"hoelder p=0.5 {name}: slope={slope:.4f} (0.5 +- 0.07) {'PASS' if good else 'FAIL'}")

    u_log = make_truth("low_order", op)
    betas_log = list(np.geomspace(1e-1, 1e-6, 11))
    table = gap_table(fam, betas_log, u_log, zero, a=ExpVolterraProblem.a)
    artifacts["gaps_low_order.csv"] = table.to_csv()
    diagnostics = []
    for name, vals in (("g1", table.g1), ("g2", table.g2), ("g3", table.g3)):
        ratio = _bounded_ratio(zip(table.betas, vals))
        good = ratio <= BOUNDED_RATIO_LIMIT
        ok = ok and good
        lines.append(
            f"low-order {name}: max/min of g*log(1/beta) = {ratio:.2f} "
            f"<= {BOUNDED_RATIO_LIMIT} {'PASS' if good else 'FAIL'}"
        )
        # Diagnostic: the same statistic restricted to the zone the grid resolves
        # (beta at or above the mesh width); below it every grid vector is
        # maximally smooth and the gaps decay faster than 1/log.
        resolved = [(b, g) for b, g in zip(table.betas, vals) if b >= op.h]
        if len(resolved) >= 2:
            diagnostics.append(
                f"low-order {name} (resolved zone beta >= h): "
                f"max/min = {_bounded_ratio(resolved):.2f} [diagnostic]"
            )
    return CheckResult("aux-rates", ok, tuple(lines + diagnostics), artifacts)


def _suite_nonlinearity(cfg: ExperimentConfig) -> CheckResult:
    op = ScaleOperator(cfg.grid_n)
    problem = make_problem(op, make_truth("hoelder", op, p=1.0))
    rep = nonlinearity_check(problem, rho=0.5, n_samples=1000, seed=cfg.seed)
    lines = (
        f"pointwise preparatory inequality failures: {rep.n_prep_fail}",
        f"inequality (a) failures: {rep.n_a_fail}",
        f"inequality (b) failures: {rep.n_b_fail}",
        f"worst margin: {rep.worst_margin:.3e}",
    )
    return CheckResult(
        "nonlinearity-check", rep.all_pass, lines, {"nonlinearity_check.csv": rep.to_csv()}
    )


def _suite_rate_study(cfg: ExperimentConfig) -> CheckResult:
    report = run_rate_study(cfg)
    lines = [
        f"regime={cfg.regime} p={cfg.p if cfg.regime == 'hoelder' else '-'} "
        f"fitted_slope={report.fitted_slope} expected={report.expected_slope} "
        f"statistic={report.statistic}",
        f"certified rows: {sum(r.certified for r in report.rows)}/{len(report.rows)}",
    ]
    return CheckResult(
        "rate-study",
        report.passed,
        tuple(lines),
        {"rate_study.csv": report.to_csv(), "rate_study.json": report.to_json()},
    )


SUITE_NAMES: dict[str, Callable[[ExperimentConfig], CheckResult]] = {
    "fracpow-check": _suite_fracpow,
    "decay-check": _suite_decay,
    "aux-rates": _suite_aux_rates,
    "nonlinearity-check": _suite_nonlinearity,
    "rate-study": _suite_rate_study,
}


def run_suite(names: Sequence[str], cfg: ExperimentConfig | None = None) -> list[CheckResult]:
    """Run the named verification suites (all of them when names is empty), results in the order named.

    The operator suites run together on the worker pool of ``_pool_map``, one
    suite per task, and so in this process when it gives one worker.  Either
    way the results are the same, byte for byte.  ``rate-study`` always runs in
    this process, after the pooled suites: it pools its own solves, and pools
    do not nest.
    """
    if isinstance(names, str):
        raise TypeError(f"names must be a sequence of suite names, got the string {names!r}")
    cfg = cfg if cfg is not None else ExperimentConfig()
    picked = list(names) if names else list(SUITE_NAMES)
    unknown = [n for n in picked if n not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite name(s): {', '.join(unknown)}")

    done = iter(_pool_map(lambda name: SUITE_NAMES[name](cfg), [n for n in picked if n != "rate-study"]))
    return [SUITE_NAMES[n](cfg) if n == "rate-study" else next(done) for n in picked]


# -- config files -----------------------------------------------------------------


def parse_config_file(path: str | Path, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    """Read a key = value text file of ExperimentConfig fields, each parsed as its annotated type.

    ``delta_list`` is comma separated.  The ``overrides`` fields replace the file's, and the result
    is validated once; an invalid result names the file, unless the overrides alone are invalid.
    """
    hints = get_type_hints(ExperimentConfig)
    parsers = {
        **{f.name: hints[f.name] for f in dataclasses.fields(ExperimentConfig)},
        "delta_list": lambda value: tuple(float(tok) for tok in value.split(",") if tok.strip()),
    }
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in parsers:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    overrides = overrides or {}
    try:
        return ExperimentConfig(**{**values, **overrides})
    except ValueError as exc:
        ExperimentConfig(**overrides)  # overrides invalid on their own raise here, without the file's name
        raise ValueError(f"{path}: {exc}") from None
