"""Import footprint: the modules a process loads by using the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oversmooth import scale

SRC = Path(__file__).resolve().parents[1] / "src"

# The four operator suites, in this process: one worker, so what they import shows in its sys.modules.
SUITES = """
import sys
import oversmooth as ov
from oversmooth import harness

harness._worker_count = lambda n_tasks: 1
ov.run_suite(("fracpow-check", "decay-check", "aux-rates", "nonlinearity-check"), ov.ExperimentConfig(grid_n=65))
"""

# The same suites on two forked workers, each suite wrapped to report from its worker.
POOLED_SUITES = """
import os
import sys
import oversmooth as ov
from oversmooth import harness, scale

def reporting(suite):
    return lambda cfg: (suite(cfg).name, os.getpid(), "scipy.linalg" in sys.modules)

names = ("fracpow-check", "decay-check", "aux-rates", "nonlinearity-check")
harness._worker_count = lambda n_tasks: min(2, n_tasks)
scale.SUITE_POOL_MIN_N = 0
for name in names:
    harness.SUITE_NAMES[name] = reporting(harness.SUITE_NAMES[name])
reports = ov.run_suite(names, ov.ExperimentConfig(grid_n=65))
"""

# One solve of a small low-order problem.
SOLVE = """
op = ov.ScaleOperator(64)
truth = ov.make_truth("low_order", op)
problem = ov.make_problem(op, truth)
f_delta = ov.add_noise(problem.f_true, ov.NoiseSpec(1e-2, "random_sign", 0))
prob = ov.TikhonovProblem(problem, f_delta, 1e-2, ov.GridFunction.zeros(64), 1e-2)
try:
    ov.minimize(prob, ov.RegularizerFamily(op, m=2), truth)
except ov.UncertifiedResultError:
    pass
"""


def run_probe(code: str):
    """Run code in a fresh interpreter and return the JSON value of its last output line."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_never_imports_scipy_signal():
    # Importing scipy.signal costs about 0.8 s and 25 MB in every process (BENCH_setup.json).
    probe = SUITES + SOLVE + """
import json
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[:2] == ["scipy", "signal"])))
"""
    assert run_probe(probe) == []


def test_operator_suites_never_import_scipy_optimize():
    # Importing scipy.optimize costs about 0.3 s and 20 MB; only a solve needs it (BENCH_setup.json).
    probe = SUITES + """
import json
print(json.dumps("scipy.optimize" in sys.modules))
"""
    assert run_probe(probe) is False


@pytest.mark.skipif(scale._bundled_openblas() is None, reason="scipy has no bundled OpenBLAS")
def test_operator_suites_never_import_scipy_linalg():
    # Importing scipy.linalg costs about 0.27 s and 27 MB; the shifted solve calls LAPACK through ctypes.
    serial = run_probe(SUITES + """
import json
print(json.dumps("scipy.linalg" in sys.modules))
""")
    pooled = run_probe(POOLED_SUITES + """
import json
print(json.dumps([reports, os.getpid(), "scipy.linalg" in sys.modules]))
""")
    reports, caller, in_caller = pooled
    assert serial is False and in_caller is False
    assert [name for name, _, _ in reports] == ["fracpow-check", "decay-check", "aux-rates", "nonlinearity-check"]
    assert caller not in {pid for _, pid, _ in reports}
    assert [loaded for _, _, loaded in reports] == [False] * 4


def test_first_solve_binds_scipy_minimize():
    probe = "import oversmooth as ov\n" + SOLVE + """
import json
import scipy.optimize
from oversmooth import tikhonov
print(json.dumps(tikhonov._lbfgs is scipy.optimize.minimize))
"""
    assert run_probe(probe) is True


def test_function_bound_before_first_solve_gets_every_descent():
    # A tracer swaps ``_lbfgs`` before the first solve; loading the optimizer must not undo that.
    probe = """
import json
import oversmooth as ov
from oversmooth import tikhonov

calls = []

def counting(*args, **kwargs):
    import scipy.optimize
    loop = tikhonov._lbfgsb if tikhonov._setulb() else "L-BFGS-B"
    calls.append([kwargs["method"] == loop, kwargs["options"]["maxiter"]])
    return scipy.optimize.minimize(*args, **kwargs)

tikhonov._lbfgs = counting
""" + SOLVE + """
print(json.dumps([calls, tikhonov._lbfgs is counting]))
"""
    assert run_probe(probe) == [[[True, 300]] * 3, True]


def test_rate_study_loads_optimizer_before_the_pool_forks():
    # The probe replaces the solve, so a worker can only have scipy.optimize by inheriting it from the caller.
    probe = """
import json
import os
import sys
import numpy as np
import oversmooth as ov
from oversmooth import harness

def probe_group(study, tasks):
    return [((float("scipy.optimize" in sys.modules), float(os.getpid()), 0.0), True) for _ in tasks]

harness._worker_count = lambda n_tasks: min(2, n_tasks)
harness._solve_group = probe_group
before = "scipy.optimize" in sys.modules
cfg = ov.ExperimentConfig(grid_n=64, delta_list=tuple(np.geomspace(1e-1, 1e-3, 4)), n_seeds=1)
rows = ov.run_rate_study(cfg).rows
print(json.dumps([before, [row.error_sup for row in rows], os.getpid() in {row.residual for row in rows}]))
"""
    assert run_probe(probe) == [False, [1.0] * 4, False]
