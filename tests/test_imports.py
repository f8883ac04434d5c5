"""Import footprint: the modules a process loads by using the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
from oversmooth import harness

def reporting(suite):
    return lambda cfg: (suite(cfg).name, os.getpid(), "scipy.linalg" in sys.modules)

names = ("fracpow-check", "decay-check", "aux-rates", "nonlinearity-check")
harness._worker_count = lambda n_tasks: min(2, n_tasks)
harness.SUITE_POOL_MIN_N = 0
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
    result = ov.minimize(prob, ov.RegularizerFamily(op, m=2), truth)
except ov.UncertifiedResultError as exc:
    result = exc.result
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
    # Importing scipy.optimize costs about 0.3 s and 40 MB; no part of the package needs it (BENCH_setup.json).
    probe = SUITES + """
import json
print(json.dumps("scipy.optimize" in sys.modules))
"""
    assert run_probe(probe) is False


def test_operator_suites_never_import_scipy_linalg():
    # Importing scipy.linalg costs about 0.27 s and 27 MB; the shifted solve loads its _flapack extension alone.
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


def test_pool_modules_load_at_the_first_pool():
    # multiprocessing and concurrent.futures bring socket, subprocess, logging
    # and queue: about 17 ms of import and 1.2 MB (BENCH_setup.json).  A process
    # loads them when it first builds a pool, before the fork, and not before.
    probe = """
import json
print(json.dumps([name in sys.modules for name in ("multiprocessing", "concurrent.futures")]))
"""
    assert run_probe("import sys\nimport oversmooth as ov\n" + SOLVE + probe) == [False, False]
    assert run_probe(SUITES + probe) == [False, False]
    assert run_probe(POOLED_SUITES + probe) == [True, True]


def test_extensions_load_alone_through_one_loader():
    # setulb and dtbtrs both come through scale._scipy_extension, whose loader is the only one in the
    # package, and neither leaves a scipy entry in sys.modules.  _flapack loads once, also when the
    # pool's BLAS thread setter is looked up through it.
    probe = """
import json
import sys
from oversmooth import harness, scale, tikhonov

loads = []

class CountingLoader(scale.ExtensionFileLoader):
    def exec_module(self, module):
        loads.append(self.name)
        super().exec_module(module)

scale.ExtensionFileLoader = CountingLoader
found = [callable(tikhonov._setulb()), scale._flapack() is scale._flapack()]
harness._bundled_blas_setter()
print(json.dumps([found, loads, hasattr(tikhonov, "ExtensionFileLoader"), [m for m in sys.modules if m.split(".")[0] == "scipy"]]))
"""
    assert run_probe(probe) == [[True, True], ["scipy.optimize._lbfgsb", "scipy.linalg._flapack"], False, []]


def test_solve_never_imports_scipy_optimize():
    # A solve loads L-BFGS-B's extension alone: no scipy Python package, and
    # the module stays out of sys.modules.  A later import of scipy.optimize
    # still works, and from then on descents go through its minimize, with the
    # same result.
    probe = "import sys\nimport oversmooth as ov\nfrom oversmooth import tikhonov\n" + SOLVE + """
import json
first = [tikhonov._lbfgs is None, sorted(name for name in sys.modules if name.split(".")[0] == "scipy")]
import numpy as np
import scipy.optimize

try:
    again = ov.minimize(prob, ov.RegularizerFamily(op, m=2), truth)
except ov.UncertifiedResultError as exc:
    again = exc.result
x = scipy.optimize.minimize(lambda x: float(((x - 1.0) ** 2).sum()), np.zeros(3), method="L-BFGS-B").x
print(json.dumps(first + [
    tikhonov._lbfgs is scipy.optimize.minimize,
    again.v_min.values.tobytes() == result.v_min.values.tobytes(),
    np.allclose(x, 1.0),
    scipy.optimize._lbfgsb.setulb.__doc__ == tikhonov._setulb().__doc__,
]))
"""
    assert run_probe(probe) == [True, [], True, True, True, True]


def test_cli_rate_study_never_imports_scipy_optimize():
    probe = """
import json
import sys
from oversmooth.cli import main

code = main(["rate-study", "--grid-n", "64"])
print(json.dumps([code in (0, 1), "scipy.optimize" in sys.modules]))
"""
    assert run_probe(probe) == [True, False]


def test_function_bound_before_first_solve_gets_every_descent():
    # A tracer swaps ``_lbfgs`` before the first solve; loading the optimizer must not undo that.
    probe = """
import json
import oversmooth as ov
from oversmooth import tikhonov

calls = []

def counting(*args, **kwargs):
    import scipy.optimize
    calls.append([kwargs["method"] == tikhonov._lbfgsb, kwargs["options"]["maxiter"]])
    return scipy.optimize.minimize(*args, **kwargs)

tikhonov._lbfgs = counting
""" + SOLVE + """
print(json.dumps([calls, tikhonov._lbfgs is counting]))
"""
    assert run_probe(probe) == [[[True, 300]] * 3, True]


def test_pooled_rate_study_loads_setulb_only_in_its_workers():
    # The caller of a pooled study solves nothing and never loads the extension;
    # each worker loads it once, on its first solve.  No process imports
    # scipy.optimize.
    probe = """
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import oversmooth as ov
from oversmooth import harness, scale, tikhonov

loads = []

class CountingLoader(scale.ExtensionFileLoader):
    def exec_module(self, module):
        if self.name == "scipy.optimize._lbfgsb":
            loads.append(os.getpid())
        super().exec_module(module)

scale.ExtensionFileLoader = CountingLoader
reports = tempfile.TemporaryDirectory()
minimize_many = harness.minimize_many

def reporting(*args, **kwargs):
    loaded_before = tikhonov._setulb.cache_info().currsize
    solved = minimize_many(*args, **kwargs)
    Path(reports.name, str(os.getpid())).write_text(json.dumps([loaded_before, loads, "scipy.optimize" in sys.modules]))
    return solved

harness._worker_count = lambda n_tasks: min(2, n_tasks)
harness.minimize_many = reporting
cfg = ov.ExperimentConfig(grid_n=64, delta_list=tuple(np.geomspace(1e-1, 1e-3, 4)), n_seeds=1)
rows = ov.run_rate_study(cfg).rows
workers = {int(f.name): json.loads(f.read_text()) for f in Path(reports.name).iterdir()}
reports.cleanup()
print(json.dumps([
    loads,
    "scipy.optimize" in sys.modules,
    len(workers),
    os.getpid() in workers,
    [report == [0, [pid], False] for pid, report in workers.items()],
    len(rows),
]))
"""
    assert run_probe(probe) == [[], False, 2, False, [True, True], 4]


def test_descents_are_the_same_with_scipy_optimize_imported_first():
    # Imported before the first solve, scipy.optimize's minimize is bound and
    # runs each descent (the route a tracer hooks); otherwise descents call
    # the loop directly.  Both routes give the same result and the same counts,
    # for one solve and for a one-worker study, whose four solves descend as
    # one 4-row block.
    probe = """
import hashlib
import json
import sys
import oversmooth as ov
from oversmooth import harness, tikhonov

if IMPORT_FIRST:
    import scipy.optimize

descents = []
loop = tikhonov._lbfgsb

def recording(*args, **kwargs):
    descent = loop(*args, **kwargs)
    descents.append([descent.nit, descent.nfev, descent.status, descent.row_nit, descent.row_nfev, descent.row_status])
    return descent

tikhonov._lbfgsb = recording
""" + SOLVE + """
harness._worker_count = lambda n_tasks: 1
report = ov.run_rate_study(ov.ExperimentConfig(grid_n=64, delta_list=(1e-1, 1e-2), n_seeds=2), timestamp="fixed")
study = [hashlib.sha256(text.encode()).hexdigest() for text in (report.to_csv(), report.to_json())]
bound = tikhonov._lbfgs is not None and tikhonov._lbfgs.__module__.startswith("scipy.optimize")
print(json.dumps([bound, hashlib.sha256(result.v_min.values.tobytes()).hexdigest(), result.objective, study, descents]))
"""
    direct = run_probe(probe.replace("IMPORT_FIRST", "False"))
    through_scipy = run_probe(probe.replace("IMPORT_FIRST", "True"))
    assert direct[0] is False and through_scipy[0] is True
    assert direct[1:] == through_scipy[1:]
    assert [len(row_nit) for _, _, _, row_nit, _, _ in direct[4]] == [1] * 3 + [4] * 3
