"""Import footprint: the modules a process loads by using the package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The four operator suites and one solve, in a fresh interpreter.
PROBE = """
import sys
import oversmooth as ov

ov.run_suite(("fracpow-check", "decay-check", "aux-rates", "nonlinearity-check"), ov.ExperimentConfig(grid_n=65))
op = ov.ScaleOperator(64)
truth = ov.make_truth("low_order", op)
problem = ov.make_problem(op, truth)
f_delta = ov.add_noise(problem.f_true, ov.NoiseSpec(1e-2, "random_sign", 0))
prob = ov.TikhonovProblem(problem, f_delta, 1e-2, ov.GridFunction.zeros(64), 1e-2)
try:
    ov.minimize(prob, ov.RegularizerFamily(op, m=2), truth)
except ov.UncertifiedResultError:
    pass
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["scipy", "signal"]))
"""


def test_package_never_imports_scipy_signal():
    # Importing scipy.signal costs about 0.8 s and 25 MB in every process (BENCH_setup.json).
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
