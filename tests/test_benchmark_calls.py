"""The benchmark's calls into the library still run: each ``perfbench/`` workload, at smoke size, checks clean.

``perfbench/`` calls the library with the keywords it had when its reference
was recorded (``minimize(seed=, cfg=)``, ``make_truth(cfg=)``,
``decay_check(cfg=)``), so a change that drops or renames one fails here, not
first in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench/``'s modules importable for one test, and forgotten after it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("workloads", "make_reference"):
        sys.modules.pop(name, None)


def test_workloads_run_and_check_clean(perfbench):
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        wl = workload(0, "smoke")
        wl.warm_up()
        for k in range(wl.min_rounds):
            for item in wl.round(k):
                assert wl.check(item, wl.call(item)) == [], name


def test_reference_verdicts_reproduce(perfbench):
    import make_reference

    recorded = json.loads((PERFBENCH / "reference.json").read_text())["operators"]["129"]
    assert make_reference.reference_for(129)["verdicts"] == recorded["verdicts"]
