"""Record the operator-suite reference values that ``operators-n4097`` checks against.

Run from the root of a checkout, on the commit whose behaviour is the
reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``: the verdict of each suite, the full
artifacts of the seed-independent suites (``fracpow-check``, ``aux-rates``),
the number of ``nonlinearity-check`` samples, and for ``decay-check`` (whose
random probes follow the seed) the norms reached by its four deterministic
probes alone, a floor every seed must reach.
"""

from __future__ import annotations

import json
import re
import subprocess
from pathlib import Path

import oversmooth as ov

from workloads import OPERATOR_SUITES, SIZES, _rows

HERE = Path(__file__).resolve().parent
SEED_INDEPENDENT = ("fracpow-check", "aux-rates")


def reference_for(n: int) -> dict:
    cfg = ov.ExperimentConfig(grid_n=n, seed=0)
    results = {r.name: r for r in ov.run_suite(OPERATOR_SUITES, cfg)}
    fam = ov.RegularizerFamily(ov.ScaleOperator(n), m=cfg.m)
    floors = {}
    for fname, text in results["decay-check"].artifacts.items():
        p = float(re.fullmatch(r"decay_p(.+)\.csv", fname).group(1))
        betas = [float(r["beta"]) for r in _rows(text)]
        rep = ov.decay_check(fam, p, betas, n_samples=0, seed=0, cfg=cfg.quadrature())
        floors[fname] = list(rep.norms)
    return {
        "verdicts": {name: r.passed for name, r in results.items()},
        "artifacts": {name: dict(results[name].artifacts) for name in SEED_INDEPENDENT},
        "decay_floors": floors,
        "nonlinearity_samples": len(_rows(results["nonlinearity-check"].artifacts["nonlinearity_check.csv"])),
    }


def main() -> None:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    sizes = sorted({SIZES[s]["ops_n"] for s in SIZES})
    ref = {
        "commit": sha or "unknown",
        "note": "fracpow-check and aux-rates FAIL by design (README, Known limitations); their verdicts are false",
        "operators": {str(n): reference_for(n) for n in sizes},
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
