#!/usr/bin/env python3
"""Benchmark of the oversmooth package: one workload, one run, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-hoelder-p05 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints every end-to-end metric declared in
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, from a run that
records spans around each layer's public entry points.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every correctness check passed, 1 when one failed or the
workload process broke, and 2 when there is nothing to benchmark (no
``src/oversmooth`` in the current directory).  Full results, with the
environment stamp and per-call samples, go to ``.perfbench/`` in the checkout;
``--trace 1`` also writes the spans there.

The workload itself runs in fresh interpreters started from here (see
``worker.py``): one that sets up and runs the closed loop, and further ones
that only set up, so that ``setup_s`` is a median over several fresh starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Fresh interpreters whose set-up time enters the ``setup_s`` median.
SETUP_SAMPLES = 3

#: Thread-pool variables, capped at one thread: a single-caller workload then
#: runs on one core, and a program that adds a pool of at most nproc worker
#: processes stays within the cores it has.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Module whose lazy import ``setup.lazy_import_s`` measures.
LAZY_IMPORT = "scipy.signal"

#: Wall-clock limits for the workload processes, inside the 180 s run limit.
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


class WorkerError(RuntimeError):
    """A workload process ended without a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def stamp(root: Path, env: dict[str, str]) -> dict:
    """Where the numbers come from: commit, source digest, cores, thread caps."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def run_worker(args, env: dict[str, str], mode: str, timeout: float, importtime: bool = False) -> tuple[dict, str]:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--scale={args.scale}",
        f"--mode={mode}",
    ]
    if args.trace and mode == "run":
        cmd.append(f"--spans-out={args.out / f'{args.workload}-seed{args.seed}-spans.json'}")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} process of {args.workload} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        messages = [ln for ln in proc.stderr.splitlines() if not ln.startswith("import time:")]
        raise WorkerError("\n".join(messages[-5:]) or f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1]), proc.stderr


def lazy_import_s(importtime_log: str) -> float:
    """Cumulative import time of ``LAZY_IMPORT`` from a ``-X importtime`` log (0 if never imported)."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == LAZY_IMPORT:
            return int(parts[1]) / 1e6
    return 0.0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no percentile has ten beyond it, and the
    maximum (percentile 100) is reported instead.
    """
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    rank = len(xs) - 10
    return xs[rank - 1], 100.0 * rank / len(xs)


def end_to_end(run: dict, setups: list[float]) -> tuple[dict[str, float], str]:
    records = run["records"]
    times = [r["s"] for r in records]
    ratios = [x for r in records for x in r["obj_ratios"]]
    failed = sum(1 for r in records if r["failures"])
    tail_s, tail_pct = tail(times)
    rounds: dict[int, list[dict]] = {}
    for r in records:
        rounds.setdefault(r["round"], []).append(r)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(
            sum(r["work"] for r in rnd) / sum(r["s"] for r in rnd) for rnd in rounds.values()
        ),
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail_s,
        # Geometric mean of T(u_min)/T(u_aux); 1 (the empty product) when the
        # workload makes no direct minimize calls.
        "obj_ratio": math.exp(statistics.fmean(math.log(x) for x in ratios)) if ratios else 1.0,
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": 1.0 - failed / len(records),
    }
    note = f"call_tail_s is p{tail_pct:.0f} of {len(times)} calls; setup_s is the median of {len(setups)} fresh starts"
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: tiny sizes for self-tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "oversmooth" / "__init__.py").is_file():
        print(f"error: {src / 'oversmooth'} not found; run from the root of an oversmooth checkout", file=sys.stderr)
        return 2
    args.out = root / ".perfbench"
    env = worker_env(src)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], env=env, capture_output=True, check=False)

    try:
        run, _ = run_worker(args, env, "run", RUN_TIMEOUT_S)
        samples = [run_worker(args, env, "setup", SETUP_TIMEOUT_S, importtime=bool(args.trace))
                   for _ in range(SETUP_SAMPLES - 1)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not Path(run["oversmooth_file"]).resolve().is_relative_to(src.resolve()):
        print(f"error: imported oversmooth from {run['oversmooth_file']}, not from {src}", file=sys.stderr)
        return 1

    info = {**stamp(root, env), "versions": run["versions"]}
    setups = [run["setup_s"]] + [s["setup_s"] for s, _ in samples]
    records = run["records"]
    failures = [f for r in records for f in r["failures"]]
    if args.trace:
        metrics = dict(run["layers"])
        lazy = [lazy_import_s(log) for _, log in samples]
        metrics["setup.lazy_import_s"] = statistics.median(lazy)
        metrics["setup.lazy_import_frac"] = statistics.median(x / s["setup_s"] for x, (s, _) in zip(lazy, samples))
        note = f"traced {run['rounds']} rounds after the same rounds untraced; absent hook targets: {run['absent'] or 'none'}"
        declared = SPEC["per_layer"]
    else:
        metrics, note = end_to_end(run, setups)
        declared = SPEC["end_to_end"]

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failures"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    args.out.mkdir(exist_ok=True)
    (args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": info, "note": note, "result": result, "setup_s": setups, "records": records}, indent=1)
    )

    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {note}")
    for failure in failures:
        print(f"# FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
