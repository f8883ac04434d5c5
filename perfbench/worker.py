"""One workload process: set up in a fresh interpreter, run the closed loop, print JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the thread limits already in the environment.  ``--mode setup`` stops
after set-up, so ``run.py`` can sample set-up time in several fresh
interpreters.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before oversmooth, numpy and scipy load

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_loop(wl, seconds: float | None, rounds: int | None = None) -> tuple[list[dict], int]:
    """Run whole rounds until ``seconds`` have passed (or exactly ``rounds``).

    Returns one record per call and the number of rounds run.  An exception
    from a call is caught here and recorded as a failure with its message;
    its traceback goes to the results file, not to the terminal.
    """
    records = []
    start = time.perf_counter()
    k = 0
    while (k < rounds) if rounds is not None else (k < wl.min_rounds or time.perf_counter() - start < seconds):
        for item in wl.round(k):
            record = {"round": k, "work": wl.work(item)}
            t0 = time.perf_counter()
            try:
                out = wl.call(item)
                record["s"] = time.perf_counter() - t0
                record.update(failures=wl.check(item, out), obj_ratios=wl.obj_ratios(item, out))
            except Exception as exc:  # a failed call must not end the run
                record.setdefault("s", time.perf_counter() - t0)
                record.update(failures=[f"{type(exc).__name__}: {exc}"], obj_ratios=[])
                record["traceback"] = traceback.format_exc()
            records.append(record)
        k += 1
    return records, k


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    import workloads  # imports oversmooth, numpy and scipy
    from spans import Tracer

    # A traced run traces building the inputs and the replay, not the warm-up.
    tracer = Tracer().install() if args.trace and args.mode == "run" else None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
        if tracer is not None:
            tracer.uninstall()
        wl.warm_up()
    except Exception as exc:  # a set-up failure ends the run with a message
        print(f"error: set-up of {args.workload} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    out: dict = {"setup_s": time.perf_counter() - T_START}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if tracer is None:
        records, rounds = run_loop(wl, args.seconds)
    else:
        # Half the time untraced, then the same rounds again traced: the
        # difference in call time is the tracing overhead.
        records, rounds = run_loop(wl, args.seconds / 2.0)
        tracer.install()
        traced, _ = run_loop(wl, None, rounds)
        tracer.uninstall()
        untraced_s = sum(r["s"] for r in records)
        traced_s = sum(r["s"] for r in traced)
        records += traced
        names = [m["name"] for m in json.loads((here.parent / "BENCHMARK.json").read_text())["per_layer"]]
        out["layers"] = tracer.layer_metrics(names)
        out["layers"]["trace.spans"] = float(len(tracer.spans))
        out["layers"]["trace.overhead_s"] = traced_s - untraced_s
        out["layers"]["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        out["absent"] = tracer.absent
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps(tracer.dump()))

    import numpy
    import scipy

    out.update(
        records=records,
        rounds=rounds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
        oversmooth_file=workloads.ov.__file__,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
