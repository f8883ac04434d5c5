"""Span tracing of the oversmooth layers, installed from outside the package.

A ``Tracer`` replaces the public entry points of each module (and the one
call ``tikhonov`` makes into scipy's optimizer) with wrappers that record a
span ``(name, start, end, parent)`` per call.  Spans stay in memory until the
run ends.  Targets are found by identity: every ``oversmooth`` module global,
package re-export or dict entry that holds the original object is swapped, so
``from .tikhonov import minimize`` copies are traced too.  A target that no
longer exists is listed in ``absent`` and its metrics are reported as -1.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from typing import Callable

#: Reported for a per-layer metric whose hook target is gone.
ABSENT = -1.0

#: Span name -> (module, attribute path) of a public entry point.
HOOKS = {
    "harness.run_rate_study": ("oversmooth.harness", "run_rate_study"),
    "harness.run_suite": ("oversmooth.harness", "run_suite"),
    "tikhonov.minimize": ("oversmooth.tikhonov", "minimize"),
    "lavrentiev.regularize": ("oversmooth.lavrentiev", "RegularizerFamily.regularize"),
    "lavrentiev.companion": ("oversmooth.lavrentiev", "RegularizerFamily.companion"),
    "lavrentiev.auxiliary_element": ("oversmooth.lavrentiev", "auxiliary_element"),
    "lavrentiev.decay_check": ("oversmooth.lavrentiev", "decay_check"),
    "lavrentiev.gap_table": ("oversmooth.lavrentiev", "gap_table"),
    "scale.power": ("oversmooth.scale", "ScaleOperator.power"),
    "scale.log_smooth_element": ("oversmooth.scale", "log_smooth_element"),
    "scale.riemann_liouville": ("oversmooth.scale", "riemann_liouville"),
    "exp_volterra.make_truth": ("oversmooth.exp_volterra", "make_truth"),
    "exp_volterra.add_noise": ("oversmooth.exp_volterra", "add_noise"),
    "exp_volterra.nonlinearity_check": ("oversmooth.exp_volterra", "nonlinearity_check"),
}

#: The verification suites timed one by one through ``harness.SUITE_NAMES``.
SUITES = ("fracpow-check", "decay-check", "aux-rates", "nonlinearity-check")

#: L-BFGS-B's own iteration cap, used when a descent passes no ``maxiter``.
SCIPY_LBFGSB_MAXITER = 15000


class Tracer:
    """Records spans while installed; ``uninstall`` restores every target."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.attrs: dict[int, dict] = {}
        self.absent: list[str] = []
        self._undo: list[Callable[[], None]] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, on_exit: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self.spans[idx][2] = time.perf_counter()
                stack.pop()
                if on_exit is not None:
                    self.attrs[idx] = on_exit(args, kwargs, result, exc)

        return traced

    @staticmethod
    def _solve_attrs(args, kwargs, result, exc) -> dict:
        res = result if exc is None else getattr(exc, "result", None)
        if res is None:
            return {}
        return {"obj_over_bound": res.objective / res.certificate_bound}

    @staticmethod
    def _descent_attrs(args, kwargs, result, exc) -> dict:
        if result is None:
            return {}
        maxiter = (kwargs.get("options") or {}).get("maxiter", SCIPY_LBFGSB_MAXITER)
        return {"nit": int(result.nit), "nfev": int(result.nfev), "capped": int(result.nit >= maxiter)}

    # -- installing --------------------------------------------------------

    def _swap_everywhere(self, original: object, wrapper: object) -> None:
        """Replace ``original`` in every oversmooth module namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "oversmooth" or mod_name.startswith("oversmooth.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def install(self) -> "Tracer":
        self.absent = []
        for name, (mod_name, path) in HOOKS.items():
            on_exit = self._solve_attrs if name == "tikhonov.minimize" else None
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
            elif owner_name:
                setattr(owner, attr, self._wrap(name, original, on_exit))
                self._undo.append(functools.partial(setattr, owner, attr, original))
            else:
                self._swap_everywhere(original, self._wrap(name, original, on_exit))
        self._install_descent()
        self._install_suites()
        return self

    def _install_descent(self) -> None:
        import scipy.optimize

        tik = sys.modules.get("oversmooth.tikhonov")
        original = scipy.optimize.minimize
        names = [k for k, v in vars(tik).items() if v is original] if tik is not None else []
        if not names:
            self.absent.append("tikhonov.descent")
            return
        wrapper = self._wrap("tikhonov.descent", original, self._descent_attrs)
        for attr in names:
            setattr(tik, attr, wrapper)
            self._undo.append(functools.partial(setattr, tik, attr, original))

    def _install_suites(self) -> None:
        harness = sys.modules.get("oversmooth.harness")
        table = getattr(harness, "SUITE_NAMES", None)
        for suite in SUITES:
            name = f"harness.suite.{suite}"
            if not isinstance(table, dict) or not callable(table.get(suite)):
                self.absent.append(name)
                continue
            original = table[suite]
            table[suite] = self._wrap(name, original)
            self._undo.append(functools.partial(table.__setitem__, suite, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- summaries ---------------------------------------------------------

    def durations(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Per span name: the list of wall durations and the list of self times.

        Self time is a span's duration minus the time its child spans cover;
        children of one span run one after another on the parent's thread, so
        the covered time is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        wall: dict[str, list[float]] = {}
        own: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            wall.setdefault(name, []).append(end - start)
            own.setdefault(name, []).append(end - start - child_time[i])
        return wall, own

    def layer_metrics(self, names: list[str]) -> dict[str, float]:
        """Evaluate the declared per-layer metric names that come from spans."""
        wall, own = self.durations()
        descents = [self.attrs.get(i, {}) for i, s in enumerate(self.spans) if s[0] == "tikhonov.descent"]
        ratios = [self.attrs[i]["obj_over_bound"] for i, s in enumerate(self.spans)
                  if s[0] == "tikhonov.minimize" and "obj_over_bound" in self.attrs.get(i, {})]
        capped = sum(d.get("capped", 0) for d in descents)
        # metric -> (span it comes from, value)
        special = {
            "tikhonov.descent.count": ("tikhonov.descent", float(len(descents))),
            "tikhonov.descent.capped": ("tikhonov.descent", float(capped)),
            "tikhonov.descent.capped_frac": ("tikhonov.descent", capped / len(descents) if descents else 0.0),
            "tikhonov.descent.nit": ("tikhonov.descent", float(sum(d.get("nit", 0) for d in descents))),
            "tikhonov.descent.nfev": ("tikhonov.descent", float(sum(d.get("nfev", 0) for d in descents))),
            "tikhonov.obj_over_bound": ("tikhonov.minimize", statistics.median(ratios) if ratios else 0.0),
            "harness.run_rate_study.serial_s": (
                "harness.run_rate_study",
                self._serial_time("harness.run_rate_study", "tikhonov.minimize"),
            ),
        }
        out = {}
        for metric in names:
            span, _, kind = metric.rpartition(".")
            if metric in special:
                span, value = special[metric]
            elif kind == "calls":
                value = float(len(wall.get(span, [])))
            elif kind == "s":
                value = sum(wall.get(span, []))
            elif kind == "self_s":
                value = sum(own.get(span, []))
            else:
                continue
            out[metric] = ABSENT if span in self.absent else float(value)
        return out

    def _serial_time(self, outer: str, inner: str) -> float:
        """Time inside ``outer`` spans not covered by ``inner`` spans below them."""
        total = 0.0
        inside = {i for i, s in enumerate(self.spans) if s[0] == outer}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == outer:
                total += end - start
            elif name == inner:
                p = parent
                while p >= 0 and p not in inside:
                    p = self.spans[p][3]
                if p >= 0:
                    total -= end - start
        return total

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, **self.attrs.get(i, {})}
                for i, (n, s, e, p) in enumerate(self.spans)
            ],
        }
