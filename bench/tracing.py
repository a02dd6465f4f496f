"""Per-layer tracing of segsolve from outside the package.

`Tracer.install()` replaces each layer function named in SPAN_TARGETS with a
wrapper that records one span per call: function, start, end, parent span and
op id. Modules bind these names with `from .x import f`, so every module
attribute bound to the function object is replaced, not only the one in its
home module. The CDF `value` methods are called millions of times per sweep,
so they are counted only. Spans stay in typed arrays in memory; `stats`
turns them into call counts and self times, and `save` writes them out at
the end of a pass. `missing` names each target that was not found, so that
a renamed layer fails the traced run instead of reading as idle.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "segsolve"

# Layer functions timed with spans, as "<module>.<function>", grouped by the
# end-to-end metric a change to them should move.
SPAN_TARGETS = (
    # solve path: items_per_s (kink records/s) and wall_s on sweep; idle on simulate
    "cdf.enumerate_single_kink",
    "economy.check_assumption1",
    "economy.check_assumption2",
    "equilibrium.solve",
    "segregation.school_profile",
    "sweep.kink_sweep",
    # one-economy CLI path: items_per_s (commands/s) and wall_s on paper
    "equilibrium.solve_policy",
    "equilibrium.verify_lemma1",
    "segregation.check_theorems",
    "benchmarks.table_one",
    "benchmarks.policy_table",
    "mechanisms.rejection",
    "cdf.validate",
    "cli.main",
    # finite-agent oracle: items_per_s (agents/s) and wall_s on simulate; idle on sweep
    "mcsim.sample_agents",
    "mcsim.housing_stage",
    "mcsim.preferences",
    "mcsim.run_da_finite",
    "mcsim.run_ttc_finite",
    "mcsim.check_da_stability",
    "mcsim.find_ttc_improvement",
    "mcsim.replication_stats",
)

# Methods too hot for spans; their calls are summed into cdf.value.calls.
COUNT_TARGETS = (("cdf", "PiecewiseLinear", "value"), ("cdf", "Power", "value"))

# Per-pass counters read from the results of traced calls.
COUNTERS = ("equilibrium.solve.iterations", "sweep.records.attempted",
            "sweep.records.feasible", "cdf.value.calls")


class Tracer:
    """Wraps the layer functions of one imported segsolve package."""

    def __init__(self):
        self.names = list(SPAN_TARGETS)
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        hooks = {
            "equilibrium.solve": self._on_solve,
            "sweep.kink_sweep": self._on_kink_sweep,
        }
        self.missing = []
        for k, qual in enumerate(self.names):
            mod_name, attr = qual.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                self.missing.append(qual)
                continue
            wrapper = self._span_wrapper(k, fn, hooks.get(qual))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, fn))
        for mod_name, cls_name, meth in COUNT_TARGETS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
            if cls is None or meth not in vars(cls):
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            orig = vars(cls)[meth]
            setattr(cls, meth, self._count_wrapper(orig))
            self._patches.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def _span_wrapper(self, k: int, fn, hook):
        fid, parent, op = self.fid, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            fid.append(k)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _count_wrapper(self, orig):
        counters = self.counters

        @functools.wraps(orig)
        def counted(obj, x):
            counters["cdf.value.calls"] += 1
            return orig(obj, x)

        return counted

    def _on_solve(self, eq) -> None:
        self.counters["equilibrium.solve.iterations"] += int(eq.iterations)

    def _on_kink_sweep(self, result) -> None:
        self.counters["sweep.records.attempted"] += len(result.records)
        self.counters["sweep.records.feasible"] += sum(1 for r in result.records if r.feasible)

    # -- aggregation ----------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Calls, self time and counters of every recorded span."""
        k = len(self.names)
        fid = np.frombuffer(self.fid, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(fid, minlength=k)
        self_s = np.bincount(fid, weights=dur - child, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update(self.counters)
        return out

    def save(self, path) -> int:
        """Write every recorded span to a compressed .npz file; returns the count."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        return len(self.start)
