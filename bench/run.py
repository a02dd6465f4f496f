"""segsolve benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Workloads (see workloads.py):
  sweep     the published (rho_p, q, pi) cube at step 0.1 in a seed-shuffled
            cell order, then the example economy's kink sweep at step 0.01;
  paper     in-process `segsolve.cli.main` runs of tables, check, solve and
            compare on the example and on seed-drawn JSON configs;
  simulate  200k-agent replications of N, DA and TTC on the example's
            cutoffs, a DA stability check and a small-n TTC improvement search.

A run builds its inputs from --seed. It runs whole passes over the
workload's fixed op list, each in a fresh worker process (worker.py), one
after the other, while the next pass fits in --seconds, and checks every op's
output. Each worker first sets the workload up: it imports segsolve,
generates the inputs and runs one warm-up op on inputs the pass does not use.
Workers that only set up follow until SETUPS set-ups were measured; the
median is `setup_s`. A fresh process per pass means that nothing a pass
computed can make a later pass cheaper, as it could not for a one-shot
`segsolve` command. A fixed host-speed probe runs between ops, and the
end-to-end times are reported scaled to a reference host (hostspeed.py says
why); the measured times are kept in the results file. With --trace 0 the
passes are untraced and the end-to-end metrics are reported. With --trace 1
untraced and traced passes alternate: the traced ones give the per-layer
calls and self times, and the two kinds together the tracing overhead.
SEGSOLVE_THREADS is set to 1, so every pass runs in one process.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it print every metric by name with its
unit. A results file with provenance, output digests, z-scores and the full
per-layer table is written to .bench_out/ under the repository root; a traced
run also writes its spans there. The exit code is 0 only when every output
check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT, ROOT, SRC

BENCH = Path(__file__).resolve().parent
SETUPS = 7
WORKER_TIMEOUT_S = 120

# Metrics of the untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# Workload-specific name of items_per_s.
ITEMS_ALIAS = {"sweep": "kinks_per_s", "paper": "commands_per_s", "simulate": "agents_per_s"}


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values, and the count beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "segsolve").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np
    import segsolve

    sha = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                  capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "segsolve_version": segsolve.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "SEGSOLVE_THREADS": os.environ.get("SEGSOLVE_THREADS"),
    }


def run_worker(name: str, seed: int, pass_index: int, trace: bool, workdir: Path) -> dict:
    """Run worker.py once; its results, or a failed op that says why it gave none."""
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--pass-index", str(pass_index), "--trace", str(int(trace)),
           "--workdir", str(workdir), "--out", str(out)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if done.returncode == 0 and out.is_file():
            return json.loads(out.read_text())
        why = f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        why = f"no result in {WORKER_TIMEOUT_S} s"
    return {"attempted": 1, "failed": 1, "pass": None,
            "failures": [f"worker for pass {pass_index}: {why}"]}


class Run:
    """One workload's workers, and the failures and checks across them."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.workers: list[dict] = []

    def run(self) -> None:
        base = OUT / f"work-{self.name}-{os.getpid()}"
        min_passes = 2 if self.trace else 1
        try:
            start, last = time.perf_counter(), 0.0
            while (len(self.workers) < min_passes
                   or time.perf_counter() - start + last <= self.seconds):
                i = len(self.workers)
                t0 = time.perf_counter()
                self.workers.append(run_worker(self.name, self.seed, i, self.trace and i % 2 == 1,
                                               base / f"w{i}"))
                last = time.perf_counter() - t0
            while len(self.workers) < SETUPS:
                self.workers.append(run_worker(self.name, self.seed, -1, False,
                                               base / f"w{len(self.workers)}"))
        finally:
            shutil.rmtree(base, ignore_errors=True)

    @property
    def passes(self) -> list[dict]:
        return [w["pass"] for w in self.workers if w["pass"] is not None]

    @property
    def setups(self) -> list[tuple[float, float]]:
        return [(w["setup_s"], w["setup_factor"]) for w in self.workers if "setup_s" in w]

    def mismatches(self) -> list[str]:
        """Failures across workers: inputs or outputs that differ between them."""
        out = []
        inputs = {w["inputs_sha256"] for w in self.workers if "inputs_sha256" in w}
        if len(inputs) > 1:
            out.append(f"workers generated {len(inputs)} different inputs from one seed")
        digests = [p["digests"] for p in self.passes]
        for i, d in enumerate(digests[1:], 1):
            if d != digests[0]:
                out.append(f"pass {i}: output digests {d} != pass 0 {digests[0]}")
        return out

    def info(self) -> dict:
        from workloads import WORKLOADS, z_scores

        wl = WORKLOADS[self.name]
        info = {
            "workload": self.name,
            "unit": wl.unit,
            "tail_pct": wl.tail_pct,
            "setups": self.setups,
            "digests": self.passes[0]["digests"] if self.passes else None,
            "inputs_sha256": next((w["inputs_sha256"] for w in self.workers
                                   if "inputs_sha256" in w), None),
            "spans_files": [w["spans_file"] for w in self.workers if "spans_file" in w],
        }
        if self.name == "simulate" and self.passes:
            reps: dict[str, list] = {}
            for p in self.passes:
                for mech, rows in p["data"]["reps"].items():
                    reps.setdefault(mech, []).extend(rows)
            info["report"] = {"z_scores": z_scores(self.passes[0]["data"]["analytic"], reps)}
        return info


def summarize(passes: list[dict], setups: list[tuple[float, float]], tail_pct: float,
              scaled: bool) -> tuple[dict, dict[str, float], int, int]:
    """End-to-end times of untraced passes, scaled to the reference host when
    `scaled`; also the per-kind rates, the op count and the number of ops
    beyond the tail percentile."""
    lat, timed = [], []
    for p in passes:
        for kind, raw_dt, scaled_dt, units in p["ops"]:
            dt = scaled_dt if scaled else raw_dt
            lat.append(dt)
            if units:
                timed.append((kind, dt, units))
    lat.sort()
    p50, _ = percentile(lat, 50.0)
    tail, beyond = percentile(lat, tail_pct)
    by_kind: dict[str, list[float]] = {}
    for kind, dt, units in timed:
        by_kind.setdefault(kind, []).append(units / dt)
    times = {
        "setup_s": statistics.median(t * (f if scaled else 1.0) for t, f in setups),
        "wall_s": statistics.median(p["scaled_wall_s" if scaled else "wall_s"]
                                    for p in passes),
        "op_p50_ms": 1000.0 * p50,
        "op_tail_ms": 1000.0 * tail,
        # 0 when every op with work items failed; the run then fails too
        "items_per_s": (sum(u for _, _, u in timed) / sum(dt for _, dt, _ in timed)
                        if timed else 0.0),
    }
    return times, {k: statistics.median(v) for k, v in by_kind.items()}, len(lat), beyond


def end_to_end(run: Run, info: dict) -> tuple[dict, dict]:
    """The end-to-end metrics and the details behind them.

    Times are scaled to the reference host by the host-speed probe samples
    taken nearest to each op, or after each set-up (see hostspeed.py); the
    measured values are kept in the details as raw_<metric>.
    """
    plain = [p for p in run.passes if not p["traced"]]
    metrics, by_kind, count, beyond = summarize(plain, info["setups"], info["tail_pct"], True)
    raw, _, _, _ = summarize(plain, info["setups"], info["tail_pct"], False)
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
    details = {
        ITEMS_ALIAS[info["workload"]]: metrics["items_per_s"],
        **{f"raw_{k}": v for k, v in raw.items()},
        "host_factor_median": statistics.median(p["scaled_wall_s"] / p["wall_s"]
                                                for p in plain if p["ops"]),
        "op_tail_percentile": info["tail_pct"],
        "op_count": count,
        "ops_beyond_tail": beyond,
        "passes": len(plain),
        "items_per_s_by_kind": by_kind,
    }
    if info["workload"] == "simulate":
        for kind, v in by_kind.items():
            details[f"agents_per_s.{kind.removeprefix('replication_')}"] = v
    return metrics, details


def per_layer(run: Run) -> dict:
    traced = [p["layers"] for p in run.passes if p["traced"]]
    scaled_wall = {True: [], False: []}
    for p in run.passes:
        scaled_wall[p["traced"]].append(p["scaled_wall_s"])
    out = {}
    for key in traced[0]:
        vals = [t[key] for t in traced]
        if key.endswith(".self_s"):
            out[key] = statistics.median(vals)
        else:
            mean = sum(vals) / len(vals)
            out[key] = int(mean) if mean == int(mean) else mean
    attempted = out["sweep.records.attempted"]
    out["sweep.feasible_ratio"] = out["sweep.records.feasible"] / attempted if attempted else 0.0
    out["trace.overhead"] = (statistics.median(scaled_wall[True])
                             / statistics.median(scaled_wall[False]))
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".feasible_ratio", ".overhead")):
        return "ratio"
    return "count"


def run_one(name: str, args) -> dict:
    run = Run(name, args.seed, args.seconds, bool(args.trace))
    run.run()
    mismatches = run.mismatches()
    attempted = sum(w["attempted"] for w in run.workers)
    failed = sum(w["failed"] for w in run.workers) + len(mismatches)
    messages = [m for w in run.workers for m in w["failures"]] + mismatches
    if not all(any(p["ops"] for p in run.passes if p["traced"] == traced)
               for traced in ((False, True) if args.trace else (False,))):
        print("\n".join(f"{name}  FAIL {m}" for m in messages), file=sys.stderr)
        raise SystemExit(f"{name}: no pass completed an op")
    info = run.info()
    e2e, details = end_to_end(run, info)
    layers = per_layer(run) if args.trace else {}
    result = {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": messages,
        "end_to_end": e2e,
        "end_to_end_details": details,
        "per_layer": layers,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "scaled_wall_s": p["scaled_wall_s"], "ops": len(p["ops"])}
                   for p in run.passes],
        **{k: v for k, v in info.items() if k not in ("unit", "tail_pct")},
    }
    lines = [f"{name}: {attempted} ops attempted, {failed} failed",
             f"{name}  {'fail_ratio':<34} {result['fail_ratio']:>14.6g} ratio"]
    units = dict(END_TO_END)
    for key, value in e2e.items():
        lines.append(f"{name}  {key:<34} {value:>14.6g} {units[key]}")
    alias = ITEMS_ALIAS[name]
    lines.append(f"{name}  {alias:<34} {details[alias]:>14.6g} {info['unit']}/s")
    for key, value in details.items():
        if key.startswith("agents_per_s."):
            lines.append(f"{name}  {key:<34} {value:>14.6g} agents/s")
    lines.append(f"{name}  times above are scaled to the reference host by a median factor "
                 f"of {details['host_factor_median']:.4g} (raw wall_s "
                 f"{details['raw_wall_s']:.6g} s)")
    lines.append(f"{name}  op_tail_ms is p{details['op_tail_percentile']:g} of "
                 f"{details['op_count']} ops ({details['ops_beyond_tail']} beyond it)")
    if details["ops_beyond_tail"] < 10:
        lines.append(f"{name}  WARNING fewer than 10 ops beyond the tail percentile")
    for key, value in layers.items():
        lines.append(f"{name}  {key:<46} {value:>14.6g} {layer_unit(key)}")
    for message in messages:
        lines.append(f"{name}  FAIL {message}")
    print("\n".join(lines), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "paper", "simulate", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "segsolve" / "__init__.py").is_file():
        print(f"segsolve sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ["SEGSOLVE_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import segsolve
    if Path(segsolve.__file__).resolve().parent != SRC / "segsolve":
        print(f"imported segsolve from {segsolve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = ("sweep", "paper", "simulate") if args.workload == "all" else (args.workload,)
    results = [run_one(name, args) for name in names]
    correct = all(r["correct"] for r in results)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"provenance": provenance(args.seed), "seconds": args.seconds,
                   "results": results}, fh, indent=1)

    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        if args.trace:
            source = {k: (v, layer_unit(k)) for k, v in r["per_layer"].items()}
        else:
            units = dict(END_TO_END)
            source = {k: (v, units[k]) for k, v in r["end_to_end"].items()}
        for key, (value, unit) in source.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
