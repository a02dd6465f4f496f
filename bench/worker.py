"""One benchmark process: set a workload up once and run at most one pass of it.

    python3 bench/worker.py --workload sweep --seed 1 --pass-index 0 --trace 0 \
        --workdir .bench_out/w0 --out .bench_out/w0/result.json

run.py starts one worker per pass and one per extra set-up, one after the
other, so that no pass can reuse what an earlier pass or set-up computed and
every set-up starts in a fresh interpreter. A cache inside segsolve then
speeds up a pass no more than it speeds up one `segsolve` command.

The set-up time covers importing segsolve (numpy too), generating the inputs
from the seed and one warm-up op on inputs that the pass does not use. Then a
fixed host-speed probe runs a few times (hostspeed.py), and with
--pass-index >= 0 the pass follows, its ops interleaved with more probe
samples; each op's time is also given scaled by the samples nearest to it. With --trace 1 the tracer is installed around each op's call, so the
untimed output checks are not traced, and the spans are saved to
.bench_out/<workload>-seed<n>-pass<i>-spans.npz. Everything measured is
written as JSON to --out; a failed op is recorded there, not raised.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
MAX_FAILURE_MESSAGES = 20


class Worker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.tracer = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(message)

    def execute(self, op) -> tuple[float, float] | None:
        """Run one op; its start and latency in seconds, or None if it failed."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = op.call()
            elapsed = time.perf_counter() - t0
        except Exception as exc:   # any exception is a failed op, never a crash
            self.fail(f"{op.kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            op.check(result)
        except Exception as exc:
            self.fail(f"{op.kind}: {type(exc).__name__}: {exc}")
            return None
        return t0, elapsed

    def run_pass(self, wl, index: int, probe) -> dict:
        ops = wl.ops(index)
        gc.collect()
        first_probe = len(probe.samples)
        timed = []
        for j, op in enumerate(ops):
            if self.tracer is not None:
                self.tracer.op_id = j
            done = self.execute(op)
            if done is not None:
                timed.append((op, *done))
            probe.maybe_sample()
        if len(probe.samples) == first_probe:
            probe.sample()
        # (kind, measured s, s scaled to the reference host, work items)
        timings = [(op.kind, dt, dt * probe.factor_at(t0 + 0.5 * dt), op.units)
                   for op, t0, dt in timed]
        return {
            "traced": self.tracer is not None,
            "wall_s": sum(t[1] for t in timings),
            "scaled_wall_s": sum(t[2] for t in timings),
            "ops": timings,
            "digests": wl.end_pass(),
            "data": wl.pass_data(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "paper", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True,
                        help="index of the pass to run; -1 sets up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    worker = Worker()

    t0 = time.perf_counter()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        worker.execute(wl.warmup())
        setup_s = time.perf_counter() - t0

        from hostspeed import HostProbe
        from tracing import Tracer
        probe = HostProbe()
        for _ in range(SETUP_PROBES):
            probe.sample()
        out = {
            "setup_s": setup_s,
            "setup_factor": probe.factor(0),
            "inputs_sha256": hashlib.sha256(
                json.dumps(wl.inputs(), sort_keys=True).encode()).hexdigest(),
            "pass": None,
        }
        if args.pass_index >= 0:
            if args.trace:
                worker.tracer = Tracer()
            out["pass"] = worker.run_pass(wl, args.pass_index, probe)
    finally:
        wl.close()
    tracer = worker.tracer
    if tracer is not None:
        if tracer.missing:
            worker.fail(f"trace targets not found: {', '.join(tracer.missing)}")
        out["pass"]["layers"] = tracer.stats()
        spans = OUT / f"{args.workload}-seed{args.seed}-pass{args.pass_index}-spans.npz"
        tracer.save(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    out.update(attempted=worker.attempted, failed=worker.failed, failures=worker.messages)
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
