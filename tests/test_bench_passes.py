"""The benchmark's sweep and paper passes, pinned by their output digests.

Each pass runs every op of `bench/workloads.py` at seed 1 with its output
checks, in a work directory under tmp_path, and its `end_pass()` digests
must equal the ones recorded here: the sweep pass's cube and kink CSVs, and
every stdout of the paper pass, whose `solve --config` prints the full
precision of each seeded economy's equilibria.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import Paper, Sweep  # noqa: E402  the benchmark's workloads, read only

DIGESTS = {
    "sweep": {"cube_csv_sha256":
              "4a226768698557be1ed19eaf3d1c3ff2d351f47fd779d17d984ad558d477f09d",
              "kink_csv_sha256":
              "898b42d147dd7192939983b795b011bf617342a75181b90f1fe7ef51d2ab4e43"},
    "paper": {"stdout_sha256":
              "ca2176eeec755cf1cac85c53577927a14efbcc42f0a9f56de43c3f5405b2eccb"},
}


@pytest.mark.parametrize("workload", [Sweep, Paper], ids=lambda w: w.name)
def test_pass_digests(workload, tmp_path):
    run = workload(1, tmp_path / "work")
    try:
        for op in run.ops(0):
            op.check(op.call())  # raises workloads.Mismatch on a wrong output
        assert run.end_pass() == DIGESTS[workload.name]
    finally:
        run.close()
