"""The three benchmark workloads: inputs from a seed, the ops of one pass,
and the exactness checks on every op's output.

Each workload is built from `--seed` only and calls segsolve through its
public API and `segsolve.cli.main`. Module attributes are looked up at call
time (`sweep.kink_sweep`, not a saved reference), so the tracer's wrappers
are seen when installed. Each warm-up op runs on inputs that no pass uses.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import segsolve
from segsolve import cli, mcsim, sweep
from segsolve import benchmarks as bm
from segsolve import mechanisms as mx
from segsolve.economy import (EconomyParams, check_assumption1,
                              check_assumption2, example_economy)
from segsolve.equilibrium import solve
from segsolve.segregation import neighborhood_profile, school_profile

HERE = Path(__file__).resolve().parent


class Mismatch(Exception):
    """An op returned output that differs from the expected output."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    kind: str
    units: int                       # work items: kink records, commands or agents
    call: Callable[[], Any]
    check: Callable[[Any], None]     # raises Mismatch on wrong output


class Workload:
    name = ""
    unit = ""
    # Latency percentile of op_tail_ms: the highest of p50/p75/p90/p95/p99
    # that leaves at least ten ops beyond it in every 40-second run at the
    # commit that defined the benchmark. It is fixed, not derived from each
    # run's op count, so that runs of different speed report one percentile.
    tail_pct = 95.0

    def inputs(self) -> Any:
        """JSON-able description of every generated input."""
        raise NotImplementedError

    def warmup(self) -> Op:
        raise NotImplementedError

    def ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def end_pass(self) -> dict[str, str]:
        """Output digests of the pass just run."""
        return {}

    def pass_data(self) -> Any:
        """JSON-able results of the pass just run that the runner pools."""
        return None

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# sweep: the published (rho_p, q, pi) cube, then the example's fine kink sweep

CUBE_RHO = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
CUBE_Q = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
CUBE_PI = (0.1, 0.2, 0.3, 0.4)
CUBE_STEP = 0.1
KINK_STEP = 0.01
SEG_TOL = 1e-9
# Totals of the published step-0.1 cube and of the example at step 0.01.
CUBE_TOTALS = {"cells": 196, "records": 8820, "feasible": 8036,
               "da_less": 348, "nonzero_cells": 49}
KINK_TOTALS = {"records": 4950, "feasible": 4585, "da_less": 236}
CUBE_REFERENCE = HERE / "reference" / "cube_step0.1.csv"
# Warm-up cell off the cube grid, and its (feasible, da_less) counts.
WARMUP_CELL = (0.25, 0.35, 0.25)
WARMUP_COUNTS = (45, 7)


def grid_kinks(step: float) -> int:
    n = round(1.0 / step)
    return (n - 1) * n // 2


def load_cube_reference() -> dict[tuple[float, float, float], tuple[int, int]]:
    with CUBE_REFERENCE.open() as fh:
        ref = {(float(r["rho_p"]), float(r["q"]), float(r["pi"])):
               (int(r["n_feasible"]), int(r["n_da_less"])) for r in csv.DictReader(fh)}
    totals = {
        "cells": len(ref),
        "records": len(ref) * grid_kinks(CUBE_STEP),
        "feasible": sum(f for f, _ in ref.values()),
        "da_less": sum(d for _, d in ref.values()),
        "nonzero_cells": sum(1 for _, d in ref.values() if d > 0),
    }
    if totals != CUBE_TOTALS:
        raise ValueError(f"cube reference totals {totals} differ from {CUBE_TOTALS}")
    return ref


class Sweep(Workload):
    name = "sweep"
    unit = "kink records"
    tail_pct = 95.0

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cells = [(r, q, pi) for r in CUBE_RHO for q in CUBE_Q for pi in CUBE_PI]
        rng.shuffle(self.cells)
        self.reference = load_cube_reference()
        self.example = example_economy()
        self._cube_rows: list[str] = []
        self._kink_csv = ""

    def inputs(self):
        return {"cells": self.cells, "cube_step": CUBE_STEP, "kink_step": KINK_STEP,
                "kink_economy": self.example.to_config()}

    def _cell_op(self, cell) -> Op:
        rho, q, pi = cell

        def check(result):
            expect(len(result.cells) == 1, f"cell {cell}: {len(result.cells)} cells returned")
            c = result.cells[0]
            got = (c.n_feasible, c.n_da_less)
            want = self.reference[cell]
            expect(got == want, f"cell {cell}: (feasible, da_less) {got} != {want}")
            self._cube_rows.append(result.to_csv().splitlines()[1])

        return Op("cube_cell", grid_kinks(CUBE_STEP),
                  lambda: sweep.cube_sweep([rho], [q], [pi], CUBE_STEP), check)

    def _check_kink(self, result):
        rho_p = self.example.wealth.poor_rho
        feasible = [r for r in result.records if r.feasible]
        da_less = sum(1 for r in feasible
                      if abs(r.share_da - rho_p) < abs(r.share_n - rho_p) - SEG_TOL)
        got = {"records": len(result.records), "feasible": len(feasible), "da_less": da_less}
        expect(got == KINK_TOTALS, f"kink sweep {got} != {KINK_TOTALS}")
        self._kink_csv = result.to_csv()

    def warmup(self) -> Op:
        rho, q, pi = WARMUP_CELL

        def check(result):
            c = result.cells[0]
            got = (c.n_feasible, c.n_da_less)
            expect(got == WARMUP_COUNTS, f"warm-up cell: {got} != {WARMUP_COUNTS}")

        return Op("cube_cell", grid_kinks(CUBE_STEP),
                  lambda: sweep.cube_sweep([rho], [q], [pi], CUBE_STEP), check)

    def ops(self, pass_index: int) -> list[Op]:
        self._cube_rows = []
        self._kink_csv = ""
        ops = [self._cell_op(cell) for cell in self.cells]
        ops.append(Op("kink_sweep", grid_kinks(KINK_STEP),
                      lambda: sweep.kink_sweep(self.example, KINK_STEP), self._check_kink))
        return ops

    def end_pass(self):
        cube_csv = "rho_p,q,pi,n_feasible,n_da_less,pct\n" + "".join(
            row + "\n" for row in self._cube_rows)
        return {"cube_csv_sha256": sha256(cube_csv),
                "kink_csv_sha256": sha256(self._kink_csv)}


# --------------------------------------------------------------------------
# paper: the interactive one-economy CLI path

CONFIGS_PER_FAMILY = 3
FAMILIES = ("uniform", "single_kink", "piecewise", "power")
# Published integers of both benchmark tables.
TABLE1 = {
    "n": (41, 14, 18, 32, 43),
    "da_short": (45, 19, 24, 43, 45),
    "ttc_short": (41, 15, 22, 37, 41),
    "da": (41, 17, 26, 43, 40),
    "ttc": (9, 4, 32, 36, 10),
    "no_priority": (50, 17, 17, 33, 50),
    "auction": (41, 25, 31, 56, 44),
}
TABLE2 = {
    "da": (33, 41),
    "short_l": (33, 42),
    "short_wl": (33, 55),
    "long_l": (36, 44),
    "long_wl": (10, 40),
}
# Worked example: p / r for N, DA and TTC.
EXAMPLE_PRICE_OVER_R = {"n": 9.0 / 15.0, "da": 11.0 / 15.0, "ttc": 13.0 / 15.0}


def draw_config(rng: random.Random, family: str) -> dict:
    """One economy config with the given CDF family, like the test sampler."""
    q = rng.uniform(0.25, 0.75)
    pi = rng.uniform(0.08, 0.42)
    e = rng.uniform(0.6, 1.0)
    g = rng.uniform(0.0, min(0.08, 1.0 - e))
    k = rng.randint(2, 4)
    while True:
        omegas = sorted(rng.uniform(0.88, 1.12) for _ in range(k))
        if min(b - a for a, b in zip(omegas, omegas[1:])) > 1e-3:
            break
    weights = [rng.uniform(0.5, 1.5) for _ in range(k)]
    rhos = [w / sum(weights) for w in weights]
    mean = sum(w * r for w, r in zip(omegas, rhos))
    if family == "uniform":
        cdf: dict = {"type": "uniform"}
    elif family == "single_kink":
        x = rng.uniform(0.15, 0.7)
        cdf = {"type": "single_kink", "x": x, "y": rng.uniform(x, min(0.98, x + 0.3))}
    elif family == "piecewise":
        alpha = rng.uniform(0.65, 1.0)
        cdf = {"type": "piecewise",
               "knots": [[0.0, 0.0], [1 / 3, (1 / 3) ** alpha], [2 / 3, (2 / 3) ** alpha],
                         [1.0, 1.0]]}
    else:
        cdf = {"type": "power", "alpha": rng.uniform(0.6, 1.0)}
    return {"m": 2, "q": q, "g": g, "e": e, "pi": pi,
            "wealth": [[w / mean, r] for w, r in zip(omegas, rhos)], "cdf": cdf}


def is_valid(cfg: dict) -> bool:
    """Both assumptions hold and N, DA and TTC solve with nonnegative school
    masses: a config inside the analyzed regime, which the CLI must accept."""
    try:
        params = EconomyParams.from_config(cfg)
        if not (check_assumption1(params).passed and check_assumption2(params).passed):
            return False
        for mech in mx.CORE:
            school_profile(solve(params, mech))
    except (ValueError, segsolve.SolveError):
        return False
    return True


def draw_valid(rng: random.Random, family: str) -> dict:
    for _ in range(1000):
        cfg = draw_config(rng, family)
        if is_valid(cfg):
            return cfg
    raise RuntimeError(f"no valid {family} config in 1000 draws")


def draw_configs(seed: int) -> tuple[list[dict], dict]:
    """The pass's configs, CONFIGS_PER_FAMILY of each family, and the warm-up's."""
    rng = random.Random(seed)
    configs = [draw_valid(rng, family)
               for _ in range(CONFIGS_PER_FAMILY) for family in FAMILIES]
    return configs, draw_valid(rng, "power")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def check_tables(stdout: str) -> None:
    block1, block2 = stdout.split("\n\n", 1)
    rows1 = [ln.split() for ln in block1.splitlines()[1:]]
    rows2 = [ln.split() for ln in block2.splitlines()[1:]]
    got1 = {t[0]: tuple(int(v) for v in t[1:6]) for t in rows1}
    got2 = {t[0]: tuple(int(v) for v in t[1:3]) for t in rows2}
    expect(got1 == TABLE1, f"table 1 {got1} != published {TABLE1}")
    expect(got2 == TABLE2, f"table 2 {got2} != published {TABLE2}")


def check_check(stdout: str) -> None:
    lines = stdout.splitlines()
    theorem_lines = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    expect(bool(theorem_lines), "check printed no theorem lines")
    failed = [ln for ln in theorem_lines if not ln.startswith("PASS ")]
    expect(not failed, f"check failures: {failed[:3]}")
    expect(lines[-2].startswith("assumption1: pass") and lines[-1] == "assumption2: pass",
           f"check summary lines {lines[-2:]}")


def check_solve(stdout: str, mechs: list[str], cfg: dict | None) -> None:
    results = json.loads(stdout)["results"]
    expect([r["mech"] for r in results] == mechs, f"solve mechs {[r['mech'] for r in results]}")
    for r in results:
        expect(all(math.isfinite(r[k]) for k in ("r", "p", "e_s", "residual")),
               f"solve {r['mech']}: non-finite output")
        expect(abs(r["residual"]) <= 1e-9, f"solve {r['mech']}: residual {r['residual']}")
        if r["mech"] in EXAMPLE_PRICE_OVER_R and cfg is None:
            want = EXAMPLE_PRICE_OVER_R[r["mech"]]
            expect(abs(r["p"] / r["r"] - want) <= 1e-9,
                   f"solve {r['mech']}: p/r {r['p'] / r['r']} != {want}")
        if cfg is not None:
            lo, hi = cfg["g"], cfg["e"] - cfg["g"]
            expect(all(lo < c["s"] < hi for c in r["cutoffs"]),
                   f"solve {r['mech']}: cutoff outside ({lo}, {hi})")


def check_compare(stdout: str, mechs: list[str], atoms: list[list[float]]) -> None:
    """Row count, nonnegative masses, and n1 + n0 = rho for every wealth type."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    expect(len(rows) == len(mechs) * 3 * len(atoms), f"compare printed {len(rows)} rows")
    for mech in mechs:
        mine = [r for r in rows if r["mechanism"] == mech]
        expect(len(mine) == 3 * len(atoms), f"compare {mech}: {len(mine)} rows")
        expect(all(float(x["mass"]) >= -1e-9 for x in mine), f"compare {mech}: negative mass")
        for w, rho in atoms:
            # omega is printed with 12 significant digits
            resident = sum(float(x["mass"]) for x in mine
                           if x["location"] in ("n1", "n0") and abs(float(x["omega"]) - w) < 1e-9)
            expect(abs(resident - rho) <= 1e-9,
                   f"compare {mech}: n1 + n0 = {resident} != {rho} for omega {w}")


class Paper(Workload):
    name = "paper"
    unit = "commands"
    tail_pct = 99.0

    def __init__(self, seed: int, workdir: Path):
        self.configs, self.warmup_config = draw_configs(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, cfg in enumerate(self.configs + [self.warmup_config]):
            path = workdir / f"economy{i}.json"
            path.write_text(json.dumps(cfg))
            self.paths.append(path)
        example_atoms = [list(a) for a in example_economy().wealth.atoms]
        self.example_mechs = ["n", "da", "ttc", "da_l", "da_wl"]
        self.commands: list[tuple[list[str], Callable[[str], None]]] = [
            (["tables"], check_tables),
            (["check", "--example"], check_check),
            (["solve", "--example", "--mech", ",".join(self.example_mechs)],
             lambda out: check_solve(out, self.example_mechs, None)),
            (["compare", "--example"],
             lambda out: check_compare(out, ["n", "da", "ttc"], example_atoms)),
        ]
        for path, cfg in zip(self.paths[:-1], self.configs):
            self.commands += [
                (["check", "--config", str(path)], check_check),
                (["solve", "--config", str(path)],
                 lambda out, c=cfg: check_solve(out, ["n", "da", "ttc"], c)),
                (["compare", "--config", str(path)],
                 lambda out, c=cfg: check_compare(out, ["n", "da", "ttc"], c["wealth"])),
            ]
        self._stdout: list[str] = []

    def inputs(self):
        return {"configs": self.configs, "warmup_config": self.warmup_config,
                "commands": [[a if not a.endswith(".json") else Path(a).name for a in argv]
                             for argv, _ in self.commands]}

    def _op(self, argv, check_out) -> Op:
        def check(result):
            code, out, err = result
            expect(code == 0, f"{' '.join(argv[:2])}: exit {code}: {err.strip()[:200]}")
            expect(err == "", f"{' '.join(argv[:2])}: stderr {err.strip()[:200]}")
            check_out(out)
            self._stdout.append(out)

        return Op(argv[0], 1, lambda: run_cli(argv), check)

    def warmup(self) -> Op:
        return self._op(["check", "--config", str(self.paths[-1])], check_check)

    def ops(self, pass_index: int) -> list[Op]:
        self._stdout = []
        return [self._op(argv, check_out) for argv, check_out in self.commands]

    def end_pass(self):
        return {"stdout_sha256": sha256("\x00".join(self._stdout))}

    def close(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# simulate: the finite-agent oracle on the example economy's cutoffs

SIM_AGENTS = 200_000
STABILITY_AGENTS = 20_000
STABILITY_SAMPLE = 2_000
IMPROVE_AGENTS = 200
IMPROVE_MARKETS = 5
SIM_MECHS = ("n", "da", "ttc")


class Simulate(Workload):
    name = "simulate"
    unit = "agents"
    tail_pct = 75.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.params = example_economy()
        self.eqs = {m: solve(self.params, m) for m in SIM_MECHS}
        self.analytic = {m: self._analytic(m) for m in SIM_MECHS}
        self.reps: dict[str, list[dict[str, float]]] = {m: [] for m in SIM_MECHS}

    def _analytic(self, mech: str) -> dict[str, float]:
        eq = self.eqs[mech]
        n1, _ = neighborhood_profile(eq)
        c1 = school_profile(eq)
        out = {"r": eq.r, "poor_share_n1": n1.poor_share, "poor_share_c1": c1.poor_share,
               "quality_total": bm.match_quality(mech, self.params).total_quality}
        for w, mass in n1.masses:
            out[f"n1_mass[{w:.6g}]"] = mass
        for w, mass in c1.masses:
            out[f"c1_mass[{w:.6g}]"] = mass
        return out

    def inputs(self):
        return {"economy": self.params.to_config(), "agents": SIM_AGENTS,
                "mechanisms": SIM_MECHS, "stability": [STABILITY_AGENTS, STABILITY_SAMPLE],
                "improvement": [IMPROVE_AGENTS, IMPROVE_MARKETS],
                "pass_seeds": [self._seeds(i).tolist() for i in range(4)]}

    def _seeds(self, pass_index: int) -> np.ndarray:
        return np.random.SeedSequence([self.seed, pass_index]).generate_state(
            len(SIM_MECHS) + 1 + IMPROVE_MARKETS)

    def _check_assignment(self, n: int, assignment, residency) -> None:
        m, q = self.params.m, self.params.q
        expect(assignment.shape == (n,), f"assignment shape {assignment.shape}")
        expect(bool(np.all((assignment >= 0) & (assignment <= m))), "agent left unassigned")
        seats = np.bincount(assignment, minlength=m + 1)[1:]
        cap = int(n * (q + self.params.delta_q) / m)
        expect(bool(np.all(seats <= cap)), f"school over capacity: {seats} > {cap}")
        homes = np.bincount(residency, minlength=m + 1)[1:]
        expect(bool(np.all(homes <= int(n * q / m))), f"neighborhood over capacity: {homes}")

    def _rep_op(self, mech: str, seed: int) -> Op:
        config = mcsim.SimConfig(params=self.params, mech=mx.Mechanism(mech),
                                 cutoffs=self.eqs[mech].cutoffs, n_agents=SIM_AGENTS,
                                 seed=int(seed), replications=1)

        def check(result):
            stats = {k: float(v[0]) for k, v in result.per_replication.items()}
            expect(all(math.isfinite(v) for v in stats.values()), f"{mech}: non-finite stats")
            # estimate() returns statistics only. Rebuild the replication's
            # market from its spawned seed with the public mcsim functions, in
            # the order replication_stats draws it, check its assignment, and
            # check that the reported masses are the rebuilt market's.
            rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
            agents = mcsim.sample_agents(self.params, SIM_AGENTS, rng)
            residency = mcsim.housing_stage(agents, config.cutoffs, self.params, rng)
            lottery = rng.random(SIM_AGENTS)
            assignment = mcsim.run_mechanism(agents, residency, self.params, config.mech,
                                             lottery)
            self._check_assignment(SIM_AGENTS, assignment, residency)
            if mech == "n":
                expect(bool(np.array_equal(assignment, residency)), "N assignment != residency")
            for idx, (w, _) in enumerate(self.params.wealth.atoms):
                sel = agents.omega_idx == idx
                for key, located in ((f"n1_mass[{w:.6g}]", residency >= 1),
                                     (f"c1_mass[{w:.6g}]", assignment >= 1)):
                    count = int(np.sum(sel & located))
                    expect(round(stats[key] * SIM_AGENTS) == count,
                           f"{mech}: {key} {stats[key]} is not the rebuilt {count} agents")
            self.reps[mech].append(stats)

        return Op(f"replication_{mech}", SIM_AGENTS, lambda: mcsim.estimate(config), check)

    def _stability_op(self, seed: int) -> Op:
        params, cutoffs = self.params, self.eqs["da"].cutoffs

        def call():
            rng = np.random.default_rng(int(seed))
            agents = mcsim.sample_agents(params, STABILITY_AGENTS, rng)
            residency = mcsim.housing_stage(agents, cutoffs, params, rng)
            lottery = rng.random(agents.n)
            assignment = mcsim.run_da_finite(agents, residency, params, lottery)
            sample = rng.choice(agents.n, size=STABILITY_SAMPLE, replace=False)
            blocking = mcsim.check_da_stability(agents, residency, assignment, params,
                                                lottery, sample=sample)
            return residency, assignment, blocking

        def check(result):
            residency, assignment, blocking = result
            self._check_assignment(STABILITY_AGENTS, assignment, residency)
            expect(blocking == [], f"DA blocking pairs: {blocking[:3]}")

        return Op("da_stability", 0, call, check)

    def _improvement_op(self, seeds) -> Op:
        params, cutoffs = self.params, self.eqs["ttc"].cutoffs

        def call():
            out = []
            for seed in seeds:
                rng = np.random.default_rng(int(seed))
                agents = mcsim.sample_agents(params, IMPROVE_AGENTS, rng)
                residency = mcsim.housing_stage(agents, cutoffs, params, rng)
                lottery = rng.random(agents.n)
                assignment = mcsim.run_ttc_finite(agents, residency, params, lottery)
                out.append((residency, assignment,
                            mcsim.find_ttc_improvement(agents, assignment, params)))
            return out

        def check(result):
            for residency, assignment, improvement in result:
                self._check_assignment(IMPROVE_AGENTS, assignment, residency)
                expect(improvement is None, f"TTC improvement found: {improvement}")

        return Op("ttc_improvement", 0, call, check)

    def warmup(self) -> Op:
        # no pass draws seed 0 (pass seeds come from SeedSequence([seed, pass]))
        return self._rep_op("n", 0)

    def ops(self, pass_index: int) -> list[Op]:
        self.reps = {m: [] for m in SIM_MECHS}
        seeds = self._seeds(pass_index)
        k = len(SIM_MECHS)
        return ([self._rep_op(m, s) for m, s in zip(SIM_MECHS, seeds[:k])]
                + [self._stability_op(seeds[k]), self._improvement_op(seeds[k + 1:])])

    def pass_data(self) -> dict:
        return {"analytic": self.analytic, "reps": self.reps}


def z_scores(analytic: dict[str, dict[str, float]],
             reps: dict[str, list[dict[str, float]]]) -> dict:
    """z-score of each replication statistic against its analytic value."""
    out = {}
    for mech, rows in reps.items():
        if len(rows) < 2:
            continue
        zs = {}
        for name, target in analytic[mech].items():
            vals = np.array([row[name] for row in rows])
            se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
            mean = float(np.mean(vals))
            if se > 0:
                z = (mean - target) / se
            else:   # every replication gave the same value
                z = 0.0 if abs(mean - target) < 1e-12 else None
            zs[name] = {"mean": mean, "se": se, "analytic": target, "z": z}
        out[mech] = {"replications": len(rows), "stats": zs}
    return out


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Sweep, Paper, Simulate)}
