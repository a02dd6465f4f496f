"""Command-line front end."""
from __future__ import annotations

import argparse
import json
import sys

from . import benchmarks, mcsim, sweep
from . import mechanisms as mx
from .cdf import CdfError
from .economy import (EconomyError, EconomyParams, check_assumption1,
                      check_assumption2, example_economy)
from .equilibrium import (AssumptionError, SolveError, solve_core, solve_policy,
                          verify_lemma1)
from .segregation import check_theorems, neighborhood_profile, school_profile

EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_SOLVER = 4
EXIT_TABLE = 5
EXIT_THEOREM = 6


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_params(args) -> EconomyParams:
    if getattr(args, "example", False):
        return example_economy()
    path = getattr(args, "config", None)
    if not path:
        raise CliError("either --example or --config is required", EXIT_CONFIG)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_CONFIG)
    try:
        return EconomyParams.from_config(cfg)
    except (EconomyError, CdfError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid config: {exc}", EXIT_CONFIG)


def _mech_list(spec: str) -> list[mx.Mechanism]:
    out = []
    for name in spec.split(","):
        name = name.strip()
        try:
            out.append(mx.Mechanism(name))
        except ValueError:
            raise CliError(f"unknown mechanism {name!r}", EXIT_CONFIG)
    return out


def _equilibria(params: EconomyParams, mechs: list[mx.Mechanism]):
    """The equilibria of mechs, yielded in order: the core mechanisms from
    one `solve_core` pass, started at the first of them, and each policy in
    its turn. A caller that handles each before the next meets the first
    failure in the list, as it would solving one mechanism at a time."""
    core = None
    try:
        for mech in mechs:
            if mech in mx.POLICY:
                yield solve_policy(params, mech)
                continue
            if core is None:
                core = solve_core(params, [m for m in mechs if m in mx.CORE])
            yield next(core)
    except AssumptionError as exc:
        raise CliError(str(exc), EXIT_ASSUMPTION)
    except (SolveError, mx.DegenerateChoiceError) as exc:
        raise CliError(str(exc), EXIT_SOLVER)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG)


def _emit(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output {path}: {exc}", EXIT_CONFIG)
    else:
        sys.stdout.write(text)


def _profile_dict(profile) -> dict:
    return {
        "location": profile.location,
        "masses": [{"omega": w, "mass": m} for w, m in profile.masses],
        "avg_wealth": profile.avg_wealth,
        "poor_share": profile.poor_share,
    }


def _profiles(args):
    """Each mechanism of --mech with its equilibrium and its n1 and n0
    profiles, plus c1 for a core mechanism, solved in turn."""
    params, mechs = _load_params(args), _mech_list(args.mech)
    for mech, eq in zip(mechs, _equilibria(params, mechs)):
        profiles = list(neighborhood_profile(eq))
        if mech in mx.CORE:
            profiles.append(school_profile(eq))
        yield mech, eq, profiles


def cmd_solve(args) -> int:
    results = [{**eq.to_dict(), "profiles": [_profile_dict(p) for p in profiles]}
               for _, eq, profiles in _profiles(args)]
    _emit(json.dumps({"results": results}, indent=2) + "\n", args.output)
    return 0


def cmd_compare(args) -> int:
    lines = ["mechanism,location,omega,mass,avg_wealth,poor_share"]
    for mech, _, profiles in _profiles(args):
        for p in profiles:
            for w, m in p.masses:
                lines.append(
                    f"{mech.value},{p.location},{w:.12g},{m:.12g},"
                    f"{p.avg_wealth:.12g},{p.poor_share:.12g}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_tables(args) -> int:
    rows1 = benchmarks.table_one()
    rows2 = benchmarks.policy_table()
    out = []
    mismatch = False
    out.append("scenario        poorC1  poor  rich total poorQ%   reference        match")
    for row in rows1:
        got = row.rounded()
        want = benchmarks.REFERENCE_TABLE1[row.scenario]
        ok = all(abs(g - w) <= 1 for g, w in zip(got, want))
        mismatch |= not ok
        out.append(f"{row.scenario:<15} {got[0]:>5}  {got[1]:>4} {got[2]:>5} {got[3]:>5} "
                   f"{got[4]:>5}    {str(want):<16} {'yes' if ok else 'NO'}")
    out.append("")
    out.append("policy      n1%   c1%   reference  match")
    for row in rows2:
        got = row.rounded()
        want = benchmarks.REFERENCE_TABLE2[row.policy]
        ok = all(abs(g - w) <= 1 for g, w in zip(got, want))
        mismatch |= not ok
        out.append(f"{row.policy:<10} {got[0]:>4}  {got[1]:>4}   {str(want):<10} "
                   f"{'yes' if ok else 'NO'}")
    if args.csv:
        lines = ["table,label," + "col1,col2,col3,col4,col5"]
        for row in rows1:
            lines.append("table1," + row.scenario + ","
                         + ",".join(str(v) for v in row.rounded()))
        for row in rows2:
            lines.append("table2," + row.policy + ","
                         + ",".join(str(v) for v in row.rounded()) + ",,,")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit("\n".join(out) + "\n", args.output)
    if mismatch:
        print("table mismatch beyond +-1", file=sys.stderr)
        return EXIT_TABLE
    return 0


def cmd_sweep_kink(args) -> int:
    params = _load_params(args)
    try:  # a step that does not divide 1, or wealth that is not binary
        result = sweep.kink_sweep(params, args.step)
    except ValueError as exc:
        raise CliError(f"invalid sweep: {exc}", EXIT_CONFIG)
    _emit(result.to_csv(), args.output)
    return 0


def cmd_sweep_cube(args) -> int:
    try:  # a non-number, a bad step, or an axis value that makes no valid economy
        axes = [[float(v) for v in text.split(",")] for text in (args.rho, args.q, args.pi)]
        result = sweep.cube_sweep(*axes, args.step)
    except ValueError as exc:
        raise CliError(f"invalid sweep: {exc}", EXIT_CONFIG)
    _emit(result.to_csv(), args.output)
    return 0


def cmd_simulate(args) -> int:
    params = _load_params(args)
    mechs = _mech_list(args.mech)
    if len(mechs) != 1 or mechs[0] not in mx.CORE:  # no finite algorithm for a policy
        raise CliError("simulate expects exactly one of n, da, ttc", EXIT_CONFIG)
    eq = next(_equilibria(params, mechs))
    try:
        config = mcsim.SimConfig(
            params=params, mech=mechs[0], cutoffs=eq.cutoffs,
            n_agents=args.n_agents, seed=args.seed, replications=args.replications)
    except ValueError as exc:
        raise CliError(f"invalid simulation: {exc}", EXIT_CONFIG)
    result = mcsim.estimate(config)
    payload = result.to_dict()
    payload["analytic"] = eq.to_dict()
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def cmd_check(args) -> int:
    params = _load_params(args)
    if len(params.wealth.atoms) < 2:
        print("check needs at least two wealth types: the ranking theorems compare them",
              file=sys.stderr)
        return EXIT_ASSUMPTION
    a1 = check_assumption1(params)
    if not a1.passed:
        print(f"assumption 1 fails: {a1.failures()}", file=sys.stderr)
        return EXIT_ASSUMPTION
    a2 = check_assumption2(params)
    if not a2.passed:
        print(f"assumption 2 fails: {a2.failures()}", file=sys.stderr)
        return EXIT_ASSUMPTION
    # both assumptions hold, so the solve checks neither again
    try:
        reports = [check_theorems(params, solve_core(params, check=False))]
        for mech in mx.CORE:
            reports.append(verify_lemma1(params, mech))
    except (SolveError, mx.DegenerateChoiceError) as exc:
        raise CliError(str(exc), EXIT_SOLVER)
    lines = [f"{'PASS' if ok else 'FAIL'} {rep.name}: {name}"
             for rep in reports for name, ok in rep.checks]
    lines.append(f"assumption1: pass{' (boundary)' if a1.boundary else ''}")
    lines.append("assumption2: pass")
    _emit("\n".join(lines) + "\n", args.output)
    if not all(rep.passed for rep in reports):
        print("theorem checks failed", file=sys.stderr)
        return EXIT_THEOREM
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segsolve",
        description="Equilibria, segregation metrics, and simulations for "
                    "housing-then-school-choice markets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_economy(p):
        p.add_argument("--example", action="store_true",
                       help="use the built-in worked-example economy")
        p.add_argument("--config", help="path to an economy JSON file")
        p.add_argument("--output", help="write output to this path instead of stdout")

    p = sub.add_parser("solve", help="solve equilibria and emit JSON")
    add_economy(p)
    p.add_argument("--mech", default="n,da,ttc")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="emit segregation profiles as CSV")
    add_economy(p)
    p.add_argument("--mech", default="n,da,ttc")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("tables", help="reproduce the benchmark tables")
    p.add_argument("--output")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("sweep-kink", help="single-kink distribution sweep (CSV)")
    add_economy(p)
    p.add_argument("--step", type=float, default=0.1)
    p.set_defaults(func=cmd_sweep_kink)

    p = sub.add_parser("sweep-cube", help="(rho_p, q, pi) cube sweep (CSV)")
    p.add_argument("--rho", default="0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--q", default="0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--pi", default="0.1,0.2,0.3,0.4")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_sweep_cube)

    p = sub.add_parser("simulate", help="finite-agent Monte Carlo estimates")
    add_economy(p)
    p.add_argument("--mech", default="da")
    p.add_argument("--n-agents", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replications", type=int, default=2)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="assumption and theorem report")
    add_economy(p)
    p.set_defaults(func=cmd_check)

    return parser


# Built by the first `main` call and reused by every later one in the
# process: parse_args leaves the parser unchanged and returns a new Namespace.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
