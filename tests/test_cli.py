"""Command-line interface: commands, outputs, and exit codes."""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import SIGN_FLIP_CONFIG, count_calls
from test_golden import STDOUT_SHA256

import segsolve
import segsolve.benchmarks as bm
import segsolve.cli as cli
from segsolve.cdf import SingleKink
from segsolve.economy import binary_wealth, example_economy


def write_config(tmp_path, **overrides):
    cfg = example_economy().to_config()
    cfg.update(overrides)
    path = tmp_path / "economy.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSolve:
    def test_example_json(self, capsys):
        assert cli.main(["solve", "--example", "--mech", "n,da,ttc"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_mech = {r["mech"]: r for r in payload["results"]}
        assert by_mech["da"]["r"] == pytest.approx(9.0 / 11.0, abs=1e-9)
        assert by_mech["ttc"]["p"] == pytest.approx(13.0 / 15.0, abs=1e-9)
        assert len(by_mech["n"]["profiles"]) == 3  # n1, n0, c1

    def test_policy_mechanism(self, capsys):
        assert cli.main(["solve", "--example", "--mech", "da_l"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["r"] == pytest.approx(7.0 / 9.0, abs=1e-6)

    def test_strict_json_with_policies(self, capsys):
        # a policy equilibrium has no dispersion: "d" is null, not a bare NaN
        def reject(constant):
            raise ValueError(f"{constant} is not a JSON value")

        assert cli.main(["solve", "--example", "--mech", "n,da,ttc,da_l,da_wl"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        d = {r["mech"]: r["d"] for r in payload["results"]}
        assert d["da_l"] is None and d["da_wl"] is None
        assert 0.0 < d["n"] < d["da"] < d["ttc"]

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert cli.main(["solve", "--example", "--mech", "n",
                         "--output", str(out)]) == 0
        assert json.loads(out.read_text())["results"][0]["mech"] == "n"

    def test_config_file(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["solve", "--config", path, "--mech", "da"]) == 0

    def test_unknown_mechanism_exit_2(self, capsys):
        assert cli.main(["solve", "--example", "--mech", "vouchers"]) == cli.EXIT_CONFIG

    def test_table_scenario_is_not_a_mechanism(self, capsys):
        for name in ("auction", "no_priority"):
            assert cli.main(["solve", "--example", "--mech", name]) == cli.EXIT_CONFIG
            assert "unknown mechanism" in capsys.readouterr().err

    def test_missing_source_exit_2(self, capsys):
        assert cli.main(["solve"]) == cli.EXIT_CONFIG

    def test_bad_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_invalid_economy_exit_2(self, tmp_path, capsys):
        for bad in ({"q": 2.0}, {"m": 2.7}, {"g": False}):
            path = write_config(tmp_path, **bad)
            assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG, bad

    def test_policy_off_example_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, pi=0.25)
        assert cli.main(["solve", "--config", path, "--mech", "da_l"]) == cli.EXIT_CONFIG

    def test_assumption_failure_exit_3(self, tmp_path, capsys):
        # valid parameters whose signal CDF breaks the interior condition
        path = write_config(tmp_path, q=0.4, g=0.3, e=0.6)
        assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_ASSUMPTION


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_policy_over_q_exits_cleanly(command, tmp_path, capsys):
    # at low q, and for DA_WL at q = 0.6-0.7, the one fixed point puts a
    # cutoff outside (g, e - g): that exits 4 with one line, as a core
    # mechanism's does, where it used to raise CdfError from the profiles
    codes = {}
    for i in range(1, 20):
        path = write_config(tmp_path, q=i / 20)
        for mech in ("da_l", "da_wl"):
            codes[mech, i] = cli.main([command, "--config", path, "--mech", mech])
            err = capsys.readouterr().err
            assert codes[mech, i] in (0, cli.EXIT_SOLVER), (i, mech, err)
            assert len(err.splitlines()) == (0 if codes[mech, i] == 0 else 1), (i, mech, err)
            if i in (1, 3) or (mech == "da_wl" and i in (5, 12, 14)):
                assert "outside" in err, (i, mech, err)
    assert codes["da_l", 10] == codes["da_wl", 10] == 0


class TestCompare:
    def test_csv_shape(self, capsys):
        assert cli.main(["compare", "--example", "--mech", "n,da"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mechanism,location,omega,mass,avg_wealth,poor_share"
        # two mechanisms x three locations x two wealth types
        assert len(lines) == 1 + 2 * 3 * 2


class TestTables:
    def test_text_output(self, capsys):
        assert cli.main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "no_priority" in out
        assert "NO" not in out

    def test_csv_output(self, capsys):
        assert cli.main(["tables", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 7 + 5

    def test_mismatch_exit_5(self, capsys, monkeypatch):
        monkeypatch.setitem(bm.REFERENCE_TABLE1, "n", (10, 10, 10, 10, 10))
        assert cli.main(["tables"]) == cli.EXIT_TABLE


class TestSweeps:
    def test_kink_sweep(self, capsys):
        assert cli.main(["sweep-kink", "--example", "--step", "0.2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 10  # 4x4 grid above the diagonal

    def test_cube_sweep(self, capsys):
        assert cli.main(["sweep-cube", "--rho", "0.5", "--q", "0.4",
                         "--pi", "0.2", "--step", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2


class TestSimulate:
    def test_market_without_seats_exits_2(self, tmp_path, capsys):
        # 1,000 agents at q = 0.4 and m = 500: int(n q / m) = 0 seats a school
        path = write_config(tmp_path, m=500)
        assert cli.main(["simulate", "--config", path, "--n-agents", "1000"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no seat" in err and "Traceback" not in err

    def test_da_payload(self, capsys):
        assert cli.main(["simulate", "--example", "--mech", "da",
                         "--n-agents", "5000", "--replications", "2",
                         "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic"]["mech"] == "da"
        assert payload["stats"]["r"]["mean"] == pytest.approx(9.0 / 11.0, abs=0.1)

    def test_one_replication_is_strict_json(self, capsys):
        # se needs two replications; it was printed as NaN, which no JSON
        # parser that follows RFC 8259 accepts
        assert cli.main(["simulate", "--example", "--n-agents", "5000",
                         "--replications", "1"]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["stats"]["r"]["se"] is None
        assert math.isfinite(payload["stats"]["r"]["mean"])

    def test_requires_single_mechanism(self, capsys):
        assert cli.main(["simulate", "--example",
                         "--mech", "n,da"]) == cli.EXIT_CONFIG


# a cube axis with one bad value after a good one: caught before any batch runs
CUBE_AXIS_ERRORS = [
    ["sweep-cube", "--pi", "0.2,0.7"],
    ["sweep-cube", "--rho", "0.5,nan"],
    ["sweep-cube", "--q", "0.4,1.0"],
]

# each of these exited 1 with a traceback before its input was checked
BAD_ARGUMENTS = [
    ["sweep-cube", "--rho", "abc"],
    ["sweep-cube", "--rho", "0.5", "--q", "0.4", "--pi", "0.2", "--step", "0"],
    ["sweep-kink", "--example", "--step", "0.3"],
    ["sweep-kink", "--example", "--step", "0"],
    ["sweep-kink", "--config", "THREE_TYPES"],
    ["sweep-kink", "--example", "--step", "0.000999000999000999"],
    ["sweep-kink", "--example", "--step", "5e-324"],
    ["sweep-cube", "--step", "0.000999000999000999"],
    ["sweep-cube", "--rho", "nan"],
    ["sweep-cube", "--rho", "1.5"],
    ["sweep-cube", "--pi", "0.7"],
    *CUBE_AXIS_ERRORS,
    ["simulate", "--example", "--n-agents", "10"],
    ["simulate", "--example", "--replications", "0"],
    ["simulate", "--example", "--replications", "1000000000"],
    ["simulate", "--example", "--mech", "da_l"],
    ["simulate", "--example", "--mech", "da", "--n-agents", "100000000000"],
    ["simulate", "--example", "--seed", "-1"],
    ["solve", "--config", "NOT_UTF8"],
    ["solve", "--config", "NESTED_5000_DEEP"],
    ["solve", "--example", "--output", "A_DIRECTORY"],
    ["solve", "--example", "--output", "MISSING_PARENT"],
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=" ".join)
def test_bad_arguments_exit_2(argv, tmp_path, capsys):
    (tmp_path / "not_utf8.json").write_bytes(b'{"m": "\xff"}')
    (tmp_path / "nested.json").write_text("[" * 5000)
    paths = {"THREE_TYPES": write_config(tmp_path, wealth=[[1.2, 0.25], [1.0, 0.5],
                                                          [0.8, 0.25]]),
             "NOT_UTF8": tmp_path / "not_utf8.json", "NESTED_5000_DEEP": tmp_path / "nested.json",
             "A_DIRECTORY": tmp_path, "MISSING_PARENT": tmp_path / "missing" / "out.json"}
    argv = [str(paths.get(a, a)) for a in argv]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", CUBE_AXIS_ERRORS, ids=" ".join)
def test_bad_cube_axis_exits_before_any_batch(argv, monkeypatch, capsys):
    calls = count_calls(monkeypatch, ["sweep.kink_sweep", "sweep._stacked_shares"])
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert calls == {"sweep.kink_sweep": 0, "sweep._stacked_shares": 0}


def test_oversized_cube_exits_2(monkeypatch, capsys):
    axis = ",".join(["0.3"] * 700)  # 343M cells
    calls = count_calls(monkeypatch, ["sweep.kink_sweep"])
    assert cli.main(["sweep-cube", "--rho", axis, "--q", axis, "--pi", axis]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "more than 250000" in err and "Traceback" not in err
    assert calls == {"sweep.kink_sweep": 0}


class TestCheck:
    def test_example_passes(self, capsys):
        assert cli.main(["check", "--example"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "assumption1: pass (boundary)" in out

    def test_assumption_failure_exit_3(self, tmp_path, capsys):
        path = write_config(tmp_path, q=0.4, g=0.3, e=0.6)
        assert cli.main(["check", "--config", str(path)]) == cli.EXIT_ASSUMPTION

    def test_theorem_failure_exit_6(self, capsys, monkeypatch):
        from segsolve.economy import AssumptionReport

        def fake_check(params, eqs=None):
            return AssumptionReport("theorems", (("forced failure", False),))

        monkeypatch.setattr(cli, "check_theorems", fake_check)
        assert cli.main(["check", "--example"]) == cli.EXIT_THEOREM


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# each of these loaded: `check` then exited 1 with a traceback from F(e - g),
# and `solve` and `compare` exited 2 only once the solver met the bad signal
BAD_CONFIGS = {
    "e<g": {"g": 0.5, "e": 0.2818, "pi": 0.3333},
    "e=NaN": {"e": math.nan},
    "g=NaN": {"g": math.nan},
    "e-g>1": {"g": 0.0, "e": 1.0000000000005},
}


@pytest.mark.parametrize("command", ["check", "solve", "compare", "simulate", "sweep-kink"])
@pytest.mark.parametrize("bad", list(BAD_CONFIGS))
def test_bad_config_rejected_on_load(bad, command, tmp_path, capsys):
    path = write_config(tmp_path, **BAD_CONFIGS[bad])
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("invalid config: ")


# Economies that pass both assumptions but whose solve fails: the two
# knife-edge kinks of the default cube, (rho_p, q, pi) cell and (x, y)
# kink, where TTC's poor cutoff is 2.2e-16 against g = 0
SOLVER_FAILURES = {
    "cell (0.8, 0.4, 0.3)": (0.8, 0.4, 0.3, 0.5, 0.8),
    "cell (0.8, 0.5, 0.3)": (0.8, 0.5, 0.3, 0.6000000000000001, 0.8),
}


@pytest.mark.parametrize("failure", list(SOLVER_FAILURES))
def test_solver_failure_exits_4(failure, tmp_path, capsys):
    rho_p, q, pi, x, y = SOLVER_FAILURES[failure]
    path = write_config(tmp_path, q=q, pi=pi, g=0.0, e=1.0,
                        wealth=[list(atom) for atom in binary_wealth(rho_p).atoms],
                        cdf=SingleKink(x, y).to_config())
    messages = set()
    for command in (["check"], ["solve"], ["compare"], ["simulate", "--mech", "ttc"]):
        assert cli.main(command + ["--config", path]) == cli.EXIT_SOLVER, command
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err, command
        assert len(err.splitlines()) == 1, (command, err)
        messages.add(err)
    (message,) = messages
    assert "outside" in message and "1e-12 margin" in message


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(cli, "_parser", None)
        after = []
        for argv in (["check", "--example"], ["compare", "--example"], ["solve", "--example"]):
            assert cli.main(argv) == 0
            after.append(len(built))
        # the top-level parser and its subparsers, all on the first call
        assert built.count("segsolve") == 1
        assert after == [after[0]] * 3

    def test_no_state_between_calls(self, tmp_path, capsys):
        out = tmp_path / "solve.json"
        assert cli.main(["solve", "--example", "--output", str(out)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--example", "--step", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert cli.main(["solve", "--example"]) == 0
        golden = STDOUT_SHA256[("solve", "--example")]
        assert sha256(capsys.readouterr().out.encode()) == golden
        assert sha256(out.read_bytes()) == golden

    def test_python_m_segsolve(self):
        src = str(Path(segsolve.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "segsolve", "check", "--example"],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sha256(proc.stdout) == STDOUT_SHA256[("check", "--example")]

    def test_import_starts_no_process_machinery(self):
        """The CLI runs in one process: importing it loads no process pool."""
        src = str(Path(segsolve.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, segsolve.cli; print(sorted(m for m in sys.modules if m in "
                "('multiprocessing', 'concurrent.futures')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=env, timeout=120, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# -- fuzzed JSON configs through `solve` and `check` ------------------------

# A loadable config on which `check` exits 6, found by a longer run of the
# fuzz below: with pi near 0 the mechanism gaps fall under the theorem
# tolerances, so strict rankings FAIL.
@pytest.mark.xfail(strict=True, reason="check reports theorem failures outside the "
                   "ranking theorems' premises instead of rejecting the config")
def test_check_exit_code_outside_theorem_premises(tmp_path, capsys):
    path = write_config(tmp_path, pi=1e-12)
    assert cli.main(["check", "--config", path]) != cli.EXIT_THEOREM


def test_check_rejects_one_wealth_type(tmp_path, capsys):
    # the ranking theorems compare wealth types, so one type has nothing to rank
    path = write_config(tmp_path, wealth=[[1.0, 1.0]])
    assert cli.main(["check", "--config", path]) == cli.EXIT_ASSUMPTION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


FIELDS = ("m", "q", "delta_q", "g", "e", "pi", "wealth", "cdf")
BASES = [dict(example_economy().to_config(), cdf=cdf, **ge) for cdf, ge in (
    ({"type": "uniform"}, {}),
    ({"type": "single_kink", "x": 0.3, "y": 0.6}, {"g": 0.05, "e": 0.9}),
    ({"type": "piecewise", "knots": [[0, 0], [0.4, 0.55], [0.8, 0.9], [1, 1]]}, {}),
    ({"type": "power", "alpha": 0.5}, {"g": 0.05, "e": 0.9}),
    # the single-kink and power bases above fail assumption 2; these pass
    # both assumptions, so their fuzzed neighbors reach the solver
    ({"type": "single_kink", "x": 0.3, "y": 0.6}, {"g": 0.02, "e": 0.95}),
    ({"type": "power", "alpha": 0.5}, {"g": 0.05, "e": 0.95}),
)]
# The fuzz draws its 300 cases from seeds 0-299 of random.Random, so the
# cases depend on this file's code alone, not on the literals of the modules
# a run imports. A number is one of the pool, any float (a random bit
# pattern: nan, infinities and subnormals included), a float near [0, 1] or
# a small int.
NUMBER_POOL = (math.nan, math.inf, -math.inf, 0.0, 0.5, 1.0, -1e-300, 1e308, 10**400)
NUMBERS = (lambda rng: rng.choice(NUMBER_POOL),
           lambda rng: struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0],
           lambda rng: rng.uniform(-0.5, 1.5),
           lambda rng: rng.randint(-3, 5))
JUNK = (lambda rng: None,
        lambda rng: rng.random() < 0.5,
        lambda rng: "".join(chr(rng.randrange(0x20, 0x3000)) for _ in range(rng.randrange(4))),
        lambda rng: [rng.randint(0, 2) for _ in range(rng.randrange(4))],
        lambda rng: {})
VALUES = (NUMBERS, JUNK)
NUMERIC = ("m", "q", "delta_q", "g", "e", "pi")


def draw(rng, *pools):
    """A value from one of pools, each a tuple of draw functions, chosen evenly."""
    return rng.choice(rng.choice(pools))(rng)


def draw_pairs(rng) -> list:
    pair = (lambda r: [draw(r, NUMBERS), draw(r, NUMBERS)],
            lambda r: [draw(r, NUMBERS) for _ in range(r.randrange(4))])
    return [draw(rng, pair, JUNK) for _ in range(rng.randrange(5))]


def draw_cdf(rng) -> dict:
    cdf = {"type": rng.choice(["uniform", "single_kink", "piecewise", "power", "bogus"])}
    for key in ("x", "y", "alpha", "knots", "extra"):
        if rng.random() < 0.5:
            cdf[key] = draw(rng, (draw_pairs,), JUNK) if key == "knots" else draw(rng, *VALUES)
    return cdf


MUTATIONS = (
    lambda rng: ("set", rng.choice(NUMERIC), draw(rng, NUMBERS)),
    lambda rng: ("scale", rng.choice(NUMERIC), rng.uniform(0.0, 2.0)),
    lambda rng: ("set", rng.choice(FIELDS + ("unknown",)), draw(rng, *VALUES)),
    lambda rng: ("delete", rng.choice(FIELDS)),
    lambda rng: ("atom", rng.randint(0, 1), rng.randint(0, 1), draw(rng, *VALUES)),
    lambda rng: ("set", "wealth", draw_pairs(rng)),
    lambda rng: ("set", "cdf", draw(rng, (draw_cdf,), JUNK)),
)


def mutated(base: dict, mutations) -> dict:
    cfg = json.loads(json.dumps(base))
    for op, key, *rest in mutations:
        if op == "set":
            cfg[key] = rest[0]
        elif op == "scale" and isinstance(cfg.get(key), float):
            cfg[key] *= rest[0]
        elif op == "delete":
            cfg.pop(key, None)
        elif op == "atom" and isinstance(cfg.get("wealth"), list) and len(cfg["wealth"]) > key:
            atom = cfg["wealth"][key]
            if isinstance(atom, list) and len(atom) == 2:
                atom[rest[0]] = rest[1]
    return cfg


def fuzzed_case(seed: int) -> tuple[str, dict]:
    """(command, config) of one fuzz case: a base with up to three mutations."""
    rng = random.Random(seed)
    command, base = rng.choice(["solve", "check"]), rng.choice(BASES)
    return command, mutated(base, [rng.choice(MUTATIONS)(rng) for _ in range(rng.randrange(4))])


def test_fuzzed_config_exits_cleanly(tmp_path):
    path = tmp_path / "fuzzed_economy.json"
    for seed in range(300):
        command, cfg = fuzzed_case(seed)
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path)])
        note = (seed, command, cfg, err.getvalue())
        assert code in (0, cli.EXIT_CONFIG, cli.EXIT_ASSUMPTION, cli.EXIT_SOLVER), note
        assert "Traceback" not in err.getvalue(), note
        assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1), note


# `check` on economies whose branches the example never reaches: (exit code,
# stdout sha256, stderr). The sign-flip economy ranks n->ttc and da->ttc on
# two of its three types and has no p^N <= p^DA, uniform or binary check;
# the single-kink base fails assumption 2 for TTC; the piecewise base checks
# every school-segregation pair.
EMPTY = sha256(b"")
CHECK_CONFIG_GOLDEN = {
    "sign_flip": (0, "71631dc2b382cdb560dafb289d7c7f49bb33ea8bf742268bfae2625783e22325", ""),
    "single_kink": (cli.EXIT_ASSUMPTION,
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "assumption 2 fails: ['ttc: du(e-g)>0 at omega=1.125']\n"),
    "piecewise": (0, "680f5f530a8a0b43d1d50501987bc6c7ee2fe6248753fee883ed7204fc3bcb63", ""),
    "power": (cli.EXIT_ASSUMPTION, EMPTY,
              "assumption 2 fails: ['ttc: du(e-g)>0 at omega=1.125']\n"),
    "single_kink_inside": (
        0, "b8a3228b80c825792faff29bae997f9ec78f5c51434dc48fbce41d3d171da2c2", ""),
    "power_inside": (0, "7142e7de8a4588130bfa303097a4630a320a53f0589c28da844fd9177bce7d32", ""),
    "four_types": (0, "731416de279fab922c785c56aefdeec25a298b00200741941c9dcdb8e06ef4fa", ""),
    "example_q08": (cli.EXIT_ASSUMPTION, EMPTY,
                    "assumption 2 fails: ['ttc: du(g)<0 at omega=0.875']\n"),
}
# Four wealth types and g > 0 with the piecewise base's F: every check
# passes, and the [0, g] part of verify_lemma1's grid is not trivial.
FOUR_TYPES_CONFIG = dict(BASES[2], q=0.5, g=0.03, e=0.9,
                         wealth=[[1.15, 0.2], [1.05, 0.3], [0.95, 0.3], [0.85, 0.2]])
CHECK_CONFIGS = {"sign_flip": SIGN_FLIP_CONFIG, "single_kink": BASES[1], "piecewise": BASES[2],
                 "power": BASES[3], "single_kink_inside": BASES[4], "power_inside": BASES[5],
                 "four_types": FOUR_TYPES_CONFIG,
                 # TTC fails assumption 2 and DA_L has its fixed point in the p = 0 corner
                 "example_q08": dict(example_economy().to_config(), q=0.8)}


@pytest.mark.parametrize("name", list(CHECK_CONFIG_GOLDEN))
def test_check_config_digest(name, tmp_path, capsys):
    path = tmp_path / "economy.json"
    path.write_text(json.dumps(CHECK_CONFIGS[name]))
    code = cli.main(["check", "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, sha256(captured.out.encode()), captured.err) == CHECK_CONFIG_GOLDEN[name]


# sha256 of the stderr "assumption 2 fails for ttc: [...]" on the single-kink
# and power bases, and on example_q08
TTC_A2 = "a749ea810823eb048150a0a978ebaaf45124499b940923a8f8eb4b55a729e6c9"
Q08_A2 = "89ebbc5bdebd39088f14c5fcba5b281a4235920a4798698beae0d95c25116022"
# (exit code, stdout sha256, stderr sha256) of `solve` and `compare` on
# CHECK_CONFIGS, recorded before the core mechanisms were solved in one
# pass. A mixed list reports the first mechanism, in its order, that fails:
# on example_q08, DA_L (exit 4) before TTC (exit 3), and TTC before DA_L.
CONFIG_GOLDEN = {
    ("solve", "sign_flip"):
        (0, "1cbd0274acd9456af9907937b7109da1c055423c78b0bbc74857ae1ca3786b11", EMPTY),
    ("compare", "sign_flip"):
        (0, "099b42faa111819ff80ea6d0fba7d9d9d4d4db74392ed8883921d523537a6a11", EMPTY),
    ("solve", "single_kink"): (cli.EXIT_ASSUMPTION, EMPTY, TTC_A2),
    ("compare", "single_kink"): (cli.EXIT_ASSUMPTION, EMPTY, TTC_A2),
    ("solve --mech ttc,n,ttc", "single_kink"): (cli.EXIT_ASSUMPTION, EMPTY, TTC_A2),
    ("solve", "piecewise"):
        (0, "835d5c50b87025e24cc98b7d98b8268b86688910f68d61ad328e0a18e77dec19", EMPTY),
    ("compare", "piecewise"):
        (0, "f3241a08c17d8ae01dab82fbeac34b1958722b6fc4f906b5df8b46999765262c", EMPTY),
    ("solve", "power"): (cli.EXIT_ASSUMPTION, EMPTY, TTC_A2),
    ("compare", "power"): (cli.EXIT_ASSUMPTION, EMPTY, TTC_A2),
    ("solve", "single_kink_inside"):
        (0, "c293833c9173c512179e8e46469c9124d6c1f6834d0018e982258c0d45fca200", EMPTY),
    ("compare", "single_kink_inside"):
        (0, "c70c75840f42aeaefee9c938ea9cff643c159477d2ce9e61e8cb1e2fa889ec38", EMPTY),
    ("solve", "power_inside"):
        (0, "2cc347a4a61cafbf172733b4f0f3fc9dd6eac6e93e861914bbeefc92966972de", EMPTY),
    ("compare", "power_inside"):
        (0, "5cb42f296de31914ab3f231e5a274b256f0d3e8e83c6c38c7e078d0c7e285ea6", EMPTY),
    ("solve", "four_types"):
        (0, "a3e00975b2d336c27f1755694745f29481b6ee95adf247fe4f5d66899331d1d0", EMPTY),
    ("compare", "four_types"):
        (0, "02f4e3caa836137c6ea97acbda38809e1d56918785a52bed0c48be090d387736", EMPTY),
    ("solve", "example_q08"): (cli.EXIT_ASSUMPTION, EMPTY, Q08_A2),
    ("compare", "example_q08"): (cli.EXIT_ASSUMPTION, EMPTY, Q08_A2),
    ("solve --mech n,da_l,ttc", "example_q08"): (
        cli.EXIT_SOLVER, EMPTY, "76b496aec739d3196aa314e926f35813f780ad3b3e0744cfa7aef8a37be36ed5"),
    ("solve --mech ttc,da_l", "example_q08"): (cli.EXIT_ASSUMPTION, EMPTY, Q08_A2),
    ("compare --mech da,da", "example_q08"):
        (0, "bbe60eee4f60d099207a5eee8c841163f9df25de5b8e92773bda014be6a60896", EMPTY),
}


@pytest.mark.parametrize("argv, name", list(CONFIG_GOLDEN), ids=lambda v: v.replace(" ", "_"))
def test_config_digest(argv, name, tmp_path, capsys):
    path = tmp_path / "economy.json"
    path.write_text(json.dumps(CHECK_CONFIGS[name]))
    command, *rest = argv.split()
    code = cli.main([command, "--config", str(path), *rest])
    captured = capsys.readouterr()
    got = (code, sha256(captured.out.encode()), sha256(captured.err.encode()))
    assert got == CONFIG_GOLDEN[argv, name]


# Per command on a piecewise-linear economy: one check of each assumption and
# one dispersion_root call over the three mechanisms. `rejection` runs once
# per mechanism in assumption 2, in the solve and, under `check`, in
# verify_lemma1. One `solve` per mechanism made 4, 3 and 3 passes of each
# assumption, 3 dispersion_root calls, and 27, 9 and 9 `rejection` calls.
ONE_PASS_CALLS = {
    "check": {"economy.check_assumption1": 1, "economy.check_assumption2": 1,
              "mechanisms.rejection": 9, "equilibrium.dispersion_root": 1},
    "solve": {"economy.check_assumption1": 1, "economy.check_assumption2": 1,
              "mechanisms.rejection": 6, "equilibrium.dispersion_root": 1},
    "compare": {"economy.check_assumption1": 1, "economy.check_assumption2": 1,
                "mechanisms.rejection": 6, "equilibrium.dispersion_root": 1},
}


@pytest.mark.parametrize("command", list(ONE_PASS_CALLS))
def test_one_pass_per_command(command, tmp_path, monkeypatch, capsys):
    path = tmp_path / "economy.json"
    path.write_text(json.dumps(FOUR_TYPES_CONFIG))
    counts = count_calls(monkeypatch, list(ONE_PASS_CALLS[command]))
    assert cli.main([command, "--config", str(path)]) == 0
    assert counts == ONE_PASS_CALLS[command]
