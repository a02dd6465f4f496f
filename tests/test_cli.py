"""Command-line interface: commands, outputs, and exit codes."""
import json

import pytest

import segsolve.benchmarks as bm
import segsolve.cli as cli
from segsolve.economy import example_economy


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
    def test_da_payload(self, capsys):
        assert cli.main(["simulate", "--example", "--mech", "da",
                         "--n-agents", "5000", "--replications", "2",
                         "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic"]["mech"] == "da"
        assert payload["stats"]["r"]["mean"] == pytest.approx(9.0 / 11.0, abs=0.1)

    def test_requires_single_mechanism(self, capsys):
        assert cli.main(["simulate", "--example",
                         "--mech", "n,da"]) == cli.EXIT_CONFIG


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

        def fake_check(params):
            return AssumptionReport("theorems", False, False,
                                    (("forced failure", False),))

        monkeypatch.setattr(cli, "check_theorems", fake_check)
        assert cli.main(["check", "--example"]) == cli.EXIT_THEOREM
