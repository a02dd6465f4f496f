"""Benchmark tables: match quality on any economy, the rest on the example."""
import dataclasses
import random

import pytest

import segsolve.benchmarks as bm
from segsolve.cdf import Power
from segsolve.economy import example_economy
from segsolve.equilibrium import solve

from conftest import count_calls, random_economy


class TestRounding:
    def test_round_half_away(self):
        assert bm.round_half_away(0.5) == 1
        assert bm.round_half_away(1.5) == 2
        assert bm.round_half_away(-0.5) == -1
        assert bm.round_half_away(2.4) == 2


class TestTableOne:
    def test_all_rows_match_reference(self):
        for row in bm.table_one():
            assert row.rounded() == bm.REFERENCE_TABLE1[row.scenario]

    def test_n_row_values(self):
        # poor quality: 100 * (1/2) int_{0.675}^1 s ds = 13.61 -> 14
        row = bm.match_quality("n")
        assert row.poor_quality == pytest.approx(
            100.0 * 0.5 * (1.0 - 0.675 ** 2) / 2.0, abs=1e-6)
        assert row.poor_share_c1 == pytest.approx(40.625, abs=1e-6)

    def test_no_priority_row(self):
        # every agent demands one specialized school; lottery admit rate q
        row, profile = bm.no_priority_outcome()
        assert row.poor_share_c1 == pytest.approx(50.0, abs=1e-9)
        assert row.total_quality == pytest.approx(100.0 / 3.0, abs=1e-9)
        assert sum(m for _, m in profile.masses) == pytest.approx(0.4, abs=1e-12)

    def test_auction_clearing_price(self):
        # the exact per-seat price tau = 104/115 clears q = 0.4 to the last bit
        row, profile = bm.auction_outcome()
        assert sum(m for _, m in profile.masses) == 0.4
        assert row.total_quality == pytest.approx(55.938, abs=2e-2)

    def test_auction_without_clearing_price_raises(self, monkeypatch):
        monkeypatch.setattr(bm, "affine_root", lambda *args: [float("nan")])
        with pytest.raises(bm.NoClearingError):
            bm.auction_outcome()

    def test_short_run_rows_use_n_locations(self):
        # short-run DA keeps the N housing pattern, so c1 is poorer than
        # the long-run DA row and quality is higher
        short = bm.match_quality("da_short")
        long_run = bm.match_quality("da")
        assert short.poor_share_c1 > long_run.poor_share_c1

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            bm.match_quality("vouchers")

    def test_requires_example_economy(self):
        p = dataclasses.replace(example_economy(), cdf=Power(0.5))
        with pytest.raises(ValueError):
            bm.table_one(p)

    def test_closed_form_rows_require_example_profile(self):
        p = dataclasses.replace(example_economy(), cdf=Power(0.5))
        for scenario in ("no_priority", "auction"):
            with pytest.raises(ValueError):
                bm.match_quality(scenario, p)
        with pytest.raises(ValueError):
            bm.policy_table(p)

    def test_core_rows_off_example(self):
        # N's quality is the partial mean of the residents' signals:
        # for F = x^alpha, rho alpha / (alpha + 1) (1 - s^(alpha + 1)) per type
        p = dataclasses.replace(example_economy(), cdf=Power(0.5))
        rng = random.Random(3)
        economies = [p] + [random_economy(rng)[0] for _ in range(5)]
        for params in economies:
            for scenario in bm.CORE_SCENARIOS:
                row = bm.match_quality(scenario, params)
                assert 0.0 < row.poor_share_c1 < 100.0
                assert 0.0 < row.poor_quality < row.total_quality
                assert row.total_quality == pytest.approx(row.poor_quality + row.rich_quality)
        (_, s), _ = solve(p, "n").cutoffs
        want = 100.0 * 0.5 * (0.5 / 1.5) * (1.0 - s ** 1.5)
        assert bm.match_quality("n", p).poor_quality == pytest.approx(want, abs=1e-12)

    def test_one_solve_per_core_mechanism(self, monkeypatch):
        # one solve_core pass: one check of each assumption, one root call,
        # and one `rejection` per mechanism in assumption 2 and in the solve;
        # the rows reuse each equilibrium's r. One checked solve per row made
        # 5 passes, 5 root calls and 20 `rejection` calls.
        want = {"economy.check_assumption1": 1, "economy.check_assumption2": 1,
                "mechanisms.rejection": 6, "equilibrium.dispersion_root": 1}
        counts = count_calls(monkeypatch, list(want))
        rows = bm.table_one()
        assert counts == want
        assert [row.rounded() for row in rows] == list(bm.REFERENCE_TABLE1.values())


class TestTableTwo:
    def test_all_rows_match_reference(self):
        for row in bm.policy_table():
            assert row.rounded() == bm.REFERENCE_TABLE2[row.policy]

    def test_exact_percentages(self):
        rows = {r.policy: r for r in bm.policy_table()}
        assert rows["da"].poor_share_n1 == pytest.approx(32.8125, abs=1e-6)
        assert rows["da"].poor_share_c1 == pytest.approx(40.625, abs=1e-6)
        assert rows["short_wl"].poor_share_c1 == pytest.approx(55.2083, abs=1e-3)
        assert rows["long_wl"].poor_share_n1 == pytest.approx(9.709, abs=1e-2)

    def test_policy_order(self):
        assert [r.policy for r in bm.policy_table()] == list(bm.TABLE2_POLICIES)
