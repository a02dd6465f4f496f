"""Segregation profiles, expansion rates, and the ranking theorems."""
import dataclasses
import itertools
import random
import sys
from pathlib import Path

import pytest
from conftest import SIGN_FLIP_CONFIG, random_economy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import draw_configs  # noqa: E402  the benchmark's seeded configs, read only

import segsolve as ss
import segsolve.segregation as segregation
from segsolve import mechanisms as mx
from segsolve.cdf import Power, SingleKink, Uniform, single_kink_grid
from segsolve.economy import (EconomyParams, binary_wealth, check_assumption1,
                              check_assumption2, example_economy)
from segsolve.equilibrium import solve, solve_core
from segsolve.segregation import (Comparison, SignMismatchError, check_theorems,
                                  compare, expansion_rate, neighborhood_profile,
                                  school_profile)


def theorem2_threshold(pair, params):
    """Expansion-rate threshold (r_A c_A) / (r_B c_B) of Theorem 2 for the
    pair (A, B), from each mechanism's rejection rate."""
    a, b = pair
    return segregation._threshold(a, b, mx.rejection(params, a), mx.rejection(params, b),
                                  params)


class TestNeighborhoodProfiles:
    @pytest.mark.parametrize("mech,share", [("n", 0.40625), ("da", 0.328125),
                                            ("ttc", 0.09375)])
    def test_example_poor_shares(self, mech, share):
        # published integers 41 / 33 / 9 percent
        eq = solve(example_economy(), mech)
        n1, _ = neighborhood_profile(eq)
        assert n1.poor_share == pytest.approx(share, abs=1e-9)
        assert round(100.0 * n1.poor_share) == round(100.0 * share)

    def test_masses_partition_population(self):
        eq = solve(example_economy(), "da")
        n1, n0 = neighborhood_profile(eq)
        for (w, a), (_, b), (_, rho) in zip(n1.masses, n0.masses,
                                            example_economy().wealth.atoms):
            assert a + b == pytest.approx(rho, abs=1e-12)
        assert sum(m for _, m in n1.masses) == pytest.approx(example_economy().q, abs=1e-9)

    def test_deviation_is_wealth_gap(self):
        eq = solve(example_economy(), "n")
        n1, n0 = neighborhood_profile(eq)
        assert n1.deviation == pytest.approx(abs(n1.avg_wealth - 1.0), abs=1e-15)
        # binary wealth: deviation proportional to poor-share distance from 1/2
        assert n1.deviation == pytest.approx(abs(n1.poor_share - 0.5) * 0.25, abs=1e-9)


class TestSchoolProfiles:
    @pytest.mark.parametrize("mech,share", [("n", 0.40625), ("da", 0.40625),
                                            ("ttc", 0.09375)])
    def test_example_poor_shares(self, mech, share):
        eq = solve(example_economy(), mech)
        c1 = school_profile(eq)
        assert c1.poor_share == pytest.approx(share, abs=1e-9)

    def test_total_mass_is_capacity(self):
        for mech in ("n", "da", "ttc"):
            eq = solve(example_economy(), mech)
            assert sum(m for _, m in school_profile(eq).masses) == pytest.approx(0.4, abs=1e-9)

    def test_rejects_policy_equilibria(self):
        eq = ss.solve_policy(example_economy(), "da_l")
        with pytest.raises(ValueError):
            school_profile(eq)


class TestExpansionRates:
    def test_example_n_to_da(self):
        # over-representation (F(s) - (1-q)): N poor 0.075, DA poor 0.1375
        p = example_economy()
        eq_n, eq_da = solve(p, "n"), solve(p, "da")
        assert expansion_rate(eq_n, eq_da, 1.125) == pytest.approx(
            0.1375 / 0.075, abs=1e-9)
        assert expansion_rate(eq_n, eq_da, 0.875) == pytest.approx(
            0.1375 / 0.075, abs=1e-9)

    def test_sign_flip_raises(self):
        # the middle type's F(s) - (1-q) is negative under N and positive under TTC
        p = EconomyParams.from_config(SIGN_FLIP_CONFIG)
        eq_n, eq_ttc = solve(p, "n"), solve(p, "ttc")
        with pytest.raises(SignMismatchError):
            expansion_rate(eq_n, eq_ttc, 0.999667344957495)
        for omega in (0.9495747684167378, 1.0456958306238369):
            assert expansion_rate(eq_n, eq_ttc, omega) > 0.0

    def test_thresholds(self):
        p = example_economy()
        r_da = mx.rejection(p, "da")
        assert theorem2_threshold((mx.Mechanism.N, mx.Mechanism.DA), p) == \
            pytest.approx(1.0 / (r_da * (2.0 / 3.0)), abs=1e-12)
        assert theorem2_threshold((mx.Mechanism.N, mx.Mechanism.TTC), p) == \
            pytest.approx(1.0, abs=1e-12)
        assert theorem2_threshold((mx.Mechanism.DA, mx.Mechanism.TTC), p) == \
            pytest.approx(r_da * 2.0 / 3.0, abs=1e-12)


class TestCompare:
    def test_orderings(self):
        p = example_economy()
        c1 = {m: school_profile(solve(p, m)) for m in ("n", "da", "ttc")}
        # uniform F: N and DA coincide exactly; TTC is far more segregated
        assert compare(c1["n"], c1["da"]) == Comparison.EQUAL
        assert compare(c1["ttc"], c1["n"]) == Comparison.GREATER
        assert compare(c1["n"], c1["ttc"]) == Comparison.SMALLER


class TestCheckTheorems:
    def test_example_passes(self):
        report = check_theorems(example_economy())
        assert report.passed
        names = [n for n, _ in report.checks]
        assert "d^N < d^DA" in names
        assert "p^DA < p^TTC" in names
        assert "uniform: c1 profiles N = DA" in names

    def test_given_equilibria_give_the_same_report(self):
        # the equilibria handed in, unchecked, give the report of a checked
        # solve, and the Theorem 2 thresholds from their r are theorem2_threshold's
        rng = random.Random(4)
        for _ in range(20):
            p, eqs = random_economy(rng)
            report = check_theorems(p)
            assert check_theorems(p, solve_core(p, check=False)) == report
            assert check_theorems(p, [eqs[mech] for mech in mx.CORE]) == report
            for a, b in itertools.combinations(mx.CORE, 2):
                assert (theorem2_threshold((a, b), p)
                        == segregation._threshold(a, b, eqs[a].r, eqs[b].r, p))

    def test_kink_economy_passes(self):
        p = dataclasses.replace(example_economy(), cdf=SingleKink(0.3, 0.6))
        assert check_theorems(p).passed

    def test_power_economy_passes(self):
        p = dataclasses.replace(example_economy(), cdf=Power(0.5))
        assert check_theorems(p).passed

    @pytest.mark.parametrize("cdf, ranked", [
        (Uniform(), False), (SingleKink(0.5, 0.5), False), (Power(1.0), False),
        (SingleKink(0.4, 0.5), True), (Power(0.9), True),
    ], ids=["uniform", "diagonal_kink", "power_one", "kink", "power"])
    def test_binary_ranking_with_more_seats_than_rich(self, cdf, ranked):
        # binary wealth, g = 0, e = 1 and 1 - q < rho_p: DA is strictly more
        # segregated than N, except on uniform F, where the two seat the
        # same profile; a uniform F written as any class used to fail there
        p = dataclasses.replace(example_economy(), q=0.6, cdf=cdf)
        report = check_theorems(p)
        assert report.passed, report.failures()
        names = [name for name, _ in report.checks]
        assert ("binary 1-q<rho_p: school seg DA > N" in names) == ranked
        # the uniform equalities run on the shape of F, not its class
        assert ("uniform: c1 profiles N = DA" in names) == (not ranked)

    def test_every_bench_config_passes(self):
        # the benchmark's paper configs of seeds 1-7, twelve a pass and the
        # warm-up's: all four CDF families, each inside both assumptions
        configs = []
        for seed in range(1, 8):
            drawn, warm_up = draw_configs(seed)
            configs += [*drawn, warm_up]
        assert len(configs) == 91
        for cfg in configs:
            report = check_theorems(EconomyParams.from_config(cfg))
            assert report.passed, (cfg, report.failures())

    def test_every_uniform_kink_of_the_cube_passes(self):
        # the on-diagonal kinks of the default step-0.1 sweep-cube that pass
        # both assumptions: 1,152 of its 1,764 (9 per cell)
        grid = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        kinks = [x for x, y in zip(*single_kink_grid(0.1)) if x == y]
        checked = 0
        for rho_p, q, pi in itertools.product(grid, grid, [0.1, 0.2, 0.3, 0.4]):
            for x in kinks:
                p = EconomyParams(m=2, q=q, g=0.0, e=1.0, pi=pi,
                                  wealth=binary_wealth(rho_p), cdf=SingleKink(x, x))
                if not (check_assumption1(p).passed and check_assumption2(p).passed):
                    continue
                checked += 1
                report = check_theorems(p)
                assert report.passed, (rho_p, q, pi, x, report.failures())
                assert "uniform: school seg TTC > N" in [name for name, _ in report.checks]
        assert checked == 1152
