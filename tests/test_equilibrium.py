"""Equilibrium solvers: worked-example regressions, closed forms, policies."""
import dataclasses
import random
from fractions import Fraction

import pytest
from conftest import random_economy

import segsolve as ss
from segsolve.cdf import Power, SingleKink, Uniform
from segsolve.economy import EconomyParams, binary_wealth, example_economy
from segsolve.equilibrium import (AssumptionError, BracketFailureError,
                                  InteriorViolationError, solve,
                                  solve_closed_form_uniform, solve_policy,
                                  verify_lemma1)

# worked-example equilibrium values, derived from the closed forms:
# d = (1-q) - a with a = 0, -1/2, -2; p = r k d with k = 1, 2/3, 1/3
EXAMPLE = {
    "n": dict(r=1.0, d=0.6, p=0.6, cutoffs=(0.675, 0.525)),
    "da": dict(r=9.0 / 11.0, d=1.1, p=0.6, cutoffs=(0.7375, 0.4625)),
    "ttc": dict(r=1.0, d=2.6, p=13.0 / 15.0, cutoffs=(0.925, 0.275)),
}


class TestExampleEquilibria:
    @pytest.mark.parametrize("mech", ["n", "da", "ttc"])
    def test_values(self, mech):
        eq = solve(example_economy(), mech)
        want = EXAMPLE[mech]
        assert eq.r == pytest.approx(want["r"], abs=1e-9)
        assert eq.d == pytest.approx(want["d"], abs=1e-9)
        assert eq.p == pytest.approx(want["p"], abs=1e-9)
        got = tuple(s for _, s in eq.cutoffs)
        assert got == pytest.approx(want["cutoffs"], abs=1e-9)

    @pytest.mark.parametrize("mech", ["n", "da", "ttc"])
    def test_price_over_rejection(self, mech):
        # p / r = 9/15, 11/15, 13/15
        eq = solve(example_economy(), mech)
        want = {"n": 9.0, "da": 11.0, "ttc": 13.0}[mech] / 15.0
        assert eq.p / eq.r == pytest.approx(want, abs=1e-9)

    def test_expected_cutoff_is_market_clearing(self):
        for mech in ("n", "da", "ttc"):
            eq = solve(example_economy(), mech)
            assert eq.e_s == pytest.approx(0.6, abs=1e-9)

    def test_residual_small(self):
        eq = solve(example_economy(), "da")
        assert abs(eq.residual) < 1e-11
        assert eq.iterations <= 200

    def test_cutoff_lookup(self):
        eq = solve(example_economy(), "n")
        assert eq.cutoff(1.125) == pytest.approx(0.675, abs=1e-9)
        with pytest.raises(KeyError):
            eq.cutoff(2.0)

    def test_to_dict_shape(self):
        d = solve(example_economy(), "da").to_dict()
        assert d["mech"] == "da"
        assert {"r", "p", "d", "e_s", "cutoffs", "residual"} <= set(d)


class TestGeneralCdf:
    def test_sqrt_cdf_reference_points(self):
        # published dispersion/mean-cutoff pairs for F(x) = sqrt(x)
        p = dataclasses.replace(example_economy(), cdf=Power(0.5))
        want = {"n": (0.3614, 0.3614), "da": (0.3682, 0.8682),
                "ttc": (0.4237, 2.4237)}
        for mech, (es, d) in want.items():
            eq = solve(p, mech)
            assert eq.e_s == pytest.approx(es, abs=1e-3)
            assert eq.d == pytest.approx(d, abs=1e-3)

    def test_kink_cdf_clears_market(self):
        p = dataclasses.replace(example_economy(), cdf=SingleKink(0.3, 0.6))
        for mech in ("n", "da", "ttc"):
            eq = solve(p, mech, check=False)
            total = sum(rho * p.cdf.value(s)
                        for (_, s), (_, rho) in zip(eq.cutoffs, p.wealth.atoms))
            assert total == pytest.approx(1.0 - p.q, abs=1e-9)

    def test_poorer_types_have_higher_cutoffs(self):
        p = dataclasses.replace(example_economy(), cdf=Power(0.7))
        for mech in ("n", "da", "ttc"):
            eq = solve(p, mech)
            cuts = [s for _, s in eq.cutoffs]
            assert cuts == sorted(cuts, reverse=True)


class TestClosedFormUniform:
    def test_matches_bisection(self):
        p = example_economy()
        for mech in ("n", "da", "ttc"):
            cf = solve_closed_form_uniform(p, mech)
            bi = solve(p, mech)
            assert cf.d == pytest.approx(bi.d, abs=1e-10)
            assert cf.p == pytest.approx(bi.p, abs=1e-10)
            assert cf.residual == 0.0

    def test_exact_example_values(self):
        cf = solve_closed_form_uniform(example_economy(), "da")
        assert cf.r == pytest.approx(9.0 / 11.0, abs=1e-12)
        assert cf.d == pytest.approx(1.1, abs=1e-12)
        assert cf.cutoffs[0][1] == pytest.approx(0.7375, abs=1e-12)

    def test_rejects_nonuniform(self):
        p = dataclasses.replace(example_economy(), cdf=Power(0.5))
        with pytest.raises(ValueError):
            solve_closed_form_uniform(p, "n")

    def test_matches_rational_arithmetic(self):
        rng = random.Random(11)
        economies = [example_economy()]
        economies += [random_economy(rng, uniform_binary=True)[0] for _ in range(50)]
        for p in economies:
            for mech in ("n", "da", "ttc"):
                cf = solve_closed_form_uniform(p, mech)
                want = [float(v) for v in _rational_closed_form(p, mech)]
                got = [cf.r, cf.intercept, cf.d, cf.p] + [s for _, s in cf.cutoffs]
                assert got == pytest.approx(want, rel=0.0, abs=1e-14), (mech, p)


def _rational_closed_form(p, mech):
    """Uniform-F closed form in exact rational arithmetic over the float inputs."""
    q, g, e, pi, dq = (Fraction(v) for v in (p.q, p.g, p.e, p.pi, p.delta_q))
    one = Fraction(1)
    D = (one - pi) * (one - q - g) + pi * e
    S = pi * (e + g - (one - q))
    X = pi * (e - g - (one - q))
    r, a, kappa = {
        "n": (one, g, one),
        "da": ((D - S - dq) / D, g - pi * e / (one - pi), one - pi),
        "ttc": ((D - S - dq) / (D - X), (g - 2 * pi * e) / (one - 2 * pi), one - 2 * pi),
    }[mech]
    r = min(r, one)
    d = (one - q) - a
    return (r, a, d, r * kappa * d) + tuple(a + d * Fraction(w) for w, _ in p.wealth.atoms)


class TestFailureModes:
    def test_assumption_error(self):
        p = EconomyParams(m=2, q=0.4, g=0.3, e=0.6, pi=0.25,
                          wealth=binary_wealth(0.5), cdf=Uniform())
        with pytest.raises(AssumptionError):
            solve(p, "n")

    def test_check_false_skips_assumptions(self):
        # same economy solves (N cutoffs stay interior) when checks are off
        p = EconomyParams(m=2, q=0.4, g=0.05, e=0.9, pi=0.1,
                          wealth=binary_wealth(0.5), cdf=Uniform())
        eq = solve(p, "n", check=False)
        assert eq.r == 1.0

    def test_interior_violation(self):
        # wide wealth spread pushes the TTC poor cutoff past e - g
        p = EconomyParams(m=2, q=0.25, g=0.0, e=1.0, pi=0.45,
                          wealth=binary_wealth(0.5, spread=1.2),
                          cdf=Uniform())
        with pytest.raises((InteriorViolationError, BracketFailureError)):
            solve(p, "ttc", check=False)

    def test_policy_requires_example(self):
        p = EconomyParams(m=2, q=0.4, g=0.05, e=0.85, pi=0.25,
                          wealth=binary_wealth(0.5), cdf=Uniform())
        with pytest.raises(ValueError):
            solve_policy(p, "da_l")

    def test_solve_rejects_policy_mech(self):
        with pytest.raises(ValueError):
            solve(example_economy(), "da_l")


class TestPolicies:
    def test_lottery_fixed_point(self):
        # pooled lottery: r = 7/9, p = 0.5407, cutoffs ~ (0.714, 0.486)
        eq = solve_policy(example_economy(), "da_l")
        assert eq.r == pytest.approx(7.0 / 9.0, abs=1e-6)
        assert eq.p == pytest.approx(0.540740741, abs=1e-6)
        assert eq.cutoffs[0][1] == pytest.approx(0.7140625, abs=1e-6)
        assert eq.cutoffs[1][1] == pytest.approx(0.4859375, abs=1e-6)

    def test_weighted_lottery_fixed_point(self):
        eq = solve_policy(example_economy(), "da_wl")
        assert eq.r == pytest.approx(0.710875667, abs=1e-6)
        assert eq.cutoffs[0][1] == pytest.approx(0.922325229, abs=1e-6)
        # rich out-of-zone rejection is pinned at 1
        assert eq.r_by_omega[1] == (0.875, 1.0)

    def test_policy_market_clears(self):
        p = example_economy()
        for mech in ("da_l", "da_wl"):
            eq = solve_policy(p, mech)
            assert abs(eq.residual) < 1e-9

    def test_wl_widens_cutoff_gap(self):
        # restricting the lottery to the poor pushes the types apart
        base = solve_policy(example_economy(), "da_l")
        wl = solve_policy(example_economy(), "da_wl")
        gap = lambda eq: eq.cutoffs[0][1] - eq.cutoffs[1][1]
        assert gap(wl) > gap(base)


class TestLemma1:
    def test_example_all_mechanisms(self):
        p = example_economy()
        for mech in ("n", "da", "ttc"):
            assert verify_lemma1(p, mech).passed
