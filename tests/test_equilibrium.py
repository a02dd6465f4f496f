"""Equilibrium solvers: worked-example regressions, closed forms, policies."""
import dataclasses
import random
from fractions import Fraction

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import _random_wealth, random_concave_cdf, random_economy
from hypothesis import given, settings
from hypothesis import strategies as st

import segsolve as ss
import segsolve.equilibrium as equilibrium
from segsolve import mechanisms as mx
from segsolve.cdf import (PiecewiseLinearBatch, Power, SingleKink, Uniform,
                          single_kink_grid)
from segsolve.economy import EconomyParams, binary_wealth, example_economy
from segsolve.equilibrium import (AssumptionError, BracketFailureError,
                                  ConvergenceError, InteriorViolationError,
                                  MultipleFixedPointsError, NoFixedPointError,
                                  dispersion_root, interior, max_dispersion,
                                  solve, solve_policy, verify_lemma1)
from policy_reference import clear_price_reference

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


def _clamped_residual(params, a):
    f, atoms, target = params.cdf, params.wealth.atoms, 1.0 - params.q
    return lambda d: sum(rho * f.value(min(1.0, max(0.0, a + d * w)))
                         for w, rho in atoms) - target


class TestExactRoot:
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_root_on_random_concave_cdfs(self, seed):
        rng = random.Random(seed)
        e = rng.uniform(0.6, 1.0)
        params = EconomyParams(m=2, q=rng.uniform(0.2, 0.8), g=rng.uniform(0.0, min(0.1, 1.0 - e)),
                               e=e, pi=rng.uniform(0.05, 0.45), wealth=_random_wealth(rng),
                               cdf=random_concave_cdf(rng))
        a = mx.CORE_ALGEBRA[rng.choice(mx.CORE)].intercept(params)
        residual = _clamped_residual(params, a)
        d_max = max_dispersion(params, a)
        d = float(dispersion_root(params, params.cdf.batch, a)[0])
        if residual(0.0) > 0.0 or residual(d_max) < 0.0:
            assert math.isnan(d)
            return
        assert 0.0 <= d <= d_max
        assert abs(residual(d)) <= 1e-14
        # reference: bisection down to adjacent floats
        lo, hi = 0.0, d_max
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if residual(mid) < 0.0 else (lo, mid)
        assert d == pytest.approx(hi, rel=1e-12, abs=1e-12)

    def test_batch_matches_solve_on_kink_grid(self):
        # one kernel call over a grid gives solve's d on each kink, nan
        # exactly where solve finds no bracket, and cutoffs that fail the
        # interior test exactly where solve raises InteriorViolationError
        bases = (
            example_economy(),
            EconomyParams(m=2, q=0.45, g=0.05, e=0.9, pi=0.3,
                          wealth=binary_wealth(0.4), cdf=Uniform()),
            EconomyParams(m=2, q=0.25, g=0.0, e=1.0, pi=0.45,
                          wealth=binary_wealth(0.5, spread=1.2), cdf=Uniform()),
        )
        kink_x, kink_y = single_kink_grid(0.05)
        seen = set()
        for base, mech in itertools.product(bases, mx.CORE):
            kinks = SimpleNamespace(**{**vars(base),
                                       "cdf": PiecewiseLinearBatch.single_kinks(kink_x, kink_y)})
            a = mx.CORE_ALGEBRA[mech].intercept(base)
            d = dispersion_root(kinks, kinks.cdf, a)
            for x, y, d_batch in zip(kink_x.tolist(), kink_y.tolist(), d.tolist()):
                params = dataclasses.replace(base, cdf=SingleKink(x, y))
                try:
                    assert d_batch.hex() == solve(params, mech, check=False).d.hex()
                    seen.add("solved")
                except BracketFailureError:
                    assert math.isnan(d_batch)
                    seen.add("bracket")
                except InteriorViolationError:
                    assert not all(interior(base, a + d_batch * w) for w, _ in base.wealth.atoms)
                    seen.add("interior")
        assert seen == {"solved", "bracket", "interior"}

    def test_example_root_is_exact(self):
        # uniform F: the breakpoint solve lands on the closed form d = (1-q) - a
        p = example_economy()
        for mech in mx.CORE:
            eq = solve(p, mech)
            assert eq.d == pytest.approx((1.0 - p.q) - mx.CORE_ALGEBRA[mech].intercept(p),
                                         rel=0.0, abs=1e-15)
            assert eq.iterations == 0

    def test_power_bisection_raises_at_iteration_cap(self, monkeypatch):
        p = dataclasses.replace(example_economy(), cdf=Power(0.5))
        assert solve(p, "da").iterations > 3
        monkeypatch.setattr(equilibrium, "MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            solve(p, "da")


class TestClosedFormUniform:
    """Uniform F: `solve`'s exact kernel gives the closed form d = (1-q) - a."""

    def test_matches_bisection(self):
        # Power(1) is the uniform CDF, solved by bisection
        p = example_economy()
        for mech in ("n", "da", "ttc"):
            cf = solve(p, mech)
            bi = solve(dataclasses.replace(p, cdf=Power(1.0)), mech)
            assert bi.iterations > 0
            assert cf.d == pytest.approx(bi.d, abs=1e-10)
            assert cf.p == pytest.approx(bi.p, abs=1e-10)
            assert abs(cf.residual) <= 1e-15

    def test_exact_example_values(self):
        cf = solve(example_economy(), "da")
        assert cf.r == pytest.approx(9.0 / 11.0, abs=1e-12)
        assert cf.d == pytest.approx(1.1, abs=1e-12)
        assert cf.cutoffs[0][1] == pytest.approx(0.7375, abs=1e-12)

    def test_matches_rational_arithmetic(self):
        rng = random.Random(11)
        economies = [example_economy()]
        economies += [random_economy(rng, uniform_binary=True)[0] for _ in range(50)]
        for p in economies:
            for mech in ("n", "da", "ttc"):
                cf = solve(p, mech)
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

    def test_lottery_rejects_every_type_at_r(self):
        eq = solve_policy(example_economy(), "da_l")
        assert eq.r_by_omega == ((1.125, eq.r), (0.875, eq.r))

    @pytest.mark.parametrize("mech", ["da_l", "da_wl"])
    def test_cutoffs_zero_the_gain(self, mech):
        p = example_economy()
        rs = np.linspace(0.0, 1.0, 401)[1:]
        alpha, beta = equilibrium._policy_cutoffs(mx.Mechanism(mech), rs, p)
        for price in (0.0, 0.3, 1.1):
            for j, omega in enumerate(p.wealth.omegas):
                s = alpha[:, j] + beta[:, j] * price
                gain = mx.policy_delta_u(mech, rs, price, s, omega, p)
                np.testing.assert_allclose(gain, 0.0, rtol=0, atol=1e-15)

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

    @pytest.mark.parametrize("mech", ["da_l", "da_wl"])
    def test_matches_bisection_fixed_point(self, mech):
        # r and p of the earlier nested bisection, which bracketed r to 1e-12
        want = {"da_l": ("0x1.8e38e38e382e6p-1", "0x1.14dbf86a30b20p-1"),
                "da_wl": ("0x1.6bf7e53a6fc6ap-1", "0x1.2f5e027430ae0p-1")}[mech]
        eq = solve_policy(example_economy(), mech)
        assert eq.r == pytest.approx(float.fromhex(want[0]), rel=0.0, abs=1e-12)
        assert eq.p == pytest.approx(float.fromhex(want[1]), rel=0.0, abs=1e-12)
        # 64 points a round narrow the scan's 0.024-wide bracket below 1e-12 in 6
        assert eq.iterations == 6

    @pytest.mark.parametrize("mech", ["da_l", "da_wl"])
    def test_kernel_price_matches_bisection(self, mech):
        p = example_economy()
        rs = np.linspace(0.05, 0.999, 400)
        _, prices, cuts, _ = equilibrium._policy_gap(mx.Mechanism(mech), rs, p)
        corner = 0
        for r, price, row in zip(rs.tolist(), prices.tolist(), cuts.tolist()):
            assert price == pytest.approx(clear_price_reference(mech, r, p), rel=0.0, abs=1e-14)
            if price == 0.0:
                corner += 1
                continue
            res = sum(rho * p.cdf.value(min(1.0, max(0.0, s)))
                      for s, rho in zip(row, p.wealth.rhos)) - (1.0 - p.q)
            assert abs(res) <= 1e-15
        # DA_L clears at the p = 0 corner for r <= 0.147
        assert (corner > 0) == (mech == "da_l")

    def test_two_sign_changes_raise(self, monkeypatch):
        original = equilibrium._policy_gap

        def two_roots(mech, r, params):
            return ((r - 0.3) * (r - 0.7), *original(mech, r, params)[1:])

        monkeypatch.setattr(equilibrium, "_policy_gap", two_roots)
        with pytest.raises(MultipleFixedPointsError) as err:
            solve_policy(example_economy(), "da_l")
        assert isinstance(err.value, NoFixedPointError)
        (lo1, hi1), (lo2, hi2) = err.value.brackets
        assert lo1 < 0.3 < hi1 and lo2 < 0.7 < hi2

    def test_no_sign_change_raises(self, monkeypatch):
        original = equilibrium._policy_gap
        monkeypatch.setattr(equilibrium, "_policy_gap", lambda mech, r, params: (
            r + 1.0, *original(mech, r, params)[1:]))
        with pytest.raises(NoFixedPointError) as err:
            solve_policy(example_economy(), "da_wl")
        assert not isinstance(err.value, MultipleFixedPointsError)

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "POLICY_MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceError):
            solve_policy(example_economy(), "da_l")

    @pytest.mark.parametrize("mech", ["da_l", "da_wl"])
    def test_price_corner_at_fixed_point_raises(self, mech, monkeypatch):
        # raising every cutoff by 1 leaves the market overfull at p = 0 for
        # r near the fixed point, so the gap's root sits at the corner
        original = equilibrium._policy_cutoffs

        def raised(mech, r, params):
            alpha, beta = original(mech, r, params)
            return alpha + 1.0, beta

        monkeypatch.setattr(equilibrium, "_policy_cutoffs", raised)
        with pytest.raises(NoFixedPointError, match="p = 0 corner"):
            solve_policy(example_economy(), mech)


class TestLemma1:
    def test_example_all_mechanisms(self):
        p = example_economy()
        for mech in ("n", "da", "ttc"):
            assert verify_lemma1(p, mech).passed
