"""Flows, rejection probabilities, cutoff functionals, and utility gains."""
import ast
import graphlib
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segsolve as ss
from segsolve import mechanisms as mx
from segsolve.economy import EconomyParams, binary_wealth, example_economy
from segsolve.cdf import Power, Uniform

from conftest import policy_utility_gain, random_economy


def _clearing_flows(p):
    """D, S, X at any market-clearing cutoff profile, where F(s) = 1 - q."""
    return mx.flows_at(p, 1.0 - p.q, *(p.cdf.value(x) for x in mx.anchor_points(p)))


class TestFlows:
    def test_example_aggregates(self):
        # uniform F, q=0.4, g=0, e=1, pi=1/3:
        # D = (2/3)(0.6) + (1/3)(0+1) = 11/15, S = X = (1/3)(1-0.6) = 2/15
        D, S, X = _clearing_flows(example_economy())
        assert D == pytest.approx(11.0 / 15.0, abs=1e-12)
        assert S == pytest.approx(2.0 / 15.0, abs=1e-12)
        assert X == pytest.approx(2.0 / 15.0, abs=1e-12)

    def test_type_flows_at_market_clearing(self):
        # at F(s) = 1-q the conditional flows equal the aggregates
        p = example_economy()
        s = p.cdf.inverse(1.0 - p.q)
        anchors = [p.cdf.value(x) for x in mx.anchor_points(p)]
        D, S, X = mx.flows_at(p, p.cdf.value(s), *anchors)
        assert (D, S, X) == pytest.approx(_clearing_flows(p), abs=1e-12)

    def test_d_minus_s_minus_f_constant(self):
        p = example_economy()
        anchors = [p.cdf.value(x) for x in mx.anchor_points(p)]
        vals = []
        for s in np.linspace(0.1, 0.9, 9):
            D, S, _ = mx.flows_at(p, p.cdf.value(s), *anchors)
            vals.append(D - S - p.cdf.value(s))
        assert max(vals) - min(vals) < 1e-12


class TestRejection:
    def test_example_values(self):
        p = example_economy()
        assert mx.rejection(p, "n") == 1.0
        assert mx.rejection(p, "da") == pytest.approx(9.0 / 11.0, abs=1e-12)
        assert mx.rejection(p, "ttc") == pytest.approx(1.0, abs=1e-12)

    def test_extra_capacity_lowers_rejection(self):
        p = example_economy()
        cfg = p.to_config()
        cfg["delta_q"] = 0.05
        p2 = EconomyParams.from_config(cfg)
        assert mx.rejection(p2, "da") < mx.rejection(p, "da")

    def test_degenerate_rejection_raises(self):
        cfg = example_economy().to_config()
        cfg["delta_q"] = 0.9
        p = EconomyParams.from_config(cfg)
        with pytest.raises(mx.DegenerateChoiceError):
            mx.rejection(p, "da")

    def test_r_da_uniform_example(self):
        # (1-q-g) / ((1-pi)(1-q-g) + pi e) = 0.6 / (0.4 + 1/3) = 9/11
        assert mx.r_da_uniform(example_economy()) == pytest.approx(9.0 / 11.0, abs=1e-12)

    def test_r_da_uniform_matches_rejection_under_uniform(self):
        p = EconomyParams(m=2, q=0.45, g=0.03, e=0.9, pi=0.22,
                          wealth=binary_wealth(0.5), cdf=Uniform())
        assert mx.rejection(p, "da") == pytest.approx(mx.r_da_uniform(p), abs=1e-12)


class TestGamma:
    def test_example_values_at_clearing_signal(self):
        # gamma(0.6): N 0.6, DA (2/3)(0.6)+(1/3) = 11/15, TTC (1/3)(0.6)+2/3 = 13/15
        p = example_economy()
        assert mx.CORE_ALGEBRA["n"].gamma(0.6, p) == pytest.approx(9.0 / 15.0, abs=1e-12)
        assert mx.CORE_ALGEBRA["da"].gamma(0.6, p) == pytest.approx(11.0 / 15.0, abs=1e-12)
        assert mx.CORE_ALGEBRA["ttc"].gamma(0.6, p) == pytest.approx(13.0 / 15.0, abs=1e-12)

    def test_slope_and_intercept_consistent(self):
        p = example_economy()
        for mech in ("n", "da", "ttc"):
            a = mx.CORE_ALGEBRA[mech].intercept(p)
            k = mx.CORE_ALGEBRA[mech].kappa(p)
            # gamma is linear with root a and slope k
            assert mx.CORE_ALGEBRA[mech].gamma(a, p) == pytest.approx(0.0, abs=1e-12)
            assert mx.CORE_ALGEBRA[mech].gamma(a + 0.25, p) == pytest.approx(0.25 * k, abs=1e-12)

    def test_example_intercepts(self):
        p = example_economy()
        assert mx.CORE_ALGEBRA["n"].intercept(p) == pytest.approx(0.0, abs=1e-12)
        assert mx.CORE_ALGEBRA["da"].intercept(p) == pytest.approx(-0.5, abs=1e-12)
        assert mx.CORE_ALGEBRA["ttc"].intercept(p) == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("mech", mx.POLICY)
    def test_policy_mechanism_has_no_core_algebra(self, mech):
        # ValueError, not KeyError: the CLI maps ValueError to exit code 2
        p = example_economy()
        with pytest.raises(ValueError):
            mx.CORE_ALGEBRA[mech]
        with pytest.raises(ValueError):
            mx.rejection(p, mech)
        with pytest.raises(ValueError):
            mx.CORE_ALGEBRA[mech].gamma(0.5, p)


def _piecewise_delta_u(mech, r, p, s, omega, params):
    """delta_u as hand-written piecewise bodies, one per mechanism."""
    g, e, pi = params.g, params.e, params.pi
    da_mid = pi * (s + e - g) + (1.0 - 2.0 * pi) * (s - g)
    body = {
        "n": s - g,
        "da": np.where(s <= g, pi * (s + e - g), np.where(s <= e + g, da_mid, s - g)),
        "ttc": np.where(s <= g, 2.0 * pi * (e - g) + 0.0 * s,
                        np.where(s <= e - g, da_mid + pi * (e - g - s),
                                 np.where(s <= e + g, da_mid, s - g))),
    }[mech]
    return r * body - omega * p


class TestDeltaU:
    def test_envelope_matches_piecewise_bodies(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            e = rng.uniform(0.3, 1.0)
            g = rng.uniform(0.0, min(1.0 - e, 0.5 * e))
            p = EconomyParams(m=2, q=0.4, g=g, e=e, pi=rng.uniform(0.01, 0.49),
                              wealth=binary_wealth(0.5), cdf=Uniform())
            s = np.concatenate([rng.random(6), [0.0, g, e - g, e + g, 1.0]])
            for mech in ("n", "da", "ttc"):
                got = mx.delta_u(mech, 0.8, 0.3, s, 1.05, p)
                want = _piecewise_delta_u(mech, 0.8, 0.3, s, 1.05, p)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_policy_mechanism_rejected(self):
        with pytest.raises(ValueError):
            mx.delta_u("da_l", 0.8, 0.3, 0.5, 1.0, example_economy())

    def test_branch_joins_continuous(self):
        p = EconomyParams(m=2, q=0.4, g=0.05, e=0.85, pi=0.25,
                          wealth=binary_wealth(0.5), cdf=Power(0.7))
        h = 1e-9
        joins = {"n": (), "da": (p.g, p.e + p.g),
                 "ttc": (p.g, p.e - p.g, p.e + p.g)}
        for mech, points in joins.items():
            for s0 in points:
                lo = mx.delta_u(mech, 0.8, 0.3, s0 - h, 1.05, p)
                hi = mx.delta_u(mech, 0.8, 0.3, s0 + h, 1.05, p)
                assert abs(hi - lo) < 1e-7

    def test_monotone_in_s_above_g(self):
        p = example_economy()
        s = np.linspace(p.g, 1.0, 400)
        for mech in ("n", "da", "ttc"):
            du = mx.delta_u(mech, 0.9, 0.2, s, 1.125, p)
            assert np.all(np.diff(du) > 0.0)

    def test_decreasing_in_price_and_wealth_index(self):
        p = example_economy()
        for mech in ("n", "da", "ttc"):
            a = mx.delta_u(mech, 0.9, 0.2, 0.5, 1.125, p)
            b = mx.delta_u(mech, 0.9, 0.3, 0.5, 1.125, p)
            c = mx.delta_u(mech, 0.9, 0.2, 0.5, 0.875, p)
            assert b < a < c

    def test_zero_at_cutoff(self):
        # the equilibrium cutoff is exactly the indifference point
        p = example_economy()
        for mech in ("n", "da", "ttc"):
            eq = ss.solve(p, mech)
            for w, s in eq.cutoffs:
                assert mx.delta_u(mech, eq.r, eq.p, s, w, p) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            mx.delta_u("n", 0.0, 0.1, 0.5, 1.0, example_economy())

    def test_scalar_and_array_agree(self):
        p = example_economy()
        s = np.array([0.2, 0.5, 0.9])
        arr = mx.delta_u("da", 0.8, 0.3, s, 1.1, p)
        assert arr.shape == (3,)
        for i, si in enumerate(s):
            assert mx.delta_u("da", 0.8, 0.3, float(si), 1.1, p) == pytest.approx(arr[i])

    @given(r=st.floats(0.1, 1.0), price=st.floats(0.0, 0.8),
           w=st.floats(0.8, 1.2))
    @settings(max_examples=50, deadline=None)
    def test_property_weakly_increasing(self, r, price, w):
        p = example_economy()
        s = np.linspace(0.0, 1.0, 200)
        for mech in ("n", "da", "ttc"):
            du = mx.delta_u(mech, r, price, s, w, p)
            assert np.all(np.diff(du) >= -1e-12)


def _continuum_school(mech, s_cut, r, params, n=20_000):
    """(mass, quality) of school k for one type, integrated over the signal
    quantile u by the midpoint rule between the points where a rule flips.

    Straight from the seat rules: under N the residents (s > s_cut) attend.
    Otherwise an agent of zone k who ranks k first (fit s + eps > g), or a
    twin-zone agent who does (fit < -g, worth -fit at k), gets a seat if a
    resident of zone k, or under TTC a resident of the twin zone; anyone
    else who ranks k first gets one with probability 1 - r.
    """
    f, g, e, pi = params.cdf, params.g, params.e, params.pi
    flips = sorted({0.0, 1.0} | {f.value(x) for x in (g, s_cut, e - g, min(e + g, 1.0))})
    u, du = [], []
    for lo, hi in zip(flips, flips[1:]):
        u.append(lo + (hi - lo) * (np.arange(n) + 0.5) / n)
        du.append(np.full(n, (hi - lo) / n))
    s, du = f.ppf(np.concatenate(u)), np.concatenate(du)
    resident = s > s_cut
    mass = quality = 0.0
    for eps, prob in ((-e, pi), (0.0, 1.0 - 2.0 * pi), (e, pi)):
        fit = s + eps
        if mech == "n":
            seat_local, seat_twin = resident * 1.0, 0.0 * s
        else:
            seat_local = (fit > g) * np.where(resident, 1.0, 1.0 - r)
            seat_twin = (fit < -g) * np.where(resident & (mech == "ttc"), 1.0, 1.0 - r)
        mass += prob * np.sum(du * (seat_local + seat_twin))
        quality += prob * np.sum(du * (seat_local - seat_twin) * fit)
    return mass, quality


class TestSchoolQuality:
    def test_matches_seat_rules_on_random_economies(self):
        rng = random.Random(5)
        for _ in range(12):
            params, eqs = random_economy(rng)
            for mech in mx.CORE:
                algebra, r = mx.CORE_ALGEBRA[mech], mx.rejection(params, mech)
                # the equilibrium cutoffs, and N's as in the short-run rows
                for _, s in eqs[mech].cutoffs + eqs[mx.Mechanism.N].cutoffs:
                    mass, quality = _continuum_school(mech.value, s, r, params)
                    assert algebra.school_quality(s, r, params) == pytest.approx(quality, abs=1e-8)
                    assert algebra.school_mass(params.cdf.value(s), r, params) == pytest.approx(
                        mass, abs=1e-8)


def _hand_written_policy_delta_u(mech, r, p, s, omega, params):
    """The policy utility gain on the example as the three example-only
    bodies that `mechanisms.policy_gain` replaced."""
    base = (s + 1.0) / 3.0 + s / 3.0
    lottery = -(1.0 - r) * (1.0 - s) / 3.0 + r * base - omega * p
    if mech == "da_wl" and abs(omega - params.wealth.poorest) >= 1e-12:
        return base - omega * p
    return lottery


class TestPolicyDeltaU:
    def test_matches_hand_written_bodies(self):
        p = example_economy()
        s = np.linspace(0.0, 1.0, 101)
        for r in np.linspace(0.0, 1.0, 41)[1:]:
            for price in np.linspace(0.0, 2.0, 11):
                for omega in p.wealth.omegas:
                    for mech in mx.POLICY:
                        got = policy_utility_gain(mech, r, price, s, omega, p)
                        want = _hand_written_policy_delta_u(mech.value, r, price, s, omega, p)
                        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_da_l_at_r_one_matches_da(self):
        # with no rejection risk the lottery policy reduces to plain DA gains
        p = example_economy()
        s = np.linspace(0.0, 1.0, 50)
        got = policy_utility_gain("da_l", 1.0, 0.2, s, 1.125, p)
        want = mx.delta_u("da", 1.0, 0.2, s, 1.125, p)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_wl_rich_independent_of_r(self):
        p = example_economy()
        a = policy_utility_gain("da_wl", 0.9, 0.2, 0.5, 0.875, p)
        b = policy_utility_gain("da_wl", 0.5, 0.2, 0.5, 0.875, p)
        assert a == pytest.approx(b, abs=1e-12)

    def test_mechanism_enum(self):
        assert mx.Mechanism("da") is mx.Mechanism.DA
        assert set(mx.CORE) == {mx.Mechanism.N, mx.Mechanism.DA, mx.Mechanism.TTC}
        assert set(mx.POLICY) == {mx.Mechanism.DA_L, mx.Mechanism.DA_WL}


def _package_imports(path: Path, modules: set) -> set:
    """The modules of `modules` that the source at path imports, at module
    or function level, relatively or as segsolve.<module>."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # from . import a / from .a import x
            module = ("segsolve." if node.level else "") + (node.module or "")
            module = module.rstrip(".")
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("segsolve.")} & modules


def test_package_imports_are_acyclic():
    # the layers stack: no module imports, even inside a function, one that
    # imports it back; mechanisms, the primitives, imports none of them
    src = Path(ss.__file__).parent
    modules = {path.stem for path in src.glob("*.py")} - {"__init__", "__main__"}
    graph = {name: _package_imports(src / f"{name}.py", modules) for name in modules}
    assert graph["mechanisms"] == set()
    assert graph["economy"] >= {"mechanisms", "cdf"}  # the parser sees relative imports
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
