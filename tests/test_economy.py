"""Parameter containers, wealth distributions, and the assumption checks."""
import dataclasses
import math

import numpy as np
import pytest

import segsolve as ss
from segsolve.cdf import CdfError, Power, SingleKink, Uniform
from segsolve.economy import (EconomyError, EconomyParams, WealthDist,
                              binary_wealth, check_assumption1,
                              check_assumption2, example_economy,
                              is_example_profile, rejection_and_bounds)


class TestWealthDist:
    def test_sorted_poorest_first(self):
        w = WealthDist(((0.9, 0.5), (1.1, 0.5)))
        assert w.atoms[0][0] == 1.1
        assert w.poorest == 1.1
        assert w.poor_rho == 0.5

    def test_mean_must_be_one(self):
        with pytest.raises(EconomyError):
            WealthDist(((1.2, 0.5), (1.0, 0.5)))

    def test_probabilities_sum_to_one(self):
        with pytest.raises(EconomyError):
            WealthDist(((1.1, 0.4), (0.9, 0.4)))

    def test_distinct_omegas(self):
        with pytest.raises(EconomyError):
            WealthDist(((1.0, 0.5), (1.0, 0.5)))

    def test_positive_omegas(self):
        with pytest.raises(EconomyError):
            WealthDist(((-1.0, 0.5), (3.0, 0.5)))

    @pytest.mark.parametrize("atoms, message", [
        (((math.nan, 0.5), (0.875, 0.5)), "indices must be positive"),
        (((1.125, math.nan), (0.875, 0.5)), "probabilities must be positive"),
    ], ids=["nan index", "nan probability"])
    def test_nan_rejected(self, atoms, message):
        with pytest.raises(EconomyError, match=message):
            WealthDist(atoms)

    def test_is_binary(self):
        assert binary_wealth(0.5).is_binary()
        three = WealthDist(((1.1, 0.25), (1.0, 0.5), (0.9, 0.25)))
        assert not three.is_binary()

    def test_binary_wealth_mean_one(self):
        for rho in (0.2, 0.5, 0.8):
            w = binary_wealth(rho)
            assert sum(o * r for o, r in w.atoms) == pytest.approx(1.0, abs=1e-12)
            assert w.poor_rho == pytest.approx(rho)
            assert w.poorest > 1.0 > w.atoms[1][0]

    def test_example_wealth(self):
        w = example_economy().wealth
        assert w.atoms == ((1.125, 0.5), (0.875, 0.5))

    def test_columns_built_once_read_only(self):
        w = WealthDist(((1.0, 0.5), (1.2, 0.25), (0.8, 0.25)))
        for name, column in (("omegas", 0), ("rhos", 1)):
            array = getattr(w, name)
            assert getattr(w, name) is array, name
            assert not array.flags.writeable
            assert array.tolist() == [atom[column] for atom in w.atoms]
            with pytest.raises(ValueError):
                array[0] = 2.0
        # the arrays are not fields: equality and hashing stay on the atoms
        same = WealthDist(((0.8, 0.25), (1.2, 0.25), (1.0, 0.5)))
        assert w == same and hash(w) == hash(same)
        assert "omegas" not in repr(w)


class TestEconomyParams:
    def test_example_profile(self):
        p = example_economy()
        assert (p.m, p.q, p.g, p.e) == (2, 0.4, 0.0, 1.0)
        assert p.pi == pytest.approx(1.0 / 3.0)
        assert is_example_profile(p)

    def test_validation(self):
        base = example_economy().to_config()
        for bad in ({"q": 0.0}, {"q": 1.0}, {"pi": 0.5}, {"pi": 0.0},
                    {"m": 1}, {"g": -0.1}, {"e": 0.0}, {"delta_q": -0.1},
                    {"e": 0.9, "g": 0.2},
                    # non-integral m, booleans and strings are not numbers here
                    {"m": 2.7}, {"g": False}, {"delta_q": False}, {"q": "0.4"},
                    {"wealth": [[True, True]]}):
            cfg = dict(base, **bad)
            with pytest.raises(EconomyError):
                EconomyParams.from_config(cfg)

    def test_e_below_g_rejected(self):
        # F(e - g) would read a negative signal in check_assumption1
        with pytest.raises(EconomyError, match="less than g"):
            EconomyParams(m=2, q=0.4, g=0.5, e=0.2818, pi=0.3333,
                          wealth=binary_wealth(0.5), cdf=Uniform())

    def test_e_minus_g_above_one_rejected(self):
        # e + g passes its 1e-12 slack, but F(e - g) would read a signal past 1
        with pytest.raises(EconomyError, match="e - g must not exceed 1"):
            EconomyParams(m=2, q=0.4, g=0.0, e=1.0000000000005, pi=0.3,
                          wealth=binary_wealth(0.5), cdf=Uniform())

    @pytest.mark.parametrize("field, message", [
        ("g", "g must be nonnegative"), ("e", "e must be positive"),
        ("delta_q", "delta_q must be nonnegative"), ("m", "at least two"),
    ])
    def test_nan_rejected_on_direct_construction(self, field, message):
        with pytest.raises(EconomyError, match=message):
            dataclasses.replace(example_economy(), **{field: math.nan})

    @pytest.mark.parametrize("field, value, message", [
        ("delta_q", math.inf, "delta_q must be finite"),
        ("m", math.inf, "whole number"),
        ("m", 2.5, "whole number"),
        ("m", 3.0, "whole number"),
    ])
    def test_non_finite_or_fractional_rejected_on_direct_construction(
            self, field, value, message):
        with pytest.raises(EconomyError, match=message):
            dataclasses.replace(example_economy(), **{field: value})

    @pytest.mark.parametrize("field", ["m", "q", "delta_q", "g", "e", "pi"])
    @pytest.mark.parametrize("value", ["0.4", None, True])
    def test_non_number_rejected_on_direct_construction(self, field, value):
        # a string used to raise a bare TypeError from a comparison
        with pytest.raises(EconomyError, match=f"^{field} must be a number"):
            dataclasses.replace(example_economy(), **{field: value})

    @pytest.mark.parametrize("field, value, error, message", [
        ("cdf", {"type": "uniform"}, CdfError, "cdf must be a SignalCdf"),
        ("cdf", None, CdfError, "cdf must be a SignalCdf"),
        ("wealth", [[1.0, 1.0]], EconomyError, "wealth must be a WealthDist"),
        ("wealth", ((1.0, 1.0),), EconomyError, "wealth must be a WealthDist"),
    ])
    def test_cdf_and_wealth_checked_on_direct_construction(self, field, value, error, message):
        # a dict cdf failed a bare assert in cdf.validate (an AttributeError
        # under python -O), and a list wealth was accepted and failed later
        with pytest.raises(error, match=message):
            dataclasses.replace(example_economy(), **{field: value})

    def test_validate_rejects_a_non_cdf(self):
        from segsolve.cdf import validate
        with pytest.raises(CdfError, match="not a signal CDF"):
            validate({"type": "uniform"})

    def test_numpy_integer_m_accepted(self):
        assert dataclasses.replace(example_economy(), m=np.int64(3)).m == 3

    def test_non_finite_config_rejected(self):
        base = example_economy().to_config()
        for bad in ({"e": math.nan}, {"g": math.nan}, {"delta_q": math.nan},
                    {"e": math.inf}, {"pi": -math.inf},
                    {"wealth": [[math.nan, 0.5], [0.875, 0.5]]}):
            with pytest.raises(EconomyError, match="must be finite"):
                EconomyParams.from_config(dict(base, **bad))
        for cdf in ({"type": "power", "alpha": math.nan},
                    {"type": "single_kink", "x": 0.3, "y": math.inf},
                    {"type": "piecewise", "knots": [[0, 0], [0.5, math.nan], [1, 1]]}):
            with pytest.raises(CdfError, match="must be finite"):
                EconomyParams.from_config(dict(base, cdf=cdf))

    def test_config_round_trip(self):
        p = EconomyParams(m=3, q=0.3, g=0.05, e=0.8, pi=0.2, delta_q=0.02,
                          wealth=binary_wealth(0.4), cdf=SingleKink(0.3, 0.6))
        q = EconomyParams.from_config(p.to_config())
        assert q.to_config() == p.to_config()

    def test_unknown_field_rejected(self):
        cfg = example_economy().to_config()
        cfg["bogus"] = 1
        with pytest.raises(EconomyError):
            EconomyParams.from_config(cfg)

    def test_missing_field_rejected(self):
        cfg = example_economy().to_config()
        del cfg["pi"]
        with pytest.raises(EconomyError):
            EconomyParams.from_config(cfg)

    def test_delta_q_optional(self):
        cfg = example_economy().to_config()
        del cfg["delta_q"]
        assert EconomyParams.from_config(cfg).delta_q == 0.0


class TestAssumption1:
    def test_example_boundary(self):
        rep = check_assumption1(example_economy())
        assert rep.passed
        assert rep.boundary  # F(e-g) = F(1) = 1 exactly

    def test_interior_pass(self):
        p = EconomyParams(m=2, q=0.4, g=0.05, e=0.85, pi=0.25,
                          wealth=binary_wealth(0.5), cdf=Power(0.7))
        rep = check_assumption1(p)
        assert rep.passed
        assert not rep.boundary

    def test_failure_when_fg_large(self):
        # F(g) = g = 0.3 is not below 1 - q = 0.25
        p = EconomyParams(m=2, q=0.75, g=0.3, e=0.7, pi=0.25,
                          wealth=binary_wealth(0.5), cdf=Uniform())
        rep = check_assumption1(p)
        assert not rep.passed
        assert "F(g) < 1-q" in rep.failures()

    def test_failure_when_feg_small(self):
        # F(e-g) = 0.3 is below 1 - q = 0.6
        p = EconomyParams(m=2, q=0.4, g=0.3, e=0.6, pi=0.25,
                          wealth=binary_wealth(0.5), cdf=Uniform())
        rep = check_assumption1(p)
        assert not rep.passed
        assert "1-q < F(e-g)" in rep.failures()


class TestAssumption2:
    def test_example_passes(self):
        assert check_assumption2(example_economy()).passed

    def test_mech_subset(self):
        rep = check_assumption2(example_economy(), mechs=("n",))
        assert rep.passed
        assert all(name.startswith("n:") for name, _ in rep.checks)

    def test_price_bounds_ordered(self):
        p = example_economy()
        for mech in ("n", "da", "ttc"):
            p_hat, p_bar = rejection_and_bounds(p, mech)[1:]
            assert 0.0 <= p_hat <= p_bar

    def test_example_price_bounds_n(self):
        # N: p_hat = F^{-1}(1-q) - g = 0.6, p_bar = 1 - q - g = 0.6
        p_hat, p_bar = rejection_and_bounds(example_economy(), "n")[1:]
        assert p_hat == pytest.approx(0.6, abs=1e-12)
        assert p_bar == pytest.approx(0.6, abs=1e-12)
