"""Equilibrium solvers: worked-example regressions, closed forms, policies."""
import dataclasses
import random
from fractions import Fraction

import itertools
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (_random_wealth, policy_utility_gain, random_concave_cdf,
                      random_economy, random_knot_batch)
from hypothesis import given, settings
from hypothesis import strategies as st

import segsolve as ss
import segsolve.equilibrium as equilibrium
from segsolve import mechanisms as mx
from segsolve.cdf import (PiecewiseLinear, PiecewiseLinearBatch, Power, SingleKink,
                          Uniform, single_kink_grid)
from segsolve.economy import (EconomyError, EconomyParams, binary_wealth,
                              example_economy)
from segsolve.equilibrium import (AssumptionError, BracketFailureError,
                                  ConvergenceError, InteriorViolationError,
                                  MultipleFixedPointsError, NoFixedPointError,
                                  dispersion_root, interior, max_dispersion,
                                  solve, solve_core, solve_policy, verify_lemma1)
from kernel_reference import PiecewiseLinearBatchReference, affine_root_reference
from lemma1_reference import verify_lemma1_reference
from policy_reference import clear_price_reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import draw_configs  # noqa: E402  the benchmark's seeded configs, read only

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
        d = float(dispersion_root(params, params.cdf.batch, [[a]])[0, 0])
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

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_affine_root_matches_reference(self, seed):
        # bit for bit on random rows, one CDF per row or one shared by all.
        # Of the last four rows the first brackets a root, from F = 0 at
        # x = 0 to F = 1 at x_max, and the others bracket nothing, so give
        # nan: x_max = 0, cutoffs above the last knot from x = 0 on, and
        # cutoffs below the first knot up to x_max
        rng = random.Random(seed)
        k, rows, types = rng.randint(2, 6), rng.randint(1, 6), rng.randint(1, 3)
        rhos = np.array([rng.uniform(0.2, 1.0) for _ in range(types)])
        rhos /= rhos.sum()
        target = rng.uniform(0.05, 0.95)
        alpha = np.array([[rng.uniform(-0.5, 0.6) for _ in range(types)] for _ in range(rows)]
                         + [[0.0] * types, [0.0] * types, [2.0] * types, [-1.0] * types])
        beta = np.array([[rng.uniform(0.1, 2.0) for _ in range(types)] for _ in range(rows + 4)])
        x_max = np.array([rng.uniform(0.0, 3.0) for _ in range(rows)] + [20.0, 0.0, 1.0, 0.01])
        for cdf_rows in (rows + 4, 1):
            xs, ys = random_knot_batch(rng, k, cdf_rows)
            got = equilibrium.affine_root(PiecewiseLinearBatch(xs, ys), rhos, alpha, beta,
                                          x_max, target)
            want = affine_root_reference(PiecewiseLinearBatchReference(xs, ys), rhos, alpha,
                                         beta, x_max, target)
            assert got.tobytes() == want.tobytes()
            assert 0.0 < got[-4] < 20.0
            assert np.isnan(got[-3:]).all()

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
            d = dispersion_root(kinks, kinks.cdf, np.full((len(kink_x), 1), a))[:, 0]
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


def _hexes(values) -> list[str]:
    return list(map(float.hex, np.asarray(values, dtype=float).ravel().tolist()))


def _spy_knots(monkeypatch) -> list[int]:
    """The number of knot columns of each affine_root call whose
    breakpoints are evaluated."""
    seen, kernel = [], equilibrium.affine_root

    def spy(cdfs, rhos, alpha, beta, x_max, target, knots=None):
        seen.append((cdfs.xs if knots is None else knots).shape[1])
        return kernel(cdfs, rhos, alpha, beta, x_max, target, knots)
    monkeypatch.setattr(equilibrium, "affine_root", spy)
    return seen


class TestMechanismAxis:
    """dispersion_root with a mechanism axis in each row gives, bit for bit,
    what one call per mechanism gives, and leaving out the last knot's
    breakpoints gives what evaluating them gives."""

    @staticmethod
    def _check(params, cdfs, a):
        together = dispersion_root(params, cdfs, a)
        assert together.shape == a.shape
        for i in range(a.shape[1]):
            assert _hexes(together[:, i]) == _hexes(dispersion_root(params, cdfs, a[:, i:i + 1]))
        # every knot's breakpoints, none left out
        omegas = np.asarray(params.wealth.omegas)
        full = equilibrium.affine_root(
            cdfs, params.wealth.rhos, a[..., None], omegas.reshape(-1, 1, omegas.shape[-1]),
            max_dispersion(params, a.T).T, 1.0 - np.asarray(params.q)[..., None])
        assert _hexes(together) == _hexes(full)
        return together

    @staticmethod
    def _intercepts(params, rows, mechs=mx.CORE) -> np.ndarray:
        a = np.empty((rows, len(mechs)))
        for i, mech in enumerate(mechs):
            a[:, i] = mx.CORE_ALGEBRA[mech].intercept(params)
        return a

    def test_single_kink_grid(self, monkeypatch):
        seen = _spy_knots(monkeypatch)
        kink_x, kink_y = single_kink_grid(0.05)
        cdfs = PiecewiseLinearBatch.single_kinks(kink_x, kink_y)
        solved = 0
        for base in (example_economy(),
                     EconomyParams(m=2, q=0.45, g=0.05, e=0.9, pi=0.3,
                                   wealth=binary_wealth(0.4), cdf=Uniform())):
            d = self._check(base, cdfs, self._intercepts(base, len(kink_x)))
            solved += np.isfinite(d).sum()
        assert solved > 0
        # the single kinks' last knot, 1, is at or past e - g: its
        # breakpoints are left out on each mechanism-axis call
        assert seen[0] == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_random_concave_cdfs(self, seed):
        rng = random.Random(seed)
        for k in (2, 3, 4, 6):
            e = rng.uniform(0.6, 1.0)
            params = EconomyParams(m=2, q=rng.uniform(0.2, 0.8),
                                   g=rng.uniform(0.0, min(0.1, 1.0 - e)), e=e,
                                   pi=rng.uniform(0.05, 0.45), wealth=_random_wealth(rng),
                                   cdf=Uniform())
            xs, ys = random_knot_batch(rng, k, 30)
            self._check(params, PiecewiseLinearBatch(xs, ys), self._intercepts(params, 30))

    def test_economy_columns_rows(self):
        import segsolve.sweep as sweep
        economies = sweep.cube_economies([0.3, 0.6], [0.3, 0.5], [0.2, 0.4])
        kink_x, kink_y = single_kink_grid(0.1)
        cells = np.repeat(np.arange(len(economies.q)), len(kink_x))
        rows = economies.take(cells)
        cdfs = PiecewiseLinearBatch.single_kinks(*(np.tile(v, len(economies.q))
                                                   for v in (kink_x, kink_y)))
        self._check(rows, cdfs, self._intercepts(rows, len(cells), sweep.MECHS))

    def test_last_knot_short_of_one_keeps_its_breakpoints(self, monkeypatch):
        # validation accepts a last knot within 1e-15 of 1, which lies
        # short of e - g = 1, so its breakpoints may not clip onto d_max
        f = PiecewiseLinear(((0.0, 0.0), (0.3, 0.6), (0.9999999999999999, 1.0)))
        params = dataclasses.replace(example_economy(), cdf=f)
        seen = _spy_knots(monkeypatch)
        eqs = list(solve_core(params))
        assert seen == [3]
        batch = PiecewiseLinearBatchReference(np.array([f._xs]), np.array([f._ys]))
        for eq in eqs:
            assert eq.d.hex() == solve(params, eq.mech).d.hex()
            want = affine_root_reference(batch, params.wealth.rhos, [[eq.intercept]],
                                         [params.wealth.omegas],
                                         max_dispersion(params, eq.intercept), 1.0 - params.q)
            assert eq.d.hex() == float(want[0]).hex()


def _outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call()
    except (equilibrium.SolveError, mx.DegenerateChoiceError) as exc:
        return type(exc), str(exc)


def _each(equilibria):
    """The outcome of each equilibrium the iterator yields, until it raises."""
    out = []
    while True:
        got = _outcome(lambda: next(equilibria, None))
        if got is None:
            return out
        out.append(got)
        if isinstance(got, tuple):
            return out


class TestSolveCore:
    """One pass over an economy gives what one `solve` per mechanism gives."""

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_roots_match_one_at_a_time(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            params, _ = random_economy(rng)
            if rng.random() < 0.5:
                params = dataclasses.replace(params, cdf=random_concave_cdf(rng))
            together = _each(solve_core(params))
            alone = []
            for mech in mx.CORE:  # up to the first failure, as solve_core raises it
                alone.append(_outcome(lambda: solve(params, mech)))
                if isinstance(alone[-1], tuple):
                    break
            assert together == alone
            for eq in together:
                if isinstance(eq, equilibrium.Equilibrium) and eq.iterations == 0:
                    root = dispersion_root(params, params.cdf.batch, [[eq.intercept]])
                    assert eq.d.hex() == float(root[0, 0]).hex()

    def test_unchecked_kink_grid_matches_one_at_a_time(self):
        # every outcome on the step-0.05 kink grid, bracket and interior
        # failures included, is the one a solve of that mechanism alone gives
        base = EconomyParams(m=2, q=0.25, g=0.0, e=1.0, pi=0.45,
                             wealth=binary_wealth(0.5, spread=1.2), cdf=Uniform())
        seen = set()
        for x, y in zip(*(v.tolist() for v in single_kink_grid(0.05))):
            params = dataclasses.replace(base, cdf=SingleKink(x, y))
            together = _each(solve_core(params, mx.CORE, check=False))
            for mech, got in zip(mx.CORE, together):
                want = _outcome(lambda: solve(params, mech, check=False))
                assert got == want
                seen.add(want[0] if isinstance(want, tuple) else "solved")
        assert seen == {"solved", BracketFailureError, InteriorViolationError}

    def test_failure_raised_in_order(self):
        # TTC fails assumption 2 here; N before it and DA after it solve
        p = dataclasses.replace(example_economy(), q=0.8)
        it = solve_core(p, ("n", "ttc", "da"))
        assert next(it) == solve(p, "n")
        with pytest.raises(AssumptionError, match="assumption 2 fails for ttc: "):
            next(it)
        assert tuple(solve_core(p, ("da", "n"))) == (solve(p, "da"), solve(p, "n"))

    def test_assumption1_failure_for_every_mechanism(self):
        p = EconomyParams(m=2, q=0.4, g=0.3, e=0.6, pi=0.25,
                          wealth=binary_wealth(0.5), cdf=Uniform())
        for mechs in (mx.CORE, ("ttc",)):
            with pytest.raises(AssumptionError, match="^assumption 1 fails: "):
                next(solve_core(p, mechs))

    def test_repeated_mechanism(self):
        p = example_economy()
        assert tuple(solve_core(p, ("da", "n", "da"))) == (solve(p, "da"), solve(p, "n"),
                                                          solve(p, "da"))

    def test_rejects_policy_mechanism(self):
        with pytest.raises(ValueError):
            solve_core(example_economy(), ("n", "da_l"))

    def test_outcome_does_not_depend_on_m(self):
        # the continuum's m schools are symmetric, so the equilibrium is one
        # profile for all of them: r, d, p and the cutoffs are the same bits
        # at m = 2, 3, 4 and 7, on the example, on 30 random economies and on
        # the benchmark's paper configs of seeds 1-3 (twelve a pass and the
        # warm-up's, 12 of them Power, solved by bisection)
        rng = random.Random(15)
        economies = [example_economy()] + [random_economy(rng)[0] for _ in range(30)]
        bench = []
        for seed in (1, 2, 3):
            drawn, warm_up = draw_configs(seed)
            bench += [EconomyParams.from_config(cfg) for cfg in (*drawn, warm_up)]
        assert len(bench) == 39 and sum(isinstance(p.cdf, Power) for p in bench) == 12
        for params in economies + bench:
            want = [repr((eq.r, eq.d, eq.p, eq.cutoffs)) for eq in solve_core(params)]
            for m in (3, 4, 7):
                got = [repr((eq.r, eq.d, eq.p, eq.cutoffs))
                       for eq in solve_core(dataclasses.replace(params, m=m))]
                assert got == want, (params, m)


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
                gain = policy_utility_gain(mech, rs, price, s, omega, p)
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
        # every root is exact, as for a piecewise-linear solve
        assert eq.iterations == 0

    def test_lottery_rate_is_exact(self):
        # the vacated seats pi q over the whole n0 mass 1 - q
        p = example_economy()
        r = solve_policy(p, "da_l").r
        assert abs(r - (1.0 - p.pi * p.q / (1.0 - p.q))) <= 2 * math.ulp(r)

    def test_weighted_lottery_is_exact(self):
        # the example's DA_WL fixed point solved to 40 digits (mpmath findroot
        # on the clearing and seat-accounting equations, q = 0.4, pi = 1/3)
        eq = solve_policy(example_economy(), "da_wl")
        r = 0.7108756669838427637543596409960824736203
        p = 0.5925141112168364768070087692209163800957
        assert abs(eq.r - r) <= 2 * math.ulp(r)
        assert abs(eq.p - p) <= 2 * math.ulp(p)

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
        # two enumerated roots that both verify: the error names each
        original = equilibrium._policy_gap
        monkeypatch.setattr(equilibrium, "_policy_roots", lambda mech, params: ([0.3, 0.7], 0.0))
        monkeypatch.setattr(equilibrium, "_policy_gap", lambda mech, r, params: (
            (r - 0.3) * (r - 0.7), *original(mech, r, params)[1:]))
        with pytest.raises(MultipleFixedPointsError, match=r"r = 0\.3, 0\.7") as err:
            solve_policy(example_economy(), "da_l")
        assert isinstance(err.value, NoFixedPointError)
        assert err.value.brackets == ((0.3, 0.3), (0.7, 0.7))

    def test_no_sign_change_raises(self, monkeypatch):
        original = equilibrium._policy_roots
        monkeypatch.setattr(equilibrium, "_policy_roots", lambda mech, params: (
            [], original(mech, params)[1]))
        with pytest.raises(NoFixedPointError) as err:
            solve_policy(example_economy(), "da_wl")
        assert not isinstance(err.value, MultipleFixedPointsError)

    def test_unverified_root_raises(self, monkeypatch):
        # a root 1e-9 off leaves a gap of about 1e-9, above the 1e-12 allowed
        r = solve_policy(example_economy(), "da_wl").r
        monkeypatch.setattr(equilibrium, "_policy_roots", lambda mech, params: ([r + 1e-9], 0.0))
        with pytest.raises(NoFixedPointError, match="leaves a gap"):
            solve_policy(example_economy(), "da_wl")

    @pytest.mark.parametrize("mech", ["da_l", "da_wl"])
    def test_fixed_point_on_a_knot(self, mech, monkeypatch):
        # a knot on the diagonal at a fixed-point cutoff leaves F uniform and
        # puts the root on the border of two pieces, where it is found once
        monkeypatch.setattr(equilibrium, "is_example_profile", lambda params: True)
        want = solve_policy(example_economy(), mech)
        for _, s in want.cutoffs:
            eq = solve_policy(dataclasses.replace(example_economy(), cdf=SingleKink(s, s)), mech)
            assert eq.r == pytest.approx(want.r, rel=0.0, abs=1e-15)
            assert eq.p == pytest.approx(want.p, rel=0.0, abs=1e-15)

    def test_zero_rate_is_not_a_corner(self, monkeypatch):
        # the lottery's pool never exceeds the vacated seats, so the gap is r
        # itself on (0, 1]; p = 0 overfills the market near r = 0, but the
        # gap does not cross zero there
        monkeypatch.setattr(equilibrium, "is_example_profile", lambda params: True)
        p = EconomyParams.from_config(ZERO_RATE_CONFIG)
        rs = np.linspace(1e-4, 0.9999, 2001)
        gaps, _, _, at_zero = equilibrium._policy_gap(mx.Mechanism.DA_WL, rs, p)
        assert (gaps == rs).all() and at_zero[0] > 0.0
        with pytest.raises(NoFixedPointError, match="no rejection fixed point"):
            solve_policy(p, "da_wl")

    @pytest.mark.parametrize("mech", ["da_l", "da_wl"])
    def test_price_corner_at_fixed_point_raises(self, mech, monkeypatch):
        # the gap r - implied_r crosses zero once, where the market clears
        # only at p = 0 (it is overfull there)
        monkeypatch.setattr(equilibrium, "is_example_profile", lambda params: True)
        p = EconomyParams.from_config(CORNER_CONFIG)
        rs = np.linspace(1e-4, 0.9999, 2001)
        gaps, _, _, at_zero = equilibrium._policy_gap(mx.Mechanism(mech), rs, p)
        (i,) = np.flatnonzero(np.diff(gaps <= 0.0))
        assert at_zero[i] > 0.0 and at_zero[i + 1] > 0.0
        assert equilibrium._policy_roots(mx.Mechanism(mech), p)[0] == []
        with pytest.raises(NoFixedPointError, match="p = 0 corner"):
            solve_policy(p, mech)

    def test_power_cdf_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "is_example_profile", lambda params: True)
        p = dataclasses.replace(example_economy(), cdf=Power(0.7))
        for mech in mx.POLICY:
            with pytest.raises(ss.SolveError, match="Power"):
                solve_policy(p, mech)

    def test_fixed_point_below_the_old_scan(self, monkeypatch):
        # DA_WL's gap is r - 0.04416 at a constant price 0.4216 here; the 40
        # rates that once bracketed the fixed point started at r = 0.05. The
        # richest type's cutoff there, 1.8455, lies past e - g, so
        # solve_policy rejects the fixed point as _equilibrium would
        monkeypatch.setattr(equilibrium, "is_example_profile", lambda params: True)
        params = EconomyParams.from_config(LOW_RATE_CONFIG)
        roots, _ = equilibrium._policy_roots(mx.Mechanism.DA_WL, params)
        assert roots == [pytest.approx(0.04416023298028049, abs=1e-12)]
        gaps, prices, _, _ = equilibrium._policy_gap(mx.Mechanism.DA_WL, np.array(roots), params)
        assert abs(gaps[0]) < 1e-12 and prices[0] == pytest.approx(0.4216, abs=1e-4)
        with pytest.raises(InteriorViolationError, match=r"cutoff 1\.8455 for omega=1\.0566"):
            solve_policy(params, "da_wl")


# the DA_L and DA_WL fixed points of this economy clear only at p = 0
CORNER_CONFIG = {"m": 2, "q": 0.74, "g": 0.0, "e": 0.88, "pi": 0.42,
                 "wealth": [[1.0144, 0.7], [0.9664, 0.3]], "cdf": {"type": "uniform"}}
# DA_WL: the poorest type's n0 mass stays below the vacated seats pi q
ZERO_RATE_CONFIG = {
    "m": 2, "q": 0.7366531360374875, "g": 0.06861029169497633, "e": 0.9072868975765855,
    "pi": 0.36230903454445135,
    "wealth": [[1.0317078346502155, 0.2765769970826961], [1.0246586660353847, 0.2124393027948391],
               [0.9942649345558081, 0.17783634907502732], [0.9610135744113771, 0.3331473510474374]],
    "cdf": {"type": "single_kink", "x": 0.6471725312442375, "y": 0.8269385283193493}}
# a seeded bench config (draw_configs(6), the sixth) with three wealth types
LOW_RATE_CONFIG = {
    "m": 2, "q": 0.551590720825706, "g": 0.06271266033128471, "e": 0.778444962046129,
    "pi": 0.37596151547457474,
    "wealth": [[0.979649795013341, 0.44643515898036484], [0.9904835486848975, 0.33660705114870276],
               [1.0566393657512323, 0.21695778987093248]],
    "cdf": {"type": "single_kink", "x": 0.5605837395347567, "y": 0.6403296545856169}}


def _scan_crossings(mech, params, rs):
    """The (lo, hi) of each sign change of the gap on the grid rs, split by
    whether the market clears at p = 0 at both ends (the corner)."""
    gaps, _, _, at_zero = equilibrium._policy_gap(mech, rs, params)
    changes = np.flatnonzero(np.diff(gaps <= 0.0))
    corner = [i for i in changes if at_zero[i] >= 0.0 and at_zero[i + 1] >= 0.0]
    inner = [(rs[i], rs[i + 1]) for i in changes if i not in corner]
    return inner, len(corner)


def test_policy_roots_match_a_fine_scan(monkeypatch):
    """On 150 piecewise-linear economies, a third of them with a random
    concave F (flat-topped one time in three), each policy's enumerated
    roots fall one to each sign change of the gap on a 2,001-point grid
    of (1e-4, 0.9999), and solve_policy names the corner exactly when
    the grid's crossing lies there. A lone root whose cutoffs leave
    (g, e - g) is rejected as interior."""
    monkeypatch.setattr(equilibrium, "is_example_profile", lambda params: True)
    rng = random.Random(20260)
    rs = np.linspace(1e-4, 0.9999, 2001)
    seen, outcomes = 0, {"solved": 0, "interior": 0, "corner": 0, "none": 0}
    while seen < 150:
        params, _ = random_economy(rng)
        if not isinstance(params.cdf, ss.PiecewiseLinear):
            continue
        if seen % 3 == 0:
            try:
                params = dataclasses.replace(params, cdf=random_concave_cdf(rng))
            except EconomyError:
                continue
        seen += 1
        for mech in mx.POLICY:
            roots, _ = equilibrium._policy_roots(mech, params)
            inner, corner = _scan_crossings(mech, params, rs)
            inside = [r for r in roots if rs[0] < r < rs[-1]]
            assert len(inside) == len(inner), (params, mech, roots, inner)
            assert all(lo <= r <= hi for r, (lo, hi) in zip(inside, inner))
            try:
                eq = solve_policy(params, mech)
                outcomes["solved"] += 1
                assert (eq.r,) == tuple(roots) and not corner
            except InteriorViolationError:
                outcomes["interior"] += 1
                assert len(roots) == 1 and not corner, (params, mech, roots)
                _, _, cuts, _ = equilibrium._policy_gap(mech, np.array(roots), params)
                assert not np.all(interior(params, cuts)), (params, mech, cuts)
            except NoFixedPointError as err:
                named = "p = 0 corner" in str(err)
                outcomes["corner" if named else "none"] += 1
                assert named == bool(corner), (params, mech, err)
    assert outcomes["solved"] + outcomes["interior"] > 250, outcomes
    assert outcomes["interior"] > 0 and outcomes["corner"] > 0, outcomes


class TestLemma1:
    def test_example_all_mechanisms(self):
        p = example_economy()
        for mech in ("n", "da", "ttc"):
            assert verify_lemma1(p, mech).passed

    @pytest.mark.parametrize("wiggle", [None, 0.5, 1.0])
    def test_matches_mask_reference(self, wiggle, monkeypatch):
        # the same names and verdicts as the mask-based body, or the same
        # error: on valid economies, most with g > 0, on raw draws that need
        # not pass either assumption, and with g 1e-12 off a grid point, so
        # that the point is the last of [0, g] or the first of [g, 1]. Every
        # check passes on the true gain, so `wiggle` w lowers it by 1e-3 for
        # poor types above w g, which fails their checks on [0, g] (if a
        # grid point lies in (w g, g + 1e-12]) and on [g, 1], and at g for
        # w < 1.
        if wiggle is not None:
            gain = mx.delta_u
            monkeypatch.setattr(mx, "delta_u", lambda mech, r, p, s, omega, params: gain(
                mech, r, p, s, omega, params)
                - 1e-3 * (np.asarray(omega) > 1.0) * (np.asarray(s) > wiggle * params.g))
        rng = random.Random(5)
        economies = [random_economy(rng)[0] for _ in range(60)]
        while len(economies) < 120:
            try:
                economies.append(EconomyParams(
                    m=2, q=rng.uniform(0.05, 0.95), g=rng.uniform(0.0, 0.3),
                    e=rng.uniform(0.3, 0.7), pi=rng.uniform(0.01, 0.49),
                    wealth=_random_wealth(rng), cdf=random_concave_cdf(rng)))
            except EconomyError:
                pass
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        drawn = len(economies)
        for base, k in zip(economies[:40:2], range(10, 50, 2)):
            # g + 1e-12 and g - 1e-12 exactly on grid point k
            for sign in (-1.0, 1.0):
                g = grid[k] + sign * 1e-12
                while g - sign * 1e-12 != grid[k]:
                    g = np.nextafter(g, grid[k])
                try:
                    economies.append(dataclasses.replace(base, g=float(g)))
                except EconomyError:  # e < g or e + g > 1
                    pass
        assert len(economies) - drawn >= 30
        verdicts = set()
        for p in economies:
            for mech in mx.CORE:
                try:
                    want = verify_lemma1_reference(p, mech)
                except (mx.DegenerateChoiceError, EconomyError) as exc:
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        verify_lemma1(p, mech)
                    verdicts.add(type(exc))
                    continue
                assert verify_lemma1(p, mech) == want
                verdicts.update(ok for _, ok in want.checks)
        assert verdicts == {True, wiggle is None, mx.DegenerateChoiceError}
        # the [0, g] prefix holds more than the grid's first point
        assert sum(p.g > 2e-3 for p in economies) > 60
