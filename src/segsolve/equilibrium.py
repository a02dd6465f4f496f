"""Symmetric cutoff equilibria s_w = a + d w.

For piecewise-linear F the dispersion d comes from an exact kernel: the
capacity residual is piecewise linear in d, so it is evaluated at its
breakpoints and solved linearly on the bracketing segment. The kernel takes
a batch of CDFs, and `solve` calls it with a batch of one, so a batched
sweep and `solve` agree bit for bit. For `Power` F, d comes from a monotone
bisection that raises ConvergenceError if it stops at MAX_ITER. Uniform F
also has a closed form.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mechanisms as mx
from .cdf import PiecewiseLinear, PiecewiseLinearBatch, Uniform
from .economy import (AssumptionReport, EconomyParams, check_assumption1,
                      check_assumption2, is_example_profile, price_bounds)

RESIDUAL_TOL = 1e-11
MAX_ITER = 200


class SolveError(RuntimeError):
    pass


class AssumptionError(SolveError):
    """A pre-solve assumption fails for the requested mechanism."""


class InteriorViolationError(SolveError):
    """Solved cutoffs leave the open interval (g, e-g)."""


class BracketFailureError(SolveError):
    """Capacity residual has no root in the admissible dispersion range."""


class ConvergenceError(SolveError):
    """Bisection reached MAX_ITER without meeting RESIDUAL_TOL."""


class NoFixedPointError(SolveError):
    """Policy rejection fixed point could not be bracketed."""


@dataclass(frozen=True)
class Equilibrium:
    mech: mx.Mechanism
    r: float
    d: float
    p: float
    intercept: float
    cutoffs: tuple[tuple[float, float], ...]  # (omega, s), poorest first
    e_s: float
    residual: float
    iterations: int  # bisection steps; 0 for an exact or closed-form root
    params: EconomyParams = field(repr=False, compare=False)
    r_by_omega: tuple[tuple[float, float], ...] | None = None

    @property
    def cutoff_map(self) -> dict[float, float]:
        return dict(self.cutoffs)

    def cutoff(self, omega: float) -> float:
        for w, s in self.cutoffs:
            if abs(w - omega) < 1e-12:
                return s
        raise KeyError(omega)

    def to_dict(self) -> dict:
        return {
            "mech": self.mech.value,
            "r": self.r,
            "p": self.p,
            "d": self.d,
            "e_s": self.e_s,
            "cutoffs": [{"omega": w, "s": s} for w, s in self.cutoffs],
            "residual": self.residual,
        }


def _require_assumptions(params: EconomyParams, mech: mx.Mechanism) -> None:
    a1 = check_assumption1(params)
    if not a1.passed:
        raise AssumptionError(f"assumption 1 fails: {a1.failures()}")
    a2 = check_assumption2(params, mechs=(mech,))
    if not a2.passed:
        raise AssumptionError(f"assumption 2 fails for {mech.value}: {a2.failures()}")


def _cdf_at(f, s: float) -> float:
    """F(s) with s clamped into the signal support [0, 1]."""
    return f.value(min(1.0, max(0.0, s)))


def max_dispersion(params, a):
    """The d at which the poorest type's cutoff a + d w reaches e - g."""
    return (params.e - params.g - a) / params.wealth.poorest


def interior(params, s):
    """g < s < e - g with a 1e-12 margin; broadcasts over arrays of s."""
    eps = 1e-12
    return (params.g + eps < s) & (s < params.e - params.g - eps)


def dispersion_root(params, cdfs: PiecewiseLinearBatch, a) -> np.ndarray:
    """Exact root d in [0, d_max] of sum_w rho_w F(a + d w) - (1-q), one
    per CDF of the batch; nan where [0, d_max] brackets no root.

    The residual is piecewise linear and nondecreasing in d, with
    breakpoints where a cutoff meets a knot, d = (knot - a)/w. It is
    evaluated at 0, at d_max and at every breakpoint clipped into
    [0, d_max], and the first segment on which it turns nonnegative is
    solved linearly. `a` is a scalar or one value per CDF.
    """
    rows = len(cdfs.xs)
    a = np.reshape(a, (-1, 1, 1))
    d_max = max_dispersion(params, a)
    omegas = params.wealth.omegas[:, None]
    knots = np.minimum(np.maximum((cdfs.xs[:, None, :] - a) / omegas, 0.0), d_max)
    ends = np.zeros((rows, 2))
    ends[:, 1] = d_max[:, 0, 0]
    d = np.sort(np.concatenate([ends, knots.reshape(rows, -1)], axis=1), axis=1)
    # F at every type's cutoff a + d w, as (B, types, points); cutoffs past
    # an end of [0, 1] read F there, as the clamped scalar residual does
    s = d[:, None, :] * omegas
    s += a
    fs = cdfs.value(s.reshape(rows, -1)).reshape(s.shape)
    total = 0.0
    for j, rho in enumerate(params.wealth.rhos):
        total = total + rho * fs[:, j]
    res = total - (1.0 - params.q)
    # the segment from the last negative residual to the first nonnegative
    # one; hi = 0 leaves the root at d = 0, where the residual is 0 if bracketed
    at, hi = np.arange(rows), np.argmax(res >= 0.0, axis=1)
    lo = np.maximum(hi - 1, 0)
    d0, d1, r0, r1 = d[at, lo], d[at, hi], res[at, lo], res[at, hi]
    root = d0 - np.divide(r0 * (d1 - d0), r1 - r0, out=np.zeros(rows), where=hi > 0)
    bracketed = (d_max[:, 0, 0] > 0.0) & (res[:, 0] <= 0.0) & (res[:, -1] >= 0.0)
    return np.where(bracketed, root, np.nan)


def _equilibrium(params: EconomyParams, mech: mx.Mechanism, r: float, a: float,
                 d: float, residual: float, iterations: int) -> Equilibrium:
    """Cutoffs s_w = a + d w, checked interior, priced at p = r kappa d."""
    cutoffs = tuple((w, a + d * w) for w, _ in params.wealth.atoms)
    for w, s in cutoffs:
        if not interior(params, s):
            raise InteriorViolationError(
                f"cutoff {s:.6g} for omega={w} outside ({params.g}, {params.e - params.g})")
    p = r * mx.CORE_ALGEBRA[mech].kappa(params) * d
    e_s = sum(rho * s for (_, s), (_, rho) in zip(cutoffs, params.wealth.atoms))
    return Equilibrium(mech, r, d, p, a, cutoffs, e_s, residual, iterations, params)


def solve(params: EconomyParams, mech, check: bool = True) -> Equilibrium:
    """The unique market-clearing cutoff profile: exact for piecewise-linear
    F, by bisection on the dispersion d otherwise."""
    mech = mx.Mechanism(mech)
    if mech not in mx.CORE:
        raise ValueError(f"solve handles n/da/ttc; got {mech.value}")
    if check:
        _require_assumptions(params, mech)
    r = mx.rejection(params, mech)
    a = mx.CORE_ALGEBRA[mech].intercept(params)
    f = params.cdf
    atoms = params.wealth.atoms
    target = 1.0 - params.q

    def residual(d: float) -> float:
        return sum(rho * _cdf_at(f, a + d * w) for w, rho in atoms) - target

    d_max = max_dispersion(params, a)

    def bracket_failure() -> BracketFailureError:
        return BracketFailureError(
            f"no dispersion root in [0, {d_max:.6g}] for {mech.value} "
            f"(residuals {residual(0.0):.3g}, {residual(d_max):.3g})")

    if isinstance(f, PiecewiseLinear):
        d = float(dispersion_root(params, f.batch, a)[0])
        if np.isnan(d):
            raise bracket_failure()
        return _equilibrium(params, mech, r, a, d, residual(d), 0)
    lo, hi = 0.0, d_max
    res = residual(hi)
    if residual(lo) > RESIDUAL_TOL or res < -RESIDUAL_TOL:
        raise bracket_failure()
    for it in range(1, MAX_ITER + 1):
        d = 0.5 * (lo + hi)
        res = residual(d)
        if abs(res) < RESIDUAL_TOL:
            return _equilibrium(params, mech, r, a, d, res, it)
        if res < 0.0:
            lo = d
        else:
            hi = d
    raise ConvergenceError(
        f"bisection for {mech.value} stopped after {MAX_ITER} steps "
        f"with residual {res:.3g}")


def solve_closed_form_uniform(params: EconomyParams, mech, check: bool = True) -> Equilibrium:
    """Direct solution for uniform F, in floating point with no root search.

    F(s) = s turns market clearing into E[s] = 1-q; with mean wealth 1 this
    gives d = (1-q) - a.
    """
    mech = mx.Mechanism(mech)
    if not isinstance(params.cdf, Uniform):
        raise ValueError("closed form requires a uniform signal CDF")
    if check:
        _require_assumptions(params, mech)
    r = mx.rejection(params, mech)
    a = mx.CORE_ALGEBRA[mech].intercept(params)
    return _equilibrium(params, mech, r, a, (1.0 - params.q) - a, 0.0, 0)


def _policy_cutoffs(mech: mx.Mechanism, r: float, p: float, params: EconomyParams):
    """Roots of policy_delta_u in s, one per wealth type (linear in s)."""
    out = []
    for w, _ in params.wealth.atoms:
        if mech == mx.Mechanism.DA_WL and abs(w - params.wealth.poorest) > 1e-12:
            s = (3.0 * w * p - 1.0) / 2.0
        else:
            s = (3.0 * w * p - (2.0 * r - 1.0)) / (1.0 + r)
        out.append((w, s))
    return tuple(out)


def solve_policy(params: EconomyParams, mech) -> Equilibrium:
    """Joint fixed point (r, p) for the desegregation policy mechanisms.

    Inner bisection clears the housing market in p given r; the outer loop
    finds r consistent with seat accounting: vacated supply pi*sum rho(w)
    (1-F(s_w)) rationed by lottery over the eligible out-of-district pool
    (DA_L: everyone in n0; DA_WL: poor n0 residents, rich rejection is 1).
    """
    mech = mx.Mechanism(mech)
    if mech not in mx.POLICY:
        raise ValueError(f"solve_policy handles da_l/da_wl; got {mech.value}")
    if not is_example_profile(params):
        raise ValueError("policy mechanisms are defined on the example profile only")
    f = params.cdf
    rhos = [rho for _, rho in params.wealth.atoms]
    target = 1.0 - params.q

    def clear_price(r: float) -> tuple[float, tuple]:
        def residual(p: float) -> float:
            cuts = _policy_cutoffs(mech, r, p, params)
            return sum(rho * _cdf_at(f, s) for (_, s), rho in zip(cuts, rhos)) - target

        lo, hi = 0.0, 4.0
        if residual(lo) >= 0:
            # market already clears (or overshoots) at a zero price
            return 0.0, _policy_cutoffs(mech, r, 0.0, params)
        if residual(hi) < 0:
            raise NoFixedPointError("housing market cannot clear at this rejection rate")
        for _ in range(MAX_ITER):
            mid = 0.5 * (lo + hi)
            if residual(mid) < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14:
                break
        p = 0.5 * (lo + hi)
        return p, _policy_cutoffs(mech, r, p, params)

    def implied_r(cuts) -> float:
        vacated = params.pi * sum(rho * (1.0 - _cdf_at(f, s))
                                  for (_, s), rho in zip(cuts, rhos))
        if mech == mx.Mechanism.DA_L:
            eligible = sum(rho * _cdf_at(f, s) for (_, s), rho in zip(cuts, rhos))
        else:
            (_, s_poor) = cuts[0]
            eligible = rhos[0] * _cdf_at(f, s_poor)
        if eligible <= vacated:
            return 0.0
        return 1.0 - vacated / eligible

    def gap(r: float) -> float:
        _, cuts = clear_price(r)
        return r - implied_r(cuts)

    # bracket the rejection fixed point by scanning, then bisect
    grid = np.linspace(0.05, 0.999, 40)
    vals = [gap(r) for r in grid]
    lo = hi = None
    for i in range(len(grid) - 1):
        if vals[i] <= 0.0 <= vals[i + 1] or vals[i] >= 0.0 >= vals[i + 1]:
            lo, hi, gap_lo = grid[i], grid[i + 1], vals[i]
            break
    if lo is None:
        raise NoFixedPointError(f"no rejection fixed point bracketed for {mech.value}")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        if gap_lo * gap_mid <= 0.0:
            hi = mid
        else:
            lo, gap_lo = mid, gap_mid
        if hi - lo < 1e-12:
            break
    r = 0.5 * (lo + hi)
    p, cuts = clear_price(r)
    e_s = sum(rho * s for (_, s), rho in zip(cuts, rhos))
    res = sum(rho * _cdf_at(f, s) for (_, s), rho in zip(cuts, rhos)) - target
    r_by_omega = None
    if mech == mx.Mechanism.DA_WL:
        r_by_omega = tuple((w, r if i == 0 else 1.0)
                           for i, (w, _) in enumerate(cuts))
    return Equilibrium(mech, r, float("nan"), p, float("nan"),
                       cuts, e_s, res, 0, params, r_by_omega)


def verify_lemma1(params: EconomyParams, mech) -> AssumptionReport:
    """Grid regression of the utility-gain monotonicity properties."""
    mech = mx.Mechanism(mech)
    r_hat = mx.rejection(params, mech)
    p_hat, p_bar = price_bounds(params, mech)
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    below = grid <= params.g + 1e-12
    above = grid >= params.g - 1e-12
    checks = []
    for omega in params.wealth.omegas:
        for r in {r_hat, 1.0}:
            at_zero = mx.delta_u(mech, r, 0.0, params.g, omega, params)
            checks.append((f"du(r={r:.3g},0|g,{omega})>=0", at_zero >= -1e-12))
            for p in (0.0, p_hat, p_bar):
                du = mx.delta_u(mech, r, p, grid, omega, params)
                dlo = np.diff(du[below])
                dhi = np.diff(du[above])
                checks.append((
                    f"weak increase on [0,g] (r={r:.3g},p={p:.3g},w={omega})",
                    bool(dlo.size == 0 or np.all(dlo >= -1e-12))))
                checks.append((
                    f"strict increase on [g,1] (r={r:.3g},p={p:.3g},w={omega})",
                    bool(np.all(dhi > 0.0))))
    return AssumptionReport("lemma1", all(ok for _, ok in checks), False, tuple(checks))
