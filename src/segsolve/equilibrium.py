"""Symmetric cutoff equilibria s_w = a + d w, and the policy fixed point.

One exact kernel, `affine_root`, serves every piecewise-linear market: when
each type's cutoff is affine in one unknown x, the clearing residual
sum_t rho_t F(alpha_t + beta_t x) - target is piecewise linear and
nondecreasing in x, so it is evaluated at its breakpoints and solved
linearly on the bracketing segment, for a batch of rows at once. `solve`
and the kink sweep call it on the dispersion d (alpha = a, beta = w), a
batch of one CDF or of a whole grid, so the two agree bit for bit. For
`Power` F, d comes from a monotone bisection that raises ConvergenceError
if it stops at MAX_ITER.

`solve_policy` calls the kernel on the price p: under DA_L and DA_WL each
cutoff is affine in p for a fixed rejection rate r, so one kernel call
clears the housing market at a whole batch of r values. The rejection
fixed point is bracketed by a batched scan that counts every sign change,
then refined by batched k-section.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mechanisms as mx
from .cdf import AssumptionReport, PiecewiseLinear, PiecewiseLinearBatch
from .economy import (EconomyParams, check_assumption1, check_assumption2,
                      is_example_profile, price_bounds)

RESIDUAL_TOL = 1e-11
MAX_ITER = 200

# solve_policy: price search interval [0, POLICY_MAX_PRICE], the r scan that
# brackets the fixed point, interior points per k-section round, the
# bracket width that ends it, and the round cap
POLICY_MAX_PRICE = 4.0
POLICY_SCAN = np.linspace(0.05, 0.999, 40)
POLICY_POINTS = 64
POLICY_R_TOL = 1e-12
POLICY_MAX_ROUNDS = 12


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


class MultipleFixedPointsError(NoFixedPointError):
    """The policy rejection gap changes sign more than once."""

    def __init__(self, mech: mx.Mechanism, brackets: tuple[tuple[float, float], ...]):
        self.brackets = brackets
        named = ", ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in brackets)
        super().__init__(
            f"{len(brackets)} rejection fixed points bracketed for {mech.value}: {named}")


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
    iterations: int  # bisection steps or policy k-section rounds; 0 for an exact root
    params: EconomyParams = field(repr=False, compare=False)
    r_by_omega: tuple[tuple[float, float], ...] | None = None

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
            "d": None if np.isnan(self.d) else self.d,  # no dispersion under a policy
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


def _weighted(values, rhos):
    """sum_t rho_t values[:, t], accumulated type by type, poorest first."""
    total = 0.0
    for j, rho in enumerate(rhos):
        total = total + rho * values[:, j]
    return total


def affine_root(cdfs: PiecewiseLinearBatch, rhos, alpha, beta, x_max,
                target: float) -> np.ndarray:
    """Exact root x in [0, x_max] of sum_t rho_t F_b(alpha_bt + beta_bt x)
    - target for each row b; nan where [0, x_max] brackets no root.

    With every slope beta > 0 the residual is piecewise linear and
    nondecreasing in x, with breakpoints where a cutoff meets a knot,
    x = (knot - alpha)/beta. It is evaluated at 0, at x_max and at every
    breakpoint clipped into [0, x_max], and the first segment on which it
    turns nonnegative is solved linearly. alpha and beta broadcast to
    (rows, types) and x_max to (rows,); `cdfs` holds one CDF per row, or
    one CDF shared by every row.
    """
    alpha, beta = (np.asarray(v, dtype=float)[..., None] for v in (alpha, beta))
    x_max = np.reshape(x_max, (-1, 1, 1))
    knots = np.minimum(np.maximum((cdfs.xs[:, None, :] - alpha) / beta, 0.0), x_max)
    rows = len(knots)
    ends = np.zeros((rows, 2))
    ends[:, 1] = x_max[:, 0, 0]
    x = np.sort(np.concatenate([ends, knots.reshape(rows, -1)], axis=1), axis=1)
    # F at every type's cutoff alpha + beta x, as (rows, types, points);
    # cutoffs past an end of [0, 1] read F there, as the clamped scalar
    # residual does
    s = x[:, None, :] * beta
    s += alpha
    fs = cdfs.value(s.reshape(len(cdfs.xs), -1)).reshape(s.shape)
    res = _weighted(fs, rhos) - target
    # the segment from the last negative residual to the first nonnegative
    # one; hi = 0 leaves the root at x = 0, where the residual is 0 if bracketed
    hi = np.argmax(res >= 0.0, axis=1)
    # flat index of the segment's left end in the row-major (rows, points)
    # x and res; its right end is the next point
    at = np.maximum(hi - 1, 0) + np.arange(0, x.size, x.shape[1])
    x0, x1, r0, r1 = x.take(at), x.take(at + 1), res.take(at), res.take(at + 1)
    root = x0 - np.divide(r0 * (x1 - x0), r1 - r0, out=np.zeros(rows), where=hi > 0)
    bracketed = (x_max[:, 0, 0] > 0.0) & (res[:, 0] <= 0.0) & (res[:, -1] >= 0.0)
    return np.where(bracketed, root, np.nan)


def dispersion_root(params, cdfs: PiecewiseLinearBatch, a) -> np.ndarray:
    """Exact root d in [0, d_max] of sum_w rho_w F(a + d w) - (1-q), one
    per CDF of the batch; nan where [0, d_max] brackets no root. `a` is a
    scalar or one value per CDF."""
    a = np.reshape(a, (-1, 1))
    return affine_root(cdfs, params.wealth.rhos, a, params.wealth.omegas,
                       max_dispersion(params, a), 1.0 - params.q)


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


def _policy_cutoffs(mech: mx.Mechanism, r: np.ndarray, params: EconomyParams):
    """The roots of policy_delta_u in s, s_w = alpha_w + beta_w p, as
    (len(r), types) intercepts alpha and slopes beta, one row per rejection
    rate in r; types poorest first."""
    omegas = params.wealth.omegas
    at_zero, slope = mx.policy_gain(mech, r[:, None], omegas, params)
    return -at_zero / slope, omegas / slope


def _policy_gap(mech: mx.Mechanism, r: np.ndarray, params: EconomyParams):
    """For each rejection rate in r: r minus the rate that seat accounting
    (`mechanisms.implied_rejection`) implies once the housing market
    clears, the clearing price, the cutoffs (len(r), types) and the
    clearing residual at p = 0.

    The price is the kernel's root in [0, POLICY_MAX_PRICE]. Where the
    market clears or overshoots at p = 0 the price is 0, the corner.
    """
    f, rhos, target = params.cdf.batch, params.wealth.rhos, 1.0 - params.q

    def cdf_at(s):  # F at each cutoff, clamped into the support
        return f.value(s.reshape(1, -1)).reshape(s.shape)

    alpha, beta = _policy_cutoffs(mech, r, params)
    # the kernel's residual at p = 0, bit for bit
    at_zero = _weighted(cdf_at(alpha), rhos) - target
    p = np.where(at_zero >= 0.0, 0.0,
                 affine_root(f, rhos, alpha, beta, POLICY_MAX_PRICE, target))
    if np.isnan(p).any():
        raise NoFixedPointError("housing market cannot clear at this rejection rate")
    cuts = alpha + beta * p[:, None]
    return r - mx.implied_rejection(mech, cdf_at(cuts), params), p, cuts, at_zero


def _bracket(mech: mx.Mechanism, rs: np.ndarray, gaps: np.ndarray) -> int:
    """The one i where the gap changes sign between rs[i] and rs[i + 1],
    zero counting as negative; raises if it changes sign never or more
    than once."""
    side = gaps <= 0.0
    changes = np.flatnonzero(side[:-1] != side[1:])
    if changes.size == 0:
        raise NoFixedPointError(f"no rejection fixed point bracketed for {mech.value}")
    if changes.size > 1:
        raise MultipleFixedPointsError(
            mech, tuple((float(rs[i]), float(rs[i + 1])) for i in changes))
    return int(changes[0])


def solve_policy(params: EconomyParams, mech) -> Equilibrium:
    """Joint fixed point (r, p) for the desegregation policy mechanisms.

    For each r the housing market clears at the exact kernel price; the
    rejection rate r must equal the one seat accounting implies. A batched
    scan over POLICY_SCAN brackets the fixed point and raises if the gap
    changes sign never or more than once; batched k-section with
    POLICY_POINTS interior points per round then narrows the bracket below
    POLICY_R_TOL, raising ConvergenceError after POLICY_MAX_ROUNDS rounds.
    """
    mech = mx.Mechanism(mech)
    if mech not in mx.POLICY:
        raise ValueError(f"solve_policy handles da_l/da_wl; got {mech.value}")
    if not is_example_profile(params):
        raise ValueError("policy mechanisms are defined on the example profile only")
    scan = _policy_gap(mech, POLICY_SCAN, params)[0]
    i = _bracket(mech, POLICY_SCAN, scan)
    lo, hi, gap_lo, gap_hi = POLICY_SCAN[i], POLICY_SCAN[i + 1], scan[i], scan[i + 1]
    rounds = 0
    while hi - lo >= POLICY_R_TOL:
        if rounds == POLICY_MAX_ROUNDS:
            raise ConvergenceError(
                f"{mech.value} fixed point still bracketed by [{lo!r}, {hi!r}] "
                f"after {rounds} rounds")
        rounds += 1
        rs = np.concatenate([[lo], lo + (hi - lo) * np.arange(1, POLICY_POINTS + 1)
                             / (POLICY_POINTS + 1), [hi]])
        gaps = np.concatenate([[gap_lo], _policy_gap(mech, rs[1:-1], params)[0], [gap_hi]])
        i = _bracket(mech, rs, gaps)
        lo, hi, gap_lo, gap_hi = rs[i], rs[i + 1], gaps[i], gaps[i + 1]
    r = float(0.5 * (lo + hi))
    _, p, cuts, at_zero = _policy_gap(mech, np.array([r]), params)
    if at_zero[0] > 0.0:
        raise NoFixedPointError(
            f"{mech.value} fixed point r={r:.6g} clears the housing market only at "
            f"the p = 0 corner (residual {at_zero[0]:.3g} there)")
    cuts = tuple(zip(params.wealth.omegas.tolist(), cuts[0].tolist()))
    rhos = [rho for _, rho in params.wealth.atoms]
    e_s = sum(rho * s for (_, s), rho in zip(cuts, rhos))
    res = sum(rho * _cdf_at(params.cdf, s) for (_, s), rho in zip(cuts, rhos)) - (1.0 - params.q)
    r_by_omega = tuple((w, float(mx.policy_rejection(mech, r, w, params))) for w, _ in cuts)
    return Equilibrium(mech, r, float("nan"), float(p[0]), float("nan"),
                       cuts, e_s, res, rounds, params, r_by_omega)


def verify_lemma1(params: EconomyParams, mech) -> AssumptionReport:
    """Grid regression of the utility-gain monotonicity properties."""
    mech = mx.Mechanism(mech)
    r_hat = mx.rejection(params, mech)
    p_hat, p_bar = price_bounds(params, mech)
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    below = grid <= params.g + 1e-12
    above = grid >= params.g - 1e-12
    omegas, rs, prices = params.wealth.omegas, list({r_hat, 1.0}), (0.0, p_hat, p_bar)
    # every (omega, r, p) at once, as (omegas, rs, prices, grid)
    at_zero = mx.delta_u(mech, np.array(rs), 0.0, params.g, omegas[:, None], params)
    du = mx.delta_u(mech, np.array(rs)[:, None, None], np.array(prices)[:, None], grid,
                    omegas[:, None, None, None], params)
    weak = np.all(np.diff(du[..., below]) >= -1e-12, axis=-1)
    strict = np.all(np.diff(du[..., above]) > 0.0, axis=-1)
    checks = []
    for i, omega in enumerate(omegas):
        for j, r in enumerate(rs):
            checks.append((f"du(r={r:.3g},0|g,{omega})>=0", bool(at_zero[i, j] >= -1e-12)))
            for k, p in enumerate(prices):
                checks.append((
                    f"weak increase on [0,g] (r={r:.3g},p={p:.3g},w={omega})",
                    bool(weak[i, j, k])))
                checks.append((
                    f"strict increase on [g,1] (r={r:.3g},p={p:.3g},w={omega})",
                    bool(strict[i, j, k])))
    return AssumptionReport("lemma1", tuple(checks))
