"""Symmetric cutoff equilibria s_w = a + d w, and the policy fixed point.

One exact kernel, `affine_root`, serves every piecewise-linear market: when
each type's cutoff is affine in one unknown x, the clearing residual
sum_t rho_t F(alpha_t + beta_t x) - target is piecewise linear and
nondecreasing in x, so it is evaluated at its breakpoints and solved
linearly on the bracketing segment, for a batch of rows at once, each row
with one root or several against its CDF. `dispersion_root` calls it on
the dispersion d (alpha = a, beta = w). The kink sweep finds the roots of
a whole grid of CDFs with N's and DA's intercepts a on an axis inside
each row, and `solve_core` those of one economy: it checks assumptions 1
and 2 once for all the core mechanisms asked for and stacks their
intercepts a into one row, so that every root agrees bit for bit with a
solve of its mechanism alone. `solve` is `solve_core` on one mechanism.
For `Power` F, d comes from a monotone bisection per mechanism that raises
ConvergenceError if it stops at MAX_ITER.

`solve_policy` finds the DA_L / DA_WL fixed point (r, p) exactly. At an
interior clearing seat accounting ties r to the price alone, so on each
piece of F the clearing residual is a quadratic in p, whose roots
`_policy_roots` enumerates piece by piece. One kernel call (`_policy_gap`,
cutoffs affine in p at each r) then prices and verifies every root.
"""
from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import mechanisms as mx
from .cdf import AssumptionReport, PiecewiseLinear, PiecewiseLinearBatch
from .economy import (EconomyParams, check_assumption1, check_assumption2,
                      is_example_profile, rejection_and_bounds)

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
    """The policy has no one verified rejection fixed point at a clearing price p > 0."""


class MultipleFixedPointsError(NoFixedPointError):
    """The policy has more than one rejection fixed point."""

    def __init__(self, mech: mx.Mechanism, brackets: tuple[tuple[float, float], ...]):
        self.brackets = brackets  # (lo, hi) of r per fixed point; lo == hi where exact
        named = ", ".join(f"{lo:.6g}" if lo == hi else f"({lo:.6g}, {hi:.6g})"
                          for lo, hi in brackets)
        super().__init__(f"{len(brackets)} rejection fixed points for {mech.value}: r = {named}")


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
    iterations: int  # bisection steps; 0 for an exact root, as every policy one is
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


def _assumption_failures(params: EconomyParams, mechs) -> dict:
    """The AssumptionError message of each mechanism in mechs that fails
    assumption 1 or 2, from one check of each over all of them."""
    a1 = check_assumption1(params)
    if not a1.passed:
        return dict.fromkeys(mechs, f"assumption 1 fails: {a1.failures()}")
    a2 = check_assumption2(params, mechs=mechs)
    failed = {}
    for mech in mechs:
        # check_assumption2 names each check "<mech>: ..."
        names = [name for name, ok in a2.checks
                 if not ok and name.startswith(f"{mech.value}: ")]
        if names:
            failed[mech] = f"assumption 2 fails for {mech.value}: {names}"
    return failed


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
    """sum_t rho_t values[:, t], accumulated type by type, poorest first;
    rhos holds one weight per type, or one row of them per row of values."""
    rhos = np.asarray(rhos)
    # per type, one weight or a column of row weights, shaped against values[:, t]
    rhos = rhos.T.reshape(rhos.shape[::-1] + (1,) * (values.ndim - 2))
    total = 0.0
    for j, rho in enumerate(rhos):
        total = total + rho * values[:, j]
    return total


def affine_root(cdfs: PiecewiseLinearBatch, rhos, alpha, beta, x_max, target,
                knots=None) -> np.ndarray:
    """Exact root x in [0, x_max] of sum_t rho_t F_b(alpha_bt + beta_bt x)
    - target for each row b; nan where [0, x_max] brackets no root.

    With every slope beta > 0 the residual is piecewise linear and
    nondecreasing in x, with breakpoints where a cutoff meets a knot,
    x = (knot - alpha)/beta. It is evaluated at 0, at x_max and at every
    breakpoint clipped into [0, x_max], and the first segment on which it
    turns nonnegative is solved linearly. alpha and beta broadcast to
    (rows, types), or to (rows, roots, types) for several roots per row,
    each against the row's CDF; x_max and target broadcast to (rows,) or
    (rows, roots), the shape of the result. rhos holds one weight per type,
    or one row of them per row. `cdfs` holds one CDF per row, or one CDF
    shared by every row. `knots`, the columns of cdfs.xs whose breakpoints
    are evaluated, defaults to all; a caller may leave out a knot whose
    breakpoints all clip onto x_max, as each would only repeat the end
    point x_max, with the same residual.
    """
    alpha = np.asarray(alpha, dtype=float)[..., None]
    beta = np.asarray(beta, dtype=float)[..., None]
    x_max = np.asarray(x_max, dtype=float)[..., None, None]
    knots = cdfs.xs if knots is None else knots
    # each row's knots, against its roots' axis (if any) and its types'
    knots = knots.reshape(knots.shape[:1] + (1,) * max(alpha.ndim - 2, beta.ndim - 2, 1)
                          + knots.shape[1:])
    breaks = (knots - alpha) / beta
    np.minimum(np.maximum(breaks, 0.0, out=breaks), x_max, out=breaks)
    # 0, x_max and the breakpoints, sorted in place
    lead = breaks.shape[:-2]
    x = np.empty(lead + (2 + breaks.shape[-2] * breaks.shape[-1],))
    x[..., 0], x[..., 1], x[..., 2:] = 0.0, x_max[..., 0, 0], breaks.reshape(lead + (-1,))
    del breaks  # freed before F is evaluated, where the batch peaks
    x.sort(axis=-1)
    # F at every type's cutoff alpha + beta x, as (rows, ..., types, points);
    # cutoffs past an end of [0, 1] read F there, as the clamped scalar
    # residual does
    s = x[..., None, :] * beta
    s += alpha
    # _weighted sums the types over axis 1
    res = (_weighted(cdfs.value(s).swapaxes(1, -2), rhos)
           - np.asarray(target, dtype=float)[..., None])
    # the segment from the last negative residual to the first nonnegative
    # one; hi = 0 leaves the root at x = 0, where the residual is 0 if bracketed
    hi = (res >= 0.0).argmax(axis=-1)
    # flat index of the segment's left end in the row-major x and res, and
    # of its right end, the next point
    left = np.maximum(hi - 1, 0) + np.arange(0, x.size, x.shape[-1]).reshape(hi.shape)
    right = left + 1
    x0, x1, r0, r1 = x.take(left), x.take(right), res.take(left), res.take(right)
    root = x0 - np.divide(r0 * (x1 - x0), r1 - r0, out=np.zeros(hi.shape), where=hi > 0)
    bracketed = (x_max[..., 0, 0] > 0.0) & (res[..., 0] <= 0.0) & (res[..., -1] >= 0.0)
    return np.where(bracketed, root, np.nan)


def dispersion_root(params, cdfs: PiecewiseLinearBatch, a) -> np.ndarray:
    """Exact root d in [0, d_max] of sum_w rho_w F(a + d w) - (1-q) for
    each intercept a against its row's CDF; nan where [0, d_max] brackets
    no root. `a` is (rows, mechanisms), one intercept per mechanism in each
    row, and the root has its shape. `cdfs` holds one CDF per row or one
    for every row, and q and the wealth atoms are each one value (one row
    of atoms) for every row or one per row.

    The last knot's breakpoints are left out when every row's last knot
    x_last lies at or past e - g, as on every single-kink CDF, whose last
    knot is 1 and EconomyParams keeps e - g <= 1. The skip is exact:
    d_max = ((e - g) - a)/w_poorest, float rounding is monotone and every
    w is at most w_poorest, so (x_last - a)/w >= d_max for every type, and
    the kernel would clip each of those breakpoints onto d_max, a duplicate
    end point with the same residual. Where d_max <= 0 no root is bracketed
    either way.
    """
    a, omegas, xs = np.asarray(a, dtype=float), params.wealth.omegas, cdfs.xs
    knots = xs[:, :-1] if (xs[:, -1] >= params.e - params.g).all() else xs
    # per-row columns gain the mechanism axis
    omegas, q = omegas.reshape(-1, 1, omegas.shape[-1]), np.asarray(params.q)[..., None]
    return affine_root(cdfs, params.wealth.rhos, a[..., None], omegas,
                       max_dispersion(params, a.T).T, 1.0 - q, knots)


def _check_interior(params: EconomyParams, cutoffs) -> None:
    """Raise InteriorViolationError unless every (omega, s) cutoff lies in
    (g, e - g)."""
    for w, s in cutoffs:
        if not interior(params, s):
            raise InteriorViolationError(
                f"cutoff {s:.6g} for omega={w} outside ({params.g}, {params.e - params.g})")


def _equilibrium(params: EconomyParams, mech: mx.Mechanism, r: float, a: float,
                 d: float, residual: float, iterations: int) -> Equilibrium:
    """Cutoffs s_w = a + d w, checked interior, priced at p = r kappa d."""
    cutoffs = tuple((w, a + d * w) for w, _ in params.wealth.atoms)
    _check_interior(params, cutoffs)
    p = r * mx.CORE_ALGEBRA[mech].kappa(params) * d
    e_s = sum(rho * s for (_, s), (_, rho) in zip(cutoffs, params.wealth.atoms))
    return Equilibrium(mech, r, d, p, a, cutoffs, e_s, residual, iterations, params)


def solve_core(params: EconomyParams, mechs=mx.CORE,
               check: bool = True) -> Iterator[Equilibrium]:
    """The unique market-clearing cutoff profile of each core mechanism in
    mechs, in order, from one pass over the economy.

    The call checks assumptions 1 and 2 once for all of mechs and, for
    piecewise-linear F, finds every dispersion root with one
    `dispersion_root` call on one row of the stacked intercepts: each root
    is the one a call per mechanism finds, bit for bit.
    `Power` F is solved by bisection on d, one mechanism at a time. The returned iterator yields
    the equilibria and raises a mechanism's error when it reaches it, so a
    caller that handles each in turn meets the first failure in the order
    of mechs, as with one `solve` call after another.
    """
    mechs = [mx.Mechanism(m) for m in mechs]
    for mech in mechs:
        if mech not in mx.CORE:
            raise ValueError(f"solve handles n/da/ttc; got {mech.value}")
    unique = list(dict.fromkeys(mechs))
    failed = _assumption_failures(params, unique) if check else {}
    roots = {}
    todo = [m for m in unique if m not in failed]
    if isinstance(params.cdf, PiecewiseLinear) and todo:
        a = [[mx.CORE_ALGEBRA[m].intercept(params) for m in todo]]  # one row
        roots = dict(zip(todo, dispersion_root(params, params.cdf.batch, a)[0].tolist()))
    return (_solve_one(params, mech, failed.get(mech), roots.get(mech)) for mech in mechs)


def _solve_one(params: EconomyParams, mech: mx.Mechanism, failure: str | None,
               d: float | None) -> Equilibrium:
    """One mechanism's equilibrium, given its assumption failure message
    (None if it passed or was not checked) and its exact dispersion root d
    (nan if unbracketed; None for bisection)."""
    if failure is not None:
        raise AssumptionError(failure)
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

    if d is not None:
        if math.isnan(d):
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


def solve(params: EconomyParams, mech, check: bool = True) -> Equilibrium:
    """The unique market-clearing cutoff profile of one core mechanism:
    `solve_core` on that mechanism alone."""
    return next(solve_core(params, (mech,), check))


def _policy_cutoffs(mech: mx.Mechanism, r: np.ndarray, params: EconomyParams):
    """The roots in s of the utility gain, the `mechanisms.policy_gain` line
    less omega p, s_w = alpha_w + beta_w p, as (len(r), types) intercepts
    alpha and slopes beta, one row per rejection rate in r; types poorest
    first."""
    omegas = params.wealth.omegas
    at_zero, slope = mx.policy_gain(mech, r[:, None], omegas, params)
    return -at_zero / slope, omegas / slope


def _policy_gap(mech: mx.Mechanism, r: np.ndarray, params: EconomyParams):
    """For each rejection rate in r: r minus the rate that seat accounting
    (`mechanisms.implied_rejection`) implies once the housing market
    clears, the clearing price, the cutoffs (len(r), types) and the
    clearing residual at p = 0.

    The price is the kernel's root; where the market clears or overshoots
    at p = 0 it is 0, the corner. Once every cutoff passes F's last knot
    the residual is q > 0, so that price bounds the kernel's search.
    """
    # F at a cutoff clamps it into the support, as the scalar F does
    f, rhos, target = params.cdf.batch, params.wealth.rhos, 1.0 - params.q
    alpha, beta = _policy_cutoffs(mech, r, params)
    # the kernel's residual at p = 0, bit for bit
    at_zero = _weighted(f.value(alpha), rhos) - target
    p_max = ((f.xs[0, -1] - alpha) / beta).max(axis=1)
    p = np.where(at_zero >= 0.0, 0.0, affine_root(f, rhos, alpha, beta, p_max, target))
    cuts = alpha + beta * p[:, None]
    return r - mx.implied_rejection(mech, f.value(cuts), params), p, cuts, at_zero


def _quadratic_roots(a2: float, a1: float, a0: float) -> tuple[float, ...]:
    """The real roots of a2 x^2 + a1 x + a0 = 0, by the cancellation-free
    form of the quadratic formula; the one root of a line where a2 = 0."""
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return ()
    half = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
    if half == 0.0:  # a1 = 0 and a2 a0 = 0
        return (0.0,) if a2 != 0.0 else ()
    return (a0 / half,) if a2 == 0.0 else (half / a2, a0 / half)


def _policy_roots(mech: mx.Mechanism, params: EconomyParams) -> tuple[list[float], float]:
    """The rejection rate r of every policy fixed point whose housing market
    clears at a price p >= 0, ascending, and r0, the rate that seat
    accounting implies if the market clears at p = 0 (0 if none).

    Where the market clears the vacated seats are pi q, so r = 1 - pi q / E
    with E the n0 mass of the lottery's types: 1 - q less that of the rest,
    whose cutoffs are affine in p (r_w = 1). Put into the lottery's gain
    line, that makes each lottery cutoff N(p) / D(p), N quadratic and D
    linear and the same for every lottery type, wherever E is linear. The
    pieces end where a rest cutoff meets a knot of F (linear in p), where a
    lottery cutoff does (a quadratic) and where E = pi q (r = 0); on each,
    the clearing residual times D is a quadratic, solved exactly. Past the
    last piece every cutoff is above F's last knot and the residual is q.
    """
    f = params.cdf
    if not isinstance(f, PiecewiseLinear):
        raise SolveError(
            f"the policy fixed point needs piecewise-linear F, not {type(f).__name__}")
    xs, ys = f._xs, f._ys
    # F(s) = level[j] + slope[j] s on segment j = bisect_right(xs, s)
    slope = [0.0, *((y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])), 0.0]
    level = [ys[0], *(y - m * x for x, y, m in zip(xs, ys, slope[1:-1])), ys[-1]]

    def segment(s):
        j = bisect.bisect_right(xs, s)
        return level[j], slope[j]

    # the lottery's types, rejected at its rate r; the rest are rejected for sure
    in_lottery = mx.policy_rejection(mech, 0.0, params.wealth.omegas, params) == 0.0
    lottery = [atom for atom, inside in zip(params.wealth.atoms, in_lottery) if inside]
    # the lottery's gain line (value at s = 0, slope) at r = 0 and r = 1; at
    # r = 1 it is the rest's line too
    (z0, z1), (k0, k1) = (v.tolist() for v in mx.policy_gain(
        mech, np.array([0.0, 1.0]), params.wealth.poorest, params))
    vacated, target = params.pi * params.q, 1.0 - params.q
    a = -z1 / k1  # the rest's cutoffs a + b p
    rest = [(w / k1, rho) for (w, rho), inside in zip(params.wealth.atoms, in_lottery)
            if not inside]
    fa, fb = segment(a)
    e_zero = target - (fa + fb * a) * sum(rho for _, rho in rest)
    r_zero = 1.0 - vacated / e_zero if e_zero > vacated else 0.0
    starts = sorted({0.0, *(t for b, _ in rest for x in xs if (t := (x - a) / b) > 0.0)})
    roots = []
    for lo, hi in zip(starts, starts[1:] + [math.inf]):
        # on this piece E = e0 + e1 p; at r = 1 - vacated / E the lottery's
        # line, times E, puts a type w's cutoff at N / D with
        # N = w p E - z1 E + (z1 - z0) vacated and D = k1 E - (k1 - k0) vacated
        mid = lo + 1.0 if hi == math.inf else 0.5 * (lo + hi)
        e0, e1 = target, 0.0
        for b, rho in rest:
            fa, fb = segment(a + b * mid)
            e0 -= rho * (fa + fb * a)
            e1 -= rho * fb * b
        d0, d1 = k1 * e0 - (k1 - k0) * vacated, k1 * e1
        numer = [(rho, w * e1, w * e0 - z1 * e1, (z1 - z0) * vacated - z1 * e0)
                 for w, rho in lottery]
        # where a lottery cutoff meets a knot, N = x D, and where E = vacated
        breaks = [t for _, n2, n1, n0 in numer for x in xs
                  for t in _quadratic_roots(n2, n1 - x * d1, n0 - x * d0)]
        if e1 != 0.0:
            breaks.append((vacated - e0) / e1)
        ends = sorted(t for t in breaks if lo < t < hi)
        for u, v in zip([lo] + ends, ends + [hi]):
            mid = 0.5 * (u + v)
            if v == math.inf or e0 + e1 * mid <= vacated:
                continue
            # the clearing residual sum_lottery rho F(N / D) - E, times D
            c2, c1, c0 = -e1 * d1, -(e1 * d0 + e0 * d1), -e0 * d0
            for rho, n2, n1, n0 in numer:
                fa, fb = segment((n0 + mid * (n1 + mid * n2)) / (d0 + d1 * mid))
                c2 += rho * fb * n2
                c1 += rho * (fa * d1 + fb * n1)
                c0 += rho * (fa * d0 + fb * n0)
            roots += [1.0 - vacated / (e0 + e1 * p) for p in _quadratic_roots(c2, c1, c0)
                      if u <= p <= v]
    roots.sort()
    return [r for i, r in enumerate(roots) if i == 0 or r - roots[i - 1] > 1e-12], r_zero


def solve_policy(params: EconomyParams, mech) -> Equilibrium:
    """Joint fixed point (r, p) for the desegregation policy mechanisms.

    `_policy_roots` enumerates every fixed point exactly. One `_policy_gap`
    call prices each at the kernel's clearing price and verifies its gap
    r - implied_r to 1e-12. It raises NoFixedPointError when there is no
    fixed point or when it clears the market only at the p = 0 corner,
    MultipleFixedPointsError (naming each) when there are several, and
    InteriorViolationError when a cutoff of the one fixed point leaves
    (g, e - g).
    """
    mech = mx.Mechanism(mech)
    if mech not in mx.POLICY:
        raise ValueError(f"solve_policy handles da_l/da_wl; got {mech.value}")
    if not is_example_profile(params):
        raise ValueError("policy mechanisms are defined on the example profile only")
    roots, r_zero = _policy_roots(mech, params)
    gaps, prices, cuts, at_zero = _policy_gap(mech, np.array([0.0, r_zero, *roots]), params)
    loose = np.flatnonzero(np.abs(gaps[2:]) > 1e-12)
    if loose.size:
        i = loose[0]
        raise NoFixedPointError(
            f"{mech.value} fixed point r={roots[i]!r} leaves a gap of {gaps[2 + i]:.3g}")
    # p = 0 clears the market for every r up to some r_c, the corner, and the
    # gap rises in r there. So a fixed point lies in the corner iff the gap
    # is negative at r = 0 and r_zero < r_c: p = 0 overfills the market at r_zero.
    corner = gaps[0] < 0.0 < at_zero[1]
    found = [(r, r) for r in roots]
    if corner:
        found.insert(0, (r_zero, roots[0] if roots else 1.0))
    if len(found) > 1:
        raise MultipleFixedPointsError(mech, tuple(found))
    if corner:
        raise NoFixedPointError(
            f"{mech.value} fixed point in ({r_zero:.6g}, 1] clears the housing market only "
            f"at the p = 0 corner (residual {at_zero[1]:.3g} there at r={r_zero:.6g})")
    if not found:
        raise NoFixedPointError(f"no rejection fixed point for {mech.value}")
    r = roots[0]
    cuts = tuple(zip(params.wealth.omegas.tolist(), cuts[2].tolist()))
    _check_interior(params, cuts)
    rhos = [rho for _, rho in params.wealth.atoms]
    e_s = sum(rho * s for (_, s), rho in zip(cuts, rhos))
    res = sum(rho * _cdf_at(params.cdf, s) for (_, s), rho in zip(cuts, rhos)) - (1.0 - params.q)
    r_by_omega = tuple((w, float(mx.policy_rejection(mech, r, w, params))) for w, _ in cuts)
    return Equilibrium(mech, r, float("nan"), float(prices[2]), float("nan"),
                       cuts, e_s, res, 0, params, r_by_omega)


# verify_lemma1's signal grid on [0, 1], increasing
_LEMMA1_GRID = np.arange(0.0, 1.0 + 1e-9, 1e-3)
_LEMMA1_GRID.flags.writeable = False


def verify_lemma1(params: EconomyParams, mech) -> AssumptionReport:
    """Grid regression of the utility-gain monotonicity properties."""
    mech = mx.Mechanism(mech)
    r_hat, p_hat, p_bar = rejection_and_bounds(params, mech)
    grid = _LEMMA1_GRID
    # the grid increases, so its points <= g + 1e-12 are a prefix and its
    # points >= g - 1e-12 a suffix
    below = grid.searchsorted(params.g + 1e-12, side="right")
    above = grid.searchsorted(params.g - 1e-12, side="left")
    omegas, rs, prices = params.wealth.omegas, list({r_hat, 1.0}), (0.0, p_hat, p_bar)
    # every (omega, r, p) at once, as (omegas, rs, prices, signals): the
    # grid, then g, where the gain at p = 0 is checked
    du = mx.delta_u(mech, np.array(rs)[:, None, None], np.array(prices)[:, None],
                    np.append(grid, params.g), omegas[:, None, None, None], params)
    at_zero = (du[:, :, 0, -1] >= -1e-12).tolist()
    # steps between neighbouring grid points, as np.diff takes them
    # (below >= 1, since the grid starts at 0 <= g)
    weak = ((du[..., 1:below] - du[..., :below - 1]) >= -1e-12).all(axis=-1).tolist()
    strict = ((du[..., above + 1:-1] - du[..., above:-2]) > 0.0).all(axis=-1).tolist()
    r_names = [f"{r:.3g}" for r in rs]
    p_names = [f"{p:.3g}" for p in prices]
    checks = []
    for i, omega in enumerate(map(str, omegas.tolist())):
        for j, r in enumerate(r_names):
            checks.append((f"du(r={r},0|g,{omega})>=0", at_zero[i][j]))
            for k, p in enumerate(p_names):
                checks.append((f"weak increase on [0,g] (r={r},p={p},w={omega})", weak[i][j][k]))
                checks.append((f"strict increase on [g,1] (r={r},p={p},w={omega})",
                               strict[i][j][k]))
    return AssumptionReport("lemma1", tuple(checks))
