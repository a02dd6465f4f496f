"""Per-mechanism primitives: flows, rejection rates, cutoff functionals, utility gains.

`flows_at` gives the ex-post flows of a school, out-of-zone demand D,
vacated supply S and in-zone exchange volume X, at any F(s); a
market-clearing profile has F(s) = 1 - q, where `clearing_flows` gives
them for one economy, as `rejection` reads them, and the kink sweep reads
them for a batch.

All N/DA/TTC algebra lives in the CORE_ALGEBRA table: the slope and root of
the cutoff functional gamma, the floor line of the utility gain, the weight
of the exchange flow in the rejection rate, and the weight that carries
neighborhood over-representation into the school. The solver, price bounds,
utility gains, school masses and match quality, and the Theorem-2
thresholds read that table. The DA_L/DA_WL policies read DA's row and one
entry of POLICY_LOTTERY: which wealth types enter the lottery for vacated seats.
"""
from __future__ import annotations

import enum
import functools
from collections.abc import Callable
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np


class Mechanism(str, enum.Enum):
    N = "n"
    DA = "da"
    TTC = "ttc"
    DA_L = "da_l"
    DA_WL = "da_wl"


CORE = (Mechanism.N, Mechanism.DA, Mechanism.TTC)


class DegenerateChoiceError(ValueError):
    """Rejection probability hit zero; cutoff equations are undefined."""


def anchor_points(params) -> tuple[float, float, float]:
    """g, e - g and min(e + g, 1): the signals at which F fixes the flows."""
    return params.g, params.e - params.g, min(params.e + params.g, 1.0)


def flows_at(params, fs, fg, feg, fepg) -> tuple[float, float, float]:
    """D, S, X when the cutoff signal has F(s) = fs, given F at the
    anchor_points; broadcasts over a batch of CDFs."""
    pi = params.pi
    D = (1.0 - pi) * (fs - fg) + pi * (fg + feg)
    S = pi * (fepg - fs)
    X = pi * (feg - fs)
    return D, S, X


@dataclass(frozen=True)
class CoreAlgebra:
    """The coefficients that set one core mechanism's equilibrium apart.

    N, DA and TTC share everything else: cutoffs s_w = a + d w on the root a
    of gamma, market clearing sum rho_w F(s_w) = 1 - q, and price p = r kappa d.
    Each entry reads scalars from params.
    """

    gamma: Callable[..., float]      # (s, params): cutoffs solve gamma(s_w) = w p / r
    floor: Callable[..., float]      # (s, params): the gain per unit r on s <= g
    kappa: Callable[..., float]      # params -> slope of gamma
    intercept: Callable[..., float]  # params -> root a of gamma
    exchange: float | None           # weight of X in the rejection denominator; None: r = 1
    c: Callable[..., float]          # params -> weight of n1 over-representation in the school

    def school_mass(self, fs: float, r: float, params) -> float:
        """Unweighted mass at one oversubscribed school of a type with F(s_w) = fs."""
        if self.exchange is None:
            # no choice: the school holds its residents. Equal to the line below
            # at r = c = 1, but that form differs in the last bit of the output.
            return 1.0 - fs
        return params.q - r * self.c(params) * (fs - (1.0 - params.q))

    def school_quality(self, s: float, r: float, params) -> float:
        """Unweighted match quality (summed fit) at one oversubscribed school
        of a type with cutoff s; the twin of `school_mass`."""
        f, g, e, pi = params.cdf, params.g, params.e, params.pi
        if self.exchange is None:
            return f.partial_mean(s, 1.0)  # the residents; their mean shock is 0
        top = min(e + g, 1.0)
        # residents with shock 0 or +e, and those with shock -e above e + g
        stay = ((1.0 - pi) * f.partial_mean(s, 1.0) + pi * e * (1.0 - f.value(s))
                + pi * (f.partial_mean(top, 1.0) - e * (1.0 - f.value(top))))
        # non-residents whose fit beats g, and the twin zone's -e shocks below e - g
        pool = ((1.0 - 2.0 * pi) * f.partial_mean(g, s)
                + pi * (f.partial_mean(0.0, s) + e * f.value(s))
                + pi * (e * f.value(e - g) - f.partial_mean(0.0, e - g)))
        # twin residents with shock -e on (s, e - g), swapped for local ones
        trade = self.exchange * pi * (e * (f.value(e - g) - f.value(s))
                                      - f.partial_mean(s, e - g))
        return stay + trade + (1.0 - r) * (pool - trade)


class _Table(dict):
    def __missing__(self, mech):
        raise ValueError(f"{Mechanism(mech).value} is not one of {', '.join(self)}")


# The one place that tells N, DA and TTC apart; a policy mechanism raises ValueError.
CORE_ALGEBRA = MappingProxyType(_Table({
    Mechanism.N: CoreAlgebra(
        gamma=lambda s, p: s - p.g,
        floor=lambda s, p: s - p.g,
        kappa=lambda p: 1.0,
        intercept=lambda p: p.g,
        exchange=None,
        c=lambda p: 1.0),
    Mechanism.DA: CoreAlgebra(
        gamma=lambda s, p: (1.0 - p.pi) * (s - p.g) + p.pi * p.e,
        floor=lambda s, p: p.pi * (s + p.e - p.g),
        kappa=lambda p: 1.0 - p.pi,
        intercept=lambda p: p.g - p.pi * p.e / (1.0 - p.pi),
        exchange=0.0,
        c=lambda p: 1.0 - p.pi),
    Mechanism.TTC: CoreAlgebra(
        gamma=lambda s, p: (1.0 - 2.0 * p.pi) * s + 2.0 * p.pi * p.e - p.g,
        floor=lambda s, p: 2.0 * p.pi * (p.e - p.g),
        kappa=lambda p: 1.0 - 2.0 * p.pi,
        intercept=lambda p: (p.g - 2.0 * p.pi * p.e) / (1.0 - 2.0 * p.pi),
        exchange=1.0,
        c=lambda p: 1.0),
}))

# The one place that tells DA_L and DA_WL apart: how many wealth types, poorest
# first, enter the lottery for vacated seats (None: all). Both are otherwise DA:
# a type in the lottery is rejected out of zone at its rate r, any other for sure.
POLICY_LOTTERY = MappingProxyType(_Table({Mechanism.DA_L: None, Mechanism.DA_WL: 1}))
POLICY = tuple(POLICY_LOTTERY)


def _rejection_ratio(params, exchange: float, D, S, X):
    """(D - S - delta_q) / (D - exchange X) before clamping into [0, 1],
    given the flows and the mechanism's exchange weight."""
    return (D - S - params.delta_q) / (D - exchange * X)


def clearing_flows(params) -> tuple[float, float, float]:
    """D, S, X at any market-clearing cutoff profile, where F(s) = 1 - q."""
    return flows_at(params, 1.0 - params.q, *map(params.cdf.value, anchor_points(params)))


def rejection(params, mech: Mechanism) -> float:
    """Equilibrium rejection probability of an out-of-zone lottery applicant."""
    mech = Mechanism(mech)
    exchange = CORE_ALGEBRA[mech].exchange
    if exchange is None:  # no choice: every out-of-zone applicant is rejected
        return 1.0
    r = max(0.0, _rejection_ratio(params, exchange, *clearing_flows(params)))
    if r <= 0.0:
        raise DegenerateChoiceError(f"rejection probability is 0 under {mech.value}")
    return min(r, 1.0)


def rejection_rates(params, mech: Mechanism, flows):
    """`rejection` for each CDF of a batch, 0 where it would raise, given
    the batch's flows (D, S, X) from `flows_at`; 1 under no choice, where
    they are not read."""
    exchange = CORE_ALGEBRA[mech].exchange
    if exchange is None:
        return 1.0
    return np.minimum(np.maximum(0.0, _rejection_ratio(params, exchange, *flows)), 1.0)


def r_da_uniform(params) -> float:
    """The DA rejection probability a uniform signal CDF would produce."""
    q, g, e, pi = params.q, params.g, params.e, params.pi
    return (1.0 - q - g) / ((1.0 - pi) * (1.0 - q - g) + pi * e)


def gain_envelope(mech: Mechanism, s, params):
    """Delta u / r before the price term, convex and piecewise linear in s:
    the upper envelope of the mechanism's floor line, which holds on s <= g,
    and the gamma of this mechanism and of every core mechanism before it
    (each later piece of DA and TTC is an earlier mechanism's gamma).
    Broadcasts s against the economy's fields."""
    mech = Mechanism(mech)
    lines = [CORE_ALGEBRA[mech].floor]
    lines += [CORE_ALGEBRA[m].gamma for m in CORE[:CORE.index(mech) + 1]]
    return functools.reduce(np.maximum, (line(s, params) for line in lines))


def delta_u(mech: Mechanism, r: float, p: float, s, omega: float, params):
    """Expected utility gain of buying in-zone at signal s versus staying
    out: r `gain_envelope` - omega p. Continuous, weakly increasing in s
    (strictly above g), and strictly decreasing in p. Accepts scalar or
    array s, and r and p that broadcast against it.
    """
    mech = Mechanism(mech)
    if not np.logical_and.reduce((0.0 < r) & (r <= 1.0), axis=None):  # r scalar or array
        raise ValueError("r must lie in (0, 1]")
    out = r * gain_envelope(mech, np.asarray(s, dtype=float), params) - omega * p
    return out if out.ndim else float(out)


def _in_lottery(mech: Mechanism, omega, params):
    """Whether the type omega is at least as poor as the policy's richest entrant."""
    return omega >= params.wealth.omegas[:POLICY_LOTTERY[mech]][-1] - 1e-12


def policy_rejection(mech: Mechanism, r, omega, params):
    """Out-of-zone rejection rate r_w of the type omega under a policy: r if
    it enters the lottery, else 1. Broadcasts r against omega."""
    return np.where(_in_lottery(mech, omega, params), r, 1.0)


def implied_rejection(mech: Mechanism, fs, params):
    """The lottery's rejection rate that seat accounting implies when the
    type cutoffs have F(s_w) = fs[..., w], types poorest first: the vacated
    supply pi sum_w rho_w (1 - F(s_w)) against the eligible pool, the n0
    residents rho_w F(s_w) of the types in the lottery; 0 where the pool
    does not exceed the supply."""
    rhos = params.wealth.rhos
    pool = np.where(_in_lottery(mech, params.wealth.omegas, params), rhos, 0.0)
    vacated = params.pi * (rhos * (1.0 - fs)).sum(axis=-1)
    eligible = (pool * fs).sum(axis=-1)
    return 1.0 - np.divide(vacated, eligible, out=np.ones_like(vacated),
                           where=eligible > vacated)


def policy_gain(mech: Mechanism, r, omega, params):
    """(Value at s = 0, slope) of the line r_w gamma_DA(s) - (1 - r_w) pi (e - s),
    the utility gain under a policy before the price term, at the type's
    `policy_rejection` r_w (1 outside the lottery: plain DA's gain at r = 1)."""
    r_w = policy_rejection(mech, r, omega, params)
    da = CORE_ALGEBRA[Mechanism.DA]
    lottery = (1.0 - r_w) * params.pi
    return (r_w * da.gamma(0.0, params) - lottery * params.e,
            r_w * da.kappa(params) + lottery)
