"""Per-mechanism primitives: flows, rejection rates, cutoff functionals, utility gains.

All N/DA/TTC algebra lives in the CORE_ALGEBRA table: the slope and root of
the cutoff functional gamma, the floor line of the utility gain, the weight
of the exchange flow in the rejection rate, and the weight that carries
neighborhood over-representation into the school. The solver, price bounds,
utility gains, school masses and match quality, and the Theorem-2
thresholds read that table; the DA_L/DA_WL policies have their own gains
below.
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
POLICY = (Mechanism.DA_L, Mechanism.DA_WL)


class DegenerateChoiceError(ValueError):
    """Rejection probability hit zero; cutoff equations are undefined."""


@dataclass(frozen=True)
class AggregateFlows:
    """Per-school ex-post flows: out-of-zone demand D, vacated supply S,
    in-zone exchange volume X. All independent of the cutoff profile."""

    D: float
    S: float
    X: float


def _flows_at(params, fs: float) -> tuple[float, float, float]:
    """D, S, X when the cutoff signal has F(s) = fs."""
    f, g, e, pi = params.cdf, params.g, params.e, params.pi
    fg = f.value(g)
    feg = f.value(e - g)
    fepg = f.value(min(e + g, 1.0))
    D = (1.0 - pi) * (fs - fg) + pi * (fg + feg)
    S = pi * (fepg - fs)
    X = pi * (feg - fs)
    return D, S, X


def aggregate_flows(params) -> AggregateFlows:
    """The flows at any market-clearing cutoff profile, where F(s) = 1 - q."""
    return AggregateFlows(*_flows_at(params, 1.0 - params.q))


def type_flows(params, s: float) -> tuple[float, float, float]:
    """Flows conditional on cutoff signal s: D(s), S(s), X(s)."""
    return _flows_at(params, params.cdf.value(s))


@dataclass(frozen=True)
class CoreAlgebra:
    """The coefficients that set one core mechanism's equilibrium apart.

    N, DA and TTC share everything else: cutoffs s_w = a + d w on the root a
    of gamma, market clearing sum rho_w F(s_w) = 1 - q, and price p = r kappa d.
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


class _CoreTable(dict):
    def __missing__(self, mech):
        raise ValueError(f"{Mechanism(mech).value} is not a core mechanism (n, da, ttc)")


# The one place that tells N, DA and TTC apart; a policy mechanism raises ValueError.
CORE_ALGEBRA = MappingProxyType(_CoreTable({
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


def rejection_ratio(params, mech: Mechanism):
    """(D - S - delta_q) / (D - exchange X) before clamping into [0, 1]; 1
    under no choice. Broadcasts over a batch of CDFs in params.cdf."""
    exchange = CORE_ALGEBRA[Mechanism(mech)].exchange
    if exchange is None:
        return 1.0
    fl = aggregate_flows(params)
    return (fl.D - fl.S - params.delta_q) / (fl.D - exchange * fl.X)


def rejection(params, mech: Mechanism) -> float:
    """Equilibrium rejection probability of an out-of-zone lottery applicant."""
    mech = Mechanism(mech)
    r = max(0.0, rejection_ratio(params, mech))
    if r <= 0.0:
        raise DegenerateChoiceError(f"rejection probability is 0 under {mech.value}")
    return min(r, 1.0)


def rejection_rates(params, mech: Mechanism) -> np.ndarray:
    """`rejection` for each CDF of a batch in params.cdf, 0 where it would raise."""
    return np.minimum(np.maximum(0.0, rejection_ratio(params, mech)), 1.0)


def r_da_uniform(params) -> float:
    """The DA rejection probability a uniform signal CDF would produce."""
    q, g, e, pi = params.q, params.g, params.e, params.pi
    return (1.0 - q - g) / ((1.0 - pi) * (1.0 - q - g) + pi * e)


def gamma(mech: Mechanism, s, params):
    """Linear cutoff functional; the cutoff solves gamma(s_w) = w p / r."""
    return CORE_ALGEBRA[Mechanism(mech)].gamma(s, params)


def delta_u(mech: Mechanism, r: float, p: float, s, omega: float, params):
    """Expected utility gain of buying in-zone at signal s versus staying out.

    Delta u / r is convex and piecewise linear in s: the upper envelope of
    the mechanism's floor line, which holds on s <= g, and the gamma of this
    mechanism and of every core mechanism before it (each later piece of DA
    and TTC is an earlier mechanism's gamma). Continuous, weakly increasing
    in s (strictly above g), and strictly decreasing in p. Accepts scalar or
    array s, and r and p that broadcast against it.
    """
    mech = Mechanism(mech)
    r_ok = (0.0 < r) & (r <= 1.0)  # a bool, or a bool array for an array r
    if not (r_ok.all() if isinstance(r_ok, np.ndarray) else r_ok):
        raise ValueError("r must lie in (0, 1]")
    s = np.asarray(s, dtype=float)
    lines = [CORE_ALGEBRA[mech].floor]
    lines += [CORE_ALGEBRA[m].gamma for m in CORE[:CORE.index(mech) + 1]]
    out = r * functools.reduce(np.maximum, (line(s, params) for line in lines)) - omega * p
    return out if out.ndim else float(out)


def policy_delta_u(mech: Mechanism, r: float, p: float, s, omega: float, params):
    """Utility gain under the desegregation policies on the example profile.

    DA_L: a pooled lottery over all out-of-district residents fills vacated
    seats; one rejection probability r for everyone. DA_WL: only poor
    out-of-district residents enter the lottery; r applies to the poor type
    and rich out-of-zone rejection is fixed at 1.
    """
    from .economy import is_example_profile

    mech = Mechanism(mech)
    if not is_example_profile(params):
        raise ValueError("policy mechanisms are defined on the example profile only")
    s = np.asarray(s, dtype=float)
    base = (s + 1.0) / 3.0 + s / 3.0
    if mech == Mechanism.DA_L:
        out = -(1.0 - r) * (1.0 - s) / 3.0 + r * base - omega * p
    elif mech == Mechanism.DA_WL:
        if abs(omega - params.wealth.poorest) < 1e-12:
            out = -(1.0 - r) * (1.0 - s) / 3.0 + r * base - omega * p
        else:
            out = base - omega * p
    else:
        raise ValueError(f"{mech.value} is not a policy mechanism")
    return out if out.ndim else float(out)
