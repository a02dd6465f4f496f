"""Match-quality and desegregation-policy tables.

The N, DA and TTC rows take masses and quality from mechanisms.CORE_ALGEBRA
and run on any valid economy. The no-priority and auction rows use closed
forms for the example profile; the policy rows take their lottery from
mechanisms.POLICY_LOTTERY and, like the policy equilibria, are defined on
the example profile. All three raise ValueError elsewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mechanisms as mx
from .economy import EconomyParams, example_economy, is_example_profile
from .equilibrium import solve, solve_policy
from .segregation import make_profile, school_masses, school_profile


class NoClearingError(RuntimeError):
    pass


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class MatchQualityRow:
    scenario: str
    poor_share_c1: float       # percent
    poor_quality: float        # fit mass x 100 at one oversubscribed school
    rich_quality: float
    total_quality: float
    poor_share_of_quality: float  # percent

    def rounded(self) -> tuple[int, int, int, int, int]:
        return tuple(round_half_away(v) for v in (
            self.poor_share_c1, self.poor_quality, self.rich_quality,
            self.total_quality, self.poor_share_of_quality))


@dataclass(frozen=True)
class PolicyRow:
    policy: str
    poor_share_n1: float  # percent
    poor_share_c1: float  # percent

    def rounded(self) -> tuple[int, int]:
        return (round_half_away(self.poor_share_n1), round_half_away(self.poor_share_c1))


# published values: Table of segregation and match quality, rows (1)-(7),
# columns (poor share c1 %, poor, rich, total, poor share of quality %)
REFERENCE_TABLE1 = {
    "n": (41, 14, 18, 32, 43),
    "da_short": (45, 19, 24, 43, 45),
    "ttc_short": (41, 15, 22, 37, 41),
    "da": (41, 17, 26, 43, 40),
    "ttc": (9, 4, 32, 36, 10),
    "no_priority": (50, 17, 17, 33, 50),
    "auction": (41, 25, 31, 56, 44),
}
TABLE1_SCENARIOS = tuple(REFERENCE_TABLE1)

# published values: policy table rows (1)-(5), columns (n1 %, c1 %)
REFERENCE_TABLE2 = {
    "da": (33, 41),
    "short_l": (33, 42),
    "short_wl": (33, 55),
    "long_l": (36, 44),
    "long_wl": (10, 40),
}
TABLE2_POLICIES = tuple(REFERENCE_TABLE2)


CORE_SCENARIOS = ("n", "da", "ttc", "da_short", "ttc_short")


def _example_profile(params: EconomyParams | None) -> EconomyParams:
    """params (the example economy if None); the closed forms assume uniform
    F, g = 0, e = 1, pi = 1/3, two schools and binary wealth."""
    params = params or example_economy()
    if not is_example_profile(params):
        raise ValueError("this table is defined on the example profile only")
    return params


def _core_outcome(scenario: str, params: EconomyParams):
    """(c1 masses, quality by type) for the N/DA/TTC table rows; a `_short`
    row keeps the housing locations of N."""
    mech = mx.Mechanism(scenario.removesuffix("_short"))
    located = mx.Mechanism.N if scenario.endswith("_short") else mech
    cutoffs = solve(params, located).cutoffs
    r = mx.rejection(params, mech)
    rhos = dict(params.wealth.atoms)
    quality = mx.CORE_ALGEBRA[mech].school_quality
    masses = [(w, rhos[w] * m) for w, m in school_masses(params, mech, r, cutoffs)]
    return masses, [(w, rhos[w] * quality(s, r, params)) for w, s in cutoffs]


def no_priority_outcome(params: EconomyParams | None = None):
    """Uniform lottery over every school's ex-post top-choice demand."""
    params = _example_profile(params)
    rhos = dict(params.wealth.atoms)
    # per-school demand: primary fits with shock 0/+e plus secondary fits
    # with shock -e; on the example profile this is the whole population mass
    demand = sum(rho * ((1.0 - params.pi) + params.pi) for rho in rhos.values())
    admit = params.q / demand
    masses = [(w, admit * rho) for w, rho in rhos.items()]
    quality = [(w, admit * rho * 5.0 / 6.0) for w, rho in rhos.items()]
    return _row("no_priority", masses, quality), make_profile("c1", masses)


def auction_outcome(params: EconomyParams | None = None):
    """Market-clearing per-seat price; agents buy where ex-post fit beats it."""
    params = _example_profile(params)
    rhos = dict(params.wealth.atoms)

    def clip01(x: float) -> float:
        return min(1.0, max(0.0, x))

    def demand(tau: float) -> float:
        acc = 0.0
        for w, rho in rhos.items():
            acc += rho / 3.0 * (clip01(2.0 - w * tau) + 2.0 * clip01(1.0 - w * tau))
        return acc

    if demand(0.0) < params.q:
        raise NoClearingError("seat demand at a zero price is below capacity")
    lo, hi = 0.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if demand(mid) > params.q:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    masses, quality = [], []
    for w, rho in rhos.items():
        a1 = clip01(w * tau - 1.0)   # +e shock buys iff t+1 > w tau
        b1 = clip01(w * tau)         # no shock buys iff t > w tau
        c1 = clip01(1.0 - w * tau)   # -e shock buys the twin iff 1-t > w tau
        masses.append((w, rho / 3.0 * ((1.0 - a1) + (1.0 - b1) + c1)))
        q_val = ((1.0 - a1 * a1) / 2.0 + (1.0 - a1)
                 + (1.0 - b1 * b1) / 2.0
                 + c1 - c1 * c1 / 2.0)
        quality.append((w, rho / 3.0 * q_val))
    return _row("auction", masses, quality), make_profile("c1", masses)


def _row(scenario: str, masses, quality) -> MatchQualityRow:
    total_m = sum(m for _, m in masses)
    poor_m = masses[0][1]
    poor_q = quality[0][1] * 100.0
    rich_q = sum(v for _, v in quality[1:]) * 100.0
    total_q = poor_q + rich_q
    return MatchQualityRow(
        scenario,
        100.0 * poor_m / total_m,
        poor_q, rich_q, total_q,
        100.0 * poor_q / total_q,
    )


def match_quality(scenario: str, params: EconomyParams | None = None) -> MatchQualityRow:
    params = params or example_economy()
    if scenario in CORE_SCENARIOS:
        return _row(scenario, *_core_outcome(scenario, params))
    if scenario == "no_priority":
        return no_priority_outcome(params)[0]
    if scenario == "auction":
        return auction_outcome(params)[0]
    raise ValueError(f"unknown scenario {scenario!r}")


def table_one(params: EconomyParams | None = None) -> list[MatchQualityRow]:
    params = _example_profile(params)
    return [match_quality(s, params) for s in TABLE1_SCENARIOS]


def _policy_row(policy: str, mech: mx.Mechanism, cutoffs, r, params: EconomyParams) -> PolicyRow:
    """Poor shares of n1 and c1 at fixed locations when vacated c1 seats go
    by the policy's lottery at rejection rate r: a type's n1 residents keep
    (1 - pi) of their mass at c1, and its n0 residents win seats with
    probability 1 - r_w."""
    rhos = params.wealth.rhos
    fs = np.array([params.cdf.value(s) for _, s in cutoffs])
    r_w = mx.policy_rejection(mech, r, params.wealth.omegas, params)
    n1 = rhos * (1.0 - fs)
    c1 = rhos * (1.0 - params.pi) * (1.0 - fs) + (1.0 - r_w) * (rhos * fs)
    return PolicyRow(policy, float(100.0 * n1[0] / n1.sum()), float(100.0 * c1[0] / c1.sum()))


def policy_table(params: EconomyParams | None = None) -> list[PolicyRow]:
    params = _example_profile(params)
    eq_da = solve(params, mx.Mechanism.DA)
    fs = np.array([params.cdf.value(s) for _, s in eq_da.cutoffs])
    # short term: locations fixed at the DA cutoffs
    short = [_policy_row(f"short_{mech.value.removeprefix('da_')}", mech, eq_da.cutoffs,
                         mx.implied_rejection(mech, fs, params), params) for mech in mx.POLICY]
    # plain DA admits from the full out-of-zone pool, not just n0 residents
    rows = [PolicyRow("da", short[0].poor_share_n1, 100.0 * school_profile(eq_da).poor_share),
            *short]
    # long term: endogenous locations under each policy
    for mech in mx.POLICY:
        eq = solve_policy(params, mech)
        rows.append(_policy_row(f"long_{mech.value.removeprefix('da_')}", mech, eq.cutoffs,
                                eq.r, params))
    return rows


def tables_match() -> tuple[bool, list[str]]:
    """Compare both tables to the published integers at +-1."""
    problems = []
    for row in table_one():
        got = row.rounded()
        want = REFERENCE_TABLE1[row.scenario]
        for g, w in zip(got, want):
            if abs(g - w) > 1:
                problems.append(f"table1 {row.scenario}: {got} vs {want}")
                break
    for row in policy_table():
        got = row.rounded()
        want = REFERENCE_TABLE2[row.policy]
        for g, w in zip(got, want):
            if abs(g - w) > 1:
                problems.append(f"table2 {row.policy}: {got} vs {want}")
                break
    return not problems, problems
