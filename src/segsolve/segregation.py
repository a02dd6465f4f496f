"""Neighborhood and school wealth profiles and the segregation comparisons."""
from __future__ import annotations

import enum
from dataclasses import dataclass

from . import mechanisms as mx
from .cdf import AssumptionReport, PiecewiseLinear, Power, SignalCdf
from .economy import EconomyParams
from .equilibrium import Equilibrium, solve_core

EQUAL_TOL = 1e-9


class SignMismatchError(ValueError):
    """Wealth type changes over/under-representation sign between mechanisms."""


class NegativeMassError(ValueError):
    """Closed-form school mass went negative; outside the analyzed regime."""


class Comparison(enum.Enum):
    GREATER = "greater"
    SMALLER = "smaller"
    EQUAL = "equal"


@dataclass(frozen=True)
class SegregationProfile:
    location: str
    masses: tuple[tuple[float, float], ...]  # (omega, mass), poorest first
    avg_wealth: float
    poor_share: float

    @property
    def deviation(self) -> float:
        return abs(self.avg_wealth - 1.0)

    def mass(self, omega: float) -> float:
        for w, m in self.masses:
            if abs(w - omega) < 1e-12:
                return m
        raise KeyError(omega)


def make_profile(location: str, masses) -> SegregationProfile:
    masses = tuple(masses)
    total = sum(m for _, m in masses)
    avg = sum(w * m for w, m in masses) / total if total > 0 else float("nan")
    poor = masses[0][1] / total if total > 0 else float("nan")
    return SegregationProfile(location, masses, avg, poor)


def neighborhood_profile(eq: Equilibrium) -> tuple[SegregationProfile, SegregationProfile]:
    """Wealth profiles of (n1, n0) implied by the cutoffs."""
    f = eq.params.cdf
    rhos = dict(eq.params.wealth.atoms)
    n1 = [(w, rhos[w] * (1.0 - f.value(s))) for w, s in eq.cutoffs]
    n0 = [(w, rhos[w] * f.value(s)) for w, s in eq.cutoffs]
    return make_profile("n1", n1), make_profile("n0", n0)


def school_masses(params, mech, r, cutoffs) -> list:
    """(omega, unweighted mass) at one oversubscribed school for each
    (omega, s) cutoff, from the closed forms; broadcasts over a batch."""
    algebra = mx.CORE_ALGEBRA[mech]
    return [(w, algebra.school_mass(params.cdf.value(s), r, params)) for w, s in cutoffs]


def school_profile(eq: Equilibrium) -> SegregationProfile:
    """Wealth profile of one oversubscribed school from the closed forms."""
    rhos = dict(eq.params.wealth.atoms)
    masses = []
    for w, unweighted in school_masses(eq.params, eq.mech, eq.r, eq.cutoffs):
        if unweighted < -EQUAL_TOL:
            raise NegativeMassError(
                f"school mass {unweighted:.3g} for omega={w} under {eq.mech.value}")
        masses.append((w, rhos[w] * unweighted))
    return make_profile("c1", masses)


def expansion_rate(eq_from: Equilibrium, eq_to: Equilibrium, omega: float) -> float:
    """How much a type's n1 over/under-representation scales between mechanisms."""
    f = eq_from.params.cdf
    q = eq_from.params.q
    a = f.value(eq_from.cutoff(omega)) - (1.0 - q)
    b = eq_to.params.cdf.value(eq_to.cutoff(omega)) - (1.0 - q)
    if a == 0.0 or (a > 0) != (b > 0):
        raise SignMismatchError(
            f"omega={omega} flips representation sign: {a:.3g} vs {b:.3g}")
    return abs(b) / abs(a)


def compare(a: SegregationProfile, b: SegregationProfile) -> Comparison:
    if a.deviation > b.deviation + EQUAL_TOL:
        return Comparison.GREATER
    if a.deviation < b.deviation - EQUAL_TOL:
        return Comparison.SMALLER
    return Comparison.EQUAL


def _threshold(a: mx.Mechanism, b: mx.Mechanism, r_a: float, r_b: float,
               params: EconomyParams) -> float:
    """(r_A c_A) / (r_B c_B) given the rejection rates r_A and r_B."""
    c_a = mx.CORE_ALGEBRA[a].c(params)
    c_b = mx.CORE_ALGEBRA[b].c(params)
    return (r_a * c_a) / (r_b * c_b)


def _is_uniform_shape(cdf: SignalCdf) -> bool:
    """F(x) = x: every knot on the diagonal, or a power of one."""
    if isinstance(cdf, Power):
        return cdf.alpha == 1.0
    return isinstance(cdf, PiecewiseLinear) and all(x == y for x, y in cdf.knots)


def check_theorems(params: EconomyParams, eqs=None) -> AssumptionReport:
    """Assert every applicable ranking result on the N, DA and TTC
    equilibria eqs of params, in that order; with eqs None, one
    `solve_core` pass solves them, checking assumptions 1 and 2."""
    N, DA, TTC = mx.CORE
    eqs = dict(zip(mx.CORE, solve_core(params) if eqs is None else eqs))
    n1 = {mech: neighborhood_profile(eqs[mech])[0] for mech in mx.CORE}
    c1 = {mech: school_profile(eqs[mech]) for mech in mx.CORE}
    checks: list[tuple[str, bool]] = []

    # dispersion and neighborhood-segregation ordering
    checks.append(("d^N < d^DA", eqs[N].d < eqs[DA].d))
    checks.append(("d^DA < d^TTC", eqs[DA].d < eqs[TTC].d))
    checks.append(("E[s] ordering", eqs[N].e_s <= eqs[DA].e_s + EQUAL_TOL
                   and eqs[DA].e_s <= eqs[TTC].e_s + EQUAL_TOL
                   and eqs[TTC].e_s <= 1.0 - params.q + EQUAL_TOL))
    checks.append(("n1 deviation: DA > N", n1[DA].deviation > n1[N].deviation))
    checks.append(("n1 deviation: TTC > DA", n1[TTC].deviation > n1[DA].deviation))

    # school segregation sufficient conditions, over the types that keep their
    # representation sign; the "smaller" direction holds only for pairs from N
    for (a, b), two_sided in (((N, DA), True), ((N, TTC), True), ((DA, TTC), False)):
        thr = _threshold(a, b, eqs[a].r, eqs[b].r, params)  # r is mx.rejection's
        rates = []
        for w in params.wealth.omegas:
            try:
                rates.append(expansion_rate(eqs[a], eqs[b], w))
            except SignMismatchError:
                pass
        label = f"{a.value}->{b.value}"
        cmp = compare(c1[b], c1[a])
        if rates and all(rate > thr + EQUAL_TOL for rate in rates):
            checks.append((f"school seg {label}: greater", cmp == Comparison.GREATER))
        if two_sided and rates and all(rate < thr - EQUAL_TOL for rate in rates):
            checks.append((f"school seg {label}: smaller", cmp == Comparison.SMALLER))

    # price orderings; solve stores r = mx.rejection(params, mech)
    if eqs[DA].r >= mx.r_da_uniform(params) - 1e-12:
        checks.append(("p^N <= p^DA", eqs[N].p <= eqs[DA].p + EQUAL_TOL))
    if params.e - params.g > 1.0 - params.q + 1e-12:
        checks.append(("p^DA < p^TTC", eqs[DA].p < eqs[TTC].p))

    # uniform-F exact equalities, whatever the CDF's class
    if _is_uniform_shape(params.cdf):
        diff = max(abs(c1[N].mass(w) - c1[DA].mass(w)) for w in params.wealth.omegas)
        checks.append(("uniform: c1 profiles N = DA", diff <= 1e-10))
        checks.append(("uniform: school seg TTC > N",
                       compare(c1[TTC], c1[N]) == Comparison.GREATER))

    # binary-wealth characterization at g=0, e=1
    if (params.wealth.is_binary() and abs(params.g) < 1e-12
            and abs(params.e - 1.0) < 1e-12):
        checks.append(("binary: school seg TTC > N",
                       compare(c1[TTC], c1[N]) == Comparison.GREATER))
        checks.append(("binary: school seg TTC > DA",
                       compare(c1[TTC], c1[DA]) == Comparison.GREATER))
        # N and DA seat the same profile when F is uniform, whatever its
        # class, so the strict ranking needs F off the diagonal
        if 1.0 - params.q < params.wealth.poor_rho - 1e-12 and not _is_uniform_shape(params.cdf):
            checks.append(("binary 1-q<rho_p: school seg DA > N",
                           compare(c1[DA], c1[N]) == Comparison.GREATER))

    return AssumptionReport("theorems", tuple(checks))
