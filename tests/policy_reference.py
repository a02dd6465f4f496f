"""The bisection housing-market clearing of the earlier `solve_policy`, kept
as a reference.

`equilibrium._policy_gap` clears the market at each rejection rate r with
the exact piecewise-linear kernel, on cutoffs written as intercept + slope
times p. `clear_price_reference` is the bisection on p in [0, 4] down to a
bracket of 1e-14 that it replaced, on the cutoffs in their original form
(3 w p - (2r - 1)) / (1 + r). `test_equilibrium.py` runs the two against
each other over a grid of r.
"""
from segsolve import mechanisms as mx
from segsolve.equilibrium import MAX_ITER, NoFixedPointError


def policy_cutoffs_reference(mech, r, p, params):
    """Roots in s of the policy utility gain, the `mechanisms.policy_gain`
    line less omega p, one per wealth type (linear in s)."""
    out = []
    for w, _ in params.wealth.atoms:
        if mech == mx.Mechanism.DA_WL and abs(w - params.wealth.poorest) > 1e-12:
            s = (3.0 * w * p - 1.0) / 2.0
        else:
            s = (3.0 * w * p - (2.0 * r - 1.0)) / (1.0 + r)
        out.append((w, s))
    return tuple(out)


def clear_price_reference(mech, r, params):
    """The price in [0, 4] that clears the housing market at rejection rate
    r, 0 if the market clears or overshoots at a zero price."""
    mech = mx.Mechanism(mech)
    f = params.cdf
    rhos = [rho for _, rho in params.wealth.atoms]
    target = 1.0 - params.q

    def residual(p):
        cuts = policy_cutoffs_reference(mech, r, p, params)
        return sum(rho * f.value(min(1.0, max(0.0, s)))
                   for (_, s), rho in zip(cuts, rhos)) - target

    lo, hi = 0.0, 4.0
    if residual(lo) >= 0:
        return 0.0
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
    return 0.5 * (lo + hi)
