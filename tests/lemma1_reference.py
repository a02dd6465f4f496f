"""The mask-based `verify_lemma1` that the prefix and suffix slices
replaced, kept as a reference.

`equilibrium.verify_lemma1` reads the [0, g] and [g, 1] parts of its
increasing grid as slices, takes the rejection rate and price bounds from
one `rejection_and_bounds` call and formats each name from Python floats.
`verify_lemma1_reference` is the body before that: boolean masks over the
grid, a separate `rejection` call and one for the price bounds (the tail of
`rejection_and_bounds`, which computes the rate again) and names formatted
from numpy scalars. `test_equilibrium.py` runs the two against each other.
"""
import numpy as np

from segsolve import mechanisms as mx
from segsolve.cdf import AssumptionReport
from segsolve.economy import rejection_and_bounds


def verify_lemma1_reference(params, mech) -> AssumptionReport:
    mech = mx.Mechanism(mech)
    r_hat = mx.rejection(params, mech)
    p_hat, p_bar = rejection_and_bounds(params, mech)[1:]
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
