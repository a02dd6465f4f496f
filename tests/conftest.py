"""Shared fixtures, the random valid-economy sampler, the step-0.1 cube's
economies, a call counter, the DA-less count of a kink sweep and the
cutoff-form check of finite TTC."""
import itertools
import random
import sys

import numpy as np
import pytest

import segsolve as ss
import segsolve.sweep as sweep
from segsolve import mechanisms as mx
from segsolve.cdf import PiecewiseLinear, Power, SingleKink, Uniform, enumerate_single_kink
from segsolve.economy import (EconomyError, EconomyParams, WealthDist,
                              check_assumption1, check_assumption2)
from segsolve.equilibrium import SolveError, solve


# Three types and Power F: at the middle type (omega 0.999667344957495) the
# n1 over-representation F(s) - (1-q) changes sign from N to TTC and from
# DA to TTC, so `check_theorems` ranks those pairs on the other two types.
SIGN_FLIP_CONFIG = {
    "m": 2, "q": 0.38491987736271294, "g": 0.02486113579889656,
    "e": 0.7570372999155042, "pi": 0.24738647223340765,
    "wealth": [[0.9495747684167378, 0.3544946700128024],
               [0.999667344957495, 0.25248335301957303],
               [1.0456958306238369, 0.3930219769676247]],
    "cdf": {"type": "power", "alpha": 0.7823670875879087}}


@pytest.fixture
def example():
    return ss.example_economy()


def _random_wealth(rng: random.Random) -> WealthDist:
    k = rng.randint(2, 4)
    while True:
        omegas = sorted(rng.uniform(0.88, 1.12) for _ in range(k))
        if min(b - a for a, b in zip(omegas, omegas[1:])) > 1e-3:
            break
    weights = [rng.uniform(0.5, 1.5) for _ in range(k)]
    total = sum(weights)
    rhos = [w / total for w in weights]
    mean = sum(w * r for w, r in zip(omegas, rhos))
    return WealthDist(tuple((w / mean, r) for w, r in zip(omegas, rhos)))


def _random_cdf(rng: random.Random):
    kind = rng.choice(["uniform", "power", "kink", "piecewise"])
    if kind == "uniform":
        return Uniform()
    if kind == "power":
        return Power(rng.uniform(0.6, 1.0))
    if kind == "kink":
        x = rng.uniform(0.15, 0.7)
        y = rng.uniform(x, min(0.98, x + 0.3))
        return SingleKink(x, y)
    alpha = rng.uniform(0.65, 1.0)
    xs = (1.0 / 3.0, 2.0 / 3.0)
    return PiecewiseLinear(((0.0, 0.0),) + tuple((x, x ** alpha) for x in xs)
                           + ((1.0, 1.0),))


def random_concave_cdf(rng: random.Random, max_inner: int = 4) -> PiecewiseLinear:
    """A concave piecewise-linear CDF with up to max_inner interior knots;
    its last segment is flat (F reaches 1 early) one time in three."""
    while True:
        xs = sorted(rng.uniform(0.02, 0.98) for _ in range(rng.randint(1, max_inner)))
        if min(b - a for a, b in zip([0.0] + xs, xs + [1.0])) > 1e-3:
            break
    slopes = sorted((rng.uniform(0.05, 3.0) for _ in xs + [1.0]), reverse=True)
    if rng.random() < 1.0 / 3.0:
        slopes[-1] = 0.0
    ys, y = [], 0.0
    for x0, x1, slope in zip([0.0] + xs, xs + [1.0], slopes):
        y += slope * (x1 - x0)
        ys.append(y)
    inner = tuple((x, yk / ys[-1]) for x, yk in zip(xs, ys))
    return PiecewiseLinear(((0.0, 0.0),) + inner + ((1.0, 1.0),))


def random_knot_batch(rng: random.Random, k: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) knot arrays of `rows` random concave CDFs with k knots each;
    k = 2 is the uniform CDF."""
    fs = []
    while len(fs) < rows:
        f = random_concave_cdf(rng, max_inner=k - 2) if k > 2 else Uniform()
        if len(f.knots) == k:
            fs.append(f)
    return np.array([f._xs for f in fs]), np.array([f._ys for f in fs])


def random_economy(rng: random.Random, uniform_binary: bool = False,
                   max_tries: int = 500):
    """Sample parameters until both assumptions hold and n/da/ttc all solve.

    Returns (params, {mech: equilibrium}).
    """
    for _ in range(max_tries):
        q = rng.uniform(0.25, 0.75)
        pi = rng.uniform(0.08, 0.42)
        e = rng.uniform(0.6, 1.0)
        g = rng.uniform(0.0, min(0.08, 1.0 - e))
        if uniform_binary:
            cdf = Uniform()
            wealth = ss.binary_wealth(rng.uniform(0.2, 0.8),
                                      spread=rng.uniform(0.1, 0.3))
        else:
            cdf = _random_cdf(rng)
            wealth = _random_wealth(rng)
        try:
            params = EconomyParams(m=2, q=q, g=g, e=e, pi=pi,
                                   wealth=wealth, cdf=cdf)
        except EconomyError:
            continue
        if not check_assumption1(params).passed:
            continue
        if not check_assumption2(params).passed:
            continue
        try:
            eqs = {mech: solve(params, mech) for mech in mx.CORE}
        except (SolveError, mx.DegenerateChoiceError):
            continue
        return params, eqs
    raise RuntimeError("could not sample a valid economy")


# the (rho_p, q, pi) axes of the published cube
DEFAULT_CUBE = ((0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8), (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
                (0.1, 0.2, 0.3, 0.4))


def cube_kink_economies() -> list[EconomyParams]:
    """Every economy of the published step-0.1 cube, one per (rho_p, q, pi)
    cell and grid kink, cells in sweep order and kinks in grid order: 8,820."""
    kinks = enumerate_single_kink(0.1)
    return [EconomyParams(m=2, q=q, g=0.0, e=1.0, pi=pi, wealth=ss.binary_wealth(rho_p), cdf=f)
            for rho_p, q, pi in itertools.product(*DEFAULT_CUBE) for f in kinks]


def count_calls(monkeypatch, names):
    """Count calls to each "<module>.<function>" of segsolve in `names`,
    wherever a segsolve module binds the function, as the bench tracer does."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "segsolve"]
    for name in names:
        module, attr = name.split(".")
        fn = getattr(sys.modules[f"segsolve.{module}"], attr)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
    return counts


def da_less_count(result, params) -> tuple[int, int]:
    """(feasible count, count with school segregation strictly lower under
    DA) of a kink sweep over the one economy `params`."""
    less = sweep._da_less(result.share_n, result.share_da, params.wealth.poor_rho)
    return int(np.count_nonzero(result.feasible)), int(np.count_nonzero(less))


def policy_utility_gain(mech, r, p, s, omega, params):
    """The utility gain under a policy at signal s and price p: the line of
    `mechanisms.policy_gain` less omega p. Broadcasts r, s and omega."""
    at_zero, slope = mx.policy_gain(mech, r, omega, params)
    return at_zero + slope * np.asarray(s, dtype=float) - omega * p


def assert_ttc_cutoff_form(residency, first, lottery, asg):
    """TTC's seats in cutoff form: every resident who wants their home school
    is seated there; in each (home, first choice) group, the students seated
    at their first choice are a head of the group in lottery order; and with
    worst[b] the worst lottery number among the n0 students seated at b, a
    resident of another zone who wants b, with a number at most worst[b], is
    seated at b."""
    got = asg == first
    home = (residency == first) & (first > 0)
    assert np.all(got[home])
    order = np.argsort(lottery, kind="stable")
    res, top, seated = residency[order], first[order], got[order]
    m = int(max(residency.max(), first.max()))
    for b in range(1, m + 1):
        for h in range(m + 1):
            group = seated[(res == h) & (top == b)]
            assert np.all(group[:-1] >= group[1:]), (h, b)
        admitted = (residency == 0) & (first == b) & got
        if admitted.any():
            movers = (residency > 0) & (residency != b) & (first == b)
            movers &= lottery <= lottery[admitted].max()
            assert np.all(got[movers]), b
