"""Model parameters and the pre-solve assumption checks."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mechanisms as mx
from .cdf import (AssumptionReport, CdfError, SignalCdf, Uniform, cdf_from_config,
                  config_number, require_valid)


class EconomyError(ValueError):
    """Structurally invalid parameter vector."""


@dataclass(frozen=True)
class WealthDist:
    """Finite wealth distribution; atoms sorted poorest (largest omega) first.

    `omegas` and `rhos` are the atoms' columns as read-only arrays, built
    once; they are not fields, so equality and hashing stay on `atoms`.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple(sorted(((float(w), float(r)) for w, r in self.atoms), reverse=True))
        object.__setattr__(self, "atoms", atoms)
        omegas = [w for w, _ in atoms]
        rhos = [r for _, r in atoms]
        if not atoms:
            raise EconomyError("wealth distribution needs at least one atom")
        if not all(w > 0 for w in omegas):
            raise EconomyError("wealth indices must be positive")
        if len(set(omegas)) != len(omegas):
            raise EconomyError("wealth indices must be pairwise distinct")
        if not all(r > 0 for r in rhos):
            raise EconomyError("atom probabilities must be positive")
        if not abs(sum(rhos) - 1.0) <= 1e-12:
            raise EconomyError(f"atom probabilities sum to {sum(rhos)}, not 1")
        mean = sum(w * r for w, r in atoms)
        if not abs(mean - 1.0) <= 1e-12:
            raise EconomyError(f"mean wealth index is {mean}, not 1")
        for name, column in (("omegas", omegas), ("rhos", rhos)):
            array = np.array(column)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def poorest(self) -> float:
        return self.atoms[0][0]

    @property
    def poor_rho(self) -> float:
        return self.atoms[0][1]

    def is_binary(self) -> bool:
        return len(self.atoms) == 2


def binary_wealth(rho_poor: float, spread: float = 0.25) -> WealthDist:
    """Two-point wealth distribution with mean 1 and fixed omega spread."""
    w_poor = 1.0 + (1.0 - rho_poor) * spread
    w_rich = 1.0 - rho_poor * spread
    return WealthDist(((w_poor, rho_poor), (w_rich, 1.0 - rho_poor)))


@dataclass(frozen=True)
class EconomyParams:
    m: int
    q: float
    g: float
    e: float
    pi: float
    wealth: WealthDist
    cdf: SignalCdf
    delta_q: float = 0.0

    def __post_init__(self):
        for name in ("m", "q", "delta_q", "g", "e", "pi"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, float, np.integer, np.floating)):
                raise EconomyError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.wealth, WealthDist):
            raise EconomyError(f"wealth must be a WealthDist, got {self.wealth!r}")
        if not isinstance(self.cdf, SignalCdf):
            raise CdfError(f"cdf must be a SignalCdf, got {self.cdf!r}")
        if not self.m >= 2:
            raise EconomyError("need at least two specialized schools")
        if not isinstance(self.m, (int, np.integer)):
            raise EconomyError(f"m must be a whole number, got {self.m!r}")
        if not (0.0 < self.q < 1.0):
            raise EconomyError("q must lie in (0, 1)")
        if not self.delta_q >= 0.0:
            raise EconomyError("delta_q must be nonnegative")
        if not math.isfinite(self.delta_q):
            raise EconomyError("delta_q must be finite")
        if not self.g >= 0.0:
            raise EconomyError("g must be nonnegative")
        if not self.e > 0.0:
            raise EconomyError("e must be positive")
        if not (0.0 < self.pi < 0.5):
            raise EconomyError("pi must lie in (0, 1/2)")
        if not self.e >= self.g:
            raise EconomyError("e must not be less than g")
        if not self.e + self.g <= 1.0 + 1e-12:
            raise EconomyError("e + g must not exceed 1")
        require_valid(self.cdf)

    @classmethod
    def from_config(cls, cfg: dict) -> "EconomyParams":
        known = {"m", "q", "delta_q", "g", "e", "pi", "wealth", "cdf"}
        if not isinstance(cfg, dict):
            raise EconomyError("economy config must be an object")
        extra = set(cfg) - known
        if extra:
            raise EconomyError(f"unknown economy fields {sorted(extra)}")
        missing = known - {"delta_q"} - set(cfg)
        if missing:
            raise EconomyError(f"missing economy fields {sorted(missing)}")
        def number(name, value) -> float:
            return config_number(name, value, EconomyError)

        m = number("m", cfg["m"])
        if not m.is_integer():
            raise EconomyError(f"m must be a whole number, got {cfg['m']!r}")
        wealth = WealthDist(tuple((number("wealth index", w), number("wealth probability", r))
                                  for w, r in cfg["wealth"]))
        return cls(
            m=int(m),
            q=number("q", cfg["q"]),
            delta_q=number("delta_q", cfg.get("delta_q", 0.0)),
            g=number("g", cfg["g"]),
            e=number("e", cfg["e"]),
            pi=number("pi", cfg["pi"]),
            wealth=wealth,
            cdf=cdf_from_config(cfg["cdf"]),
        )

    def to_config(self) -> dict:
        return {
            "m": self.m,
            "q": self.q,
            "delta_q": self.delta_q,
            "g": self.g,
            "e": self.e,
            "pi": self.pi,
            "wealth": [[w, r] for w, r in self.wealth.atoms],
            "cdf": self.cdf.to_config(),
        }


def _assumption1_checks(params, fg, feg):
    """The named inequalities of assumption 1 given fg = F(g) and
    feg = F(e-g); each is a bool, or a bool array over a batch of CDFs."""
    return (
        ("F(g) < 1-q", fg < 1.0 - params.q),
        ("1-q < F(e-g)", 1.0 - params.q < feg),
        ("F(e-g) <= 1", feg <= 1.0 + 1e-12),
    )


def check_assumption1(params: EconomyParams) -> AssumptionReport:
    """Interior-cutoff condition F(g) < 1-q < F(e-g) <= 1.

    The final inequality is strict in general; equality F(e-g) = 1 is
    accepted with a boundary flag (it arises at g = 0, e = 1).
    """
    feg = params.cdf.value(params.e - params.g)
    checks = _assumption1_checks(params, params.cdf.value(params.g), feg)
    boundary = feg >= 1.0 - 1e-12
    return AssumptionReport("assumption1", checks, boundary)


def assumption1_mask(params, fg, feg) -> np.ndarray:
    """check_assumption1(...).passed for each CDF of a batch, given F(g) and
    F(e-g) per CDF."""
    (_, below), (_, above), (_, at_most_one) = _assumption1_checks(params, fg, feg)
    return below & above & at_most_one


def _price_interval(params, mech, r_hat, s_hat):
    """r gamma(s) at s = s_hat = F^-1(1-q) and at s = 1-q; broadcasts over a batch."""
    gamma = mx.CORE_ALGEBRA[mech].gamma
    return r_hat * gamma(s_hat, params), r_hat * gamma(1.0 - params.q, params)


def rejection_and_bounds(params: EconomyParams, mech) -> tuple[float, float, float]:
    """(r, p_hat, p_bar): the mechanism's rejection rate r and the price
    interval [p_hat, p_bar] supporting an interior equilibrium, r gamma(s)
    at s = F^-1(1-q) and at s = 1-q."""
    mech = mx.Mechanism(mech)
    r_hat = mx.rejection(params, mech)
    p_hat, p_bar = _price_interval(params, mech, r_hat, params.cdf.inverse(1.0 - params.q))
    if p_hat > p_bar + 1e-12:
        raise EconomyError(f"price bounds inverted for {mech.value}: {p_hat} > {p_bar}")
    return r_hat, p_hat, p_bar


def price_bounds(params: EconomyParams, mech) -> tuple[float, float]:
    """The price interval [p_hat, p_bar] of `rejection_and_bounds`."""
    return rejection_and_bounds(params, mech)[1:]


def _utility_signs(params, mech, r_hat, p_hat, p_bar):
    """(Delta u(g) < 0 at p_hat, Delta u(e-g) > 0 at p_bar) as two bool
    arrays over (types, *batch), poorest type first, from one delta_u call
    over (types, corners) and the batch axes of p_hat, against which r_hat
    and p_bar broadcast."""
    p = np.empty((2,) + np.shape(p_hat))
    p[0], p[1] = p_hat, p_bar
    batch = (1,) * (p.ndim - 1)
    s = np.array((params.g, params.e - params.g)).reshape((2,) + batch)
    du = mx.delta_u(mech, r_hat, p, s, params.wealth.omegas.reshape((-1, 1) + batch), params)
    return du[:, 0] < 0.0, du[:, 1] > 0.0


def check_assumption2(params: EconomyParams, mechs=None) -> AssumptionReport:
    """Interior-cutoff condition on the utility gain at the price bounds.

    Delta u is linear and decreasing in p, so checking Delta u(g) < 0 at
    p_hat and Delta u(e-g) > 0 at p_bar covers the whole interval.
    """
    if mechs is None:
        mechs = mx.CORE
    checks = []
    for mech in mechs:
        mech = mx.Mechanism(mech)
        try:
            r_hat, p_hat, p_bar = rejection_and_bounds(params, mech)
        except (mx.DegenerateChoiceError, EconomyError) as exc:
            checks.append((f"{mech.value}: bounds ({exc})", False))
            continue
        below, above = _utility_signs(params, mech, r_hat, p_hat, p_bar)
        for omega, lo, hi in zip(params.wealth.omegas.tolist(), below.tolist(), above.tolist()):
            checks.append((f"{mech.value}: du(g)<0 at omega={omega}", lo))
            checks.append((f"{mech.value}: du(e-g)>0 at omega={omega}", hi))
    return AssumptionReport("assumption2", tuple(checks))


def assumption2_mask(params, mech, r_hat, s_hat) -> np.ndarray:
    """check_assumption2(..., mechs=(mech,)).passed for each CDF of a batch,
    given s_hat = F^-1(1-q), one entry per CDF, and
    r_hat = mechanisms.rejection_rates(params, mech, ...), which broadcasts
    against it: a positive r, ordered price bounds and the Delta u signs."""
    mech = mx.Mechanism(mech)
    p_hat, p_bar = _price_interval(params, mech, r_hat, s_hat)
    ok = (r_hat > 0.0) & ~(p_hat > p_bar + 1e-12)
    # delta_u needs r in (0, 1]; rows failing the bounds stay masked
    r_hat = np.where(ok, r_hat, 1.0)
    below, above = _utility_signs(params, mech, r_hat, p_hat, p_bar)
    return ok & (below & above).all(axis=0)


def example_economy() -> EconomyParams:
    """The worked-example profile used by all benchmark tables."""
    return EconomyParams(
        m=2, q=0.4, g=0.0, e=1.0, pi=1.0 / 3.0,
        wealth=WealthDist(((9.0 / 8.0, 0.5), (7.0 / 8.0, 0.5))),
        cdf=Uniform(),
    )


def is_example_profile(params: EconomyParams) -> bool:
    return (
        params.m == 2
        and abs(params.g) < 1e-12
        and abs(params.e - 1.0) < 1e-12
        and abs(params.pi - 1.0 / 3.0) < 1e-9
        and isinstance(params.cdf, Uniform)
        and params.wealth.is_binary()
    )
