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


# The open interval (0, upper) of each share, with its upper end as shown.
_SHARES = {"q": (1.0, "1"), "pi": (0.5, "1/2")}


def require_share(name: str, value) -> None:
    """Raise EconomyError unless the share `name`, q or pi, lies in its
    open interval."""
    upper, shown = _SHARES[name]
    if not 0.0 < value < upper:
        raise EconomyError(f"{name} must lie in (0, {shown})")


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
        require_share("q", self.q)
        if not self.delta_q >= 0.0:
            raise EconomyError("delta_q must be nonnegative")
        if not math.isfinite(self.delta_q):
            raise EconomyError("delta_q must be finite")
        if not self.g >= 0.0:
            raise EconomyError("g must be nonnegative")
        if not self.e > 0.0:
            raise EconomyError("e must be positive")
        require_share("pi", self.pi)
        if not self.e >= self.g:
            raise EconomyError("e must not be less than g")
        if not self.e + self.g <= 1.0 + 1e-12:
            raise EconomyError("e + g must not exceed 1")
        if not self.e - self.g <= 1.0:  # F(e - g) reads a signal in [0, 1]
            raise EconomyError("e - g must not exceed 1")
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
    F(e-g) per CDF; q is a scalar or one value per CDF."""
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


def _corner_gains(params, mechs, r, prices) -> np.ndarray:
    """Delta u = r gain_envelope(s) - omega p per type at the two corners
    (s, p) = (g, p_hat) and (e - g, p_bar) of each mechanism of mechs, as
    (types, corners, mechs, CDFs), with each mechanism's envelope evaluated
    once, at s = (g, e - g). prices holds (p_hat, p_bar) as (corners, mechs,
    CDFs) and r broadcasts against one corner; the wealth atoms are one row
    for every CDF or one row per CDF. Unlike delta_u, it does not check
    that r lies in (0, 1]."""
    s = np.array((params.g, params.e - params.g))[:, None]
    envelope = np.empty(prices.shape)
    for i, mech in enumerate(mechs):
        envelope[:, i] = mx.gain_envelope(mech, s, params)
    omegas = params.wealth.omegas
    return r * envelope - omegas.T.reshape(omegas.shape[-1], 1, 1, -1) * prices


def _utility_signs(params, mech, r_hat, p_hat, p_bar):
    """(Delta u(g) < 0 at p_hat, Delta u(e-g) > 0 at p_bar) per type as two
    bool arrays, poorest type first."""
    prices = np.array((p_hat, p_bar)).reshape(2, 1, 1)
    du = _corner_gains(params, (mech,), r_hat, prices)[..., 0, 0]
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


def assumption2_mask(params, mechs, r_hat, s_hat) -> np.ndarray:
    """check_assumption2(..., mechs=mechs).passed for each CDF of a batch:
    for every mechanism of mechs, Mechanism members, a positive r, ordered
    price bounds and the Delta u signs. s_hat holds F^-1(1-q) per CDF, for
    every mechanism, and r_hat[i] = mechanisms.rejection_rates(params,
    mechs[i], ...), which broadcasts against it; the economy's fields are
    scalars or one per CDF.

    Each mechanism's price bounds come from its own gamma, and one sign
    test covers every mechanism's Delta u at the corners."""
    r, prices = np.empty((len(mechs),) + s_hat.shape), np.empty((2, len(mechs)) + s_hat.shape)
    for i, mech in enumerate(mechs):
        r[i] = r_hat[i]
        prices[0, i], prices[1, i] = _price_interval(params, mech, r_hat[i], s_hat)
    p_hat, p_bar = prices
    ok = (r > 0.0) & ~(p_hat > p_bar + 1e-12)
    # rows failing the bounds stay masked
    du = _corner_gains(params, mechs, r, prices)
    return (ok & ((du[:, 0] < 0.0) & (du[:, 1] > 0.0)).all(axis=0)).all(axis=0)


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
