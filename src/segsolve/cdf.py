"""Weakly concave signal distributions F on [0, 1]."""
from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

CONCAVITY_TOL = 1e-12
INVERSE_TOL = 1e-10


class CdfError(ValueError):
    """Invalid argument to a CDF operation (domain or ambiguity error)."""


@dataclass(frozen=True)
class CdfCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CdfReport:
    checks: tuple[CdfCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CdfCheck]:
        return [c for c in self.checks if not c.passed]


class SignalCdf:
    """Base class. Subclasses implement value/inverse and config round-trip."""

    def value(self, x: float) -> float:
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        raise NotImplementedError

    def partial_mean(self, a: float, b: float) -> float:
        """The partial first moment: the integral of x dF(x) over [a, b]."""
        raise NotImplementedError

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Vectorized inverse for inverse-transform sampling."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


def _check_domain(x: float) -> None:
    if not (0.0 <= x <= 1.0):
        raise CdfError(f"signal {x!r} outside [0, 1]")


@dataclass(frozen=True)
class PiecewiseLinear(SignalCdf):
    """Piecewise-linear CDF given by knots ((0,0), ..., (1,1))."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise CdfError("need at least two knots")
        object.__setattr__(self, "knots", tuple((float(x), float(y)) for x, y in self.knots))
        # knot coordinates, split once for the hot value/inverse calls
        object.__setattr__(self, "_xs", tuple(x for x, _ in self.knots))
        object.__setattr__(self, "_ys", tuple(y for _, y in self.knots))

    def value(self, x: float) -> float:
        _check_domain(x)
        xs, ys = self._xs, self._ys
        i = bisect.bisect_right(xs, x)
        if i >= len(xs):
            return ys[-1]
        if i == 0:
            return ys[0]
        x0, x1 = xs[i - 1], xs[i]
        y0, y1 = ys[i - 1], ys[i]
        if x1 == x0:
            return y1
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    @functools.cached_property
    def batch(self) -> "PiecewiseLinearBatch":
        """This CDF as a batch of one, built on first use."""
        return PiecewiseLinearBatch(np.array([self._xs]), np.array([self._ys]))

    def inverse(self, y: float) -> float:
        if not (0.0 <= y <= 1.0):
            raise CdfError(f"probability {y!r} outside [0, 1]")
        xs, ys = self._xs, self._ys
        for i in range(1, len(xs)):
            y0, y1 = ys[i - 1], ys[i]
            if y > y1 + 1e-15:
                continue
            if y1 == y0:
                # flat segment; unambiguous only if it sits at probability 1
                if y1 >= 1.0 - 1e-15:
                    return xs[i - 1]
                raise CdfError(f"y={y} lies on a flat segment below 1")
            x0, x1 = xs[i - 1], xs[i]
            return x0 + (x1 - x0) * (y - y0) / (y1 - y0)
        return xs[-1]

    def partial_mean(self, a: float, b: float) -> float:
        _check_domain(a)
        _check_domain(b)
        xs, ys = self._xs, self._ys
        total = 0.0
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            # [a, b] clipped to this segment, where dF is a constant density
            lo, hi = min(max(a, x0), x1), min(max(b, x0), x1)
            if hi != lo:
                total += (y1 - y0) / (x1 - x0) * (hi - lo) * (hi + lo) / 2.0
        return total

    def ppf(self, u: np.ndarray) -> np.ndarray:
        xs, ys = self._xs, self._ys
        # truncate after the first knot reaching probability 1 so np.interp
        # maps u=1 to the smallest such signal
        cut = next(i for i, y in enumerate(ys) if y >= 1.0 - 1e-15)
        return np.interp(u, ys[: cut + 1], xs[: cut + 1])

    def to_config(self) -> dict:
        return {"type": "piecewise", "knots": [[x, y] for x, y in self.knots]}


@dataclass(frozen=True)
class Uniform(PiecewiseLinear):
    knots: tuple[tuple[float, float], ...] = ((0.0, 0.0), (1.0, 1.0))

    def to_config(self) -> dict:
        return {"type": "uniform"}


@dataclass(frozen=True)
class SingleKink(PiecewiseLinear):
    """One interior kink at (kink_x, kink_y); concave iff kink_y >= kink_x."""

    kink_x: float = 0.5
    kink_y: float = 0.5

    def __init__(self, kink_x: float, kink_y: float):
        object.__setattr__(self, "kink_x", float(kink_x))
        object.__setattr__(self, "kink_y", float(kink_y))
        super().__init__(((0.0, 0.0), (self.kink_x, self.kink_y), (1.0, 1.0)))

    def to_config(self) -> dict:
        return {"type": "single_kink", "x": self.kink_x, "y": self.kink_y}


@dataclass(frozen=True, eq=False)
class PiecewiseLinearBatch:
    """B piecewise-linear CDFs with K strictly increasing knots each, as
    (B, K) knot arrays.

    `value` and `inverse` follow PiecewiseLinear.value and .inverse row by
    row with the same floating-point expressions, so a batch of one gives
    the scalar results bit for bit. `value` does not check its domain: below
    the first knot it gives the first knot's y and from the last knot on
    the last knot's y, as PiecewiseLinear.value does inside [0, 1].
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        # Per row and segment i = bisect_right(xs, x), i = 0..K: left knot x0
        # and y0, run and rise. Segments 0 and K are flat, at the first and
        # the last knot, so that y0 + rise (x - x0) / run is exact on all.
        xs, ys = self.xs, self.ys
        rows = len(xs)
        flat, one = np.zeros((rows, 1)), np.ones((rows, 1))
        table = np.concatenate([xs[:, :1], xs, ys[:, :1], ys, one, xs[:, 1:] - xs[:, :-1], one,
                                flat, ys[:, 1:] - ys[:, :-1], flat], axis=1)
        object.__setattr__(self, "_segments", tuple(table.reshape(rows, 4, -1).transpose(1, 0, 2)))
        object.__setattr__(self, "_rows", np.arange(rows)[:, None])

    @classmethod
    def single_kinks(cls, kink_x: np.ndarray, kink_y: np.ndarray) -> "PiecewiseLinearBatch":
        """The SingleKink CDFs at (kink_x[b], kink_y[b])."""
        zero, one = np.zeros(len(kink_x)), np.ones(len(kink_x))
        return cls(np.stack([zero, kink_x, one], axis=1), np.stack([zero, kink_y, one], axis=1))

    def value(self, x) -> np.ndarray:
        """F_b(x_b) per row b: x is a scalar, a (B,) or a (B, P) array."""
        x = np.asarray(x, dtype=float)
        rows = len(self.xs)
        pts = x.reshape(rows, -1) if x.ndim else np.full((rows, 1), float(x))
        i = (self.xs[:, :, None] <= pts[:, None, :]).sum(axis=1)  # bisect_right
        at = (self._rows, i)
        x0, y0, run, rise = self._segments
        # y0 + rise (x - x0) / run, in place to keep large batches small
        out = pts - x0[at]
        out *= rise[at]
        out /= run[at]
        out += y0[at]
        return out.reshape((rows,) + x.shape[1:])

    def inverse(self, y) -> np.ndarray:
        """F_b^-1(y_b) per row b: y is a scalar or a (B,) array."""
        y = np.asarray(y, dtype=float)
        if np.any(~((0.0 <= y) & (y <= 1.0))):
            raise CdfError(f"probability outside [0, 1] in {y!r}")
        rows = len(self.xs)
        y = np.broadcast_to(y, (rows,))
        hit = y[:, None] <= self.ys[:, 1:] + 1e-15
        found = hit.any(axis=1)
        at, i = np.arange(rows), np.argmax(hit, axis=1) + 1  # first segment reaching y
        x0, x1, y0, y1 = self.xs[at, i - 1], self.xs[at, i], self.ys[at, i - 1], self.ys[at, i]
        flat = y1 == y0
        if np.any(found & flat & (y1 < 1.0 - 1e-15)):
            raise CdfError("a probability lies on a flat segment below 1")
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = x0 + (x1 - x0) * (y - y0) / (y1 - y0)
        return np.where(found, np.where(flat, x0, inner), self.xs[:, -1])


@dataclass(frozen=True)
class Power(SignalCdf):
    """F(x) = x ** alpha, concave for alpha in (0, 1]."""

    alpha: float

    def value(self, x: float) -> float:
        _check_domain(x)
        return float(x) ** self.alpha

    def inverse(self, y: float) -> float:
        if not (0.0 <= y <= 1.0):
            raise CdfError(f"probability {y!r} outside [0, 1]")
        return float(y) ** (1.0 / self.alpha)

    def partial_mean(self, a: float, b: float) -> float:
        _check_domain(a)
        _check_domain(b)
        k = self.alpha + 1.0
        return self.alpha / k * (float(b) ** k - float(a) ** k)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u) ** (1.0 / self.alpha)

    def to_config(self) -> dict:
        return {"type": "power", "alpha": self.alpha}


def validate(f: SignalCdf) -> CdfReport:
    """Check the concave-CDF invariants; returns a report, never raises."""
    checks: list[CdfCheck] = []
    if isinstance(f, Power):
        checks.append(CdfCheck("alpha_range", 0.0 < f.alpha <= 1.0, f"alpha={f.alpha}"))
        checks.append(CdfCheck("endpoints", True))
        checks.append(CdfCheck("nondecreasing", True))
        ok = f.alpha <= 1.0
        checks.append(CdfCheck("concave", ok))
        checks.append(CdfCheck("above_diagonal", ok))
        return CdfReport(tuple(checks))

    assert isinstance(f, PiecewiseLinear)
    xs = [k[0] for k in f.knots]
    ys = [k[1] for k in f.knots]
    checks.append(CdfCheck(
        "endpoints",
        abs(xs[0]) < 1e-15 and abs(ys[0]) < 1e-15
        and abs(xs[-1] - 1.0) < 1e-15 and abs(ys[-1] - 1.0) < 1e-15,
        f"first={f.knots[0]} last={f.knots[-1]}"))
    checks.append(CdfCheck(
        "knots_ordered",
        all(xs[i] < xs[i + 1] for i in range(len(xs) - 1)),
    ))
    checks.append(CdfCheck(
        "nondecreasing",
        all(ys[i] <= ys[i + 1] + CONCAVITY_TOL for i in range(len(ys) - 1)),
    ))
    slopes = [
        (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        for i in range(len(xs) - 1)
        if xs[i + 1] > xs[i]
    ]
    checks.append(CdfCheck(
        "concave",
        all(slopes[i] >= slopes[i + 1] - CONCAVITY_TOL for i in range(len(slopes) - 1)),
        f"slopes={slopes}"))
    checks.append(CdfCheck(
        "above_diagonal",
        all(y >= x - CONCAVITY_TOL for x, y in f.knots),
    ))
    if isinstance(f, SingleKink):
        checks.append(CdfCheck(
            "kink_above_diagonal", f.kink_y >= f.kink_x,
            f"kink=({f.kink_x}, {f.kink_y})"))
        checks.append(CdfCheck(
            "kink_interior",
            0.0 < f.kink_x < 1.0 and 0.0 < f.kink_y < 1.0,
        ))
    return CdfReport(tuple(checks))


def require_valid(f: SignalCdf) -> SignalCdf:
    report = validate(f)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise CdfError(f"invalid signal CDF: failed {names}")
    return f


def single_kink_grid(step: float) -> tuple[np.ndarray, np.ndarray]:
    """Kink coordinates (x, y) of all grid single-kink CDFs, 0 < x <= y < 1.

    The grid values are i * step for i = 1 .. 1/step - 1, ordered
    lexicographically in (x, y).
    """
    if not 0.0 < step < np.inf:
        raise CdfError(f"step {step} is not a positive finite number")
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9 or n < 2:
        raise CdfError(f"step {step} does not divide 1 evenly")
    grid = np.arange(1, n) * step
    i, j = np.triu_indices(n - 1)
    return grid[i], grid[j]


def enumerate_single_kink(step: float) -> list[SignalCdf]:
    """All grid single-kink CDFs with 0 < x <= y < 1 on a step grid.

    On-diagonal kinks coincide with the uniform distribution but are kept
    as distinct grid records; ordering is lexicographic in (x, y).
    """
    xs, ys = single_kink_grid(step)
    return [SingleKink(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


def config_number(name: str, value, error: type[ValueError] = CdfError) -> float:
    """A config value as a float; booleans, strings and other non-numbers,
    and integers too large for a float, raise `error`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} is out of range: {value!r}") from None


def cdf_from_config(cfg: dict) -> SignalCdf:
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise CdfError("cdf config must be an object with a 'type' field")
    kind = cfg["type"]
    known = {
        "uniform": {"type"},
        "single_kink": {"type", "x", "y"},
        "piecewise": {"type", "knots"},
        "power": {"type", "alpha"},
    }
    if kind not in known:
        raise CdfError(f"unknown cdf type {kind!r}")
    extra = set(cfg) - known[kind]
    if extra:
        raise CdfError(f"unknown cdf fields {sorted(extra)}")
    if kind == "uniform":
        f: SignalCdf = Uniform()
    elif kind == "single_kink":
        f = SingleKink(config_number("x", cfg["x"]), config_number("y", cfg["y"]))
    elif kind == "piecewise":
        f = PiecewiseLinear(tuple((config_number("knot x", x), config_number("knot y", y))
                                  for x, y in cfg["knots"]))
    else:
        f = Power(config_number("alpha", cfg["alpha"]))
    return require_valid(f)

