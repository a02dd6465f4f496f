"""Weakly concave signal distributions F on [0, 1]."""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

CONCAVITY_TOL = 1e-12
MAX_KINKS = 499_500  # the most grid kinks single_kink_grid builds: step 0.001


class CdfError(ValueError):
    """Invalid argument to a CDF operation (domain or ambiguity error)."""


@dataclass(frozen=True)
class AssumptionReport:
    """The (name, ok) checks of one named condition; it passes if all hold."""

    name: str
    checks: tuple[tuple[str, bool], ...]
    boundary: bool = False  # the condition holds only at its limiting case

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list[str]:
        return [n for n, ok in self.checks if not ok]


class SignalCdf:
    """Base class. Subclasses implement value/inverse and config round-trip."""

    def value(self, x: float) -> float:
        raise NotImplementedError

    def inverse(self, y: float) -> float:
        raise NotImplementedError

    def partial_mean(self, a: float, b: float) -> float:
        """The partial first moment: the integral of x dF(x) over [a, b]."""
        raise NotImplementedError

    def ppf(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Vectorized inverse for inverse-transform sampling, in the float64
        array `out` if given (which may be `u` itself), else as a new array:
        `mcsim.sample_agents` draws into `u` again after. The values are the
        same either way, bit for bit."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


def _into(u: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """u's values in `out`, or in a new float64 array when `out` is None;
    numpy skips the copy when `out` is `u`."""
    if out is None:
        return np.array(u, dtype=np.float64)
    out[...] = u
    return out


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

    def ppf(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        xs, ys = self._xs, self._ys
        # truncate after the first knot reaching probability 1 so np.interp
        # maps u=1 to the smallest such signal
        cut = next(i for i, y in enumerate(ys) if y >= 1.0 - 1e-15)
        s = np.interp(u, ys[: cut + 1], xs[: cut + 1])
        return s if out is None else _into(s, out)

    def to_config(self) -> dict:
        return {"type": "piecewise", "knots": [[x, y] for x, y in self.knots]}


@dataclass(frozen=True)
class Uniform(PiecewiseLinear):
    knots: tuple[tuple[float, float], ...] = ((0.0, 0.0), (1.0, 1.0))

    def ppf(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # F is the identity on [0, 1], so a copy equals the interpolation
        # value for value there and costs a fraction of it
        return _into(u, out)

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
        # Each table is flat and row-major, read with `take` at row (K+1) + i;
        # so are the knots, at row K + j.
        xs, ys = self.xs, self.ys
        rows, k = xs.shape
        table = np.empty((4, rows, k + 1))  # x0, y0, run, rise
        table[0, :, 1:], table[1, :, 1:] = xs, ys
        table[:2, :, 0] = table[:2, :, 1]
        # segment i's run and rise are its right knot less its left, the next
        # segment's x0 and y0 less its own: one difference over the flat
        # tables, whose values across a row's end segment are replaced below
        flat = table.reshape(4, -1)
        np.subtract(flat[:2, 1:], flat[:2, :-1], out=flat[2:, :-1])
        table[2, :, ::k], table[3, :, ::k] = 1.0, 0.0  # the flat end segments
        object.__setattr__(self, "_segments", tuple(table.reshape(4, -1)))
        object.__setattr__(self, "_row_start", np.arange(0, rows * (k + 1), k + 1)[:, None])
        object.__setattr__(self, "_knots", (xs.ravel(), ys.ravel()))

    @classmethod
    def single_kinks(cls, kink_x: np.ndarray, kink_y: np.ndarray) -> "PiecewiseLinearBatch":
        """The SingleKink CDFs at (kink_x[b], kink_y[b])."""
        knots = np.zeros((2, len(kink_x), 3))  # xs, ys
        knots[:, :, 1] = kink_x, kink_y
        knots[:, :, 2] = 1.0
        return cls(*knots)

    def value(self, x) -> np.ndarray:
        """F_b(x_b) per row b: x is a scalar, a (B,) array or an array of
        B rows, or of one row shared by every CDF."""
        x = np.asarray(x, dtype=float)
        pts = x.reshape(len(x), -1) if x.ndim else x
        # flat segment index, row (K+1) + bisect_right(xs[row], x), one knot at a time
        xs = self.xs
        at = (xs[:, :1] <= pts) + self._row_start
        for j in range(1, xs.shape[1]):
            at += xs[:, j:j + 1] <= pts
        x0, y0, run, rise = self._segments
        # y0 + rise (x - x0) / run, in place and one table at a time to keep
        # large batches small
        out = pts - x0.take(at)
        out *= rise.take(at)
        out /= run.take(at)
        out += y0.take(at)
        return out.reshape(out.shape[:1] + x.shape[1:])

    def inverse(self, y) -> np.ndarray:
        """F_b^-1(y_b) per row b: y is a scalar or a (B,) array."""
        y = np.asarray(y, dtype=float)
        if not ((0.0 <= y) & (y <= 1.0)).all():
            raise CdfError(f"probability outside [0, 1] in {y!r}")
        rows, k = self.xs.shape
        # flat index of the first knot reaching y, row K + i (knot 1 where
        # none does), and of the knot before it
        right = (y[..., None] <= self.ys[:, 1:] + 1e-15).argmax(axis=1) + np.arange(1, rows * k, k)
        left = right - 1
        knot_x, knot_y = self._knots
        x0, y0 = knot_x.take(left), knot_y.take(left)
        x1, y1 = knot_x.take(right), knot_y.take(right)
        found = y <= y1 + 1e-15  # that knot reaches y
        flat = y1 == y0
        if (found & flat & (y1 < 1.0 - 1e-15)).any():
            raise CdfError("a probability lies on a flat segment below 1")
        # flat segments divide by nothing: they read x0
        inner = x0 + np.divide((x1 - x0) * (y - y0), y1 - y0, out=np.zeros(rows), where=~flat)
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

    def ppf(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        s = _into(u, out)
        s **= 1.0 / self.alpha  # in place, by the scalar-power path of u ** (1 / alpha)
        return s

    def to_config(self) -> dict:
        return {"type": "power", "alpha": self.alpha}


def validate(f: SignalCdf) -> AssumptionReport:
    """Check the concave-CDF invariants; returns a report. Raises CdfError
    only for an object that is no Power or piecewise-linear CDF."""
    checks: list[tuple[str, bool]] = []
    if isinstance(f, Power):
        checks.append(("alpha_range", 0.0 < f.alpha <= 1.0))
        checks.append(("endpoints", True))
        checks.append(("nondecreasing", True))
        ok = f.alpha <= 1.0
        checks.append(("concave", ok))
        checks.append(("above_diagonal", ok))
        return AssumptionReport("cdf", tuple(checks))

    if not isinstance(f, PiecewiseLinear):
        raise CdfError(f"not a signal CDF: {f!r}")
    xs, ys = f._xs, f._ys
    checks.append((
        "endpoints",
        abs(xs[0]) < 1e-15 and abs(ys[0]) < 1e-15
        and abs(xs[-1] - 1.0) < 1e-15 and abs(ys[-1] - 1.0) < 1e-15,
    ))
    checks.append((
        "knots_ordered",
        all(xs[i] < xs[i + 1] for i in range(len(xs) - 1)),
    ))
    checks.append((
        "nondecreasing",
        all(ys[i] <= ys[i + 1] + CONCAVITY_TOL for i in range(len(ys) - 1)),
    ))
    slopes = [
        (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        for i in range(len(xs) - 1)
        if xs[i + 1] > xs[i]
    ]
    checks.append((
        "concave",
        all(slopes[i] >= slopes[i + 1] - CONCAVITY_TOL for i in range(len(slopes) - 1)),
    ))
    checks.append((
        "above_diagonal",
        all(y >= x - CONCAVITY_TOL for x, y in f.knots),
    ))
    if isinstance(f, SingleKink):
        checks.append(("kink_above_diagonal", f.kink_y >= f.kink_x))
        checks.append((
            "kink_interior",
            0.0 < f.kink_x < 1.0 and 0.0 < f.kink_y < 1.0,
        ))
    return AssumptionReport("cdf", tuple(checks))


def require_valid(f: SignalCdf) -> SignalCdf:
    report = validate(f)
    if not report.passed:
        raise CdfError(f"invalid signal CDF: failed {', '.join(report.failures())}")
    return f


def single_kink_grid(step: float) -> tuple[np.ndarray, np.ndarray]:
    """Kink coordinates (x, y) of all grid single-kink CDFs, 0 < x <= y < 1.

    The grid values are i * step for i = 1 .. 1/step - 1, ordered
    lexicographically in (x, y). A step with more than MAX_KINKS kinks
    raises CdfError before anything is allocated.
    """
    if not 0.0 < step < np.inf:
        raise CdfError(f"step {step} is not a positive finite number")
    n = round(min(1.0 / step, MAX_KINKS))  # 1/step is inf for a subnormal step
    if (n - 1) * n // 2 > MAX_KINKS:
        raise CdfError(f"step {step} gives more than {MAX_KINKS} grid kinks")
    if abs(n * step - 1.0) > 1e-9 or n < 2:
        raise CdfError(f"step {step} does not divide 1 evenly")
    grid = np.empty((2, n - 1, n - 1))
    grid[1] = np.arange(1, n) * step  # (x, y) of kink (i, j) is grid[:, i, j]
    grid[0] = grid[1].T
    upper = grid[0] <= grid[1]  # the grid increases, so this is i <= j
    return grid[0][upper], grid[1][upper]


def enumerate_single_kink(step: float) -> list[SignalCdf]:
    """All grid single-kink CDFs with 0 < x <= y < 1 on a step grid.

    On-diagonal kinks coincide with the uniform distribution but are kept
    as distinct grid records; ordering is lexicographic in (x, y).
    """
    xs, ys = single_kink_grid(step)
    return [SingleKink(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


def config_number(name: str, value, error: type[ValueError] = CdfError) -> float:
    """A finite config value as a float; booleans, strings and other
    non-numbers, NaN, infinities and integers too large for a float raise
    `error`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise error(f"{name} is out of range: {value!r}") from None
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {value!r}")
    return number


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

