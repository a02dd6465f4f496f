"""Earlier versions of the batch CDF kernels, kept as references.

`PiecewiseLinearBatchReference` is `cdf.PiecewiseLinearBatch` as it was
before its segment tables went flat: `value` finds every segment with one
(rows, K, P) comparison summed over the knots and reads the tables by
(row, segment) fancy indexing, and `inverse` reads the knots the same way.
`affine_root_reference` is `equilibrium.affine_root` before its four
gathers became flat `take`s; given a reference batch it evaluates F with
the reference `value`. The package must agree with them bit for bit, nan
included: `test_cdf.py` and `test_equilibrium.py` run both on random
batches.
"""
from dataclasses import dataclass

import numpy as np

from segsolve.cdf import CdfError


@dataclass(frozen=True, eq=False)
class PiecewiseLinearBatchReference:
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


def _weighted(values, rhos):
    """sum_t rho_t values[:, t], accumulated type by type, poorest first."""
    total = 0.0
    for j, rho in enumerate(rhos):
        total = total + rho * values[:, j]
    return total


def affine_root_reference(cdfs: PiecewiseLinearBatchReference, rhos, alpha, beta, x_max,
                          target: float) -> np.ndarray:
    """Exact root x in [0, x_max] of sum_t rho_t F_b(alpha_bt + beta_bt x)
    - target for each row b; nan where [0, x_max] brackets no root."""
    alpha, beta = (np.asarray(v, dtype=float)[..., None] for v in (alpha, beta))
    x_max = np.reshape(x_max, (-1, 1, 1))
    knots = np.minimum(np.maximum((cdfs.xs[:, None, :] - alpha) / beta, 0.0), x_max)
    rows = len(knots)
    ends = np.zeros((rows, 2))
    ends[:, 1] = x_max[:, 0, 0]
    x = np.sort(np.concatenate([ends, knots.reshape(rows, -1)], axis=1), axis=1)
    # F at every type's cutoff alpha + beta x, as (rows, types, points);
    # cutoffs past an end of [0, 1] read F there, as the clamped scalar
    # residual does
    s = x[:, None, :] * beta
    s += alpha
    fs = cdfs.value(s.reshape(len(cdfs.xs), -1)).reshape(s.shape)
    res = _weighted(fs, rhos) - target
    # the segment from the last negative residual to the first nonnegative
    # one; hi = 0 leaves the root at x = 0, where the residual is 0 if bracketed
    at, hi = np.arange(rows), np.argmax(res >= 0.0, axis=1)
    lo = np.maximum(hi - 1, 0)
    x0, x1, r0, r1 = x[at, lo], x[at, hi], res[at, lo], res[at, hi]
    root = x0 - np.divide(r0 * (x1 - x0), r1 - r0, out=np.zeros(rows), where=hi > 0)
    bracketed = (x_max[:, 0, 0] > 0.0) & (res[:, 0] <= 0.0) & (res[:, -1] >= 0.0)
    return np.where(bracketed, root, np.nan)
