"""Batch experiments over single-kink signal distributions and parameter cubes.

`kink_sweep` solves N and DA together: each kink of a block is one row of
one batch, with the two mechanisms on an axis inside the row, so the root
of each mechanism is found against the row's CDF, and F at the cutoffs and
at the anchor points, F^-1(1-q), assumption 1 and DA's flows are evaluated
once per kink for both. They are passed to the assumption, flow and
rejection helpers that the one-economy checks use, and one assumption-2
sign test covers both mechanisms. The economy is one EconomyParams, or a
cube cell's CellEconomy, whose scalars broadcast over every row.
`cube_sweep` runs one kink sweep per (rho_p, q, pi) cell and counts the
cell from its result.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import mechanisms as mx
from .cdf import PiecewiseLinearBatch, single_kink_grid
from .economy import (EconomyError, WealthDist, assumption1_mask, assumption2_mask,
                      binary_wealth, require_share)
from .equilibrium import dispersion_root, interior
from .segregation import EQUAL_TOL


@dataclass(frozen=True)
class KinkRecord:
    x: float
    y: float
    share_n: float
    share_da: float
    diff: float
    feasible: bool


@dataclass(frozen=True, eq=False)
class KinkSweepResult:
    """A kink sweep as columns, one entry per grid kink in grid order: the
    kink (x, y), the poor shares under N and DA, their difference and the
    feasibility flag; shares and diff are nan where infeasible. `records`
    gives the same kinks as KinkRecords, built on first access, so counting
    and CSV output never build them."""

    x: np.ndarray
    y: np.ndarray
    share_n: np.ndarray
    share_da: np.ndarray
    diff: np.ndarray
    feasible: np.ndarray

    @functools.cached_property
    def records(self) -> tuple[KinkRecord, ...]:
        return tuple(map(KinkRecord, self.x.tolist(), self.y.tolist(), self.share_n.tolist(),
                         self.share_da.tolist(), self.diff.tolist(), self.feasible.tolist()))

    def to_csv(self) -> str:
        """The CSV text, formatted KINK_BLOCK rows at a time from the columns."""
        chunks = ["x,y,share_N,share_DA,diff,feasible\n"]
        for i in range(0, len(self.x), KINK_BLOCK):
            rows = zip(*(column[i:i + KINK_BLOCK].tolist() for column in
                         (self.x, self.y, self.share_n, self.share_da, self.diff, self.feasible)))
            chunks.append("".join(f"{x:.12g},{y:.12g},{n:.12g},{da:.12g},{diff:.12g},{int(ok)}\n"
                                  for x, y, n, da, diff, ok in rows))
        return "".join(chunks)


@dataclass(frozen=True)
class CubeCell:
    rho_p: float
    q: float
    pi: float
    n_feasible: int
    n_da_less: int

    @property
    def pct(self) -> float:
        return 100.0 * self.n_da_less / self.n_feasible if self.n_feasible else 0.0


@dataclass(frozen=True)
class CubeSweepResult:
    cells: tuple[CubeCell, ...]

    def to_csv(self) -> str:
        lines = ["rho_p,q,pi,n_feasible,n_da_less,pct"]
        for c in self.cells:
            lines.append(
                f"{c.rho_p:.12g},{c.q:.12g},{c.pi:.12g},"
                f"{c.n_feasible},{c.n_da_less},{c.pct:.12g}")
        return "\n".join(lines) + "\n"


# Kinks per stacked batch: at its peak, in affine_root, a block holds about
# 1.08 kB a kink (tracemalloc on 1,024-kink blocks), so a block stays under
# 1.2 MB on any grid. With 2,048-kink blocks the step-0.01 grid ran slower
# on its first sweep in a process (1,057 minor faults against 297), and a
# warm sweep took 1,216 against 837, as glibc gave more of each block's
# heap back between blocks and faulted it in again.
KINK_BLOCK = 1024

# The most cells a cube may have: a cube peaks at about 300 bytes a cell
# besides the one cell's sweep it holds at a time (each cell's axis values
# and CubeCell, and its CSV line; tracemalloc on a 64,000-cell cube), so
# about 75 MB at the cap.
MAX_CELLS = 250_000


@dataclass(frozen=True)
class CellEconomy:
    """One cube cell's economy, with g = 0, e = 1, delta_q = 0 and binary
    wealth: the fields of an EconomyParams that a kink sweep reads, and no
    CDF."""

    q: float
    pi: float
    wealth: WealthDist
    g = 0.0  # fixed across the cube, so not fields
    e = 1.0
    delta_q = 0.0


# The mechanisms of a kink sweep, in the order of each row's mechanism axis
MECHS = (mx.Mechanism.N, mx.Mechanism.DA)


def _stacked_shares(params, kink_x, kink_y):
    """(feasible, poor shares as (MECHS, kinks)) for each kink, nan where
    infeasible, from one batch of one row per kink, with a mechanism axis
    in the row.

    One `dispersion_root` call gives each row's root at each mechanism's
    intercept against the row's CDF, one `value` call F at every cutoff
    and at the anchor points (g, e - g, min(e + g, 1)) for assumption 1 and
    the flows, and one `inverse` call F^-1(1-q) for the price bounds, each
    once per kink for both mechanisms. DA alone reads the flows for its
    rejection rate; one `assumption2_mask` call tests both mechanisms, and
    each applies its school mass. The helpers read the economy from params
    and take the CDFs as arrays, so none reads a `cdf` field.
    """
    n = len(kink_x)
    cdfs = PiecewiseLinearBatch.single_kinks(kink_x, kink_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the root first: its temporaries, the batch's largest, are freed
        # before the other per-row arrays are made
        a = np.empty((n, len(MECHS)))
        for i, mech in enumerate(MECHS):
            a[:, i] = mx.CORE_ALGEBRA[mech].intercept(params)
        d = dispersion_root(params, cdfs, a)  # nan fails the interior test
        # (kinks, mechanisms, types)
        cutoffs = a[..., None] + d[..., None] * params.wealth.omegas
        # each row's cutoffs, then the anchor points: one call costs less
        # than a shared row of anchors and a call for the cutoffs
        points = np.empty((n, cutoffs[0].size + 3))
        points[:, :-3], points[:, -3:] = cutoffs.reshape(n, -1), mx.anchor_points(params)
        fs = cdfs.value(points)
        anchors = fs[:, -3:].T
        ok = (assumption1_mask(params, *anchors[:2])
              & interior(params, cutoffs).all(axis=(1, 2)))
        flows = mx.flows_at(params, 1.0 - params.q, *anchors)
        r = [mx.rejection_rates(params, mech, flows) for mech in MECHS]
        ok &= assumption2_mask(params, MECHS, r, cdfs.inverse(1.0 - params.q))
        # F at the cutoffs becomes each mechanism's mass, as (types,
        # mechanisms, kinks)
        unweighted = fs[:, :-3].reshape(cutoffs.shape).T
        masses = np.empty(unweighted.shape)
        for i, (mech, r_mech) in enumerate(zip(MECHS, r)):
            masses[:, i] = mx.CORE_ALGEBRA[mech].school_mass(unweighted[:, i], r_mech, params)
        ok &= ~(masses < -EQUAL_TOL).any(axis=(0, 1))
        masses *= params.wealth.rhos[:, None, None]
        total = sum(masses)
        share = np.where(total > 0.0, masses[0] / total, np.nan)
    return ok, np.where(ok, share, np.nan)


def kink_sweep(params, step: float) -> KinkSweepResult:
    """Solve N and DA for every single-kink signal CDF on the grid,
    KINK_BLOCK kinks per stacked batch, with the expressions of
    check_assumption1/2, solve and school_profile on a single kink, so each
    record equals that scalar path's result bit for bit.

    `params` is one economy, an EconomyParams or a CellEconomy."""
    if not params.wealth.is_binary():
        raise ValueError("kink sweep expects binary wealth")
    kink_x, kink_y = single_kink_grid(step)
    feasible, shares = np.empty(len(kink_x), dtype=bool), np.empty((2, len(kink_x)))
    for i in range(0, len(kink_x), KINK_BLOCK):
        block = slice(i, i + KINK_BLOCK)
        feasible[block], shares[:, block] = _stacked_shares(params, kink_x[block],
                                                            kink_y[block])
    share_n, share_da = shares
    return KinkSweepResult(kink_x, kink_y, share_n, share_da, share_da - share_n, feasible)


SEG_TOL = 1e-9


def _da_less(share_n, share_da, rho_p) -> np.ndarray:
    """Whether each kink's school segregation is strictly lower under DA,
    given its poor shares under N and DA and the poor population share
    rho_p; False where infeasible, as the shares are nan there.

    Segregation is compared through the poor share at the oversubscribed
    school: with binary wealth, a poor share closer to the population share
    means a smaller average-wealth deviation.
    """
    return np.abs(share_da - rho_p) < np.abs(share_n - rho_p) - SEG_TOL


def cube_economies(rho_list, q_list, pi_list) -> Iterator[CellEconomy]:
    """The economy of every (rho_p, q, pi) cell, rho_p outermost and pi
    innermost, with m = 2, g = 0, e = 1 and binary wealth, each CellEconomy
    built when it is reached. A cube of more than MAX_CELLS cells raises
    EconomyError before anything is allocated; then every axis value is
    checked, and one that makes no valid economy raises EconomyError."""
    cells = len(rho_list) * len(q_list) * len(pi_list)
    if cells > MAX_CELLS:
        raise EconomyError(f"the cube has {cells} cells, more than {MAX_CELLS}")
    wealth = [binary_wealth(rho_p) for rho_p in rho_list]
    q_list, pi_list = [float(q) for q in q_list], [float(pi) for pi in pi_list]
    for name, axis in (("q", q_list), ("pi", pi_list)):
        for value in axis:
            require_share(name, value)
    return (CellEconomy(q, pi, w) for w, q, pi in itertools.product(wealth, q_list, pi_list))


def _cell_counts(economy: CellEconomy, step: float) -> tuple[int, int]:
    """(feasible kinks, kinks with school segregation strictly lower under
    DA) of one cell's kink sweep."""
    result = kink_sweep(economy, step)
    less = _da_less(result.share_n, result.share_da, economy.wealth.poor_rho)
    return int(np.count_nonzero(result.feasible)), int(np.count_nonzero(less))


def cube_sweep(rho_list, q_list, pi_list, step: float = 0.1) -> CubeSweepResult:
    """Share of single-kink CDFs with lower school segregation under DA,
    across a (rho_p, q, pi) parameter grid: one kink sweep per cell, in
    cell order, each freed once its cell is counted. A cell that is no
    valid economy, or a cube of more than MAX_CELLS cells, raises
    EconomyError before any kink is solved."""
    economies = cube_economies(rho_list, q_list, pi_list)
    return CubeSweepResult(tuple(
        CubeCell(*cell, *_cell_counts(economy, step))
        for cell, economy in zip(itertools.product(rho_list, q_list, pi_list), economies)))
