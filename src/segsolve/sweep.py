"""Batch experiments over single-kink signal distributions and parameter cubes.

`kink_sweep` solves N and DA together: each block of the grid goes in
twice as one stacked batch, N's rows over DA's, so F at the anchor points
and F^-1(1-q) are evaluated once for both mechanisms and passed to the
assumption, flow and rejection helpers that the one-economy checks use.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import mechanisms as mx
from .cdf import PiecewiseLinearBatch, Uniform, single_kink_grid
from .economy import (EconomyParams, assumption1_mask, assumption2_mask,
                      binary_wealth)
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

    step: float
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

    def feasible_records(self) -> list[KinkRecord]:
        return [r for r in self.records if r.feasible]

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
    rho_list: tuple[float, ...]
    q_list: tuple[float, ...]
    pi_list: tuple[float, ...]
    step: float
    cells: tuple[CubeCell, ...]

    def cell(self, rho_p: float, q: float, pi: float) -> CubeCell:
        for c in self.cells:
            if (abs(c.rho_p - rho_p) < 1e-9 and abs(c.q - q) < 1e-9
                    and abs(c.pi - pi) < 1e-9):
                return c
        raise KeyError((rho_p, q, pi))

    def to_csv(self) -> str:
        lines = ["rho_p,q,pi,n_feasible,n_da_less,pct"]
        for c in self.cells:
            lines.append(
                f"{c.rho_p:.12g},{c.q:.12g},{c.pi:.12g},"
                f"{c.n_feasible},{c.n_da_less},{c.pct:.12g}")
        return "\n".join(lines) + "\n"


# Kinks per stacked batch: at its peak, in affine_root, the batch holds
# about 1.75 kB a kink (1.28 kB of it affine_root's own temporaries, by
# tracemalloc on a step-0.01 block), so a block stays under 4 MB on any grid.
KINK_BLOCK = 2048


def _stacked_shares(params_base: EconomyParams, kink_x, kink_y):
    """(feasible, [N's poor share, DA's poor share]) for each kink, nan
    where infeasible, from one batch of 2B rows: N's B kinks, then DA's.

    One `value` call gives F at the anchor points (g, e - g, min(e + g, 1))
    for assumption 1 and the flows, one `inverse` call F^-1(1-q) for the
    price bounds, one `dispersion_root` call every row's root at its
    mechanism's intercept and one `value` call F at every cutoff. Each half
    then applies its mechanism's rejection rate (N's needs no flows), Delta u
    signs (one `delta_u` call) and school mass. The helpers read the economy
    from params_base and take the CDFs as arrays, so none reads
    params_base.cdf.
    """
    mechs, n, q = (mx.Mechanism.N, mx.Mechanism.DA), len(kink_x), params_base.q
    cdfs = PiecewiseLinearBatch.single_kinks(kink_x, kink_y, copies=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the root first: its temporaries, the batch's largest, are freed
        # before the other per-row arrays are made
        a = np.array([mx.CORE_ALGEBRA[mech].intercept(params_base) for mech in mechs]).repeat(n)
        d = dispersion_root(params_base, cdfs, a)  # nan fails the interior test
        s_hat = cdfs.inverse(1.0 - q)
        anchors = cdfs.value([mx.anchor_points(params_base)]).T  # one row for every CDF
        cutoffs = a[:, None] + d[:, None] * params_base.wealth.omegas
        ok = (assumption1_mask(params_base, *anchors[:2])
              & interior(params_base, cutoffs).all(axis=1))
        unweighted = cdfs.value(cutoffs)  # F at the cutoffs, then each half's mass
        for half, mech in zip((slice(0, n), slice(n, None)), mechs):
            r = mx.rejection_rates(params_base, mech, lambda: mx.AggregateFlows(
                *mx.flows_at(params_base, 1.0 - q, *anchors[:, half])))
            ok[half] &= assumption2_mask(params_base, mech, r, s_hat[half])
            unweighted[half] = mx.CORE_ALGEBRA[mech].school_mass(unweighted[half], r[..., None],
                                                                 params_base)
        ok &= ~(unweighted < -EQUAL_TOL).any(axis=1)
        masses = params_base.wealth.rhos * unweighted
        total = sum(masses.T)
        share = np.where(total > 0.0, masses[:, 0] / total, np.nan)
    feasible = ok[:n] & ok[n:]
    return feasible, np.where(feasible, share.reshape(2, n), np.nan)


def kink_sweep(params_base: EconomyParams, step: float) -> KinkSweepResult:
    """Solve N and DA for every single-kink signal CDF on the grid,
    KINK_BLOCK kinks per stacked batch, with the expressions of
    check_assumption1/2, solve and school_profile on a single kink, so each
    record equals that scalar path's result bit for bit."""
    if not params_base.wealth.is_binary():
        raise ValueError("kink sweep expects binary wealth")
    kink_x, kink_y = single_kink_grid(step)
    feasible, shares = np.empty(len(kink_x), dtype=bool), np.empty((2, len(kink_x)))
    for i in range(0, len(kink_x), KINK_BLOCK):
        block = slice(i, i + KINK_BLOCK)
        feasible[block], shares[:, block] = _stacked_shares(params_base, kink_x[block],
                                                            kink_y[block])
    share_n, share_da = shares
    return KinkSweepResult(step, kink_x, kink_y, share_n, share_da, share_da - share_n, feasible)


SEG_TOL = 1e-9


def da_less_segregated_count(result: KinkSweepResult, params_base: EconomyParams) -> tuple[int, int]:
    """(feasible count, count with school segregation strictly lower under DA).

    Segregation is compared through the poor share at the oversubscribed
    school: with binary wealth, a poor share closer to the population share
    means a smaller average-wealth deviation.
    """
    rho_p = params_base.wealth.poor_rho
    ok = result.feasible
    less = np.abs(result.share_da[ok] - rho_p) < np.abs(result.share_n[ok] - rho_p) - SEG_TOL
    return int(np.count_nonzero(ok)), int(np.count_nonzero(less))


def _cube_cell(rho_p: float, q: float, pi: float, step: float) -> CubeCell:
    # the sweep reads no CDF of the economy; Uniform is the cheapest to validate
    params = EconomyParams(m=2, q=q, g=0.0, e=1.0, pi=pi,
                           wealth=binary_wealth(rho_p), cdf=Uniform())
    result = kink_sweep(params, step)
    n_feasible, n_less = da_less_segregated_count(result, params)
    return CubeCell(rho_p, q, pi, n_feasible, n_less)


def cube_sweep(rho_list, q_list, pi_list, step: float = 0.1) -> CubeSweepResult:
    """Share of single-kink CDFs with lower school segregation under DA,
    across a (rho_p, q, pi) parameter grid, one cell after another. A cell
    that is no valid economy raises EconomyError."""
    cells = tuple(_cube_cell(rho_p, q, pi, step)
                  for rho_p in rho_list for q in q_list for pi in pi_list)
    return CubeSweepResult(tuple(rho_list), tuple(q_list), tuple(pi_list), step, cells)
