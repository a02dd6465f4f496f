"""Batch experiments over single-kink signal distributions and parameter cubes."""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import mechanisms as mx
from .cdf import PiecewiseLinearBatch, SingleKink, single_kink_grid
from .economy import (EconomyError, EconomyParams, assumption1_mask,
                      assumption2_mask, binary_wealth)
from .equilibrium import dispersion_root, interior
from .segregation import EQUAL_TOL, school_masses


@dataclass(frozen=True)
class KinkRecord:
    x: float
    y: float
    share_n: float
    share_da: float
    diff: float
    feasible: bool


@dataclass(frozen=True)
class KinkSweepResult:
    step: float
    records: tuple[KinkRecord, ...]

    def feasible_records(self) -> list[KinkRecord]:
        return [r for r in self.records if r.feasible]

    def to_csv(self) -> str:
        lines = ["x,y,share_N,share_DA,diff,feasible"]
        for r in self.records:
            lines.append(
                f"{r.x:.12g},{r.y:.12g},{r.share_n:.12g},{r.share_da:.12g},"
                f"{r.diff:.12g},{int(r.feasible)}")
        return "\n".join(lines) + "\n"


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


def _school_poor_share(kinks, mech: mx.Mechanism) -> tuple[np.ndarray, np.ndarray]:
    """Poor share at one oversubscribed school under mech for each CDF of
    the batch, and where it is feasible: assumption 2 holds, [0, d_max]
    brackets the root, the cutoffs are interior and no school mass is
    negative. Mirrors solve(check=False) + school_profile on each CDF."""
    r = mx.rejection_rates(kinks, mech)
    ok = assumption2_mask(kinks, mech, r)
    a = mx.CORE_ALGEBRA[mech].intercept(kinks)
    d = dispersion_root(kinks, kinks.cdf, a)  # nan fails the interior test
    cutoffs = [(w, a + d * w) for w, _ in kinks.wealth.atoms]
    for _, s in cutoffs:
        ok = ok & interior(kinks, s)
    masses = []
    for (_, unweighted), (_, rho) in zip(school_masses(kinks, mech, r, cutoffs),
                                         kinks.wealth.atoms):
        ok = ok & ~(unweighted < -EQUAL_TOL)
        masses.append(rho * unweighted)
    total = sum(masses)
    return np.where(ok & (total > 0.0), masses[0] / total, np.nan), ok


def kink_sweep(params_base: EconomyParams, step: float) -> KinkSweepResult:
    """Solve N and DA for every single-kink signal CDF on the grid.

    All grid kinks go through each check and solve together as one
    PiecewiseLinearBatch, with the same floating-point expressions as
    check_assumption1/2, solve and school_profile on a single kink, so each
    record equals that scalar path's result bit for bit.
    """
    if not params_base.wealth.is_binary():
        raise ValueError("kink sweep expects binary wealth")
    kink_x, kink_y = single_kink_grid(step)
    # params_base with each grid kink as its CDF; grid kinks are valid CDFs
    kinks = SimpleNamespace(**{**vars(params_base),
                               "cdf": PiecewiseLinearBatch.single_kinks(kink_x, kink_y)})
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = assumption1_mask(kinks)
        share_n, ok_n = _school_poor_share(kinks, mx.Mechanism.N)
        share_da, ok_da = _school_poor_share(kinks, mx.Mechanism.DA)
    feasible = ok & ok_n & ok_da
    share_n = np.where(feasible, share_n, np.nan)
    share_da = np.where(feasible, share_da, np.nan)
    records = tuple(map(KinkRecord, kink_x.tolist(), kink_y.tolist(), share_n.tolist(),
                        share_da.tolist(), (share_da - share_n).tolist(), feasible.tolist()))
    return KinkSweepResult(step, records)


SEG_TOL = 1e-9


def da_less_segregated_count(result: KinkSweepResult, params_base: EconomyParams) -> tuple[int, int]:
    """(feasible count, count with school segregation strictly lower under DA).

    Segregation is compared through the poor share at the oversubscribed
    school: with binary wealth, a poor share closer to the population share
    means a smaller average-wealth deviation.
    """
    rho_p = params_base.wealth.poor_rho
    n_feasible = n_less = 0
    for r in result.feasible_records():
        n_feasible += 1
        if abs(r.share_da - rho_p) < abs(r.share_n - rho_p) - SEG_TOL:
            n_less += 1
    return n_feasible, n_less


def _cube_cell(rho_p: float, q: float, pi: float, step: float) -> CubeCell:
    try:
        params = EconomyParams(
            m=2, q=q, g=0.0, e=1.0, pi=pi,
            wealth=binary_wealth(rho_p), cdf=SingleKink(0.5, 0.5))
    except EconomyError:
        return CubeCell(rho_p, q, pi, 0, 0)
    result = kink_sweep(params, step)
    n_feasible, n_less = da_less_segregated_count(result, params)
    return CubeCell(rho_p, q, pi, n_feasible, n_less)


def cube_sweep(rho_list, q_list, pi_list, step: float = 0.1) -> CubeSweepResult:
    """Share of single-kink CDFs with lower school segregation under DA,
    across a (rho_p, q, pi) parameter grid, one cell after another."""
    cells = tuple(_cube_cell(rho_p, q, pi, step)
                  for rho_p in rho_list for q in q_list for pi in pi_list)
    return CubeSweepResult(tuple(rho_list), tuple(q_list), tuple(pi_list), step, cells)
