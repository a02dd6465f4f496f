"""Earlier versions of eight `mcsim` functions, kept as references.

`run_ttc_reference` is the per-agent top trading cycles loop that
`mcsim.run_ttc_finite` replaced with a school-level cycle walk. TTC's outcome
does not depend on the order in which cycles are cleared, so the two must
assign every student identically. `run_da_reference` trims each
oversubscribed school with an `np.lexsort` of (non-resident, lottery) per
round, where `mcsim.run_da_finite` cuts only the group that straddles the
cap, by one partition of its lottery numbers; both reject the same
students. `check_da_stability_reference` is the
per-agent blocking-pair scan that the vectorized `mcsim.check_da_stability`
replaced; its `argsort` rank only inverts rows that are permutations of
{0, 1, 2}, so it holds at m = 2 only. `preferences_reference` sorts each
student's three utilities with `np.lexsort`, where `mcsim.preferences` reads
the order from the sign of the fit. `sample_agents_reference` draws the
shocks and wealth types with `rng.choice` and keeps each shock as the float
e * (-1.0, 0.0, 1.0)[i], where `mcsim.sample_agents` counts one uniform draw
against the cumulative probabilities itself and keeps the shock's sign in
one byte.
`housing_stage_reference` builds an index list of every zone's demanders,
where `mcsim.housing_stage` builds one only for a zone over its cap.
`replication_stats_reference` computes each statistic with its own mask
passes, where `mcsim.replication_stats` counts the cells with one
`np.bincount`; it runs on the reference draws, housing, rankings and
mechanisms. These must agree bit for bit, the random stream included.
`find_ttc_improvement_reference` is the exhaustive Pareto-improvement
search: it checks each student for a free-seat upgrade in a Python loop and
then searches the student graph depth first for a trading cycle, where
`mcsim.find_ttc_improvement` scans the rank table for the upgrade only, as
on the model's own rankings no trading cycle is left once no upgrade is.
Both must return the same group, and the reference never a group of two or
more. `test_mcsim.py` runs them against the package on many markets.
"""
import math
from dataclasses import dataclass

import numpy as np

from segsolve import mcsim
from segsolve import mechanisms as mx


def preferences_reference(agents, params):
    """Rankings (n, 3) by utility, ties toward the lower school index."""
    fit = agents.s + agents.eps
    utils = np.column_stack([np.full(agents.n, params.g), fit, -fit])
    ids = np.column_stack([np.zeros(agents.n, dtype=np.int64), agents.t1, agents.t2])
    order = np.lexsort((ids, -utils), axis=1)
    return np.take_along_axis(ids, order, axis=1)


def run_da_reference(agents, residency, params, lottery, prefs=None):
    """Student-proposing deferred acceptance with resident priority and a
    single tie-breaking lottery number per student."""
    if prefs is None:
        prefs = mcsim.preferences(agents, params)
    caps = mcsim.school_capacities(agents.n, params)
    ptr = np.zeros(agents.n, dtype=np.int64)
    cur = np.full(agents.n, -1, dtype=np.int64)
    while True:
        free = np.flatnonzero(cur == -1)
        if free.size == 0:
            break
        proposals = prefs[free, ptr[free]]
        cur[free] = proposals  # tentatively hold; trim oversubscribed below
        for k in range(1, params.m + 1):
            pool = np.flatnonzero(cur == k)
            if pool.size <= caps[k]:
                continue
            nonres = (residency[pool] != k).astype(np.int64)
            order = np.lexsort((lottery[pool], nonres))
            rejected = pool[order[caps[k]:]]
            cur[rejected] = -1
            ptr[rejected] += 1
    return cur


def run_ttc_reference(agents, residency, params, lottery, prefs=None):
    """Top trading cycles with counters; c0 has unlimited seats."""
    if prefs is None:
        prefs = mcsim.preferences(agents, params)
    n = agents.n
    caps = mcsim.school_capacities(n, params)
    assigned = np.full(n, -1, dtype=np.int64)
    # school priority orders: residents first, then by lottery
    order_by_school = {}
    sptr = {}
    for k in range(1, params.m + 1):
        nonres = (residency != k).astype(np.int64)
        order_by_school[k] = np.lexsort((lottery, nonres))
        sptr[k] = 0
    stud_ptr = np.zeros(n, dtype=np.int64)

    def top_school(i: int) -> int:
        while True:
            c = prefs[i, stud_ptr[i]]
            if c == 0 or caps[c] > 0:
                return int(c)
            stud_ptr[i] += 1

    def top_student(k: int) -> int:
        order = order_by_school[k]
        p = sptr[k]
        while assigned[order[p]] >= 0:
            p += 1
        sptr[k] = p
        return int(order[p])

    for i in range(n):
        while assigned[i] < 0:
            stack = [i]
            pos = {i: 0}
            restart = False
            while True:
                curr = stack[-1]
                c = top_school(curr)
                if c == 0:
                    assigned[curr] = 0
                    del pos[curr]
                    stack.pop()
                    if not stack:
                        break
                    continue
                t = top_student(c)
                if t in pos:
                    start = pos[t]
                    cycle = stack[start:]
                    targets = [top_school(j) for j in cycle]
                    closed = False
                    for j, cj in zip(cycle, targets):
                        assigned[j] = cj
                        caps[cj] -= 1
                        if caps[cj] == 0:
                            closed = True
                    for j in cycle:
                        del pos[j]
                    del stack[start:]
                    if closed or not stack:
                        restart = True
                        break
                else:
                    pos[t] = len(stack)
                    stack.append(t)
            if restart:
                continue
            break
    return assigned


def check_da_stability_reference(agents, residency, assignment, params, lottery,
                                 sample=None):
    """Blocking pairs under resident-then-lottery priorities; empty if stable."""
    prefs = mcsim.preferences(agents, params)
    caps = mcsim.school_capacities(agents.n, params)
    rank = np.argsort(prefs, axis=1)  # rank[i, school] = position in i's list
    blocking = []
    agents_to_check = sample if sample is not None else np.arange(agents.n)
    for k in range(params.m + 1):
        admitted = np.flatnonzero(assignment == k)
        if admitted.size < caps[k]:
            worst = (2, math.inf)  # empty seat: anyone prefers in
        else:
            keys = [( int(residency[j] != k), float(lottery[j])) for j in admitted]
            worst = max(keys)
        for i in agents_to_check:
            if assignment[i] == k:
                continue
            if rank[i, k] < rank[i, assignment[i]]:
                key_i = (int(residency[i] != k), float(lottery[i]))
                if key_i < worst:
                    blocking.append((int(i), k))
    return blocking


@dataclass(frozen=True)
class ReferenceAgents:
    """The columns `sample_agents_reference` draws, with the float shocks
    `eps` that `mcsim.Agents.eps` must give bit for bit."""
    t1: np.ndarray
    t2: np.ndarray
    s: np.ndarray
    eps: np.ndarray
    omega_idx: np.ndarray
    omegas: np.ndarray

    @property
    def n(self):
        return self.t1.size


def sample_agents_reference(params, n, rng):
    """Agents with the shock and the wealth type drawn by `rng.choice`."""
    m = params.m
    t1 = rng.integers(1, m + 1, size=n)
    shift = rng.integers(1, m, size=n)
    t2 = (t1 - 1 + shift) % m + 1
    s = params.cdf.ppf(rng.random(n))
    eps = params.e * rng.choice(
        np.array([-1.0, 0.0, 1.0]),
        size=n,
        p=[params.pi, 1.0 - 2.0 * params.pi, params.pi])
    omega_idx = rng.choice(len(params.wealth.atoms), size=n, p=params.wealth.rhos)
    return ReferenceAgents(t1, t2, s, eps, omega_idx, params.wealth.omegas)


def housing_stage_reference(agents, cutoffs, params, rng):
    """Residency per agent: each zone's demanders as an index list, of which
    a zone over its cap keeps `cap` drawn by `rng.choice`."""
    lookup = dict(cutoffs)
    demand = np.zeros(agents.n, dtype=bool)  # signal above the type's cutoff
    for idx, (w, _) in enumerate(params.wealth.atoms):
        above = agents.s > lookup[w]
        above &= agents.omega_idx == idx
        demand |= above
    cap = int(agents.n * params.q / params.m)
    residency = np.zeros(agents.n, dtype=np.min_scalar_type(params.m))
    for k in range(1, params.m + 1):
        idx = np.flatnonzero(demand & (agents.t1 == k))
        if idx.size > cap:
            idx = rng.choice(idx, size=cap, replace=False)
        residency[idx] = k
    return residency


REFERENCE_RUNS = {
    mx.Mechanism.N: lambda agents, residency, *_: residency.copy(),
    mx.Mechanism.DA: run_da_reference,
    mx.Mechanism.TTC: run_ttc_reference,
}


def replication_stats_reference(config, rng):
    """One replication's statistics, each from its own masks."""
    params = config.params
    agents = sample_agents_reference(params, config.n_agents, rng)
    residency = housing_stage_reference(agents, config.cutoffs, params, rng)
    lottery = rng.random(config.n_agents)
    prefs = preferences_reference(agents, params)
    assignment = REFERENCE_RUNS[config.mech](agents, residency, params, lottery, prefs)

    n = agents.n
    stats = {}
    top = prefs[:, 0]
    out_of_zone = (top >= 1) & (residency != top)
    if config.mech == mx.Mechanism.TTC:
        # cross-zone residents trade through cycles; only n0 residents
        # face the tie-breaking lottery
        out_of_zone &= residency == 0
    applicants = np.flatnonzero(out_of_zone)
    if applicants.size:
        rejected = assignment[applicants] != top[applicants]
        stats["r"] = float(np.mean(rejected))
    else:
        stats["r"] = float("nan")

    specialized = assignment >= 1
    in_n1 = residency >= 1
    for idx, (w, _) in enumerate(params.wealth.atoms):
        sel = agents.omega_idx == idx
        stats[f"n1_mass[{w:.6g}]"] = float(np.sum(sel & in_n1)) / n
        stats[f"c1_mass[{w:.6g}]"] = float(np.sum(sel & specialized)) / n
    n1_total = np.sum(in_n1)
    c1_total = np.sum(specialized)
    poor = agents.omega_idx == 0
    stats["poor_share_n1"] = float(np.sum(poor & in_n1)) / n1_total if n1_total else float("nan")
    stats["poor_share_c1"] = float(np.sum(poor & specialized)) / c1_total if c1_total else float("nan")

    fit = agents.s + agents.eps
    value = np.where(assignment == agents.t1, fit,
                     np.where(assignment == agents.t2, -fit, 0.0))
    value = np.where(specialized, value, 0.0)
    stats["quality_total"] = 100.0 * float(np.sum(value)) / n
    for idx, (w, _) in enumerate(params.wealth.atoms):
        sel = agents.omega_idx == idx
        stats[f"quality[{w:.6g}]"] = 100.0 * float(np.sum(value[sel])) / n
    return stats


def find_ttc_improvement_reference(agents, assignment, params):
    """Exhaustive Pareto-improvement search: a free-seat upgrade or a trading
    cycle among students. Returns the improving group or None. O(n^2)."""
    caps = mcsim.school_capacities(agents.n, params).tolist()
    rank = mcsim._rank_table(mcsim.preferences(agents, params), params.m).tolist()
    held = assignment.tolist()
    counts = np.bincount(assignment, minlength=params.m + 1).tolist()
    n = agents.n
    schools = range(params.m + 1)
    better = []
    for i, (row, a) in enumerate(zip(rank, held)):
        better.append([k for k in schools if k != a and row[k] < row[a]])
        for k in better[-1]:
            if k == 0 or counts[k] < caps[k]:
                return [i]
    # cycle search: edge i -> j when j holds a school i strictly prefers
    holders = [np.flatnonzero(assignment == k).tolist() for k in schools]
    color = [0] * n
    parent_stack = []

    def dfs(i):
        color[i] = 1
        parent_stack.append(i)
        for k in better[i]:
            for j in holders[k]:
                if color[j] == 1:
                    return parent_stack[parent_stack.index(j):]
                if color[j] == 0:
                    found = dfs(j)
                    if found is not None:
                        return found
        color[i] = 2
        parent_stack.pop()
        return None

    for i in range(n):
        if color[i] == 0:
            parent_stack.clear()
            found = dfs(i)
            if found is not None:
                return found
    return None
