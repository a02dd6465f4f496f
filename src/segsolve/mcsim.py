"""Finite-agent Monte Carlo oracle for the continuum model.

A replication draws n students (signal, shock, wealth type, primary and
secondary school among m), houses the demanders of each neighborhood up to
its cap, draws one lottery number per student, and runs N, DA or TTC
(`run_mechanism`). Each student ranks their two fitting schools and c0,
with c0 first or second; c0 never fills, so DA and TTC read only each
student's first choice (`first_choices`) and seat at c0 whoever that school
turns away. School k ranks its residents first, then everyone else, both in
lottery order. Any m >= 2 works. `check_da_stability` lists the blocking
pairs of an assignment on the whole rankings, and `find_ttc_improvement`
finds a student who can move up to a free seat or c0, which on these
rankings is the only Pareto improvement there can be. The tests also hold
the per-student TTC loop and the per-round lexsort DA that `run_ttc_finite`
and `run_da_finite` replaced, as references they must match exactly.

Neither mechanism sorts the whole lottery: DA cuts each oversubscribed
school by one partition of its lottery values, and TTC seats the residents
who want their own school first and sorts the other residents and a head of
the lottery order. The stages work in place where they can, and pick out a
school's applicants by boolean masks, not index lists. A replication keeps
its per-agent columns as views of one `Workspace` block, whose float column
holds the shock and wealth-type draws, the fits, the lottery and the seat
values in turn. The shock is held as its sign, one int8 per student. The
students' school and wealth-type columns, the residency, the rankings and
the seats are held in the smallest integer dtypes that fit m or the type
count, and a mechanism returns its assignment in the residency's dtype, one
byte per student for m < 256 (see MAX_AGENTS).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mechanisms as mx
from .economy import EconomyParams


# An N, DA or TTC replication peaks at 28-31.5 bytes per agent above the
# interpreter, the solved economy and a small warm-up replication
# (ru_maxrss at 200k and 1M agents; the arrays themselves peak at 31, by
# tracemalloc), so the cap keeps one run near 0.16 GB. Its `Workspace`
# block, 20 bytes per agent, is the largest array it frees. glibc raises
# its mmap threshold to the largest mapped block freed and its trim
# threshold to twice that, so from a process's third replication on the
# heap keeps the working set and no page of it is faulted in again. The
# threshold stops at 32 MiB, which the block passes above about 1.6M
# agents: there the block is mapped afresh each time, as every array was.
MAX_AGENTS = 5_000_000
# `estimate` spawns every replication's seed up front and keeps a row of
# statistics per replication, about 1.3 kB of the two at peak per
# replication (tracemalloc), so the cap keeps that bookkeeping near 13 MB;
# a billion replications asked for over a terabyte before the first ran.
MAX_REPLICATIONS = 10_000


@dataclass(frozen=True)
class SimConfig:
    params: EconomyParams
    mech: mx.Mechanism
    cutoffs: tuple[tuple[float, float], ...]  # (omega, s)
    n_agents: int = 200_000
    seed: int = 0
    replications: int = 2

    def __post_init__(self):
        for name in ("n_agents", "replications", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_agents < 1_000:
            raise ValueError("need at least 1,000 agents")
        if self.n_agents > MAX_AGENTS:
            raise ValueError(f"need at most {MAX_AGENTS:,} agents")
        if self.n_agents * self.params.q < 100:
            raise ValueError("too few seats for meaningful rates")
        # each zone's housing cap; every school has at least as many seats
        if int(self.n_agents * self.params.q / self.params.m) < 1:
            raise ValueError(f"too few agents for {self.params.m} schools: a school has no seat")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.replications > MAX_REPLICATIONS:
            raise ValueError(f"need at most {MAX_REPLICATIONS:,} replications")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if sorted(w for w, _ in self.cutoffs) != sorted(self.params.wealth.omegas.tolist()):
            raise ValueError(f"cutoffs must give one cutoff per wealth type, got {self.cutoffs}")
        # a NaN cutoff compares false with every signal and houses nobody
        if not all(math.isfinite(s) for _, s in self.cutoffs):
            raise ValueError(f"cutoffs must be finite, got {self.cutoffs}")


@dataclass(frozen=True)
class Agents:
    """One market's students, a column each. `sample_agents` holds the
    school ids in the smallest unsigned dtype that holds 2m - 1 (the sum it
    wraps t2 from) and the wealth types in the smallest that holds their
    count; the code reading them takes any integer dtype. Each student's
    wealth index, `omega`, is looked up from the per-type table `omegas`
    when read, and each student's shock, `eps`, is the int8 `shock` times
    `e`, so the signal is the one per-student float column."""
    t1: np.ndarray         # primary school, 1..m
    t2: np.ndarray         # secondary school, 1..m
    s: np.ndarray          # signal
    shock: np.ndarray      # shock sign, int8 in {-1, 0, +1}
    e: float               # shock size
    omega_idx: np.ndarray  # wealth type, an index into omegas
    omegas: np.ndarray     # wealth index per type

    @property
    def n(self) -> int:
        return self.t1.size

    @property
    def omega(self) -> np.ndarray:
        """Each student's wealth index."""
        return self.omegas[self.omega_idx]

    @property
    def eps(self) -> np.ndarray:
        """Each student's realized shock in {-e, 0, +e}."""
        return np.multiply(self.shock, self.e, dtype=np.float64)

    def fits(self, out: np.ndarray | None = None) -> np.ndarray:
        """Each student's fit s + eps, in `out` if given: eps + s, the same
        bits, as addition commutes."""
        fit = np.multiply(self.shock, self.e, out=out, dtype=np.float64)
        fit += self.s
        return fit


@dataclass(frozen=True)
class SimResult:
    mech: mx.Mechanism
    n_agents: int
    replications: int
    seed: int
    stats: dict[str, tuple[float, float]]          # name -> (mean, se)
    per_replication: dict[str, np.ndarray] = field(repr=False)

    def mean(self, name: str) -> float:
        return self.stats[name][0]

    def se(self, name: str) -> float:
        return self.stats[name][1]

    def z(self, name: str, target: float) -> float:
        """(mean - target) / se for the statistic `name`; raises ValueError
        at one replication, where se is undefined."""
        m, se = self.stats[name]
        if self.replications < 2:
            raise ValueError(f"z-score of {name!r} needs at least two replications, "
                             f"got {self.replications}")
        if se == 0.0:
            return 0.0 if abs(m - target) < 1e-12 else math.inf
        return (m - target) / se

    def to_dict(self) -> dict:
        """A JSON-ready payload; a non-finite number (se at one replication,
        r or a poor share when undefined) becomes None, JSON's null."""
        return {
            "mech": self.mech.value,
            "n_agents": self.n_agents,
            "replications": self.replications,
            "seed": self.seed,
            "stats": {k: {"mean": _finite_or_none(m), "se": _finite_or_none(se)}
                      for k, (m, se) in self.stats.items()},
            "per_replication": {k: [_finite_or_none(x) for x in v]
                                for k, v in self.per_replication.items()},
        }


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _draw_index(rng: np.random.Generator, p, u: np.ndarray) -> np.ndarray:
    """`rng.choice(len(p), size=u.size, p=p)` for a valid `p`, drawn as
    `Generator.choice` draws it: one uniform draw, here into the float64
    buffer `u`, against the cumulative sum of `p` scaled to end at 1.0. A
    uniform lands past every entry c <= u, as searchsorted with side="right"
    puts it. The last entry is 1.0 > u and so counts for nothing; the first
    one compared is cdf[0], which is that 1.0 when `p` has one entry. The
    indices come in the smallest unsigned dtype that holds len(p) - 1,
    counted in place from the first comparison's bools."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    rng.random(out=u)
    idx = (u >= cdf[0]).view(np.uint8).astype(np.min_scalar_type(cdf.size - 1), copy=False)
    for c in cdf[1:-1]:
        idx += u >= c
    return idx


@dataclass(frozen=True)
class Workspace:
    """The per-agent columns that one replication keeps, as typed views cut
    from one byte block: the float column, which holds the uniform draws of
    the shock and wealth type, the fits, the lottery and the seat values in
    turn; the signals; t1 and t2 in `Agents`' school dtype; and the
    residency and the first choices in the smallest unsigned dtype that
    holds m. That is 20 bytes per student for m <= 128. `replication_stats`
    allocates one per replication and keeps no buffer between calls."""
    column: np.ndarray
    s: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    residency: np.ndarray
    first: np.ndarray

    @classmethod
    def allocate(cls, params: EconomyParams, n: int) -> Workspace:
        school, zone = np.min_scalar_type(2 * params.m - 1), np.min_scalar_type(params.m)
        # in field order, widest first (2m - 1 >= m), so each view starts
        # at a multiple of its item size
        dtypes = [np.dtype(d) for d in (np.float64, np.float64, school, school, zone, zone)]
        block = np.empty(n * sum(d.itemsize for d in dtypes), dtype=np.uint8)
        views, start = [], 0
        for dtype in dtypes:
            views.append(block[start:start + n * dtype.itemsize].view(dtype))
            start += n * dtype.itemsize
        return cls(*views)


def _check_buffer(name: str, buf: np.ndarray, dtype, n: int) -> np.ndarray:
    """`buf`, if it is a C-contiguous array of `dtype` and length n."""
    if buf.dtype != dtype or buf.shape != (n,) or not buf.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} array of length {n}")
    return buf


def sample_agents(params: EconomyParams, n: int, rng: np.random.Generator,
                  workspace: Workspace | None = None) -> Agents:
    """n students drawn from `rng`. With a `workspace` the signals and the
    school columns are its views and the shock and wealth-type draws go into
    its float column, which a caller can then reuse; without one each is a
    new array. Either way the draws, the columns and the generator's state
    after are the same."""
    m = params.m
    school = np.min_scalar_type(2 * m - 1)
    if workspace is None:
        column, s, t1, t2 = np.empty(n), np.empty(n), np.empty(n, school), np.empty(n, school)
    else:
        column, s, t1, t2 = (_check_buffer(f"workspace.{name}", getattr(workspace, name), dtype, n)
                             for name, dtype in (("column", np.float64), ("s", np.float64),
                                                 ("t1", school), ("t2", school)))
    # 32-bit draws give the values and the stream of the default int64
    # draw; 8- and 16-bit ones split each word and would change both
    t1[...] = rng.integers(1, m + 1, size=n, dtype=np.uint32)
    t2[...] = rng.integers(1, m, size=n, dtype=np.uint32)  # the shift from t1
    t2 += t1  # in 2..2m-1, so one wrap gives (t1 - 1 + shift) % m + 1
    t2 -= np.multiply(t2 > m, m, dtype=school)
    s = params.cdf.ppf(rng.random(out=s), out=s)
    # indices 0, 1, 2 of (-e, 0, +e), held as the signs -1, 0, +1
    shock = _draw_index(rng, (params.pi, 1.0 - 2.0 * params.pi, params.pi), column).view(np.int8)
    shock -= 1
    omega_idx = _draw_index(rng, params.wealth.rhos, column)
    return Agents(t1, t2, s, shock, params.e, omega_idx, params.wealth.omegas)


def housing_stage(agents: Agents, cutoffs, params: EconomyParams,
                  rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Residency per agent: 0 for n0, else the neighborhood index 1..m, in
    the smallest unsigned dtype that holds m, written into `out` if given.
    Only a zone over its cap becomes an index list, of which `rng.choice`
    keeps cap."""
    zone = np.min_scalar_type(params.m)
    if out is not None:
        _check_buffer("out", out, zone, agents.n)
    lookup = dict(cutoffs)
    demand = np.zeros(agents.n, dtype=bool)  # signal above the type's cutoff
    for idx, (w, _) in enumerate(params.wealth.atoms):
        above = agents.s > lookup[w]
        above &= agents.omega_idx == idx
        demand |= above
    cap = int(agents.n * params.q / params.m)
    residency = np.multiply(agents.t1, demand, out=out, dtype=zone,
                            casting="unsafe")  # t1 <= m fits
    for k in range(1, params.m + 1):
        np.equal(residency, k, out=demand)
        if np.count_nonzero(demand) > cap:
            idx = np.flatnonzero(demand)
            residency[idx] = 0
            residency[rng.choice(idx, size=cap, replace=False)] = k
    return residency


def _preferred(agents: Agents, fit: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each student's preferred fitting school, written into `out`: t1 when
    its utility fit beats t2's -fit, else t2, an exact tie toward the lower
    school index."""
    t1, t2 = agents.t1, agents.t2
    first1 = (fit > 0.0) | ((fit == 0.0) & (t1 < t2))  # primary before secondary
    np.bitwise_xor(t1, t2, out=out, casting="unsafe")
    out *= first1
    np.bitwise_xor(out, t2, out=out, casting="unsafe")  # t1 if first1, else t2
    return out


def preferences(agents: Agents, params: EconomyParams) -> np.ndarray:
    """Strict school rankings (n, 3): the two fitting schools and c0 (id 0).

    The utilities are fit = s + eps at the primary school, -fit at the
    secondary and g >= 0 at c0, so the order follows from where fit lies
    against -g, 0 and g. Exact utility ties break toward the lower school
    index, and c0 has the lowest. At most one of fit and -fit beats g >= 0,
    so c0 is always first or second.

    The result holds the school ids in the smallest unsigned dtype that
    holds m, and is the (n, 3) transpose of a C-ordered (3, n) buffer, so
    each column `prefs[:, j]`, every student's j-th choice, is contiguous.
    """
    fit = agents.fits()
    top = (fit > params.g) | (fit < -params.g)  # the preferred fitting school beats c0
    buf = np.empty((3, agents.n), dtype=np.min_scalar_type(params.m))
    head, hi, lo = buf  # hi, lo: the preferred fitting school, the other one
    _preferred(agents, fit, hi)
    np.bitwise_xor(agents.t1, agents.t2, out=lo, casting="unsafe")
    lo ^= hi  # (t1 ^ t2) ^ hi is the school hi is not
    np.multiply(hi, top, out=head)
    hi *= ~top
    return buf.T


def first_choices(agents: Agents, params: EconomyParams, fit: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """`preferences(agents, params)[:, 0]`, each student's first choice,
    written into `out` if given: t1 [fit > g] + t2 [fit < -g], as at most one
    of fit and -fit beats c0's g >= 0, and a tie, a signed zero or a nan fit
    leaves c0. `fit` holds each student's s + eps (computed if not given), so
    a caller can build it in a buffer it reuses."""
    zone, n = np.min_scalar_type(params.m), agents.n
    out = np.empty(n, dtype=zone) if out is None else _check_buffer("out", out, zone, n)
    if fit is None:
        fit = agents.fits()
    # t1, t2 <= m fit out's dtype
    np.multiply(agents.t1, fit > params.g, out=out, casting="unsafe")
    np.add(out, agents.t2 * (fit < -params.g), out=out, casting="unsafe")
    return out


def school_capacities(n: int, params: EconomyParams) -> np.ndarray:
    cap = int(n * (params.q + params.delta_q) / params.m)
    caps = np.zeros(params.m + 1, dtype=np.int64)
    caps[1:] = cap
    caps[0] = n  # c0 never binds
    return caps


def _seat_dtype(m: int) -> np.dtype:
    """The smallest signed integer dtype that holds -1 (no seat yet) and
    every school id 0..m: TTC seats students in it and converts the result
    to the residency's dtype once, when every seat is taken."""
    return np.min_scalar_type(-m - 1)


def _lottery_order(lottery: np.ndarray) -> np.ndarray:
    """`np.argsort(lottery, kind="stable")`: students in lottery order, ties
    by index. It sorts with the faster default quicksort and sorts again
    stably only when two sorted neighbours are not strictly increasing (a
    tie, or a NaN), the one case where the two orders can differ."""
    order = np.argsort(lottery)
    ranked = lottery[order]
    if np.all(ranked[1:] > ranked[:-1]):
        return order
    return np.argsort(lottery, kind="stable")


def _lottery_prefix(lottery: np.ndarray, size: int) -> np.ndarray:
    """A head of `_lottery_order(lottery)`: the students whose number is at
    most a bound, who precede all others in that order, sorted by
    `_lottery_order` on their own numbers. The bound is the number of rank
    size // 16 among every 16th student's, so the head holds about `size`
    students when the numbers are independent draws; no full-length copy
    is made. The whole order when `size` reaches n or the bound is a NaN."""
    if size < lottery.size:
        bound = np.partition(lottery[::16], size // 16)[size // 16]
        if not np.isnan(bound):
            head = np.flatnonzero(lottery <= bound)
            return head[_lottery_order(lottery[head])]
    return _lottery_order(lottery)


def run_da_finite(agents: Agents, residency: np.ndarray, params: EconomyParams,
                  lottery: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
    """Student-proposing deferred acceptance with resident priority and a
    single tie-breaking lottery number per student.

    `first` is each student's first choice (0 for c0, `first_choices(...)` if
    not given). Every list puts c0 first or second and c0 never fills, so
    DA ends after one round: each school keeps its best applicants and seats
    the rest at c0. School k ranks its residents first, then everyone else,
    each group in lottery order. So an oversubscribed school with cap seats
    keeps every resident of its pool and the best non-residents when its
    residents fit, else its cap best residents: only the group that
    straddles the cap is cut, by lottery, and the lottery is never sorted
    whole. The applicants and their groups are boolean masks. The group's
    numbers, gathered by `np.compress`, are partitioned once at the last one
    kept; when every number past it is above it or a NaN (which sorts last),
    the group keeps exactly its numbers at most that bound, and the rest are
    rejected by a product over the masks. A tie at the cut (equal numbers,
    signed zeros), a NaN there, or nothing to keep leaves the split to a
    stable sort of the group.

    The result is a copy of `first` in the residency's dtype, with the
    rejected students set to c0.
    """
    if first is None:
        first = first_choices(agents, params)
    cap = school_capacities(agents.n, params)[1]
    cur = first.astype(residency.dtype)
    applied = np.empty(agents.n, dtype=bool)  # k's applicants, then a group of them
    local = np.empty(agents.n, dtype=bool)    # k's residents, then those who apply
    for k in range(1, params.m + 1):
        np.equal(first, k, out=applied)
        if np.count_nonzero(applied) <= cap:
            continue
        np.equal(residency, k, out=local)
        local &= applied
        applied ^= local  # the non-residents who apply
        left = cap - np.count_nonzero(local)  # seats after every resident
        if left < 0:  # the residents alone overfill k: no non-resident stays
            cur *= ~applied  # a product, faster than a masked store
            group, spare, keep = local, applied, cap
        else:
            group, spare, keep = applied, local, left
        if keep:
            vals = np.compress(group, lottery)
            vals.partition(keep - 1)
            bound, past = vals[keep - 1], np.fmin.reduce(vals[keep:])
            del vals  # freed before the next school's gather
            if past > bound:  # the group keeps exactly its numbers up to bound
                np.less_equal(lottery, bound, out=spare)
                spare |= np.logical_not(group, out=group)  # kept, or outside the group
                cur *= spare
                continue
        idx = np.flatnonzero(group)
        cur[idx[_lottery_order(lottery[idx])[keep:]]] = 0
    return cur


def _resident_blocks(residency: np.ndarray, lottery: np.ndarray,
                     queued: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The housed students of the mask `queued`, by school and then in
    lottery order (ties by index), and each one's school: their lottery
    numbers are sorted, and the small school ids then sorted stably."""
    housed = np.flatnonzero(queued)
    housed = housed[_lottery_order(lottery[housed])]
    home = residency[housed]
    by_school = np.argsort(home, kind="stable")
    return housed[by_school], home[by_school]


def run_ttc_finite(agents: Agents, residency: np.ndarray, params: EconomyParams,
                   lottery: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
    """Top trading cycles with counters; c0 has unlimited seats.

    `first` is each student's first choice (0 for c0, `first_choices(...)` if
    not given). Every list puts c0 first or second and c0 never fills, so
    a student points at `first` until it fills and is then seated at c0:
    those whose first choice is c0 at once, the rest by one pass when their
    school fills.

    School k ranks its block, its residents who want a school, in lottery
    order, then everyone in lottery order. A seat at k goes only with a
    cycle through k, which also seats k's top student, the block's head
    while the block holds anyone. So a school whose block is no longer than
    its seats cannot fill while the block holds anyone, and each resident
    who wants it gets it: they are seated before the walk, by adding a mask,
    and the block keeps only its traders, who want another school. The
    housing stage caps each zone within the seats, so every simulated block
    fits; a block longer than its seats keeps all its residents. Past its
    block, every school's top student is the first unseated student in
    lottery order, which in most markets stays within a few sqrt(n) of the
    front: that order is sorted as a head of about 4 sqrt(n) students
    (`_lottery_prefix`), four times as long each time the scan runs past it.

    At m = 2, when both blocks fit, each school points at its block's head
    until a block empties, and each head wants the other school: the first
    min(T1, T2) traders of each block (T1, T2 the blocks' lengths) trade
    seats pair by pair before the walk. A fitting school keeps a seat for
    each trader of its block, so the trade needs no seat bound.

    A walk over the school graph, k -> first choice of k's top student,
    seats the others, one cycle a step: a self-pointer takes a seat in
    place, and a cycle of schools seats each school's top student at the
    next school. A self-pointer can seat the top student of the school
    below on the walk's stack; that school's edge is then gone and the walk
    steps back to it. When a school fills, one pass over a boolean mask
    seats at c0 every student still pointing at it.

    The seats are kept in `_seat_dtype(m)` and returned in the residency's
    dtype.

    TTC's outcome does not depend on the order in which cycles are cleared
    (Abdulkadiroglu & Sonmez, AER 2003), so this equals the per-student
    loop that the tests keep as a reference.
    """
    if first is None:
        first = first_choices(agents, params)
    n, m = agents.n, params.m
    seats = school_capacities(n, params).tolist()
    assigned = np.full(n, -1, dtype=_seat_dtype(m))

    def close(k: int) -> int:
        """Seat at c0 every unseated student whose first choice is k, which
        has filled; return how many."""
        stale = first == k
        stale &= assigned < 0
        np.add(assigned, stale, out=assigned)  # -1 + 1, faster than a masked store
        return np.count_nonzero(stale)

    mask = first == 0
    np.add(assigned, mask, out=assigned)  # -1 + 1, faster than a masked store
    queued = np.logical_and(residency, first)  # the blocks
    fits = 0                              # schools whose blocks hold traders only
    for k in range(1, m + 1):
        np.equal(residency, k, out=mask)
        mask &= queued
        if np.count_nonzero(mask) <= seats[k]:
            fits += 1
            mask &= first == k            # the residents who want k
            queued ^= mask
            assigned -= np.multiply(mask, -1 - k, dtype=assigned.dtype)  # -1 - (-1 - k)
            seats[k] -= np.count_nonzero(mask)
        if not seats[k]:
            close(k)
    queue, at = _resident_blocks(residency, lottery, queued)
    del queued
    res_end = np.searchsorted(at, np.arange(m + 1, dtype=at.dtype), side="right").tolist()
    res_pos = [0] + res_end[:-1]  # school k's block: queue[res_pos[k]:res_end[k]]
    pairs = min(res_end[1] - res_pos[1], res_end[2] - res_pos[2]) if fits == m == 2 else 0
    if pairs:  # the blocks' heads trade seats, pair by pair
        for k, j in ((1, 2), (2, 1)):
            assigned[queue[res_pos[k]:res_pos[k] + pairs]] = j
            res_pos[k] += pairs
            seats[j] -= pairs
            if not seats[j]:
                close(j)
    left = np.count_nonzero(assigned < 0)  # the unseated
    res = memoryview(queue)

    top = [-1] * (m + 1)      # a stacked school's top student
    depth = [-1] * (m + 1)    # a school's place on the walk's stack; -1 off it
    span = 4 * math.isqrt(n)
    head = _lottery_prefix(lottery, span)
    h = 0                     # no unseated student precedes head[h] in lottery order
    asg, tgt, lot = (memoryview(a) for a in (assigned, first, head))

    while left:
        k = next(k for k in range(1, m + 1) if seats[k])
        stack = [k]
        depth[k] = 0
        # the last students can take seats while schools remain stacked,
        # whose top students would then be sought without end
        while stack and left:
            # k's top student: its first unseated resident, else the first
            # unseated student in lottery order
            k = stack[-1]
            p, end = res_pos[k], res_end[k]
            while p < end and asg[res[p]] >= 0:
                p += 1
            res_pos[k] = p
            if p < end:
                t = res[p]
            else:
                while True:
                    while h < len(lot) and asg[lot[h]] >= 0:
                        h += 1
                    if h < len(lot):
                        break
                    # past the sorted head: sort one about four times as long
                    span *= 4
                    head = _lottery_prefix(lottery, span)
                    lot = memoryview(head)
                t = lot[h]
            j = tgt[t]
            if j == k:  # self-pointer
                asg[t] = k
                left -= 1
                seats[k] -= 1
                if not seats[k]:
                    left -= close(k)
                    stack.pop()
                    depth[k] = -1
                elif len(stack) > 1 and top[stack[-2]] == t:
                    # t was also the top of the school below, whose edge is gone
                    stack.pop()
                    depth[k] = -1
                continue
            top[k] = t
            if depth[j] < 0:
                depth[j] = len(stack)
                stack.append(j)
                continue
            start = depth[j]
            # cycle stack[start:]: each school's top takes a seat at the next
            for c in stack[start:]:
                t = top[c]
                d = tgt[t]
                asg[t] = d
                seats[d] -= 1
                if not seats[d]:
                    left -= close(d)
                depth[c] = -1
            left -= len(stack) - start
            del stack[start:]
    return assigned.astype(residency.dtype)


def _rank_table(prefs: np.ndarray, m: int) -> np.ndarray:
    """rank[i, k]: place of school k in student i's list; a school the list
    omits ranks after every listed one, c0 included."""
    n, width = prefs.shape
    rank = np.full((n, m + 1), width, dtype=np.int64)
    rank[np.arange(n)[:, None], prefs] = np.arange(width)
    return rank


def check_da_stability(agents: Agents, residency: np.ndarray, assignment: np.ndarray,
                       params: EconomyParams, lottery: np.ndarray,
                       sample: np.ndarray | None = None) -> list[tuple[int, int]]:
    """Blocking pairs (i, k) under resident-then-lottery priorities, school by
    school from c0 and in the order of `sample` (every agent when None);
    empty if stable. A student blocks with k if they prefer k to their seat
    and k has a free seat or admits someone with a worse (non-resident,
    lottery) key; c0 never fills, so a student seated below c0 blocks with
    it. Raises ValueError if a school holds more students than its seats."""
    caps = school_capacities(agents.n, params)
    idx = np.arange(agents.n) if sample is None else np.asarray(sample)
    rank = _rank_table(preferences(agents, params)[idx], params.m)
    held = assignment[idx]
    own = rank[np.arange(idx.size), held]
    blocking = []
    for k in range(params.m + 1):
        nonres = residency[idx] != k
        admitted = np.flatnonzero(assignment == k)
        if admitted.size > caps[k]:
            raise ValueError(f"school {k} holds {admitted.size} students, over its {caps[k]} seats")
        if admitted.size < caps[k]:
            outranks = np.ones(idx.size, dtype=bool)  # a free seat
        elif admitted.size == 0:
            continue  # no seats at all
        else:
            admitted_nonres = residency[admitted] != k
            worst_nonres = bool(admitted_nonres.max())
            worst_lottery = lottery[admitted[admitted_nonres == worst_nonres]].max()
            outranks = (nonres < worst_nonres) | (
                (nonres == worst_nonres) & (lottery[idx] < worst_lottery))
        hit = (held != k) & (rank[:, k] < own) & outranks
        blocking.extend((int(i), k) for i in idx[hit])
    return blocking


def find_ttc_improvement(agents: Agents, assignment: np.ndarray,
                         params: EconomyParams) -> list[int] | None:
    """A Pareto improvement on the model's own rankings, or None: the
    lowest-index student who strictly prefers c0 or a school with a free
    seat, found by one scan of the rank table, as a group of one. Raises
    ValueError if a school holds more students than its seats.

    No trading cycle among students can be left once no such upgrade is:
    `preferences()` puts c0 first or second, and c0 never fills. So a
    student who cannot move up to a free seat holds either their first
    choice or c0, and that first choice is ranked above c0. In the school
    graph, with an edge a -> k when some holder of a strictly prefers k,
    only c0's holders then have edges, and no edge points into c0, so the
    graph has no cycle, and a trading cycle of students would map to one."""
    m = params.m
    rank = _rank_table(preferences(agents, params), m)
    held = assignment.astype(np.intp)
    counts = np.bincount(held, minlength=m + 1)
    caps = school_capacities(agents.n, params)
    if np.any(counts > caps):
        k = int(np.argmax(counts > caps))
        raise ValueError(f"school {k} holds {counts[k]} students, over its {caps[k]} seats")
    better = rank < rank[np.arange(agents.n), held][:, None]  # i strictly prefers k
    free = counts < caps
    free[0] = True  # c0 never fills
    upgrade = (better & free).any(axis=1)
    return [int(np.argmax(upgrade))] if upgrade.any() else None


def run_mechanism(agents: Agents, residency: np.ndarray, params: EconomyParams,
                  mech: mx.Mechanism, lottery: np.ndarray | None,
                  first: np.ndarray | None = None) -> np.ndarray:
    """School per agent under a core mechanism, in the residency's dtype;
    `first`, each student's first choice, is built if not given. N reads
    neither, so its `lottery` may be None."""
    mech = mx.Mechanism(mech)
    if mech not in mx.CORE:
        raise ValueError(f"no finite algorithm for {mech.value}")
    if mech is mx.Mechanism.N:
        return residency.copy()  # no choice: the home school
    # looked up when called, so a rebound module attribute is the one that runs
    run = run_da_finite if mech is mx.Mechanism.DA else run_ttc_finite
    return run(agents, residency, params, lottery, first)


def _seat_values(agents: Agents, assignment: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Each student's match value, fit = s + eps at t1, -fit at t2 and +0.0
    at c0: `np.where(assignment == t1, fit, np.where(assignment == t2, -fit,
    0.0))` bit for bit for finite fits, in one float array, `out` if given.
    fit * 0 is -0.0 for a negative fit, so c0's seats take 1 off and add it
    back, which gives +0.0; every other value takes off 0 twice and keeps its
    bits, -0.0 included."""
    at_t1 = assignment == agents.t1
    at_t2 = assignment == agents.t2
    value = agents.fits(out=out)
    value *= np.subtract(at_t1, at_t2, dtype=np.int8)
    at_t1 |= at_t2
    c0 = np.logical_not(at_t1, out=at_t1).view(np.int8)  # 1 at c0, else 0
    value -= c0
    value -= np.negative(c0, out=c0)
    return value


def replication_stats(config: SimConfig, rng: np.random.Generator) -> dict[str, float]:
    """One replication's statistics: the market is drawn (`sample_agents`,
    `housing_stage`, then, except under N, which reads none, one lottery
    number per student), its mechanism run, and the rejection rate, each
    wealth type's masses in n1 and c1, the poor shares and the match
    quality counted from it.

    The replication's kept columns are the views of one `Workspace`. Its
    float column serves four uses in turn: the shock and wealth-type draws
    of `sample_agents`; the fits s + eps, from which the first choices are
    built; the lottery, drawn into it; and the seat values, written into it.
    The block is the largest array a replication frees, which is what lets
    the next replication reuse the heap pages (see MAX_AGENTS).
    """
    params = config.params
    ws = Workspace.allocate(params, config.n_agents)
    agents = sample_agents(params, config.n_agents, rng, ws)
    residency = housing_stage(agents, config.cutoffs, params, rng, out=ws.residency)
    first = first_choices(agents, params, agents.fits(out=ws.column), out=ws.first)
    # the first choices draw nothing, so the lottery comes next in the
    # stream; under N nothing reads it and nothing is drawn after it
    lottery = None if config.mech == mx.Mechanism.N else rng.random(out=ws.column)
    assignment = run_mechanism(agents, residency, params, config.mech, lottery, first)

    n = agents.n
    stats: dict[str, float] = {}
    if config.mech == mx.Mechanism.TTC:
        # cross-zone residents trade through cycles; only n0 residents
        # face the tie-breaking lottery
        applicants = residency == 0
    else:
        applicants = residency != first
    applicants &= first >= 1
    total = np.count_nonzero(applicants)
    applicants &= assignment != first  # the rejected ones
    stats["r"] = float(np.count_nonzero(applicants)) / total if total else float("nan")
    del applicants  # freed before the value pass

    value = _seat_values(agents, assignment, out=ws.column)

    # agents per wealth type living in n1 and seated at c1: exact counts
    atoms = params.wealth.atoms
    types = range(len(atoms))
    housed, seated = residency >= 1, assignment >= 1
    del residency, assignment
    n1, c1 = [], []
    for idx in types:
        sel = agents.omega_idx == idx
        n1.append(np.count_nonzero(sel & housed))
        c1.append(np.count_nonzero(sel & seated))
    del housed, seated, sel  # freed before the gathers, which peaked above the value pass
    # each type's values in index order, as a boolean gather gives them
    quality = [float(np.sum(np.compress(agents.omega_idx == idx, value))) for idx in types]
    for (w, _), n1_w, c1_w in zip(atoms, n1, c1):
        stats[f"n1_mass[{w:.6g}]"] = float(n1_w) / n
        stats[f"c1_mass[{w:.6g}]"] = float(c1_w) / n
    n1_total, c1_total = sum(n1), sum(c1)
    stats["poor_share_n1"] = float(n1[0]) / n1_total if n1_total else float("nan")
    stats["poor_share_c1"] = float(c1[0]) / c1_total if c1_total else float("nan")
    stats["quality_total"] = 100.0 * float(np.sum(value)) / n
    for (w, _), q_w in zip(atoms, quality):
        stats[f"quality[{w:.6g}]"] = 100.0 * q_w / n
    return stats


def estimate(config: SimConfig) -> SimResult:
    seeds = np.random.SeedSequence(config.seed).spawn(config.replications)
    rows = [replication_stats(config, np.random.default_rng(s)) for s in seeds]
    names = rows[0].keys()
    per_rep = {k: np.array([row[k] for row in rows]) for k in names}
    stats = {}
    for k, vals in per_rep.items():
        mean = float(np.mean(vals))
        if len(vals) > 1:
            se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        else:
            se = float("nan")
        stats[k] = (mean, se)
    return SimResult(config.mech, config.n_agents, config.replications,
                     config.seed, stats, per_rep)
