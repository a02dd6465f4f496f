"""Finite-agent simulation: sampling, housing, DA/TTC algorithms, estimates."""
import dataclasses
import itertools
import json
import math
import os
import platform
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import segsolve as ss
from segsolve import mcsim
from segsolve import mechanisms as mx
from segsolve.cdf import PiecewiseLinear, Power, SingleKink, Uniform
from segsolve.economy import example_economy
from segsolve.equilibrium import solve

from conftest import assert_ttc_cutoff_form, random_economy
from mcsim_reference import (REFERENCE_RUNS, check_da_stability_reference,
                             find_ttc_improvement_reference, housing_stage_reference,
                             preferences_reference, replication_stats_reference,
                             run_da_reference, run_ttc_reference, sample_agents_reference)


@pytest.fixture(scope="module")
def da_eq():
    return solve(example_economy(), "da")


def _small_market(seed, n=2000, mech="da", cutoffs=None):
    p = example_economy()
    rng = np.random.default_rng(seed)
    if cutoffs is None:
        cutoffs = solve(p, mech).cutoffs
    agents = mcsim.sample_agents(p, n, rng)
    residency = mcsim.housing_stage(agents, cutoffs, p, rng)
    lottery = rng.random(n)
    return p, agents, residency, lottery


def _market(params, n, seed, cutoffs):
    rng = np.random.default_rng(seed)
    agents = mcsim.sample_agents(params, n, rng)
    residency = mcsim.housing_stage(agents, cutoffs, params, rng)
    return agents, residency, rng.random(n)


def _agents_with_fits(t1, t2, fit):
    """Students of one wealth type whose fits s + eps are `fit` bit for bit:
    a shock of sign 0 and size -0.0 is -0.0, and x + -0.0 is x for every x,
    -0.0 included."""
    n = len(fit)
    return mcsim.Agents(t1=t1, t2=t2, s=np.asarray(fit, dtype=np.float64),
                        shock=np.zeros(n, dtype=np.int8), e=-0.0,
                        omega_idx=np.zeros(n, dtype=np.uint8), omegas=np.ones(1))


def _hand_market(top, residency, q, m=2):
    """Students at g = 0 with shocks of 0 and positive signals, so student i
    ranks school top[i] first and c0 second; lottery order is index order."""
    n = len(top)
    params = dataclasses.replace(example_economy(), q=q, m=m)
    t1 = np.array(top, dtype=np.int64)
    agents = _agents_with_fits(t1, t1 % m + 1, np.full(n, 0.5))
    return params, agents, np.array(residency, dtype=np.int64), np.arange(n) / n


class TestSampling:
    def test_shapes_and_ranges(self):
        p = example_economy()
        rng = np.random.default_rng(0)
        ag = mcsim.sample_agents(p, 5000, rng)
        assert ag.n == 5000
        assert set(np.unique(ag.t1)) <= {1, 2}
        assert np.all(ag.t1 != ag.t2)
        assert np.all((ag.s >= 0.0) & (ag.s <= 1.0))
        assert set(np.unique(ag.eps)) <= {-1.0, 0.0, 1.0}
        assert set(np.unique(ag.omega)) == {1.125, 0.875}

    def test_signal_distribution_matches_cdf(self):
        import dataclasses
        from segsolve.cdf import Power
        p = dataclasses.replace(example_economy(), cdf=Power(0.5))
        rng = np.random.default_rng(1)
        ag = mcsim.sample_agents(p, 100_000, rng)
        # empirical CDF at a few points vs sqrt(x)
        for x in (0.1, 0.4, 0.7):
            emp = np.mean(ag.s <= x)
            assert emp == pytest.approx(p.cdf.value(x), abs=0.01)

    def test_config_validation(self):
        p = example_economy()
        cuts = solve(p, "da").cutoffs
        with pytest.raises(ValueError):
            mcsim.SimConfig(params=p, mech=mx.Mechanism.DA, cutoffs=cuts,
                            n_agents=500)
        with pytest.raises(ValueError):
            mcsim.SimConfig(params=p, mech=mx.Mechanism.DA, cutoffs=cuts,
                            n_agents=2000, replications=0)
        # past the cap a replication's arrays would outgrow memory mid-run
        mcsim.SimConfig(params=p, mech=mx.Mechanism.DA, cutoffs=cuts,
                        n_agents=mcsim.MAX_AGENTS)
        for n in (mcsim.MAX_AGENTS + 1, 10 ** 11):
            with pytest.raises(ValueError, match="at most 5,000,000 agents"):
                mcsim.SimConfig(params=p, mech=mx.Mechanism.DA, cutoffs=cuts, n_agents=n)
        # estimate spawns every seed up front: a billion replications asked
        # for hundreds of GB before the first ran
        mcsim.SimConfig(params=p, mech=mx.Mechanism.DA, cutoffs=cuts,
                        replications=mcsim.MAX_REPLICATIONS)
        for reps in (mcsim.MAX_REPLICATIONS + 1, 10 ** 9):
            with pytest.raises(ValueError, match="at most 10,000 replications"):
                mcsim.SimConfig(params=p, mech=mx.Mechanism.DA, cutoffs=cuts,
                                replications=reps)
        # SeedSequence rejects a negative seed only once a run starts
        with pytest.raises(ValueError, match="seed must be non-negative"):
            mcsim.SimConfig(params=p, mech=mx.Mechanism.DA, cutoffs=cuts, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("n_agents", 5000.5), ("n_agents", "5000"), ("replications", 2.0),
        ("seed", 1.5), ("seed", True), ("replications", np.True_),
    ])
    def test_whole_number_fields(self, da_eq, field, value):
        # each of these passed construction and failed inside estimate, or
        # ran with True as seed 1
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            mcsim.SimConfig(params=example_economy(), mech=mx.Mechanism.DA,
                            cutoffs=da_eq.cutoffs, **{field: value})

    def test_numpy_integers_accepted_as_ints(self, da_eq):
        cfg = mcsim.SimConfig(params=example_economy(), mech=mx.Mechanism.DA,
                              cutoffs=da_eq.cutoffs, n_agents=np.int64(5000),
                              seed=np.int32(3), replications=np.uint8(2))
        assert [type(v) for v in (cfg.n_agents, cfg.seed, cfg.replications)] == [int] * 3
        assert json.loads(json.dumps(mcsim.estimate(cfg).to_dict()))["seed"] == 3

    @pytest.mark.parametrize("cutoffs", [
        ((1.0, 0.5), (0.875, 0.5)),                    # an omega not in params
        ((1.125, 0.5),),                               # a type missing
        ((1.125, 0.5), (0.875, 0.5), (0.875, 0.6)),    # a type twice
    ])
    def test_cutoffs_must_match_wealth_types(self, cutoffs):
        # a foreign omega used to raise KeyError from housing_stage
        with pytest.raises(ValueError, match="cutoffs must give one cutoff per wealth type"):
            mcsim.SimConfig(params=example_economy(), mech=mx.Mechanism.DA,
                            cutoffs=cutoffs, n_agents=5000)

    @pytest.mark.parametrize("cut", [math.nan, math.inf, -math.inf])
    def test_cutoffs_must_be_finite(self, cut):
        # a NaN cutoff used to pass and house nobody of its type: at DA on
        # ((1.125, nan), (0.875, 0.5)), n1_mass[1.125] and poor_share_n1 read 0.0
        with pytest.raises(ValueError, match="cutoffs must be finite"):
            mcsim.SimConfig(params=example_economy(), mech=mx.Mechanism.DA,
                            cutoffs=((1.125, cut), (0.875, 0.5)), n_agents=5000)

    @pytest.mark.parametrize("m, school, home", [
        (2, np.uint8, np.uint8), (128, np.uint8, np.uint8),
        (129, np.uint16, np.uint8), (256, np.uint16, np.uint16),
    ])
    def test_column_dtypes(self, m, school, home):
        # the school ids hold the wrap sum t1 + shift <= 2m - 1, the
        # residency holds m and the wealth types their count; every
        # mechanism returns its seats in the residency's dtype
        params = dataclasses.replace(example_economy(), m=m)
        rng = np.random.default_rng(m)
        agents = mcsim.sample_agents(params, 2_000, rng)
        assert agents.t1.dtype == agents.t2.dtype == school
        assert agents.omega_idx.dtype == np.uint8
        assert agents.omega.dtype == np.float64
        assert np.array_equal(agents.omega, params.wealth.omegas[agents.omega_idx])
        cutoffs = tuple((w, 0.5) for w in params.wealth.omegas.tolist())
        residency = mcsim.housing_stage(agents, cutoffs, params, rng)
        assert residency.dtype == home
        lottery = rng.random(agents.n)
        for mech in mx.CORE:
            asg = mcsim.run_mechanism(agents, residency, params, mech, lottery)
            assert asg.dtype == residency.dtype, mech

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 300])
    def test_draw_index_is_generator_choice(self, k):
        # the same indices and the same generator state after, on random p
        # with and without zero-probability entries (first, last, inside);
        # the indices come in the smallest unsigned dtype that holds k - 1
        rng = np.random.default_rng(k)
        for trial in range(12):
            w = rng.random(k)
            if trial % 2:
                w[rng.choice(k, size=rng.integers(1, k), replace=False)] = 0.0
            p = w / w.sum()
            for n in (0, 1, 2_000):
                ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
                got = mcsim._draw_index(ours, p, np.empty(n))
                want = theirs.choice(k, size=n, p=p)
                assert got.dtype == np.min_scalar_type(k - 1), (k, got.dtype)
                assert np.array_equal(got, want), (k, trial, n)
                assert ours.bit_generator.state == theirs.bit_generator.state


    @pytest.mark.parametrize("m", [2, 3, 200])
    def test_scratch_column_gives_the_same_draws(self, m):
        # every CDF family: the draws into a workspace, into new arrays and
        # the reference's `rng.choice` draws give the same columns and leave
        # the generator in the same state; the reference's float shocks are
        # what `eps` gives
        families = [Uniform(), Power(0.5), SingleKink(0.3, 0.6),
                    PiecewiseLinear(((0.0, 0.0), (0.25, 0.4), (0.75, 0.9), (1.0, 1.0)))]
        n = 3_001
        for seed, cdf in enumerate(families):
            params = dataclasses.replace(example_economy(), m=m, cdf=cdf)
            gens = [np.random.default_rng(seed) for _ in range(3)]
            ws = mcsim.Workspace.allocate(params, n)
            ws.column.fill(np.nan)
            plain = mcsim.sample_agents(params, n, gens[0])
            into = mcsim.sample_agents(params, n, gens[1], ws)
            ref = sample_agents_reference(params, n, gens[2])
            assert into.shock.dtype == np.int8 and set(np.unique(into.shock)) == {-1, 0, 1}
            for column in ("t1", "t2", "s", "eps", "shock", "omega_idx"):
                a, b = getattr(plain, column), getattr(into, column)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (m, cdf, column)
            for column in ("s", "eps"):
                a, b = getattr(into, column), getattr(ref, column)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (m, cdf, column)
            for column in ("t1", "t2", "omega_idx"):
                assert np.array_equal(getattr(into, column), getattr(ref, column)), (m, column)
            assert np.array_equal(into.shock, np.sign(ref.eps))
            assert all(getattr(into, name) is getattr(ws, name) for name in ("s", "t1", "t2"))
            assert not np.shares_memory(into.s, ws.column)
            assert (gens[0].bit_generator.state == gens[1].bit_generator.state
                    == gens[2].bit_generator.state)

    @pytest.mark.parametrize("scratch", [
        np.empty(1_999), np.empty(2_001), np.empty(2_000, dtype=np.float32),
        np.empty(2_000, dtype=np.int64), np.empty(4_000)[::2], np.empty((2_000, 1)),
    ], ids=["short", "long", "float32", "int64", "strided", "2d"])
    def test_bad_scratch_column_rejected(self, scratch):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        ws = mcsim.Workspace.allocate(example_economy(), 2_000)
        with pytest.raises(ValueError, match="workspace.column must be"):
            mcsim.sample_agents(example_economy(), 2_000, rng,
                                dataclasses.replace(ws, column=scratch))
        assert rng.bit_generator.state == state  # nothing drawn

    @pytest.mark.parametrize("m", [2, 200, 300])
    def test_workspace_views_tile_one_block(self, m):
        # each view in its own dtype, aligned to its item size, and no two
        # overlapping: together they are the whole block
        params = dataclasses.replace(example_economy(), m=m)
        n = 3_001
        ws = mcsim.Workspace.allocate(params, n)
        school, zone = np.min_scalar_type(2 * m - 1), np.min_scalar_type(m)
        views = {f.name: getattr(ws, f.name) for f in dataclasses.fields(ws)}
        assert {k: v.dtype for k, v in views.items()} == dict(
            column=np.float64, s=np.float64, t1=school, t2=school, residency=zone, first=zone)
        block = ws.column.base
        assert all(v.base is block and v.shape == (n,) and v.flags.aligned
                   for v in views.values())
        assert block.nbytes == sum(v.nbytes for v in views.values())
        for a, b in itertools.combinations(views.values(), 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("stage,field,bad", [
        ("sample", "t1", np.empty(2_000, dtype=np.uint16)),
        ("sample", "s", np.empty(1_999)),
        ("housing", "residency", np.empty(2_000, dtype=np.int64)),
        ("housing", "residency", np.empty(4_000, dtype=np.uint8)[::2]),
        ("first", "first", np.empty(2_001, dtype=np.uint8)),
        ("first", "first", np.empty(2_000, dtype=np.uint16)),
    ])
    def test_bad_out_buffer_rejected(self, stage, field, bad):
        params = example_economy()
        agents = mcsim.sample_agents(params, 2_000, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="must be a C-contiguous"):
            if stage == "sample":
                ws = dataclasses.replace(mcsim.Workspace.allocate(params, 2_000), **{field: bad})
                mcsim.sample_agents(params, 2_000, rng, ws)
            elif stage == "housing":
                mcsim.housing_stage(agents, solve(params, "da").cutoffs, params, rng, out=bad)
            else:
                mcsim.first_choices(agents, params, out=bad)
        assert rng.bit_generator.state == state  # nothing drawn


class TestHousing:
    def test_capacity_respected(self, da_eq):
        p, agents, residency, _ = _small_market(2)
        cap = int(agents.n * p.q / p.m)
        for k in (1, 2):
            assert np.sum(residency == k) <= cap

    def test_only_demanders_housed(self, da_eq):
        p, agents, residency, _ = _small_market(3, cutoffs=da_eq.cutoffs)
        cuts = dict(da_eq.cutoffs)
        housed = residency > 0
        s_cut = np.array([cuts[w] for w in agents.omega])
        assert np.all(agents.s[housed] > s_cut[housed])
        assert np.all(residency[housed] == agents.t1[housed])

    @pytest.mark.parametrize("m", [2, 3, 200])
    def test_matches_reference(self, m):
        # the residency bytes and the next draw, on markets with a zone over
        # its cap and without; the reference draws have int64 school columns
        params = dataclasses.replace(example_economy(), m=m)
        omegas = params.wealth.omegas.tolist()
        over_cap = set()
        for seed, cutoffs in enumerate([solve(params, "da").cutoffs, solve(params, "ttc").cutoffs,
                                        tuple((w, 0.0) for w in omegas),
                                        tuple((w, 0.95) for w in omegas)]):
            sample = (mcsim.sample_agents, sample_agents_reference)[seed % 2]
            agents = sample(params, 3_000, np.random.default_rng(seed))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = mcsim.housing_stage(agents, cutoffs, params, ours)
            want = housing_stage_reference(agents, cutoffs, params, theirs)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (m, seed)
            after = ours.random()
            assert after == theirs.random(), (m, seed)
            # into a caller's buffer: the same bytes and the same stream
            out, twin = np.full(3_000, 7, dtype=got.dtype), np.random.default_rng(seed)
            assert mcsim.housing_stage(agents, cutoffs, params, twin, out=out) is out
            assert out.tobytes() == got.tobytes() and twin.random() == after, (m, seed)
            cut = np.array([dict(cutoffs)[w] for w in omegas])[agents.omega_idx]
            demand = np.bincount(agents.t1[agents.s > cut], minlength=m + 1)[1:]
            over_cap.add(bool(demand.max() > int(3_000 * params.q / m)))
        assert over_cap == {False, True}


class TestPreferences:
    def test_rankings_follow_expost_fit(self):
        p, agents, _, _ = _small_market(4)
        prefs = mcsim.preferences(agents, p)
        fit = agents.s + agents.eps
        # positive-fit agents top their primary school, negative their secondary
        pos = fit > p.g
        neg = -fit > p.g
        assert np.all(prefs[pos, 0] == agents.t1[pos])
        assert np.all(prefs[neg, 0] == agents.t2[neg])

    def test_each_row_is_permutation(self):
        p, agents, _, _ = _small_market(5, n=2000)
        prefs = mcsim.preferences(agents, p)
        rows_sorted = np.sort(prefs, axis=1)
        assert np.all(rows_sorted[:, 0] == 0)
        assert np.all(rows_sorted[:, 1:] == np.sort(
            np.column_stack([agents.t1, agents.t2]), axis=1))

    def test_c0_first_or_second(self):
        # the finite mechanisms read only the first column: a student whose
        # first school rejects them or fills is seated at c0, their second
        # choice, and c0 never fills
        rng = random.Random(7)
        economies = [random_economy(rng)[0] for _ in range(6)]
        economies += [dataclasses.replace(example_economy(), m=m, g=g, e=1.0 - g)
                      for m in (2, 3, 4) for g in (0.0, 0.05)]
        assert any(p.g > 0.0 for p in economies[:6])
        for seed, params in enumerate(economies):
            agents = mcsim.sample_agents(params, 5_000, np.random.default_rng(seed))
            prefs = mcsim.preferences(agents, params)
            assert np.all((prefs[:, 0] == 0) | (prefs[:, 1] == 0)), (seed, params)

    @pytest.mark.parametrize("g", [0.0, 0.0625])
    def test_first_choices_are_the_first_column(self, g):
        # sampled markets at m = 2, 3 and 200, then every tie of the fit,
        # signed zeros included, against -g, 0 and g with the primary school
        # above and below the secondary
        params = dataclasses.replace(example_economy(), g=g, e=1.0 - g)
        markets = []
        for m, seed in ((2, 0), (3, 1), (200, 2)):
            p = dataclasses.replace(params, m=m)
            markets.append((p, mcsim.sample_agents(p, 5000, np.random.default_rng(seed))))
        fits = np.array([-1.0, -g - 1e-9, -g, -g / 2, -0.0, 0.0, g / 2, g, g + 1e-9, 1.0])
        pairs = np.array([(1, 2), (2, 1), (3, 1), (1, 3)])
        t1, t2 = np.tile(pairs, (len(fits), 1)).T.astype(np.uint8)
        fit = np.repeat(fits, len(pairs))
        markets.append((dataclasses.replace(params, m=3), _agents_with_fits(t1, t2, fit)))
        for p, agents in markets:
            want = mcsim.preferences(agents, p)[:, 0]
            for fit in (None, agents.s + agents.eps):
                got = mcsim.first_choices(agents, p, fit)
                assert got.dtype == want.dtype and np.array_equal(got, want), p.m
                out = np.full(agents.n, 7, dtype=want.dtype)
                assert mcsim.first_choices(agents, p, fit, out=out) is out
                assert np.array_equal(out, want), p.m

    @pytest.mark.parametrize("g", [0.0, 0.0625])
    def test_matches_lexsort_reference(self, g):
        # sampled markets at m = 2 and 3, then every tie of the fit against
        # -g, 0 and g, each with the primary school above and below the
        # secondary; a tie goes to the lower school id, c0 first
        params = dataclasses.replace(example_economy(), g=g, e=1.0 - g)
        for m, seed in ((2, 0), (2, 1), (3, 2)):
            p3 = dataclasses.replace(params, m=m)
            agents = mcsim.sample_agents(p3, 5000, np.random.default_rng(seed))
            assert np.array_equal(mcsim.preferences(agents, p3),
                                  preferences_reference(agents, p3))
        fits = np.array([-1.0, -g - 1e-9, -g, -g / 2, 0.0, g / 2, g, g + 1e-9, 1.0])
        pairs = np.array([(1, 2), (2, 1), (3, 1), (1, 3)])
        fit = np.repeat(fits, len(pairs))
        t1, t2 = np.tile(pairs, (len(fits), 1)).T
        agents = _agents_with_fits(t1, t2, fit)
        prefs = mcsim.preferences(agents, params)
        assert np.array_equal(prefs, preferences_reference(agents, params))
        # (fit, primary, secondary) -> ranking
        want = {(0.0, 2, 1): [0, 1, 2], (0.0, 1, 2): [0, 1, 2]}
        if g > 0.0:
            want.update({(g, 2, 1): [0, 2, 1], (g, 1, 2): [0, 1, 2],
                         (-g, 2, 1): [0, 1, 2], (-g, 1, 2): [0, 2, 1]})
        for (f, a, b), ranking in want.items():
            row = np.flatnonzero((fit == f) & (t1 == a) & (t2 == b))[0]
            assert prefs[row].tolist() == ranking, (f, a, b)


class TestDaFinite:
    def test_capacities_respected(self, da_eq):
        p, agents, residency, lottery = _small_market(6, cutoffs=da_eq.cutoffs)
        asg = mcsim.run_da_finite(agents, residency, p, lottery)
        caps = mcsim.school_capacities(agents.n, p)
        for k in (1, 2):
            assert np.sum(asg == k) <= caps[k]
        assert np.all(asg >= 0)

    def test_stability(self, da_eq):
        p, agents, residency, lottery = _small_market(7, cutoffs=da_eq.cutoffs)
        asg = mcsim.run_da_finite(agents, residency, p, lottery)
        assert mcsim.check_da_stability(agents, residency, asg, p, lottery) == []

    def test_residents_displace_lottery_applicants(self, da_eq):
        # a resident applying to their local school is never rejected in
        # favor of an out-of-zone applicant
        p, agents, residency, lottery = _small_market(8, cutoffs=da_eq.cutoffs)
        asg = mcsim.run_da_finite(agents, residency, p, lottery)
        prefs = mcsim.preferences(agents, p)
        local_top = (prefs[:, 0] == residency) & (residency > 0)
        assert np.all(asg[local_top] == residency[local_top])


class TestTtcFinite:
    def test_capacities_respected(self):
        p, agents, residency, lottery = _small_market(9, mech="ttc")
        asg = mcsim.run_ttc_finite(agents, residency, p, lottery)
        caps = mcsim.school_capacities(agents.n, p)
        for k in (1, 2):
            assert np.sum(asg == k) <= caps[k]
        assert np.all(asg >= 0)

    def test_no_pareto_improvement_small_n(self):
        p = example_economy()
        cutoffs = solve(p, "ttc").cutoffs
        for seed in range(8):
            rng = np.random.default_rng(seed)
            agents = mcsim.sample_agents(p, 200, rng)
            residency = mcsim.housing_stage(agents, cutoffs, p, rng)
            lottery = rng.random(200)
            asg = mcsim.run_ttc_finite(agents, residency, p, lottery)
            assert mcsim.find_ttc_improvement(agents, asg, p) is None

    def test_self_cycle_unwinds_shared_top(self):
        # schools 1 and 2 both rank student 0 first; 0 wants school 2. The
        # walk starts at 1, steps to 2, and 2 seats 0 in a self-cycle, which
        # also removes 1's top student: the walk must drop that edge
        params, agents, residency, lottery = _hand_market(
            [2, 1, 1, 2, 2, 1, 1, 2], [0] * 8, q=0.5)  # two seats a school
        asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
        assert asg.tolist() == [2, 1, 1, 2, 0, 0, 0, 0]
        assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery))

    def test_school_filled_by_self_cycle_closes_before_unwind(self):
        # as above with one seat a school: 0's self-cycle fills school 2
        params, agents, residency, lottery = _hand_market([2, 2, 1, 1], [0] * 4, q=0.5)
        asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
        assert asg.tolist() == [2, 0, 1, 0]
        assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery))

    def test_residents_trade_ahead_of_lottery(self):
        # 2 lives at 1 and wants 2, 3 lives at 2 and wants 1: they trade
        # their priorities, though 0 and 1 hold better lottery numbers
        params, agents, residency, lottery = _hand_market(
            [1, 2, 2, 1], [0, 0, 1, 2], q=0.5)
        asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
        assert asg.tolist() == [0, 0, 2, 1]

    def test_swap_run_stops_when_a_school_fills(self):
        # 0-3 live at 1 and 4-7 at 2, three seats a school. Neither block
        # fits its seats, so the heads trade in the walk, one cycle a step:
        # 0 and 4 swap; 1 takes a seat at 1 in place; 2 and 5 swap, which
        # fills school 1 though 3 and 6 would swap next. 6 and 7 are seated
        # at c0, and 3, now school 2's lottery head, takes its last seat
        params, agents, residency, lottery = _hand_market(
            [2, 1, 2, 2, 1, 1, 1, 1, 1, 2], [1, 1, 1, 1, 2, 2, 2, 2, 0, 0], q=0.6)
        asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
        assert asg.tolist() == [2, 1, 2, 2, 1, 1, 0, 0, 0, 0]
        assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery))

    def test_self_run_longer_than_seats_left(self):
        # 0-4 live at 1 and want it, with three seats: the run seats 0-2 and
        # stops; 3 and 4 are seated at c0, and 5-7 take school 2's seats
        params, agents, residency, lottery = _hand_market(
            [1, 1, 1, 1, 1, 2, 2, 2, 2, 2], [1] * 5 + [0] * 5, q=0.6)
        asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
        assert asg.tolist() == [1, 1, 1, 0, 0, 2, 2, 2, 0, 0]
        assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery))

    def test_home_seat_behind_a_trader(self):
        # 0 and 3 live at 1, which has two seats; 0 wants 2 and 3 wants 1.
        # The block fits, so 3 takes a seat at 1 though 0 heads the block
        # and 1 and 2 hold better lottery numbers; 1 takes the last seat
        params, agents, residency, lottery = _hand_market(
            [2, 1, 1, 1, 2], [1, 0, 0, 1, 0], q=0.9)
        assert mcsim.school_capacities(5, params)[1:].tolist() == [2, 2]
        asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
        assert asg.tolist() == [2, 1, 0, 1, 2]
        assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery))

    def test_block_heads_trade_a_school_full(self):
        # three seats a school. Both blocks fit: 0-2 live at 1 and want 2,
        # 3 lives at 2 and takes a home seat, 4 and 5 live at 2 and want 1.
        # The heads 0, 1 and 4, 5 trade seats, which takes school 2's last
        # seat, so 2, 6 and 9, who want 2, are seated at c0; 7 takes school
        # 1's last seat, and 8 is seated at c0
        params, agents, residency, lottery = _hand_market(
            [2, 2, 2, 2, 1, 1, 2, 1, 1, 2], [1, 1, 1, 2, 2, 2, 0, 0, 0, 0], q=0.6)
        asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
        assert asg.tolist() == [2, 2, 0, 2, 1, 1, 0, 1, 0, 0]
        assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery))

    def test_empty_block_trades_no_pairs(self):
        # three seats a school. 0 and 1 live at 1 and take home seats, so
        # school 1's block holds no trader; 3, school 2's one trader, is
        # then school 1's lottery head and takes a seat there in place
        params, agents, residency, lottery = _hand_market(
            [1, 1, 2, 1, 2, 1, 2, 2], [1, 1, 2, 2, 2, 0, 0, 0], q=0.75)
        asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
        assert asg.tolist() == [1, 1, 2, 1, 2, 0, 2, 0]
        assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery))

    def test_blocks_longer_than_their_seats(self):
        # residencies drawn at random, not by the housing stage, so a zone's
        # residents who want a school can outnumber its seats; a third of
        # the lotteries have ties, and some markets have no seats at all
        rng = np.random.default_rng(22)
        longer = fitting = seatless = 0
        for trial in range(300):
            m = (2, 3, 4)[trial % 3]
            n = int(rng.integers(2 * m, 41))
            seats = int(rng.integers(0, n // (2 * m) + 1))
            params = dataclasses.replace(example_economy(), m=m, q=(m * seats + 0.5) / n,
                                         g=0.05, e=0.95)
            agents = mcsim.sample_agents(params, n, rng)
            residency = rng.integers(0, m + 1, size=n).astype(np.uint8)
            lottery = rng.random(n)
            if trial % 3 == 1:
                lottery = np.round(lottery, 1)
            first = mcsim.preferences(agents, params)[:, 0]
            blocks = np.bincount(residency[first > 0], minlength=m + 1)[1:]
            longer += bool(blocks.max() > seats)
            fitting += bool(blocks.min() <= seats)
            seatless += seats == 0
            asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
            assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery)), (
                trial, m, n, seats)
        assert longer > 100 and fitting > 50 and seatless > 20, (longer, fitting, seatless)

    @pytest.mark.parametrize("top, residency, seats, want", [
        # 0 takes a seat at 1; 5 and 1 trade 2 for 3, and 2 takes 3's last
        # seat: 3 fills with 1 and 2 seated and 6 not. Student 3 then fills
        # 1, whose applicant 4 and school 2's unseated resident 7 go to c0
        ([1, 3, 3, 1, 1, 2, 3, 1, 2], [1, 2, 2, 0, 0, 3, 0, 2, 0], 2,
         [1, 3, 3, 1, 0, 2, 0, 0, 2]),
        # 0 takes a seat at 1; 1 and 4 trade 1 for 2, which fills 1 with 0
        # and 4 seated and its own residents 2 and 3 not, while schools 2
        # and 3 hold unseated residents 5 and 7. 7 sits down at 3, and 5,
        # the top of both 2 and 3, takes 3's last seat
        ([1, 2, 1, 1, 1, 3, 1, 3, 2, 3], [1, 1, 1, 1, 2, 2, 0, 3, 0, 0], 2,
         [1, 2, 0, 0, 1, 3, 0, 3, 2, 0]),
        # one seat a school and the cycle 1 -> 2 -> 3 -> 1 on resident heads:
        # 0's seat fills 2 while 1 and 2, the heads of 2 and 3, are unseated
        ([2, 3, 1, 1, 1, 2, 3], [1, 2, 3, 0, 2, 0, 0], 1, [2, 3, 1, 0, 0, 0, 0]),
    ], ids=["lottery_head_fills", "cycle_fills_own_block", "three_cycle"])
    def test_school_fills_at_m3_with_blocks_open(self, top, residency, seats, want):
        n = len(top)
        params, agents, residency, lottery = _hand_market(
            top, residency, q=(3 * seats + 0.5) / n, m=3)
        assert mcsim.school_capacities(n, params)[1:].tolist() == [seats] * 3
        asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
        assert asg.tolist() == want
        assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery))

    def test_residents_weakly_improve(self):
        # a resident never ends strictly below their own school
        p, agents, residency, lottery = _small_market(10, mech="ttc")
        asg = mcsim.run_ttc_finite(agents, residency, p, lottery)
        prefs = mcsim.preferences(agents, p)
        rank = np.argsort(prefs, axis=1)
        res = residency > 0
        own = rank[np.arange(agents.n), residency.clip(0)]
        got = rank[np.arange(agents.n), asg]
        assert np.all(got[res] <= own[res])


TTC_VARIANTS = {
    "example": {},
    "delta_q": {"delta_q": 0.05},
    "pi_0.1": {"pi": 0.1},
    "delta_q_pi_0.2": {"delta_q": 0.1, "pi": 0.2},
    "m3": {"m": 3},
    "m4": {"m": 4},
    # about 5% of lists put c0 first, against about none at g = 0
    "g_0.05": {"g": 0.05, "e": 0.95},
}


class TestTtcMatchesReference:
    """The school-level walk on first choices against the per-agent loop it
    replaced, which reads the whole lists."""

    @pytest.mark.parametrize("variant", sorted(TTC_VARIANTS))
    def test_identical_assignments(self, variant):
        params = dataclasses.replace(example_economy(), **TTC_VARIANTS[variant])
        cutoffs = solve(params, "ttc").cutoffs
        for seed in range(30):
            n = (1_000, 2_000, 5_000)[seed % 3]
            agents, residency, lottery = _market(params, n, seed, cutoffs)
            prefs = mcsim.preferences(agents, params)
            asg = mcsim.run_ttc_finite(agents, residency, params, lottery, prefs[:, 0])
            ref = run_ttc_reference(agents, residency, params, lottery, prefs)
            assert np.array_equal(asg, ref), (variant, seed, int(np.sum(asg != ref)))
            assert_ttc_cutoff_form(residency, prefs[:, 0], lottery, asg)

    def test_lottery_ties_break_by_index(self):
        params = example_economy()
        agents, residency, lottery = _market(params, 2_000, 3, solve(params, "ttc").cutoffs)
        lottery = np.round(lottery, 2)  # many ties
        assert np.array_equal(mcsim.run_ttc_finite(agents, residency, params, lottery),
                              run_ttc_reference(agents, residency, params, lottery))

    @pytest.mark.slow
    def test_identical_at_200k(self):
        params = example_economy()
        agents, residency, lottery = _market(params, 200_000, 2024,
                                             solve(params, "ttc").cutoffs)
        prefs = mcsim.preferences(agents, params)
        assert np.array_equal(mcsim.run_ttc_finite(agents, residency, params, lottery,
                                                   prefs[:, 0]),
                              run_ttc_reference(agents, residency, params, lottery, prefs))


class TestTtcCutoffForm:
    """The cutoff form on simulated markets of every variant and at m = 7
    (Leshno & Lo, "The Cutoff Structure of Top Trading Cycles in School
    Choice", REStud 2021, under resident-then-lottery priority)."""

    VARIANTS = {**TTC_VARIANTS, "m7": {"m": 7}}

    @pytest.mark.parametrize("n", [1_000, 20_000, pytest.param(200_000, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_simulated_markets(self, variant, n):
        params = dataclasses.replace(example_economy(), **self.VARIANTS[variant])
        cutoffs = solve(params, "ttc").cutoffs
        for seed in range(4):
            agents, residency, lottery = _market(params, n, seed, cutoffs)
            first = mcsim.preferences(agents, params)[:, 0]
            asg = mcsim.run_ttc_finite(agents, residency, params, lottery, first)
            assert_ttc_cutoff_form(residency, first, lottery, asg)


class TestDaMatchesReference:
    """One-round DA on first choices against the per-round lexsort it
    replaced, which reads the whole lists."""

    @pytest.mark.parametrize("variant", sorted(TTC_VARIANTS))
    def test_identical_assignments(self, variant):
        params = dataclasses.replace(example_economy(), **TTC_VARIANTS[variant])
        cutoffs = solve(params, "da").cutoffs
        for seed in range(30):
            n = (1_000, 2_000, 5_000)[seed % 3]
            agents, residency, lottery = _market(params, n, seed, cutoffs)
            prefs = mcsim.preferences(agents, params)
            asg = mcsim.run_da_finite(agents, residency, params, lottery, prefs[:, 0])
            ref = run_da_reference(agents, residency, params, lottery, prefs)
            assert np.array_equal(asg, ref), (variant, seed, int(np.sum(asg != ref)))

    def test_lottery_ties_break_by_index(self):
        params = example_economy()
        agents, residency, lottery = _market(params, 2_000, 3, solve(params, "da").cutoffs)
        lottery = np.round(lottery, 2)  # many ties
        assert np.array_equal(mcsim.run_da_finite(agents, residency, params, lottery),
                              run_da_reference(agents, residency, params, lottery))

    @pytest.mark.parametrize("lottery", [
        np.random.default_rng(0).random(1_000),
        np.round(np.random.default_rng(1).random(1_000), 2),
        np.array([0.5, -0.0, 0.25, 0.0, np.nan, 0.25, np.nan, 0.1]),
    ], ids=["distinct", "ties", "signed_zero_and_nan"])
    def test_lottery_order_is_stable_argsort(self, lottery):
        assert np.array_equal(mcsim._lottery_order(lottery),
                              np.argsort(lottery, kind="stable"))

    @pytest.mark.slow
    def test_identical_at_200k(self):
        params = example_economy()
        agents, residency, lottery = _market(params, 200_000, 2024,
                                             solve(params, "da").cutoffs)
        prefs = mcsim.preferences(agents, params)
        assert np.array_equal(mcsim.run_da_finite(agents, residency, params, lottery,
                                                  prefs[:, 0]),
                              run_da_reference(agents, residency, params, lottery, prefs))


def _da_cut(seed, n=3_000):
    """A DA market on the example, and school 1's cut: its
    non-resident applicants in lottery order and how many of them it keeps."""
    params = example_economy()
    agents, residency, lottery = _market(params, n, seed, solve(params, "da").cutoffs)
    prefs = mcsim.preferences(agents, params)
    pool = np.flatnonzero(prefs[:, 0] == 1)
    outsiders = pool[residency[pool] != 1]
    keep = int(mcsim.school_capacities(n, params)[1]) - (pool.size - outsiders.size)
    assert 0 < keep < outsiders.size  # oversubscribed, its residents all fit
    order = outsiders[np.argsort(lottery[outsiders], kind="stable")]
    return params, agents, residency, lottery, prefs, order, keep


def _tie_at_cut(lottery, order, keep):
    lottery[order[keep]] = lottery[order[keep - 1]]


def _run_of_ties_across_cut(lottery, order, keep):
    lottery[order[keep - 3:keep + 3]] = lottery[order[keep]]


def _signed_zeros_at_cut(lottery, order, keep):
    lottery -= lottery[order[keep]]  # the first one cut draws +0.0
    lottery[order[keep - 1]] = -0.0  # and the last one kept -0.0, a tie


def _nan_from_cut_on(lottery, order, keep):
    lottery[order[keep:]] = np.nan


def _nan_among_kept(lottery, order, keep):
    lottery[order[[0, 5, keep - 1]]] = np.nan  # they drop past the cut


LOTTERY_CUTS = {  # edit -> whether the cut is in doubt, which a sort settles
    "tie": (_tie_at_cut, True),
    "run_of_ties": (_run_of_ties_across_cut, True),
    "signed_zeros": (_signed_zeros_at_cut, True),
    "nan_from_cut_on": (_nan_from_cut_on, True),
    "nan_among_kept": (_nan_among_kept, False),
    "distinct": (lambda *_: None, False),
}


class TestLotteryCutsMatchReference:
    """DA cuts an oversubscribed school's straddling group by one partition
    of its lottery numbers, and TTC sorts only a head of the lottery order;
    both against the references on the lotteries where that is in doubt."""

    @pytest.mark.parametrize("cut", sorted(LOTTERY_CUTS))
    def test_da_at_the_cap_boundary(self, cut, monkeypatch):
        edit, in_doubt = LOTTERY_CUTS[cut]
        sorts = []
        original = mcsim._lottery_order
        monkeypatch.setattr(mcsim, "_lottery_order",
                            lambda values: sorts.append(values.size) or original(values))
        for seed in range(3):
            params, agents, residency, lottery, prefs, order, keep = _da_cut(seed)
            edit(lottery, order, keep)
            sorts.clear()
            asg = mcsim.run_da_finite(agents, residency, params, lottery, prefs[:, 0])
            ref = run_da_reference(agents, residency, params, lottery, prefs)
            assert np.array_equal(asg, ref), (cut, seed, int(np.sum(asg != ref)))
            # the cut sorts school 1's straddling group exactly when in doubt
            assert (order.size in sorts) == in_doubt, (cut, seed, sorts)

    @pytest.mark.parametrize("lottery, in_doubt", [
        ([0.5] * 8, True),
        ([0.25, 0.5, 0.5, 0.125, 0.5, 0.75, 0.5, 0.0], False),
        ([0.0, -0.0, 0.0, -0.0, 0.5, np.nan, 0.25, -0.0], True),
        ([0.375, 0.125, np.nan, 0.25, 0.5, 0.75, 0.625, 0.0], False),
        ([0.375, np.nan, np.nan, 0.25, 0.5, 0.75, 0.625, 0.0], True),
        ([0.375, 0.125, 0.875, 0.25, 0.5, 0.75, 0.625, 0.0], False),
    ], ids=["all_equal", "ties", "signed_zero_and_nan", "nan_past_the_cut",
            "nan_at_the_cut", "distinct"])
    def test_da_residents_alone_overfill_a_school(self, lottery, in_doubt, monkeypatch):
        # 0-3 live at 1 and 0-5 want it, with two seats a school: every
        # non-resident is cut, and the residents by lottery, by value unless
        # a tie or a NaN falls at the cut
        sorts = []
        original = mcsim._lottery_order
        monkeypatch.setattr(mcsim, "_lottery_order",
                            lambda values: sorts.append(values.size) or original(values))
        params, agents, residency, _ = _hand_market([1] * 6 + [2] * 2, [1] * 4 + [0] * 4,
                                                    q=0.5)
        lottery = np.array(lottery)
        asg = mcsim.run_da_finite(agents, residency, params, lottery)
        assert np.array_equal(asg, run_da_reference(agents, residency, params, lottery))
        assert np.count_nonzero(asg == 1) == 2 and set(np.flatnonzero(asg == 1)) <= {0, 1, 2, 3}
        assert sorts == ([4] if in_doubt else [])

    @pytest.mark.parametrize("lottery", [
        [0.5] * 8,
        [0.875, 0.125, 0.25, 0.0, -0.0, 0.5, np.nan, 0.75],
    ], ids=["all_equal", "signed_zero_and_nan"])
    def test_da_residents_exactly_fill_a_school(self, lottery):
        # 0 and 1 live at 1 and fill its two seats: every other applicant,
        # 2-4, is cut whatever their numbers, and nothing is kept by lottery;
        # 5-7 apply to 2, which keeps two of them by lottery
        params, agents, residency, _ = _hand_market([1] * 5 + [2] * 3, [1] * 2 + [0] * 6,
                                                    q=0.5)
        lottery = np.array(lottery)
        asg = mcsim.run_da_finite(agents, residency, params, lottery)
        assert np.array_equal(asg, run_da_reference(agents, residency, params, lottery))
        assert asg[:5].tolist() == [1, 1, 0, 0, 0] and np.count_nonzero(asg == 2) == 2

    def test_da_cuts_by_value_and_by_sort(self, monkeypatch):
        # markets at m = 2 and 3 whose lotteries are rounded to 2, 3 or 4
        # digits or left alone: each oversubscribed school is cut once, by
        # value or, when a tie falls at the cut, by a sort; both must run
        sorts = []
        original = mcsim._lottery_order
        monkeypatch.setattr(mcsim, "_lottery_order",
                            lambda values: sorts.append(values.size) or original(values))
        n, cuts = 3_000, 0
        for m in (2, 3):
            params = dataclasses.replace(example_economy(), m=m)
            cutoffs = solve(params, "da").cutoffs
            cap = mcsim.school_capacities(n, params)[1]
            for seed, digits in enumerate((2, 3, 4, None)):
                agents, residency, lottery = _market(params, n, seed, cutoffs)
                if digits is not None:
                    lottery = np.round(lottery, digits)
                first = mcsim.first_choices(agents, params)
                cuts += int(np.count_nonzero(np.bincount(first, minlength=m + 1)[1:] > cap))
                asg = mcsim.run_da_finite(agents, residency, params, lottery, first)
                assert np.array_equal(asg, run_da_reference(agents, residency, params, lottery)), (
                    m, digits)
        assert 0 < len(sorts) < cuts, (sorts, cuts)

    def test_ttc_lottery_heads_past_the_first_sorted_head(self, monkeypatch):
        # at delta_q = 0.05 the lottery heads run to about a tenth of the
        # market, past the first head of 4 sqrt(n) students
        params = dataclasses.replace(example_economy(), delta_q=0.05)
        cutoffs = solve(params, "ttc").cutoffs
        heads = []
        original = mcsim._lottery_prefix
        monkeypatch.setattr(mcsim, "_lottery_prefix",
                            lambda lottery, size: heads.append(size) or original(lottery, size))
        for seed in range(4):
            agents, residency, lottery = _market(params, 4_000, seed, cutoffs)
            heads.clear()
            asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
            assert len(heads) >= 2, (seed, heads)
            assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery))

    @pytest.mark.parametrize("lottery", [
        np.random.default_rng(0).random(5_000),
        np.round(np.random.default_rng(1).random(5_000), 2),
        np.round(np.random.default_rng(2).random(5_000), 1) - 0.5,
        np.where(np.random.default_rng(3).random(5_000) < 0.8, np.nan,
                 np.random.default_rng(4).random(5_000)),
        np.arange(5_000.0)[::-1],
    ], ids=["distinct", "ties", "signed_zeros", "mostly_nan", "descending"])
    def test_lottery_prefix_heads_the_stable_order(self, lottery):
        lottery = lottery.copy()
        lottery[::11] *= -1.0  # -0.0 where a number is 0.0
        full = np.argsort(lottery, kind="stable")
        for size in (1, 16, 100, 1_000, 4_999, 5_000, 20_000):
            head = mcsim._lottery_prefix(lottery, size)
            assert np.array_equal(head, full[:head.size]), size
            assert head.size > 0 and (head.size == 5_000 or size < 5_000)

    @pytest.mark.parametrize("edit", ["ties", "signed_zeros", "nan"])
    def test_ttc_on_ties_signed_zeros_and_nan(self, edit):
        params = dataclasses.replace(example_economy(), delta_q=0.05)
        cutoffs = solve(params, "ttc").cutoffs
        for seed in range(3):
            agents, residency, lottery = _market(params, 2_000, seed, cutoffs)
            if edit == "ties":
                lottery = np.round(lottery, 3)
            elif edit == "signed_zeros":
                lottery = np.round(lottery, 2) - 0.5  # +0.0 where it was 0.5
                lottery[::7] *= -1.0                  # and some of them -0.0
            else:  # most sampled numbers NaN: a longer head's bound is a NaN
                lottery[np.random.default_rng(seed).choice(2_000, 1_500, replace=False)] = np.nan
            asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
            assert np.array_equal(asg, run_ttc_reference(agents, residency, params, lottery)), (
                edit, seed)


class TestStabilityCheck:
    def _da_market(self, seed, m=2, n=2_000):
        params = dataclasses.replace(example_economy(), m=m)
        agents, residency, lottery = _market(params, n, seed, solve(params, "da").cutoffs)
        asg = mcsim.run_da_finite(agents, residency, params, lottery)
        return params, agents, residency, lottery, asg

    def test_matches_reference_on_stable_and_perturbed(self):
        for seed in range(6):
            params, agents, residency, lottery, asg = self._da_market(seed)
            rng = np.random.default_rng(seed)
            perturbed = {"stable": asg.copy()}
            freed = asg.copy()
            held = np.flatnonzero(freed >= 1)
            freed[rng.choice(held, size=5, replace=False)] = 0  # free seats
            perturbed["freed"] = freed
            swapped = asg.copy()
            pairs = rng.choice(agents.n, size=(40, 2), replace=False)
            swapped[pairs[:, 0]], swapped[pairs[:, 1]] = asg[pairs[:, 1]], asg[pairs[:, 0]]
            perturbed["swapped"] = swapped
            shuffled = asg.copy()
            rng.shuffle(shuffled)
            perturbed["shuffled"] = shuffled
            sample = rng.choice(agents.n, size=300, replace=False)
            for name, a in perturbed.items():
                for smp in (None, sample):
                    got = mcsim.check_da_stability(agents, residency, a, params, lottery,
                                                   sample=smp)
                    want = check_da_stability_reference(agents, residency, a, params,
                                                        lottery, sample=smp)
                    assert got == want, (seed, name, smp is None)
                    if name != "stable":
                        assert got or smp is not None, (seed, name)

    @pytest.mark.parametrize("m", [3, 4])
    def test_no_blocking_pair_then_planted_one(self, m):
        params, agents, residency, lottery, asg = self._da_market(20 + m, m=m, n=5_000)
        assert mcsim.check_da_stability(agents, residency, asg, params, lottery) == []
        j = int(np.flatnonzero(asg >= 1)[0])
        k = int(asg[j])
        planted = asg.copy()
        planted[j] = 0  # j ranks k above c0 and k now has a free seat
        assert (j, k) in mcsim.check_da_stability(agents, residency, planted, params, lottery)

    def test_seat_below_c0_blocks_with_c0(self):
        # student 2 ranks 1, c0, 2 and sits at 2: c0 always has a free seat.
        # School 1's one seat holds 0, and school 2's holds 2 ahead of 3, the
        # one other student who wants it, by lottery number
        params, agents, residency, lottery = _hand_market([1, 1, 1, 2], [0] * 4, q=0.5)
        asg = np.array([1, 0, 2, 0], dtype=np.uint8)
        for check in (mcsim.check_da_stability, check_da_stability_reference):
            assert check(agents, residency, asg, params, lottery) == [(2, 0)]


class TestVerifiersCanFail:
    def test_over_full_school_rejected(self):
        # one seat at each school and two students in each
        params, agents, residency, lottery = _hand_market([1, 2, 1, 2], [0] * 4, q=0.5)
        assert mcsim.school_capacities(agents.n, params).tolist() == [4, 1, 1]
        asg = np.array([1, 2, 1, 2], dtype=np.uint8)
        with pytest.raises(ValueError, match="school 1 holds 2 students"):
            mcsim.check_da_stability(agents, residency, asg, params, lottery)
        with pytest.raises(ValueError, match="school 1 holds 2 students"):
            mcsim.find_ttc_improvement(agents, asg, params)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_tell_the_mechanisms_apart(self, m):
        # N wastes the seats of choosers; DA is stable; TTC is efficient but
        # not stable: its trades seat students over others of better priority
        params = dataclasses.replace(example_economy(), m=m)
        agents, residency, lottery = _market(params, 20_000, 1, solve(params, "ttc").cutoffs)
        asg = {mech: mcsim.run_mechanism(agents, residency, params, mech, lottery)
               for mech in mx.CORE}
        assert mcsim.find_ttc_improvement(agents, asg[mx.Mechanism.N], params) is not None
        assert mcsim.find_ttc_improvement(agents, asg[mx.Mechanism.DA], params) is None
        assert mcsim.find_ttc_improvement(agents, asg[mx.Mechanism.TTC], params) is None
        stability = {mech: mcsim.check_da_stability(agents, residency, asg[mech], params, lottery)
                     for mech in (mx.Mechanism.DA, mx.Mechanism.TTC)}
        assert stability[mx.Mechanism.DA] == []
        assert len(stability[mx.Mechanism.TTC]) > 1_000


def _relabelling(m, rng):
    """A random relabelling of schools 1..m that moves every school (a
    Sattolo cycle); c0 keeps its label 0."""
    perm = np.arange(m + 1)
    for i in range(m, 1, -1):
        j = int(rng.integers(1, i))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class TestMetamorphicRelations:
    """Exact relations between the outcomes of two related markets (Segura
    et al., "A Survey on Metamorphic Testing", IEEE TSE 2016)."""

    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_school_relabelling(self, m):
        # relabelling the schools in t1, t2 and the residency relabels N's,
        # DA's and TTC's assignments the same way, bit for bit
        params = dataclasses.replace(example_economy(), m=m)
        cutoffs = solve(params, "ttc").cutoffs
        for seed in range(3):
            agents, residency, lottery = _market(params, 20_000, seed, cutoffs)
            perm = _relabelling(m, np.random.default_rng([m, seed]))
            assert np.all(perm[1:] != np.arange(1, m + 1))
            relabelled = dataclasses.replace(agents, t1=perm[agents.t1].astype(agents.t1.dtype),
                                             t2=perm[agents.t2].astype(agents.t2.dtype))
            moved = perm[residency].astype(residency.dtype)
            for mech in mx.CORE:
                asg = mcsim.run_mechanism(agents, residency, params, mech, lottery)
                got = mcsim.run_mechanism(relabelled, moved, params, mech, lottery)
                assert got.dtype == asg.dtype
                assert np.array_equal(got, perm[asg]), (m, seed, mech)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_da_lottery_swap(self, m):
        # swapping the lottery numbers of an admitted and a rejected
        # non-resident applicant at one school swaps their seats and changes
        # nothing else (Balinski & Sonmez, "A Tale of Two Mechanisms:
        # Student Placement", JET 1999)
        params = dataclasses.replace(example_economy(), m=m)
        agents, residency, lottery = _market(params, 20_000, m, solve(params, "da").cutoffs)
        first = mcsim.first_choices(agents, params)
        asg = mcsim.run_da_finite(agents, residency, params, lottery, first)
        rng = np.random.default_rng(m)
        for k in range(1, m + 1):
            applicants = (first == k) & (residency != k)
            admitted = np.flatnonzero(applicants & (asg == k))
            rejected = np.flatnonzero(applicants & (asg == 0))
            assert admitted.size and rejected.size, k
            for i, j in zip(rng.choice(admitted, 10), rng.choice(rejected, 10)):
                swapped = lottery.copy()
                swapped[[i, j]] = lottery[[j, i]]
                want = asg.copy()
                want[[i, j]] = asg[[j, i]]
                got = mcsim.run_da_finite(agents, residency, params, swapped, first)
                assert np.array_equal(got, want), (m, k, i, j)


class TestImprovementSearch:
    @pytest.mark.parametrize("m", [3, 4])
    def test_no_improvement_then_planted_one(self, m):
        params = dataclasses.replace(example_economy(), m=m)
        cutoffs = solve(params, "ttc").cutoffs
        for seed in range(3):
            agents, residency, lottery = _market(params, 200, seed, cutoffs)
            asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
            assert mcsim.find_ttc_improvement(agents, asg, params) is None
            # swap two students seated at different first choices: each now
            # holds a school ranked below c0, so the lower index upgrades first
            prefs = mcsim.preferences(agents, params)
            first = np.flatnonzero((asg >= 1) & (asg == prefs[:, 0]))
            i = int(first[0])
            j = int(first[asg[first] != asg[i]][0])
            planted = asg.copy()
            planted[i], planted[j] = asg[j], asg[i]
            assert mcsim.find_ttc_improvement(agents, planted, params) == [min(i, j)]

    def test_upgrade_to_the_empty_last_school(self):
        # school m = 2 holds no student and 1, seated at c0, ranks it first:
        # 1 upgrades to a free seat there alone
        params, agents, _, _ = _hand_market([1, 2, 1, 2], [0] * 4, q=0.5)
        assignment = np.array([1, 0, 0, 0], dtype=np.uint8)
        assert mcsim.find_ttc_improvement(agents, assignment, params) == [1]


def _school_graph_has_cycle(prefs, assignment) -> bool:
    """Whether schools a1 -> a2 -> ... -> a1 each have a holder who strictly
    prefers the next (an unlisted school ranks after every listed one), by
    a depth-first search over the schools."""
    edges = {}
    for row, a in zip(prefs.tolist(), assignment.tolist()):
        place = {k: r for r, k in enumerate(row)}
        own = place.get(a, len(row))
        edges.setdefault(a, set()).update(k for k, r in place.items() if r < own)
    state = {}

    def visit(a):
        state[a] = 1
        for k in edges.get(a, ()):
            if state.get(k) == 1 or (k not in state and visit(k)):
                return True
        state[a] = 2
        return False

    return any(a not in state and visit(a) for a in list(edges))


def _improvement_markets():
    """(kind, m, params, agents, assignment) for the improvement search, on
    the model's own rankings. Kinds: unperturbed TTC outcomes, a swap of two
    seated students, a seat freed at c0, and N's and DA's outcomes of the
    same market."""
    for m in (2, 3, 4):
        params = dataclasses.replace(example_economy(), m=m)
        cutoffs = solve(params, "ttc").cutoffs
        for seed in range(20):
            rng = np.random.default_rng([m, seed])
            n = int(rng.integers(40, 201))
            agents, residency, lottery = _market(params, n, 1000 * m + seed, cutoffs)
            asg = mcsim.run_ttc_finite(agents, residency, params, lottery)
            yield "ttc", m, params, agents, asg
            seated = np.flatnonzero(asg >= 1)
            i = int(rng.choice(seated))
            j = int(rng.choice(seated[asg[seated] != asg[i]]))
            swapped = asg.copy()
            swapped[i], swapped[j] = asg[j], asg[i]
            yield "swap", m, params, agents, swapped
            freed = asg.copy()
            freed[int(rng.choice(seated))] = 0
            yield "freed", m, params, agents, freed
            yield "n", m, params, agents, mcsim.run_mechanism(agents, residency, params, "n", None)
            yield "da", m, params, agents, mcsim.run_da_finite(agents, residency, params, lottery)


class TestImprovementSearchMatchesReference:
    def test_same_group_on_seeded_markets(self):
        # the exhaustive search, trading cycles included, finds no more than
        # the upgrade scan on the model's rankings: a group of one or nothing
        found = {}
        for kind, m, params, agents, asg in _improvement_markets():
            want = find_ttc_improvement_reference(agents, asg, params)
            got = mcsim.find_ttc_improvement(agents, asg, params)
            assert got == want, (kind, m, got, want)
            assert want is None or len(want) == 1, (kind, m, want)
            found[kind, want is None] = found.get((kind, want is None), 0) + 1
            # with no upgrade left the school graph has no cycle
            if want is None:
                prefs = mcsim.preferences(agents, params)
                assert not _school_graph_has_cycle(prefs, asg), (kind, m)
        assert found == {("ttc", True): 60, ("da", True): 60, ("swap", False): 60,
                         ("freed", False): 60, ("n", False): 60}, found


class TestRunMechanism:
    def test_first_choices_pass_through(self):
        p, agents, residency, lottery = _small_market(15, mech="ttc")
        first = mcsim.preferences(agents, p)[:, 0]
        for mech in mx.CORE:
            assert np.array_equal(
                mcsim.run_mechanism(agents, residency, p, mech, lottery, first),
                mcsim.run_mechanism(agents, residency, p, mech, lottery))

    @pytest.mark.parametrize("mech, name", [("da", "run_da_finite"), ("ttc", "run_ttc_finite")])
    def test_runs_the_module_attribute(self, mech, name, monkeypatch):
        # the function bound to the module attribute when run_mechanism is
        # called (a tracer's wrapper, a test double) is the one that runs
        calls = []
        monkeypatch.setattr(mcsim, name, lambda *args: calls.append(args) or "ran")
        p, agents, residency, lottery = _small_market(17)
        assert mcsim.run_mechanism(agents, residency, p, mech, lottery) == "ran"
        assert len(calls) == 1
        want = (agents, residency, p, lottery, None)
        assert all(a is b for a, b in zip(calls[0], want, strict=True))

    def test_policy_mechanism_has_no_finite_algorithm(self):
        p, agents, residency, lottery = _small_market(16)
        with pytest.raises(ValueError, match="no finite algorithm"):
            mcsim.run_mechanism(agents, residency, p, "da_l", lottery)

    @pytest.mark.parametrize("mech", ["n", "da", "ttc"])
    def test_replication_builds_no_rankings(self, mech, monkeypatch):
        # a replication reads only the first choices, built from the fits
        # in its float column; no whole (n, 3) ranking is built
        calls = []
        original = mcsim.preferences
        monkeypatch.setattr(mcsim, "preferences",
                            lambda *a: calls.append(1) or original(*a))
        p = example_economy()
        cfg = mcsim.SimConfig(params=p, mech=mx.Mechanism(mech),
                              cutoffs=solve(p, mech).cutoffs, n_agents=2_000,
                              seed=17, replications=2)
        mcsim.estimate(cfg)
        assert calls == []

    @pytest.mark.parametrize("mech", ["n", "da", "ttc"])
    def test_replication_stream_layout(self, mech):
        # the golden digests rest on this layout: sample_agents' draws, then
        # housing_stage's, then one lottery number per student, which N,
        # reading none, does not draw; nothing is drawn after it
        params = example_economy()
        cfg = mcsim.SimConfig(params=params, mech=mx.Mechanism(mech),
                              cutoffs=solve(params, mech).cutoffs, n_agents=5_000)
        for seed in range(3):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            mcsim.replication_stats(cfg, rng)
            agents = mcsim.sample_agents(params, cfg.n_agents, twin)
            mcsim.housing_stage(agents, cfg.cutoffs, params, twin)
            if mech != "n":
                twin.random(cfg.n_agents)
            assert rng.bit_generator.state == twin.bit_generator.state, (mech, seed)


class TestEstimates:
    def test_deterministic(self, da_eq):
        p = example_economy()
        cfg = mcsim.SimConfig(params=p, mech=mx.Mechanism.DA,
                              cutoffs=da_eq.cutoffs, n_agents=5000,
                              seed=11, replications=3)
        a, b = mcsim.estimate(cfg), mcsim.estimate(cfg)
        assert a.stats == b.stats

    def test_da_estimates_near_analytic(self, da_eq):
        p = example_economy()
        cfg = mcsim.SimConfig(params=p, mech=mx.Mechanism.DA,
                              cutoffs=da_eq.cutoffs, n_agents=50_000,
                              seed=12, replications=5)
        res = mcsim.estimate(cfg)
        assert res.mean("r") == pytest.approx(da_eq.r, abs=0.02)
        c1 = ss.school_profile(da_eq)
        for w, mass in c1.masses:
            assert res.mean(f"c1_mass[{w:.6g}]") == pytest.approx(mass, abs=0.01)

    def test_n_mechanism_school_equals_neighborhood(self):
        p = example_economy()
        eq = solve(p, "n")
        cfg = mcsim.SimConfig(params=p, mech=mx.Mechanism.N,
                              cutoffs=eq.cutoffs, n_agents=20_000,
                              seed=13, replications=2)
        res = mcsim.estimate(cfg)
        for w, _ in p.wealth.atoms:
            assert res.mean(f"n1_mass[{w:.6g}]") == pytest.approx(
                res.mean(f"c1_mass[{w:.6g}]"), abs=1e-12)

    def test_result_payload(self, da_eq):
        p = example_economy()
        cfg = mcsim.SimConfig(params=p, mech=mx.Mechanism.DA,
                              cutoffs=da_eq.cutoffs, n_agents=5000,
                              seed=14, replications=2)
        res = mcsim.estimate(cfg)
        d = res.to_dict()
        assert d["mech"] == "da"
        assert set(d["stats"]) == set(res.stats)
        assert len(d["per_replication"]["r"]) == 2
        assert res.se("r") >= 0.0

    def test_z_needs_two_replications(self, da_eq):
        # se is nan at one replication, and a nan z would pass both
        # abs(z) <= 3 and not abs(z) > 3 unnoticed
        cfg = mcsim.SimConfig(params=example_economy(), mech=mx.Mechanism.DA,
                              cutoffs=da_eq.cutoffs, n_agents=5000, replications=1)
        res = mcsim.estimate(cfg)
        with pytest.raises(ValueError, match=r"'r'.*at least two replications"):
            res.z("r", da_eq.r)

    def test_z_with_zero_se(self):
        # under N every applicant to another zone's school is rejected, so
        # r is exactly 1.0 in each replication and its se is 0
        p = example_economy()
        cfg = mcsim.SimConfig(params=p, mech=mx.Mechanism.N, cutoffs=solve(p, "n").cutoffs,
                              n_agents=2_000, seed=3, replications=2)
        res = mcsim.estimate(cfg)
        assert res.per_replication["r"].tolist() == [1.0, 1.0] and res.se("r") == 0.0
        assert res.z("r", 1.0) == 0.0
        assert res.z("r", 0.9) == math.inf

    def test_payload_is_strict_json(self):
        # NaN and infinities are not JSON numbers (RFC 8259): they go out as null
        res = mcsim.SimResult(
            mx.Mechanism.TTC, 2_000, 1, 0,
            {"r": (math.nan, math.nan), "poor_share_c1": (0.25, math.inf)},
            {"r": np.array([math.nan]), "poor_share_c1": np.array([0.25])})

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        d = json.loads(json.dumps(res.to_dict()), parse_constant=reject)
        assert d["stats"] == {"r": {"mean": None, "se": None},
                              "poor_share_c1": {"mean": 0.25, "se": None}}
        assert d["per_replication"] == {"r": [None], "poor_share_c1": [0.25]}


def test_seat_values_match_the_nested_where():
    # fits of every sign, both zeros included, each seated at t1, t2 and c0
    fit = np.repeat([-0.75, -0.0, 0.0, 0.5, -1e-300, 2.0], 3)
    n = fit.size
    t1 = np.tile([1, 2, 1], n // 3)
    agents = _agents_with_fits(t1, 3 - t1, fit)
    assert agents.fits().tobytes() == fit.tobytes()
    assignment = np.tile([1, 1, 0], n // 3)  # seats at t1, t2 and c0
    want = np.where(assignment == agents.t1, fit, np.where(assignment == agents.t2, -fit, 0.0))
    assert mcsim._seat_values(agents, assignment).tobytes() == want.tobytes()


class TestWorkingSet:
    """The tracemalloc peak of one replication, above what was allocated
    before it, per agent: 31 bytes under N, DA and TTC at 50k agents on the
    example. The columns a replication keeps, the float column, the signals,
    t1, t2, the residency and the first choices, are views of one
    `Workspace` block of 20 bytes per agent, which lives the whole
    replication, so the per-type gathers of the seat values, with their
    int64 index lists, set the peak under all three; freeing the first
    choices before the value pass put N and TTC at 29 and 29.5 and DA at 31.
    The draws go into the float column and the shock is one int8 sign per
    student; DA cuts a school by its lottery values, freed before the next
    school's gather, and the seat values set c0's seats by int8 masks, not
    an index list. With a float shock column, the draws in a column of their
    own and c0's index list, the peaks were 37, 41.5 and 37, N and TTC in
    the seat values and DA in its mechanism. One float column holds the
    fits, the lottery and the seat values in turn; a column for each, with
    the per-type gathers of the values made while the housed and seated
    masks lived, peaked at 40, 43.5 and 40. `_resident_blocks`, which sorts
    only the residents who want another school, reaches 38 under TTC;
    sorting every housed student there peaked at 45. Int64 assignments and
    index lists of a school's applicants peaked at 47, 53 and 48; int64
    school and type columns, a per-agent omega array and an int64 residency
    before them at 83, 89 and 86; full-size int64 temporaries and a full
    lottery sort before those at 137, 137 and 151. The bound leaves about
    15% headroom over the peak."""

    BYTES_PER_AGENT = 36
    FAULTS_PER_REPLICATION = 50

    @pytest.mark.parametrize("mech", ["n", "da", "ttc"])
    def test_replication_peak_per_agent(self, mech):
        params = example_economy()
        cfg = mcsim.SimConfig(params=params, mech=mx.Mechanism(mech),
                              cutoffs=solve(params, mech).cutoffs, n_agents=50_000,
                              seed=5, replications=1)
        mcsim.replication_stats(cfg, np.random.default_rng(5))  # one-time set-up
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mcsim.replication_stats(cfg, np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / cfg.n_agents < self.BYTES_PER_AGENT, (mech, peak / cfg.n_agents)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap thresholds")
    def test_warm_replication_keeps_its_pages(self):
        """A warm 200k-agent replication faults in almost no page under N, DA
        and TTC. glibc raises its mmap threshold to the largest mapped block
        freed, and its trim threshold to twice that. The workspace block is
        mapped fresh in the first replication of a process, and laid on the
        heap, which grows to hold it, in the second; from then on the heap
        keeps the working set. Without the block, each replication faulted
        896-990 times. It runs in a fresh process, so no other test's heap
        state leaks in."""
        code = textwrap.dedent("""
            import resource
            import numpy as np
            from segsolve import mcsim, mechanisms as mx
            from segsolve.economy import example_economy
            from segsolve.equilibrium import solve
            p = example_economy()
            configs = [mcsim.SimConfig(params=p, mech=mx.Mechanism(m), cutoffs=solve(p, m).cutoffs,
                                       n_agents=200_000, seed=1, replications=1)
                       for m in ("n", "da", "ttc")]
            for seed in (0, 1):  # warm-up: the block is mapped, then laid on the heap
                mcsim.replication_stats(configs[1], np.random.default_rng(seed))
            faults = []
            for config in configs:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                mcsim.replication_stats(config, np.random.default_rng(2))
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print(*faults)
        """)
        src = str(Path(mcsim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults = dict(zip(("n", "da", "ttc"), map(int, proc.stdout.split())))
        assert max(faults.values()) < self.FAULTS_PER_REPLICATION, faults


def _reference_economies():
    """(name, params) for the example at m = 2, 3, 200 and 300 and three random draws."""
    yield "example", example_economy()
    yield "example_m3", dataclasses.replace(example_economy(), m=3)
    # t1 + shift reaches 2m - 1 = 399 > 255 before the wrap
    yield "example_m200", dataclasses.replace(example_economy(), m=200)
    # the residency and the first choices are uint16 as well as the school ids,
    # so every view of a replication's workspace is wider than a byte
    yield "example_m300", dataclasses.replace(example_economy(), m=300)
    rng = random.Random(2024)
    for i in range(3):
        yield f"random{i}", random_economy(rng)[0]


REFERENCE_ECONOMIES = dict(_reference_economies())


class TestReplicationMatchesReference:
    """Draws and statistics against the `rng.choice` draws and the per-mask
    statistics they replaced, bit for bit."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_ECONOMIES))
    def test_identical_agents_and_assignments(self, name):
        params = REFERENCE_ECONOMIES[name]
        for seed in range(3):
            n = (1_000, 2_000, 3_001)[seed]
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = mcsim.sample_agents(params, n, ours)
            want = sample_agents_reference(params, n, theirs)
            for column in ("t1", "t2", "s", "eps", "omega_idx", "omegas"):
                a, b = getattr(got, column), getattr(want, column)
                # the package's integer columns are narrower than the
                # reference's int64; tobytes also holds each float's sign bit,
                # and the reference's float shocks are what `eps` must give
                same = (np.array_equal(a, b) if a.dtype.kind in "iu"
                        else a.dtype == b.dtype and a.tobytes() == b.tobytes())
                assert same, (name, seed, column)
            assert got.shock.dtype == np.int8 and got.e == params.e
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert np.all(got.t1 != got.t2) and got.t2.min() >= 1 and got.t2.max() <= params.m
            prefs = mcsim.preferences(got, params)
            assert np.array_equal(prefs, preferences_reference(got, params))
            for mech in mx.CORE:
                cutoffs = solve(params, mech).cutoffs
                residency = mcsim.housing_stage(got, cutoffs, params,
                                                np.random.default_rng(seed))
                lottery = np.random.default_rng(100 + seed).random(n)
                asg = mcsim.run_mechanism(got, residency, params, mech, lottery, prefs[:, 0])
                ref = REFERENCE_RUNS[mech](got, residency, params, lottery, prefs)
                assert np.array_equal(asg, ref), (name, seed, mech)

    @pytest.mark.parametrize("mech", sorted(m.value for m in mx.CORE))
    @pytest.mark.parametrize("name", sorted(REFERENCE_ECONOMIES))
    def test_identical_statistics(self, name, mech):
        params = REFERENCE_ECONOMIES[name]
        cutoffs = solve(params, mech).cutoffs
        for seed in range(2):
            config = mcsim.SimConfig(params=params, mech=mx.Mechanism(mech), cutoffs=cutoffs,
                                     n_agents=(2_000, 3_001)[seed], seed=seed)
            got = mcsim.replication_stats(config, np.random.default_rng(seed))
            want = replication_stats_reference(config, np.random.default_rng(seed))
            assert list(got) == list(want)
            for key in want:
                assert (np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()), (
                    name, mech, seed, key, got[key], want[key])
