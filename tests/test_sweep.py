"""Single-kink sweeps and the parameter-cube experiment."""
import math
import tracemalloc

import collections

import pytest
from conftest import DEFAULT_CUBE, da_less_count

import segsolve.sweep as sweep
from segsolve import equilibrium
from segsolve import mechanisms as mx
from segsolve.cdf import PiecewiseLinearBatch, SingleKink, Uniform, single_kink_grid
from segsolve.economy import (EconomyError, EconomyParams, WealthDist, binary_wealth,
                              check_assumption1, check_assumption2,
                              example_economy)
from segsolve.equilibrium import SolveError, solve
from segsolve.segregation import NegativeMassError, school_profile
import dataclasses

# Binary-wealth bases for the batch-versus-scalar comparison. Between them
# their kink grids fail assumption 1, fail assumption 2 and pass both.
BASES = {
    "example": example_economy(),
    "g>0,e<1": EconomyParams(m=2, q=0.45, g=0.05, e=0.9, pi=0.3,
                             wealth=binary_wealth(0.4), cdf=Uniform()),
    "delta_q>0": dataclasses.replace(example_economy(), delta_q=0.05),
    "tight": EconomyParams(m=2, q=0.6, g=0.1, e=0.85, pi=0.4, delta_q=0.02,
                           wealth=binary_wealth(0.6, spread=0.5), cdf=Uniform()),
}


@pytest.fixture(scope="module")
def example_sweep():
    return sweep.kink_sweep(example_economy(), 0.1)


class TestKinkSweep:
    def test_record_count(self, example_sweep):
        assert len(example_sweep.records) == 45

    def test_feasible_count(self, example_sweep):
        # the extreme (0.1, 0.9) kink fails the interior-cutoff screen
        assert sum(r.feasible for r in example_sweep.records) == 44

    def test_infeasible_kink_reason(self):
        # that kink concentrates so much signal mass near zero that the
        # rich type's utility gain is nonnegative already at s = g
        import segsolve.economy as econ
        from segsolve.cdf import SingleKink
        bad = dataclasses.replace(example_economy(), cdf=SingleKink(0.1, 0.9))
        assert econ.check_assumption1(bad).passed
        assert not econ.check_assumption2(bad, mechs=("da",)).passed

    def test_diagonal_differences_zero(self, example_sweep):
        diag = [r for r in example_sweep.records if r.feasible and abs(r.x - r.y) < 1e-12]
        assert len(diag) >= 8
        assert all(abs(r.diff) < 1e-9 for r in diag)

    def test_infeasible_records_are_nan(self, example_sweep):
        bad = [r for r in example_sweep.records if not r.feasible]
        assert bad
        assert all(math.isnan(r.diff) for r in bad)

    def test_da_less_count_consistent(self, example_sweep):
        n_f, n_less = da_less_count(example_sweep, example_economy())
        assert n_f == 44
        assert 0 <= n_less <= n_f

    def test_requires_binary_wealth(self):
        three = WealthDist(((1.1, 0.25), (1.0, 0.5), (0.9, 0.25)))
        p = dataclasses.replace(example_economy(), wealth=three)
        with pytest.raises(ValueError):
            sweep.kink_sweep(p, 0.1)

    def test_csv_output(self, example_sweep):
        lines = example_sweep.to_csv().strip().splitlines()
        assert lines[0] == "x,y,share_N,share_DA,diff,feasible"
        assert len(lines) == 46


def _scalar_record(base, x, y) -> tuple[bool, float, float]:
    """One kink through the scalar path: assumption checks, solve, school_profile."""
    nan = float("nan")
    params = dataclasses.replace(base, cdf=SingleKink(x, y))
    if not (check_assumption1(params).passed
            and check_assumption2(params, mechs=("n", "da")).passed):
        return False, nan, nan
    try:
        share_n, share_da = (school_profile(solve(params, mech, check=False)).poor_share
                             for mech in ("n", "da"))
    except (SolveError, mx.DegenerateChoiceError, NegativeMassError):
        return False, nan, nan
    return True, share_n, share_da


def _scalar_feasible(params, mech) -> bool:
    """Whether one kink economy passes the scalar path for one mechanism:
    the assumption checks, solve and school_profile."""
    if not (check_assumption1(params).passed
            and check_assumption2(params, mechs=(mech,)).passed):
        return False
    try:
        school_profile(solve(params, mech, check=False))
    except (SolveError, mx.DegenerateChoiceError, NegativeMassError):
        return False
    return True


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("step", [0.1, 0.025])
    @pytest.mark.parametrize("base", list(BASES))
    def test_records_bit_identical(self, base, step):
        result = sweep.kink_sweep(BASES[base], step)
        for r in result.records:
            feasible, share_n, share_da = _scalar_record(BASES[base], r.x, r.y)
            assert r.feasible == feasible, (r.x, r.y)
            assert (r.share_n.hex(), r.share_da.hex()) == (share_n.hex(), share_da.hex()), \
                (r.x, r.y)

    def test_bases_cover_every_outcome(self):
        outcomes = set()
        for base in BASES.values():
            for r in sweep.kink_sweep(base, 0.1).records:
                params = dataclasses.replace(base, cdf=SingleKink(r.x, r.y))
                outcomes.add((r.feasible, check_assumption1(params).passed))
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_bases_cover_mechanism_pairs(self):
        # (N feasible, DA feasible) per kink on the scalar path: a stacked
        # mask that let one mechanism's rows stand for the other's would
        # misreport the mixed kinks. No base has a kink that is feasible
        # under DA only, so (False, True) does not occur.
        pairs = set()
        for base in BASES.values():
            for r in sweep.kink_sweep(base, 0.1).records:
                params = dataclasses.replace(base, cdf=SingleKink(r.x, r.y))
                pairs.add(tuple(_scalar_feasible(params, mech) for mech in ("n", "da")))
        assert {(True, True), (True, False), (False, False)} <= pairs


def _count_calls(monkeypatch, *layers) -> collections.Counter:
    """Count the calls of each (owner, name) in layers by name."""
    calls = collections.Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in layers:
        count(owner, name)
    return calls


def _batch_rows(monkeypatch) -> dict[str, list[int]]:
    """The rows of each PiecewiseLinearBatch built ("batch") and of each
    batch that `inverse` is called on ("inverse"), in call order."""
    rows = collections.defaultdict(list)
    for key, name in (("batch", "__post_init__"), ("inverse", "inverse")):
        fn = getattr(PiecewiseLinearBatch, name)

        def spy(self, *args, key=key, fn=fn):
            rows[key].append(len(self.xs))
            return fn(self, *args)
        monkeypatch.setattr(PiecewiseLinearBatch, name, spy)
    return rows


class TestStackedBatch:
    def test_one_call_per_layer(self, monkeypatch):
        # each kink is one row of one batch, N and DA on a mechanism axis
        # inside it: one PiecewiseLinearBatch of the block's rows and one
        # inverse on them. N and DA share each CDF evaluation, the root and
        # the assumption-2 sign test, which evaluates each mechanism's gain
        # envelope once and calls no delta_u: 11 value, 2 inverse,
        # 2 affine_root and 8 delta_u calls when each mechanism ran on its
        # own batch; only DA reads the flows. So does a cube cell, through
        # one kink sweep.
        calls = _count_calls(monkeypatch, (equilibrium, "affine_root"), (mx, "delta_u"),
                             (mx, "gain_envelope"), (sweep, "assumption2_mask"),
                             (mx, "flows_at"), (PiecewiseLinearBatch, "value"),
                             (PiecewiseLinearBatch, "inverse"), (sweep, "kink_sweep"))
        rows = _batch_rows(monkeypatch)
        for run in (lambda: sweep.kink_sweep(example_economy(), 0.1),
                    lambda: sweep.cube_sweep([0.5], [0.4], [0.3], 0.1)):
            calls.clear()
            rows.clear()
            run()
            assert calls["kink_sweep"] == 1
            assert calls["affine_root"] == 1
            assert calls["delta_u"] == 0
            assert calls["assumption2_mask"] == 1
            assert calls["gain_envelope"] == 2
            assert calls["flows_at"] == 1
            assert calls["value"] <= 2
            assert calls["inverse"] == 1
            assert rows == {"batch": [45], "inverse": [45]}

    def test_one_batch_row_per_kink_of_each_block(self, monkeypatch):
        # 45 kinks in blocks of 20: one batch and one inverse per block
        monkeypatch.setattr(sweep, "KINK_BLOCK", 20)
        rows = _batch_rows(monkeypatch)
        sweep.kink_sweep(example_economy(), 0.1)
        assert rows == {"batch": [20, 20, 5], "inverse": [20, 20, 5]}

    @pytest.mark.parametrize("block, sweeps, blocks",
                             [(2048, 4, 4), (100, 4, 4), (45, 4, 4), (7, 4, 28)])
    def test_one_kink_sweep_per_block_of_cells(self, monkeypatch, block, sweeps, blocks):
        # 4 cells of 45 kinks each: one kink sweep per cell, whatever the
        # block size, and one flows call per block of a cell's grid
        monkeypatch.setattr(sweep, "KINK_BLOCK", block)
        calls = _count_calls(monkeypatch, (sweep, "kink_sweep"), (mx, "flows_at"))
        cells = sweep.cube_sweep([0.3, 0.5], [0.4], [0.2, 0.3], 0.1).cells
        assert len(cells) == 4
        assert calls["kink_sweep"] == sweeps
        assert calls["flows_at"] == blocks

    def test_blocks_join_in_grid_order(self, monkeypatch):
        # 171 kinks in 25 blocks, the last of 3 kinks
        whole = sweep.kink_sweep(BASES["tight"], 0.05).to_csv()
        monkeypatch.setattr(sweep, "KINK_BLOCK", 7)
        assert sweep.kink_sweep(BASES["tight"], 0.05).to_csv() == whole


def _da_less_loop(result, params) -> tuple[int, int]:
    """da_less_count as the loop over feasible records."""
    rho_p = params.wealth.poor_rho
    n_feasible = n_less = 0
    for r in result.records:
        if not r.feasible:
            continue
        n_feasible += 1
        if abs(r.share_da - rho_p) < abs(r.share_n - rho_p) - sweep.SEG_TOL:
            n_less += 1
    return n_feasible, n_less


class TestColumns:
    def test_cube_builds_no_records(self, monkeypatch):
        built = collections.Counter()

        class CountedRecord(sweep.KinkRecord):
            def __init__(self, *fields):
                built["records"] += 1
                super().__init__(*fields)

        monkeypatch.setattr(sweep, "KinkRecord", CountedRecord)
        cell = sweep.cube_sweep([0.5], [0.4], [0.3], 0.1).cells[0]
        assert cell.n_feasible > 0
        assert built["records"] == 0
        # records are still there on first access, one per grid kink
        result = sweep.kink_sweep(example_economy(), 0.1)
        assert built["records"] == 0
        assert len(result.records) == len(single_kink_grid(0.1)[0]) == built["records"]

    @pytest.mark.parametrize("base", list(BASES))
    def test_da_less_count_equals_records_loop(self, base):
        result = sweep.kink_sweep(BASES[base], 0.05)
        assert da_less_count(result, BASES[base]) == _da_less_loop(result, BASES[base])


def _columns(result) -> list[list]:
    """The result's columns, floats by `hex`, so that nan and -0.0 compare too."""
    floats = (result.x, result.y, result.share_n, result.share_da, result.diff)
    return ([list(map(float.hex, column.tolist())) for column in floats]
            + [result.feasible.tolist()])


def _peak_bytes(run) -> int:
    """tracemalloc's peak during run(), after one warm-up call for imports
    and first-call caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCubeBatch:
    def test_each_cell_equals_its_economy_params_sweep(self, monkeypatch):
        # every cell of the default cube at step 0.1, and of an 8-cell cube
        # at step 0.02 (1,225 kinks, two blocks a cell): the kink sweep that
        # cube_sweep runs on the cell gives, column for column, that of
        # the cell's validated EconomyParams, and the cell is counted from it
        kink_sweep, swept = sweep.kink_sweep, []

        def spy(params, step):
            swept.append(kink_sweep(params, step))
            return swept[-1]
        monkeypatch.setattr(sweep, "kink_sweep", spy)
        for axes, step in ((DEFAULT_CUBE, 0.1), (((0.3, 0.6), (0.3, 0.5), (0.2, 0.4)), 0.02)):
            swept.clear()
            cells = sweep.cube_sweep(*axes, step).cells
            assert len(cells) == len(swept) == math.prod(map(len, axes))
            for cell, result in zip(cells, swept):
                params = EconomyParams(m=2, q=cell.q, g=0.0, e=1.0, pi=cell.pi,
                                       wealth=binary_wealth(cell.rho_p), cdf=Uniform())
                own = kink_sweep(params, step)
                assert _columns(result) == _columns(own), cell
                assert (cell.n_feasible, cell.n_da_less) == da_less_count(own, params), cell

    def test_default_cube_totals(self):
        cells = sweep.cube_sweep(*DEFAULT_CUBE, 0.1).cells
        assert len(cells) == 196
        assert sum(c.n_feasible for c in cells) == 8036
        assert sum(c.n_da_less for c in cells) == 348
        assert sum(c.n_da_less > 0 for c in cells) == 49

    def test_default_cube_peak_memory(self):
        assert _peak_bytes(lambda: sweep.cube_sweep(*DEFAULT_CUBE, 0.1)) <= 4 * 1024 * 1024

    def test_cube_peak_memory_does_not_grow_with_cells(self):
        # at step 0.01 each cell's grid of 4,950 kinks is swept alone and
        # freed once the cell is counted, so eight cells peak as two do, and
        # two as one does, not at eight grids' rows
        one = _peak_bytes(lambda: sweep.cube_sweep([0.3], [0.3], [0.2], 0.01))
        two = _peak_bytes(lambda: sweep.cube_sweep([0.3], [0.3], [0.2, 0.4], 0.01))
        eight = _peak_bytes(lambda: sweep.cube_sweep([0.3, 0.6], [0.3, 0.5], [0.2, 0.4], 0.01))
        assert eight <= 1.02 * two
        assert two <= one + 512 * 1024

    @pytest.mark.parametrize("block", [2048, 7])
    def test_cells_in_several_sweeps_count_as_in_one(self, monkeypatch, block):
        # 196 cells of 45 kinks: one block a cell at 1,024 or 2,048 kinks a
        # block, and seven at 7
        whole = sweep.cube_sweep(*DEFAULT_CUBE, 0.1).to_csv()
        monkeypatch.setattr(sweep, "KINK_BLOCK", block)
        assert sweep.cube_sweep(*DEFAULT_CUBE, 0.1).to_csv() == whole

    def test_bad_axis_value_raises_before_any_batch(self, monkeypatch):
        calls = _count_calls(monkeypatch, (sweep, "_stacked_shares"))
        for axes in (([0.5], [0.4], [0.2, 0.7]), ([0.5, math.nan], [0.4], [0.2]),
                     ([0.5], [0.4, 1.0], [0.2]), ([0.5], [0.4], [0.7])):
            with pytest.raises(EconomyError):
                sweep.cube_sweep(*axes, 0.1)
        assert calls["_stacked_shares"] == 0

    def test_one_kink_sweep_per_cell(self, monkeypatch):
        # each cell is one kink sweep of its own economy, in cell order,
        # built only when its sweep starts: scalar q and pi, g = 0, e = 1,
        # delta_q = 0 and its binary wealth
        built, swept, kink_sweep = [], [], sweep.kink_sweep

        class CountedEconomy(sweep.CellEconomy):
            def __init__(self, *fields):
                built.append(fields)
                super().__init__(*fields)

        def spy(params, step):
            assert len(built) == len(swept) + 1
            swept.append(params)
            return kink_sweep(params, step)
        monkeypatch.setattr(sweep, "CellEconomy", CountedEconomy)
        monkeypatch.setattr(sweep, "kink_sweep", spy)
        cells = sweep.cube_sweep(*DEFAULT_CUBE, 0.1).cells
        assert len(swept) == len(cells) == 196
        for cell, economy in zip(cells, swept):
            assert (economy.q, economy.pi, economy.g, economy.e, economy.delta_q) == \
                (cell.q, cell.pi, 0.0, 1.0, 0.0)
            assert economy.wealth == binary_wealth(cell.rho_p)


class TestCubeSweep:
    def test_oversized_cube_allocates_nothing(self):
        # three 1,000-value axes: np.indices alone would ask for 24 GB
        axis = [0.3] * 1000
        with pytest.raises(EconomyError, match="more than 250000"):
            sweep.cube_sweep(axis, axis, axis)
        tracemalloc.start()
        try:
            with pytest.raises(EconomyError):
                sweep.cube_economies(axis, axis, axis)
            assert tracemalloc.get_traced_memory()[1] < 16_384
        finally:
            tracemalloc.stop()
        # one cell over the cap fails alike, before any value is checked
        with pytest.raises(EconomyError, match="the cube has 250001 cells"):
            sweep.cube_economies([0.3] * 250_001, [0.4], [float("nan")])

    def test_single_cell(self):
        res = sweep.cube_sweep([0.5], [0.4], [0.4], 0.1)
        (cell,) = res.cells
        assert (cell.rho_p, cell.q, cell.pi) == (0.5, 0.4, 0.4)
        assert cell.n_feasible > 0
        assert cell.pct == pytest.approx(100.0 * cell.n_da_less / cell.n_feasible)

    def test_zero_region(self):
        # no single-kink CDF favors DA when the poor outnumber the seats left
        res = sweep.cube_sweep([0.7, 0.8], [0.5, 0.6], [0.2], 0.1)
        for c in res.cells:
            assert c.n_da_less == 0

    def test_csv_header(self):
        res = sweep.cube_sweep([0.5], [0.4], [0.2], 0.1)
        assert res.to_csv().splitlines()[0] == "rho_p,q,pi,n_feasible,n_da_less,pct"
