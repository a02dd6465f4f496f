"""Signal CDF variants: validation, inversion, enumeration, config round trip."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

from conftest import random_concave_cdf, random_knot_batch
from kernel_reference import PiecewiseLinearBatchReference
from segsolve import cdf
from segsolve.cdf import (CdfError, PiecewiseLinear, PiecewiseLinearBatch,
                          Power, SingleKink, Uniform, cdf_from_config,
                          enumerate_single_kink, require_valid,
                          single_kink_grid, validate)


class TestValidate:
    def test_uniform_passes(self):
        assert validate(Uniform()).passed

    def test_single_kink_above_diagonal_passes(self):
        assert validate(SingleKink(0.3, 0.7)).passed

    def test_single_kink_below_diagonal_fails(self):
        report = validate(SingleKink(0.7, 0.3))
        assert not report.passed
        names = set(report.failures())
        assert "concave" in names or "kink_above_diagonal" in names

    def test_power_alpha_range(self):
        assert validate(Power(0.5)).passed
        assert validate(Power(1.0)).passed
        assert not validate(Power(1.5)).passed
        assert not validate(Power(0.0)).passed

    def test_piecewise_convex_fails(self):
        f = PiecewiseLinear(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))
        assert not validate(f).passed

    def test_bad_endpoints_fail(self):
        f = PiecewiseLinear(((0.0, 0.1), (1.0, 1.0)))
        assert not validate(f).passed

    def test_require_valid_raises(self):
        with pytest.raises(CdfError):
            require_valid(SingleKink(0.8, 0.2))


class TestEvaluation:
    def test_uniform_identity(self):
        f = Uniform()
        for x in (0.0, 0.25, 0.5, 1.0):
            assert f.value(x) == pytest.approx(x, abs=1e-15)

    def test_single_kink_values(self):
        f = SingleKink(0.4, 0.8)
        assert f.value(0.4) == pytest.approx(0.8, abs=1e-15)
        assert f.value(0.2) == pytest.approx(0.4, abs=1e-15)
        assert f.value(0.7) == pytest.approx(0.9, abs=1e-15)

    def test_power_sqrt(self):
        f = Power(0.5)
        assert f.value(0.25) == pytest.approx(0.5, abs=1e-15)
        assert f.inverse(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_domain_errors(self):
        f = Uniform()
        with pytest.raises(CdfError):
            f.value(-0.1)
        with pytest.raises(CdfError):
            f.value(1.1)
        with pytest.raises(CdfError):
            f.inverse(1.5)

    def test_flat_segment_left_quantile(self):
        # y on an interior plateau maps to the left endpoint (left quantile)
        f = PiecewiseLinear(((0.0, 0.0), (0.3, 0.5), (0.6, 0.5), (1.0, 1.0)))
        assert f.inverse(0.5) == pytest.approx(0.3, abs=1e-12)

    def test_flat_segment_at_one_ok(self):
        f = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)))
        assert f.inverse(1.0) == pytest.approx(0.5, abs=1e-12)
        assert f.ppf(np.array([1.0]))[0] == pytest.approx(0.5, abs=1e-12)


class TestPpf:
    def test_matches_scalar_inverse(self):
        for f in (Uniform(), SingleKink(0.3, 0.7), Power(0.6)):
            u = np.linspace(0.0, 1.0, 101)
            vec = f.ppf(u)
            scalars = np.array([f.inverse(v) for v in u])
            np.testing.assert_allclose(vec, scalars, atol=1e-10)

    def test_round_trip(self):
        f = SingleKink(0.2, 0.55)
        u = np.linspace(0.0, 1.0, 53)
        back = np.array([f.value(x) for x in f.ppf(u)])
        np.testing.assert_allclose(back, u, atol=1e-10)

    def test_uniform_is_a_new_copy_of_u(self):
        # sample_agents draws into u again after ppf, so the signals must
        # not share its memory; they equal the interpolation value for value
        f = Uniform()
        u = np.concatenate([[0.0, 1.0, 5e-324, 0.5, np.nextafter(1.0, 0.0)],
                            np.random.default_rng(0).random(1_000)])
        s = f.ppf(u)
        assert s.dtype == np.float64 and s.tobytes() == u.tobytes()
        assert not np.shares_memory(s, u)
        assert np.array_equal(s, PiecewiseLinear.ppf(f, u))

    @pytest.mark.parametrize("f", [Uniform(), SingleKink(0.3, 0.6), Power(0.5), Power(0.3),
                                   Power(1.0)], ids=repr)
    def test_into_out_is_bit_equal(self, f):
        # into a separate buffer and in place over u: the new array's bits,
        # and the buffer returned
        u = np.random.default_rng(1).random(10_001)
        want = f.ppf(u).tobytes()
        out = np.full(u.size, np.nan)
        assert f.ppf(u, out=out) is out and out.tobytes() == want
        v = u.copy()
        assert f.ppf(v, out=v) is v and v.tobytes() == want


class TestEnumerate:
    def test_count_at_step_01(self):
        # 9x9 lattice with y >= x: 36 strictly above plus 9 on the diagonal
        fs = enumerate_single_kink(0.1)
        assert len(fs) == 45
        diag = [f for f in fs if abs(f.kink_x - f.kink_y) < 1e-12]
        assert len(diag) == 9

    def test_all_valid(self):
        for f in enumerate_single_kink(0.1):
            assert validate(f).passed

    def test_lexicographic_order(self):
        fs = enumerate_single_kink(0.25)
        pairs = [(f.kink_x, f.kink_y) for f in fs]
        assert pairs == sorted(pairs)

    def test_count_at_step_025(self):
        n = 39  # interior grid points at step 0.025
        assert len(enumerate_single_kink(0.025)) == n * (n + 1) // 2

    def test_bad_step_rejected(self):
        with pytest.raises(CdfError):
            enumerate_single_kink(0.3)

    def test_kink_cap_boundary(self):
        # step 0.001 gives exactly MAX_KINKS kinks; 1/1001 is one grid
        # value finer and raises before allocating. Nothing finer is tried:
        # with the cap broken it would allocate gigabytes.
        kink_x, _ = single_kink_grid(0.001)
        assert len(kink_x) == cdf.MAX_KINKS == 999 * 1000 // 2
        with pytest.raises(CdfError, match="more than 499500 grid kinks"):
            single_kink_grid(1.0 / 1001)


class TestBatch:
    def test_grid_matches_python_loop(self):
        for step in (0.5, 0.25, 0.1, 0.05, 0.025, 0.01):
            n = round(1.0 / step)
            grid = [i * step for i in range(1, n)]
            kink_x, kink_y = single_kink_grid(step)
            assert list(zip(kink_x.tolist(), kink_y.tolist())) == \
                [(x, y) for x in grid for y in grid if y >= x]

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_scalar_methods(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        fs = [random_concave_cdf(rng, max_inner=k) for _ in range(6)]
        fs = [f for f in fs if len(f.knots) == len(fs[0].knots)]
        batch = PiecewiseLinearBatch(np.array([f._xs for f in fs]), np.array([f._ys for f in fs]))
        # every knot, both ends and random points, for each row
        pts = np.array([sorted(f._xs + (0.0, 1.0) + tuple(rng.random() for _ in range(5)))
                        for f in fs])
        got = batch.value(pts)
        for f, row, xs in zip(fs, got.tolist(), pts.tolist()):
            assert [v.hex() for v in row] == [f.value(x).hex() for x in xs]
        for y in [0.0, 1.0, rng.random(), fs[0]._ys[1]]:
            assert [v.hex() for v in batch.inverse(y).tolist()] == \
                [f.inverse(y).hex() for f in fs]

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_value_and_inverse_match_reference(self, seed):
        # bit for bit, on 2 to 6 knots and 1 to 16 points a row: points on
        # knots, below the first knot, from the last knot on and in between
        rng = random.Random(seed)
        xs, ys = random_knot_batch(rng, rng.randint(2, 6), rng.randint(1, 5))
        batch, ref = PiecewiseLinearBatch(xs, ys), PiecewiseLinearBatchReference(xs, ys)
        candidates = [-0.5, 0.0, 1.0, 1.5, *xs.ravel().tolist()]
        per_row = rng.randint(1, 16)
        pts = np.array([[rng.choice(candidates) if rng.random() < 0.5 else rng.uniform(-0.2, 1.2)
                         for _ in range(per_row)] for _ in xs])
        for x in (pts, pts[:, 0], rng.choice(candidates)):
            assert batch.value(x).tobytes() == ref.value(x).tobytes()
        for y in (0.0, 1.0, rng.random(), rng.choice(ys.ravel().tolist()),
                  np.array([rng.choice(row) for row in ys.tolist()])):
            assert batch.inverse(y).tobytes() == ref.inverse(y).tobytes()

    def test_batch_of_one_and_scalar_point(self):
        f = SingleKink(0.3, 0.6)
        batch = f.batch
        assert batch.value(0.45).tolist() == [f.value(0.45)]
        kinks = PiecewiseLinearBatch.single_kinks(np.array([0.3, 0.2]), np.array([0.6, 0.9]))
        assert kinks.value(0.45).tolist() == [f.value(0.45), SingleKink(0.2, 0.9).value(0.45)]

    def test_inverse_rejects_what_scalar_rejects(self):
        f = PiecewiseLinear(((0.0, 0.0), (0.2, 0.0), (1.0, 1.0)))
        with pytest.raises(CdfError):
            f.inverse(0.0)
        with pytest.raises(CdfError):
            f.batch.inverse(0.0)
        with pytest.raises(CdfError):
            f.batch.inverse(1.5)


def _quadrature(f, a, b, n=200_000):
    """The integral of x dF on [a, b], as that of F^-1(u) du on [F(a), F(b)]
    by the midpoint rule."""
    lo, hi = f.value(a), f.value(b)
    u = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    return float(np.mean(f.ppf(u))) * (hi - lo)


class TestPartialMean:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_concave_cdf_matches_quadrature(self, seed):
        rng = random.Random(seed)
        f = random_concave_cdf(rng)
        knots = [x for x, _ in f.knots]
        # intervals that start or end on a knot, and one between two knots
        points = sorted({rng.random(), rng.random(), rng.choice(knots[1:-1]), 0.0, 1.0})
        intervals = list(zip(points, points[1:])) + [(knots[1], knots[-2]), (0.0, 1.0)]
        for a, b in intervals:
            assert f.partial_mean(a, b) == pytest.approx(_quadrature(f, a, b), rel=0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
    def test_power_matches_quadrature(self, alpha):
        f = Power(alpha)
        for a, b in ((0.0, 1.0), (0.0, 0.25), (0.1, 0.7), (0.6, 1.0), (0.4, 0.4)):
            assert f.partial_mean(a, b) == pytest.approx(_quadrature(f, a, b), rel=0, abs=1e-9)

    def test_means(self):
        assert Uniform().partial_mean(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert Uniform().partial_mean(0.2, 0.6) == pytest.approx(0.16, abs=1e-15)
        assert Power(0.5).partial_mean(0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        # additive over a split, knot or not
        f = SingleKink(0.3, 0.6)
        for c in (0.3, 0.45):
            assert f.partial_mean(0.1, c) + f.partial_mean(c, 0.9) == pytest.approx(
                f.partial_mean(0.1, 0.9), abs=1e-15)

    def test_domain_errors(self):
        for f in (Uniform(), Power(0.5)):
            with pytest.raises(CdfError):
                f.partial_mean(-0.1, 0.5)
            with pytest.raises(CdfError):
                f.partial_mean(0.5, 1.1)


class TestConfig:
    @pytest.mark.parametrize("f", [
        Uniform(),
        SingleKink(0.3, 0.7),
        Power(0.5),
        PiecewiseLinear(((0.0, 0.0), (0.4, 0.6), (1.0, 1.0))),
    ])
    def test_round_trip(self, f):
        g = cdf_from_config(f.to_config())
        for x in np.linspace(0.0, 1.0, 17):
            assert g.value(x) == pytest.approx(f.value(x), abs=1e-14)

    def test_unknown_type_rejected(self):
        with pytest.raises(CdfError):
            cdf_from_config({"type": "beta", "a": 2})

    def test_unknown_field_rejected(self):
        with pytest.raises(CdfError):
            cdf_from_config({"type": "uniform", "extra": 1})

    def test_invalid_payload_rejected(self):
        for cfg in ({"type": "single_kink", "x": 0.8, "y": 0.2},
                    # booleans and strings are not numbers here
                    {"type": "power", "alpha": True}, {"type": "power", "alpha": "0.5"},
                    {"type": "piecewise", "knots": [[0, 0], [True, True]]}):
            with pytest.raises(CdfError):
                cdf_from_config(cfg)


class TestProperties:
    @given(x=st.floats(0.05, 0.9), t=st.floats(0.0, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_kink_concavity_invariants(self, x, t):
        y = x + t * (0.999 - x)
        f = SingleKink(x, y)
        assert validate(f).passed
        # F lies weakly above the diagonal everywhere
        for s in np.linspace(0.0, 1.0, 21):
            assert f.value(s) >= s - 1e-12

    @given(alpha=st.floats(0.2, 1.0), y=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_power_inverse_round_trip(self, alpha, y):
        f = Power(alpha)
        assert f.value(f.inverse(y)) == pytest.approx(y, abs=1e-10)

    @given(x=st.floats(0.05, 0.9), t=st.floats(0.05, 0.95), y=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_kink_inverse_round_trip(self, x, t, y):
        f = SingleKink(x, x + t * (0.999 - x))
        assert f.value(f.inverse(y)) == pytest.approx(y, abs=1e-10)
