import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_maximal as ref
from _reference_fields import cell_centers
from divsym.fields import TrigSymField, random_field
from divsym.maximal import (
    ScalarGrid,
    _ball_kernel,
    _radii,
    bad_set,
    maximal_function,
    read_grid,
    sample_abs,
    write_grid,
    zhang_bound_check,
)
from divsym.truncation import BAD_MARGIN, LAMBDA_EFF_FACTOR, flag_bad_set, lambda_for_fraction
from divsym.whitney import _cell_distance, _wrap_min3


def constant_field(c):
    return TrigSymField({(0, 0, 0): np.asarray(c, dtype=complex)})


def brute_force_maximal(g, radii):
    n, h = g.n, g.h
    out = np.zeros_like(g.values)
    idx = np.arange(n)
    for r in radii:
        wrapped = np.minimum(idx, n - idx) * h
        d2 = (wrapped[:, None, None] ** 2 + wrapped[None, :, None] ** 2
              + wrapped[None, None, :] ** 2)
        kernel = d2 < r * r * (1 - 1e-12)
        for ix in range(n):
            for iy in range(n):
                for iz in range(n):
                    shifted = np.roll(np.roll(np.roll(g.values, -ix, 0), -iy, 1), -iz, 2)
                    out[ix, iy, iz] = max(out[ix, iy, iz], shifted[kernel].mean())
    return out


class TestSampleAbs:
    def test_zero_field(self):
        g = sample_abs(TrigSymField({}), 8)
        assert not g.values.any()

    def test_constant(self):
        g = sample_abs(constant_field(np.eye(3)), 8)
        np.testing.assert_allclose(g.values, np.sqrt(3.0))

    def test_matches_pointwise_eval(self):
        f = random_field(3, 2, 1.0)
        g = sample_abs(f, 64)
        rng = np.random.default_rng(1)
        for _ in range(10):
            cell = rng.integers(0, 64, size=3)
            x = (cell + 0.5) / 64
            assert abs(g.values[tuple(cell)] - np.linalg.norm(f(x))) < 1e-12 * max(1.0, g.values.max())


class TestMaximalFunction:
    def test_constant(self):
        g = ScalarGrid(n=8, period=1.0, values=np.full((8, 8, 8), 3.5))
        m = maximal_function(g)
        np.testing.assert_allclose(m.values, 3.5, rtol=1e-13)

    def test_dominates_input(self):
        f = random_field(5, 2, 1.0)
        g = sample_abs(f, 16)
        m = maximal_function(g)
        assert (m.values >= g.values).all()

    def test_brute_force_spike(self):
        n = 16
        vals = np.zeros((n, n, n))
        vals[3, 11, 7] = 5.0
        g = ScalarGrid(n=n, period=1.0, values=vals)
        m = maximal_function(g)
        oracle = brute_force_maximal(g, ref.dyadic_radii(n))
        np.testing.assert_allclose(m.values, oracle, atol=1e-10)

    def test_sublinear(self):
        f1 = sample_abs(random_field(6, 2, 1.0), 16)
        f2 = sample_abs(random_field(7, 2, 1.0), 16)
        both = ScalarGrid(n=16, period=1.0, values=f1.values + f2.values)
        lhs = maximal_function(both).values
        rhs = maximal_function(f1).values + maximal_function(f2).values
        assert (lhs <= rhs + 1e-10 * max(1.0, rhs.max())).all()


class TestBadSet:
    def test_empty_and_full(self):
        g = ScalarGrid(n=8, period=1.0, values=np.ones((8, 8, 8)))
        m = maximal_function(g)
        empty = bad_set(m, 2.0)
        assert empty.is_empty() and not _cell_distance(empty.mask).any()
        assert bad_set(m, 0.5).is_full()

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_lambda_must_be_positive_and_finite(self, lam):
        m = ScalarGrid(n=8, period=1.0, values=np.ones((8, 8, 8)))
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            bad_set(m, lam)
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            zhang_bound_check(constant_field(np.eye(3)), lam, 8)

    def test_monotone_in_lambda(self):
        m = maximal_function(sample_abs(random_field(8, 2, 1.0), 16))
        lo, hi = np.quantile(m.values, [0.5, 0.8])
        assert (bad_set(m, hi).mask <= bad_set(m, lo).mask).all()

    def test_distance_brute_force(self):
        n = 16
        rng = np.random.default_rng(2)
        vals = rng.random((n, n, n))
        mask = vals > 0.6
        if mask.all() or not mask.any():
            pytest.skip("degenerate draw")
        m = ScalarGrid(n=n, period=1.0, values=vals)
        got = bad_set(m, 0.6)
        cells = _cell_distance(got.mask)
        unflagged = np.argwhere(~got.mask)
        for cell in np.argwhere(got.mask)[::37]:
            delta = np.abs(unflagged - cell)
            delta = np.minimum(delta, n - delta)
            assert cells[tuple(cell)] == delta.max(axis=1).min()

    @pytest.mark.parametrize("n", [16, 20, 24, 32])
    def test_wrap_minimum_matches_scipy(self, n):
        # the numpy neighbourhood minimum is bitwise scipy's periodic minimum filter, on
        # the distance iterates of masks flagging 5, 30 and 70 % and on random values
        from scipy import ndimage

        rng = np.random.default_rng(n)
        for fraction in (0.05, 0.30, 0.70):
            mask = rng.random((n, n, n)) < fraction
            dist = np.where(mask, np.inf, 0.0)
            for _ in range(3):
                got = _wrap_min3(dist)
                assert got.tobytes() == ndimage.minimum_filter(dist, size=3, mode="wrap").tobytes()
                dist = np.minimum(dist, got + 1.0)
            want = np.where(mask, np.inf, 0.0)
            for _ in range(n // 2):
                want = np.minimum(want, ndimage.minimum_filter(want, size=3, mode="wrap") + 1.0)
            np.testing.assert_array_equal(_cell_distance(mask), want)
        vals = rng.standard_normal((n, n, n))
        assert _wrap_min3(vals).tobytes() == ndimage.minimum_filter(vals, size=3, mode="wrap").tobytes()

    def test_contains_wraps_points(self):
        n = 12
        vals = np.random.default_rng(3).random((n, n, n))
        mask = bad_set(ScalarGrid(n=n, period=2.0, values=vals), 0.5)
        h = 2.0 / n
        for cell in np.random.default_rng(4).integers(0, n, size=(30, 3)):
            shift = np.random.default_rng(int(cell.sum())).integers(-2, 3, size=3) * 2.0
            x = (cell + 0.5) * h + shift
            assert mask.contains(x) == bool(mask.mask[tuple(cell)])


class TestZhang:
    def test_empty_superlevels(self):
        f = constant_field(0.1 * np.eye(3))
        rep = zhang_bound_check(f, 10.0, 16)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0

    def test_constant_closed_form(self):
        # |C|_F = 2 lambda: full superlevel set, tail integral 2 lambda, ratio 1/2
        lam = 0.73
        c = np.eye(3) * (2 * lam / np.sqrt(3.0))
        rep = zhang_bound_check(constant_field(c), lam, 16)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2 * lam, rel=1e-12)
        assert rep.ratio == pytest.approx(0.5, rel=1e-12)

    def test_random_sweep_bounded(self):
        worst = 0.0
        for seed in range(8):
            f = random_field(seed, 2, 1.0)
            m = maximal_function(sample_abs(f, 24))
            lam = float(np.quantile(m.values, 0.8))
            rep = zhang_bound_check(f, lam, 24)
            assert np.isfinite(rep.ratio)
            worst = max(worst, rep.ratio)
        assert worst < 50.0  # dimensional constant; recorded magnitude


class TestWeak11Surrogate:
    def test_stable_across_resolutions(self):
        f = random_field(12, 2, 1.0)
        consts = []
        for n in (32, 48, 64):
            g = sample_abs(f, n)
            m = maximal_function(g)
            l1 = g.values.mean()
            lam = float(np.quantile(m.values, 0.9))
            measure = float((m.values > lam).mean())
            consts.append(measure * lam / l1)
        ref = consts[1]
        assert all(abs(c - ref) <= 0.2 * ref for c in consts)


class TestGridIO:
    def test_binary_round_trip(self, tmp_path):
        g = sample_abs(random_field(4, 1, 1.0), 8)
        path = tmp_path / "grid.bin"
        write_grid(path, g)
        back = read_grid(path)
        assert back.n == g.n and back.period == g.period
        np.testing.assert_array_equal(back.values, g.values)

    def test_binary_layout_x_fastest(self, tmp_path):
        vals = np.arange(8**3, dtype=float).reshape(8, 8, 8)
        g = ScalarGrid(n=8, period=1.0, values=vals)
        path = tmp_path / "grid.bin"
        write_grid(path, g)
        raw = np.fromfile(path, dtype="<f8", offset=12)
        # x fastest: consecutive entries walk the first index
        assert raw[1] == vals[1, 0, 0]
        assert raw[8] == vals[0, 1, 0]


def scipy_fft_maximal(g):
    """``maximal_function`` over the default radii through ``scipy.fft`` instead of ``numpy.fft``."""
    from scipy import fft

    spec = fft.rfftn(g.values)
    out = g.values.copy()
    for r in _radii(g.n):
        kernel = _ball_kernel(g.n, r)
        avg = fft.irfftn(spec * fft.rfftn(kernel), s=g.values.shape, axes=(0, 1, 2))
        np.maximum(out, avg / int(kernel.sum()), out=out)
    return out


def test_fft_module_changes_rounding_only():
    # the reference |w| is the direct mode sum at the cell centres, independent
    # of the transform under test; sample_abs agrees within rounding (1.3e-15 of
    # the largest value measured over these cases), numpy.fft against scipy.fft
    # gives maximal values within rounding (6.7e-16 measured), and the
    # lambda_for_fraction bad sets are the reference's
    for seed in (3, 7, 11):
        w = random_field(seed, 2, 1.0, divfree=True)
        for n in (16, 20, 24, 32):
            vals = w.eval_many(cell_centers(n, w.period).reshape(-1, 3)).reshape(n, n, n, 3, 3)
            g = ScalarGrid(n=n, period=w.period, values=np.sqrt(np.einsum("...ab,...ab->...", vals, vals)))
            np.testing.assert_allclose(sample_abs(w, n).values, g.values, rtol=0, atol=1e-14 * g.values.max())
            ref = scipy_fft_maximal(g)
            np.testing.assert_allclose(maximal_function(g).values, ref, rtol=0,
                                       atol=1e-15 * np.abs(ref).max())
            for fraction in (0.01, 0.08, 0.30):
                lam = float(np.quantile(ref, 1.0 - fraction)) / LAMBDA_EFF_FACTOR
                want = ref > LAMBDA_EFF_FACTOR * lam * (1.0 - BAD_MARGIN)
                got = flag_bad_set(w, lambda_for_fraction(w, n, fraction), n)[3].mask
                assert np.array_equal(got, want)


@pytest.mark.parametrize("period", [1.0, 1.7, 2.5, 2 * np.pi])
def test_cell_radii_are_the_length_radii(period):
    # for every n in 8-128 the cell-unit family admits the same offsets as the
    # length-unit family with its slack: compared on every squared offset length
    # the grid holds, deduplicated radii giving the same kernel
    for n in range(8, 129):
        half = np.arange(n // 2 + 1)
        d2 = np.unique(half[:, None, None] ** 2 + half[None, :, None] ** 2 + half[None, None, :] ** 2)
        h = period / n
        want = {tuple(d2 < (r / h) ** 2 * (1.0 - 1e-12)) for r in ref.dyadic_radii(n, period)}
        got = [tuple(d2 < r * r) for r in _radii(n)]
        assert len(set(got)) == len(got) and set(got) == want, n


@settings(max_examples=12, deadline=None)
@given(st.integers(8, 40), st.sampled_from([1.7, 2.5, 0.3, 2 * np.pi]), st.integers(0, 2**16))
def test_maximal_matches_length_units(n, period, seed):
    # bitwise the length-unit oracle's, at odd n and periods other than 1 too
    vals = np.random.default_rng(seed).random((n, n, n)) ** 8
    g = ScalarGrid(n=n, period=period, values=vals)
    assert maximal_function(g).values.tobytes() == ref.maximal_function(g).values.tobytes()
