import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _reference_potential as refpot
from divsym import fields
from divsym.fields import (
    PreconditionError,
    TrigSymField,
    UnsupportedOrderError,
    _cell_centers,
    _curl_curl_symbols,
    _sym_to_mandel,
    assert_div_free,
    curl_curl_T,
    div_symbol_matrix,
    divergence,
    field_from_dict,
    field_to_dict,
    potential_inverse,
    project_div_free,
    random_field,
    sym_grad_symbol_matrix,
)


def single_mode_field():
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = 0.5
    return TrigSymField({(1, 0, 0): c})


def mean_zero(f):
    f.coeffs.pop((0, 0, 0), None)
    return TrigSymField(f.coeffs, period=f.period)


class TestEval:
    def test_zero_field(self):
        f = TrigSymField({})
        assert np.array_equal(f([0.3, 0.1, 0.9]), np.zeros((3, 3)))

    def test_single_mode_pair_at_origin(self):
        # coeff diag(1,0,0)/2 at +-e1 sums to diag(1,0,0) at x = 0
        f = single_mode_field()
        np.testing.assert_allclose(f([0, 0, 0]), np.diag([1.0, 0, 0]), atol=1e-14)

    def test_derivative_of_cosine_at_origin(self):
        f = single_mode_field()
        np.testing.assert_allclose(f([0, 0, 0], (1, 0, 0)), np.zeros((3, 3)), atol=1e-12)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            single_mode_field()([0, 0, 0], (2, 1, 1))

    def test_finite_difference_consistency(self):
        # central differences at h=1e-4 agree with analytic derivatives to 1e-5
        f = random_field(11, 2, 1.0)
        rng = np.random.default_rng(0)
        h = 1e-4
        for _ in range(5):
            x = rng.random(3)
            for d in range(3):
                e = np.zeros(3)
                e[d] = h
                order = tuple(int(d == q) for q in range(3))
                fd = (f(x + e) - f(x - e)) / (2 * h)
                an = f(x, order)
                assert np.abs(fd - an).max() < 1e-5 * max(1.0, np.abs(an).max())

    def test_hermitian_enforced(self):
        c = np.eye(3, dtype=complex) * (1 + 2j)
        f = TrigSymField({(1, 2, 0): c})
        np.testing.assert_allclose(f.coeff((-1, -2, 0)), c.conj())

    def test_asymmetric_coefficient_rejected(self):
        c = np.zeros((3, 3), dtype=complex)
        c[0, 1] = 1.0
        with pytest.raises(ValueError):
            TrigSymField({(1, 0, 0): c})


def direct_grid(f, n, order):
    """Every component at the n^3 cell centres by the direct mode sum, in chunks of points."""
    pts = _cell_centers(n, f.period).reshape(-1, 3)
    vals = np.concatenate([f.eval_many(pts[i:i + 512], order) for i in range(0, len(pts), 512)])
    return vals.reshape(n, n, n, -1)


# every n, including aliased grids (2 max_freq >= n), and derivative orders of total <= 3
@settings(max_examples=20, deadline=None)
@given(st.sampled_from([4, 6, 8, 12, 16, 20]), st.integers(1, 5),
       st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).filter(lambda o: sum(o) <= 3),
       st.booleans(), st.integers(0, 2**16))
@example(8, 5, (1, 0, 2), False, 0)
@example(8, 5, (0, 0, 0), True, 1)
def test_grid_components_match_direct_sum(n, max_freq, order, vector, seed):
    f = random_field(seed, max_freq, 1.0)
    if vector:
        f = divergence(f)
    comps = [np.unravel_index(i, f._shape) for i in range(int(np.prod(f._shape)))]
    ref = direct_grid(f, n, order)
    got = f.grid_components(n, comps, order)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("n", [4, 8])
def test_grid_components_without_modes_or_frequencies(n):
    # max_freq 0: the empty field and a constant-only field against the direct mode sum
    c = np.arange(9.0).reshape(3, 3)
    comps = [np.unravel_index(i, (3, 3)) for i in range(9)]
    for f in (TrigSymField({}), TrigSymField({(0, 0, 0): c + c.T})):
        np.testing.assert_array_equal(f.grid_components(n, comps), direct_grid(f, n, (0, 0, 0)))


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("order", [(0, 0, 0), (1, 0, 2)])
def test_grid_components_fold_frequencies_beyond_the_grid(n, order, monkeypatch):
    # modes far past n, one folding onto the Nyquist frequency of z and one onto
    # another mode's frequency; the band DFT never exceeds max-norm n//2
    c = np.array([[1.0, 0.5j, 0.0], [0.5j, -2.0, 1.0], [0.0, 1.0, 0.25 + 1j]])
    f = TrigSymField({(3 * n + 1, 0, 0): c, (1, -2, 5 * n + n // 2): 2 * c.T, (1 - n, 2 * n - 2, n + 5): c.real,
                      (1, -2, 5): 3j * c, (0, 0, 0): c.real + c.real.T})
    seen, band_dft = [], fields._band_dft
    monkeypatch.setattr(fields, "_band_dft", lambda max_freq, m: seen.append(max_freq) or band_dft(max_freq, m))
    comps = [np.unravel_index(i, (3, 3)) for i in range(9)]
    ref = direct_grid(f, n, order)
    assert np.abs(f.grid_components(n, comps, order) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert seen and max(seen) <= n // 2


def test_mandel_keeps_batch_axes():
    grid = np.random.default_rng(0).standard_normal((4, 4, 4, 3, 3))
    grid = grid + grid.swapaxes(-1, -2)
    rows = np.stack([_sym_to_mandel(m) for m in grid.reshape(-1, 3, 3)])
    np.testing.assert_array_equal(_sym_to_mandel(grid), rows.reshape(4, 4, 4, 6))


class TestDivergence:
    def test_zero(self):
        assert divergence(TrigSymField({})).max_coeff_norm() == 0.0

    def test_constant_field(self):
        f = TrigSymField({(0, 0, 0): np.eye(3, dtype=complex)})
        assert divergence(f).max_coeff_norm() == 0.0

    def test_projection_kills_divergence(self):
        f = project_div_free(random_field(5, 3, 2.0))
        assert divergence(f).max_coeff_norm() < 1e-12 * max(1.0, f.max_coeff_norm())

    def test_one_solenoidal_defect_refused_with_its_size(self):
        # one mode with M xi != 0 in a divergence-free field: the check refuses it and
        # reports the largest divergence coefficient
        f = random_field(5, 2, 1.0, divfree=True, period=2.0)
        assert_div_free(f)
        c = f.coeffs[(1, 2, 0)] + np.diag([0.0, 0.3j, 0.0])
        g = TrigSymField({**f.coeffs, (1, 2, 0): c, (-1, -2, 0): c.conj()}, period=2.0)
        with pytest.raises(PreconditionError, match="input is not divergence-free") as err:
            assert_div_free(g, what="input")
        assert f"(defect {divergence(g).max_coeff_norm():.3e})" in str(err.value)


def three_step_divfree(seed, max_freq, period=1.0):
    """``random_field(divfree=True)`` as it was built: draw, ``project_div_free``, drop the zero mode, rebuild."""
    f = project_div_free(random_field(seed, max_freq, 1.0, period=period))
    f.coeffs.pop((0, 0, 0), None)
    return TrigSymField(f.coeffs, period=period)


@pytest.mark.parametrize("max_freq", [2, 8])
def test_divfree_draw_matches_three_step_route(max_freq):
    # one construction, with each mode projected as drawn, gives the same bits
    for seed in range(10):
        got, want = random_field(seed, max_freq, 1.0, divfree=True), three_step_divfree(seed, max_freq)
        assert list(got.coeffs) == list(want.coeffs)
        assert all(got.coeffs[xi].tobytes() == c.tobytes() for xi, c in want.coeffs.items())
    got, want = random_field(4, 2, 1.0, divfree=True, period=2.0), three_step_divfree(4, 2, period=2.0)
    assert got.period == 2.0 and all(got.coeffs[xi].tobytes() == c.tobytes() for xi, c in want.coeffs.items())


class TestProjection:
    def test_idempotent(self):
        f = random_field(2, 2, 1.0)
        p1 = project_div_free(f)
        p2 = project_div_free(p1)
        for xi in p1.coeffs:
            np.testing.assert_allclose(p1.coeff(xi), p2.coeff(xi), atol=1e-12)

    def test_divergence_free_input_fixed(self):
        f = project_div_free(random_field(4, 2, 1.0))
        g = project_div_free(f)
        for xi in f.coeffs:
            np.testing.assert_allclose(f.coeff(xi), g.coeff(xi), atol=1e-12)

    def test_zero_mode_kept(self):
        c = np.eye(3, dtype=complex)
        f = TrigSymField({(0, 0, 0): c})
        np.testing.assert_allclose(project_div_free(f).coeff((0, 0, 0)), c)

    def test_against_constrained_least_squares(self):
        # oracle: argmin |M - I|_F over {M sym, M e1 = 0} via explicit KKT solve
        # on the 6-dimensional coefficient space.
        basis = []
        for a in range(3):
            for b in range(a, 3):
                e = np.zeros((3, 3))
                e[a, b] = e[b, a] = 1.0
                basis.append(e)
        basis = np.stack(basis)                      # 6 sym basis matrices
        gram = np.einsum("iab,jab->ij", basis, basis)
        cons = basis[:, :, 0]                        # rows: M e1 per basis elem
        target = np.einsum("iab,ab->i", basis, np.eye(3))
        kkt = np.block([[gram, cons], [cons.T, np.zeros((3, 3))]])
        rhs = np.concatenate([target, np.zeros(3)])
        sol = np.linalg.solve(kkt, rhs)[:6]
        oracle = np.einsum("i,iab->ab", sol, basis)

        f = TrigSymField({(1, 0, 0): np.eye(3, dtype=complex)})
        got = project_div_free(f).coeff((1, 0, 0)).real
        np.testing.assert_allclose(got, oracle, atol=1e-10)


def curl_curl_symbol(xi):
    """The 6x6 Mandel curl curl^T symbol of one mode."""
    return _curl_curl_symbols(np.reshape(xi, (1, 3)), 1.0)[0]


class TestCurlCurlT:
    def test_zero_and_constant(self):
        assert curl_curl_T(TrigSymField({})).max_coeff_norm() == 0.0
        const = TrigSymField({(0, 0, 0): np.eye(3, dtype=complex)})
        assert curl_curl_T(const).max_coeff_norm() == 0.0

    def test_symbol_composition_vanishes(self):
        # div-symbol after curlcurl-symbol is zero as a 3x6 product, per mode
        for xi in [(1, 0, 0), (2, -1, 3), (-8, 5, 1), (4, 4, 4)]:
            prod = div_symbol_matrix(xi) @ curl_curl_symbol(xi)
            assert np.abs(prod).max() < 1e-12 * max(1.0, np.abs(curl_curl_symbol(xi)).max())

    def test_output_divergence_free(self):
        v = random_field(9, 2, 1.0)
        u = curl_curl_T(v)
        assert divergence(u).max_coeff_norm() < 1e-10 * max(1.0, u.max_coeff_norm())

    def test_exact_sequence_per_mode(self):
        # image of the symmetric-gradient symbol = kernel of curl curl^T,
        # image of curl curl^T = kernel of divergence, for a sample of modes
        rng = np.random.default_rng(3)
        for _ in range(24):
            xi = tuple(int(v) for v in rng.integers(-8, 9, size=3))
            if xi == (0, 0, 0):
                continue
            cc = curl_curl_symbol(xi)
            dv = div_symbol_matrix(xi)
            sg = sym_grad_symbol_matrix(xi)
            assert np.linalg.matrix_rank(cc, tol=1e-8 * max(np.abs(cc).max(), 1)) == 3
            assert np.abs(cc @ sg).max() < 1e-9 * max(1.0, np.abs(cc).max())
            assert np.abs(dv @ cc).max() < 1e-9 * max(1.0, np.abs(cc).max())
            # column space of cc == null space of dv: ranks 3 + 3 = 6
            stacked = np.hstack([cc, _null_space(dv)])
            assert np.linalg.matrix_rank(stacked, tol=1e-8 * max(np.abs(stacked).max(), 1)) == 3


def _null_space(m):
    _, s, vt = np.linalg.svd(m)
    rank = int((s > 1e-10 * s[0]).sum())
    return vt[rank:].T


class TestPotentialInverse:
    def test_zero(self):
        assert potential_inverse(TrigSymField({})).max_coeff_norm() == 0.0

    def test_round_trip(self):
        v0 = mean_zero(random_field(6, 2, 1.0))
        u = curl_curl_T(v0)
        v = potential_inverse(u)
        rt = curl_curl_T(v)
        scale = max(1.0, u.max_coeff_norm())
        worst = max(np.abs(rt.coeff(xi) - u.coeff(xi)).max() for xi in u.coeffs)
        assert worst < 1e-9 * scale

    def test_nonzero_mean_rejected(self):
        f = TrigSymField({(0, 0, 0): np.eye(3, dtype=complex)})
        with pytest.raises(PreconditionError):
            potential_inverse(f)

    def test_non_divfree_rejected(self):
        with pytest.raises(PreconditionError):
            potential_inverse(mean_zero(random_field(8, 1, 1.0)))


# The batched symbols repeat the per-mode reference's products in its order, so
# they must agree bit for bit; the stacked pinv and matmul may round otherwise,
# so the coefficients agree to this bound relative to the largest one.
POTENTIAL_RTOL = 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 30), st.sampled_from([1, 2, 3]), st.sampled_from([1.0, 2.5]))
@example(3, 2, 1.0)
def test_potential_inverse_matches_per_mode_reference(seed, max_freq, period):
    u = random_field(seed, max_freq, 1.0, divfree=True, period=period)
    xis = u.mode_arrays()[0]
    symbols = _curl_curl_symbols(xis, period)
    want = np.stack([refpot.curl_curl_symbol_matrix(tuple(xi), period) for xi in xis])
    assert symbols.tobytes() == want.tobytes()
    got, oracle = potential_inverse(u), refpot.potential_inverse(u)
    assert list(got.coeffs) == list(oracle.coeffs)
    scale = oracle.max_coeff_norm()
    assert scale > 0
    for xi, c in oracle.coeffs.items():
        np.testing.assert_allclose(got.coeffs[xi], c, rtol=0, atol=POTENTIAL_RTOL * scale)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 30), st.sampled_from([1, 2, 3]), st.sampled_from([1.0, 2.5]))
def test_curl_curl_T_matches_per_mode_reference(seed, max_freq, period):
    v = random_field(seed, max_freq, 1.0, period=period)
    got, want = curl_curl_T(v), refpot.curl_curl_T(v)
    assert list(got.coeffs) == list(want.coeffs)
    scale = want.max_coeff_norm()
    for xi, c in want.coeffs.items():
        np.testing.assert_allclose(got.coeffs[xi], c, rtol=0, atol=POTENTIAL_RTOL * scale)


def test_potential_inverse_without_nonzero_modes():
    for f in (TrigSymField({}), TrigSymField({(0, 0, 0): np.zeros((3, 3))})):
        assert potential_inverse(f).coeffs == {} == refpot.potential_inverse(f).coeffs
    assert _curl_curl_symbols(np.zeros((0, 3), dtype=np.int64), 1.0).shape == (0, 6, 6)


def test_potential_inverse_preconditions_match_reference():
    for f in (TrigSymField({(0, 0, 0): np.eye(3, dtype=complex)}), mean_zero(random_field(8, 1, 1.0))):
        for inverse in (potential_inverse, refpot.potential_inverse):
            with pytest.raises(PreconditionError):
                inverse(f)


class TestRandomField:
    def test_deterministic(self):
        a = random_field(17, 2, 1.5)
        b = random_field(17, 2, 1.5)
        assert a.frequencies == b.frequencies
        for xi in a.coeffs:
            np.testing.assert_array_equal(a.coeff(xi), b.coeff(xi))

    def test_divfree_flag(self):
        f = random_field(17, 2, 1.5, divfree=True)
        assert divergence(f).max_coeff_norm() < 1e-12 * max(1.0, f.max_coeff_norm())
        assert (0, 0, 0) not in f.coeffs

    def test_zero_amplitude(self):
        assert random_field(17, 3, 0.0).coeffs == {}


class TestSerialization:
    def test_round_trip(self):
        f = random_field(23, 2, 0.7, divfree=True)
        g = field_from_dict(json.loads(json.dumps(field_to_dict(f))))
        assert set(g.coeffs) == set(f.coeffs)
        for xi in f.coeffs:
            np.testing.assert_allclose(g.coeff(xi), f.coeff(xi), atol=1e-15)

    def test_one_representative_per_pair(self):
        f = random_field(23, 1, 1.0)
        data = field_to_dict(f)
        seen = {tuple(m["xi"]) for m in data["modes"]}
        for xi in seen:
            neg = tuple(-v for v in xi)
            assert neg == xi or neg not in seen

    def test_strict_period_and_integer_frequencies(self):
        # a file states its period, and a frequency entry is an integer in value
        mode = {"xi": [1, 0, 0], "re": [0.5] + [0.0] * 5, "im": [0.0] * 6}
        with pytest.raises(KeyError):
            field_from_dict({"modes": [mode]})
        with pytest.raises(ValueError, match="integers"):
            field_from_dict({"period": 1.0, "modes": [dict(mode, xi=[1.5, 0, 0])]})
        for xi in ([2.0, 0, 0], np.array([2, 0, 0], dtype=np.int64)):
            f = field_from_dict({"period": 2.0, "modes": [dict(mode, xi=xi)]})
            assert set(f.coeffs) == {(2, 0, 0), (-2, 0, 0)} and f.period == 2.0
