import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _reference_fields as refields
import _reference_potential as refpot
from divsym import fields
from divsym.fields import (
    SYM6,
    PreconditionError,
    TrigSymField,
    UnsupportedOrderError,
    _apply_symbols,
    _curl_curl_symbols,
    _div_defect,
    _mandel_to_sym,
    _projectors,
    _sym_to_mandel,
    assert_div_free,
    field_from_dict,
    field_to_dict,
    potential_inverse,
    random_field,
)


def single_mode_field():
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = 0.5
    return TrigSymField({(1, 0, 0): c})


def mean_zero(f):
    f.coeffs.pop((0, 0, 0), None)
    return TrigSymField(f.coeffs, period=f.period)


def curl_curl_T(v):
    """curl curl^T on every mode of ``v`` by the stacked symbols, the path ``potential_inverse`` runs."""
    xis, cs = v.mode_arrays()
    return _apply_symbols(_curl_curl_symbols(xis, v.period), xis, cs, v.period)


def project(cs, xis):
    """``Q c Q`` on the coefficients ``cs`` (m, 3, 3) of the non-zero modes ``xis`` by ``_projectors``."""
    q = _projectors(np.asarray(xis))
    return q @ cs @ q


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
    """The ``SYM6`` components at the n^3 cell centres by the direct mode sum, in chunks of points."""
    pts = refields.cell_centers(n, f.period).reshape(-1, 3)
    vals = np.concatenate([f.eval_many(pts[i:i + 512], order) for i in range(0, len(pts), 512)])
    rows, cols = np.array(SYM6).T
    return vals[:, rows, cols].reshape(n, n, n, 6)


# every n, including aliased grids (2 max_freq >= n), and derivative orders of total <= 3
@settings(max_examples=20, deadline=None)
@given(st.sampled_from([4, 6, 8, 12, 16, 20]), st.integers(1, 5),
       st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).filter(lambda o: sum(o) <= 3),
       st.integers(0, 2**16))
@example(8, 5, (1, 0, 2), 0)
@example(8, 5, (0, 0, 0), 1)
def test_grid_components_match_direct_sum(n, max_freq, order, seed):
    f = random_field(seed, max_freq, 1.0)
    ref = direct_grid(f, n, order)
    got = f.grid_components(n, order)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("n", [4, 8])
def test_grid_components_without_modes_or_frequencies(n):
    # max_freq 0: the empty field and a constant-only field against the direct mode sum
    c = np.arange(9.0).reshape(3, 3)
    for f in (TrigSymField({}), TrigSymField({(0, 0, 0): c + c.T})):
        np.testing.assert_array_equal(f.grid_components(n), direct_grid(f, n, (0, 0, 0)))


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
    ref = direct_grid(f, n, order)
    assert np.abs(f.grid_components(n, order) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert seen and max(seen) <= n // 2


def test_mandel_keeps_batch_axes():
    grid = np.random.default_rng(0).standard_normal((4, 4, 4, 3, 3))
    grid = grid + grid.swapaxes(-1, -2)
    rows = np.stack([_sym_to_mandel(m) for m in grid.reshape(-1, 3, 3)])
    np.testing.assert_array_equal(_sym_to_mandel(grid), rows.reshape(4, 4, 4, 6))


class TestDivergence:
    def test_zero(self):
        assert _div_defect(TrigSymField({})) == 0.0

    def test_constant_field(self):
        f = TrigSymField({(0, 0, 0): np.eye(3, dtype=complex)})
        assert _div_defect(f) == 0.0

    def test_projection_kills_divergence(self):
        f = refields.project_div_free(random_field(5, 3, 2.0))
        assert _div_defect(f) < 1e-12 * max(1.0, f.max_coeff_norm())

    def test_one_solenoidal_defect_refused_with_its_size(self):
        # one mode with M xi != 0 in a divergence-free field: the check refuses it and
        # reports the largest divergence coefficient
        f = random_field(5, 2, 1.0, divfree=True, period=2.0)
        assert_div_free(f)
        c = f.coeffs[(1, 2, 0)] + np.diag([0.0, 0.3j, 0.0])
        g = TrigSymField({**f.coeffs, (1, 2, 0): c, (-1, -2, 0): c.conj()}, period=2.0)
        with pytest.raises(PreconditionError, match="input is not divergence-free") as err:
            assert_div_free(g, what="input")
        # the largest |(2 pi / L) c xi| over the modes, one mode at a time: about 0.6 pi here
        worst = max(np.linalg.norm(2 * np.pi / 2.0 * (c @ np.array(xi, dtype=float))) for xi, c in g.coeffs.items())
        assert f"(defect {worst:.3e})" in str(err.value) and abs(worst - 0.6 * np.pi) < 1e-12


def three_step_divfree(seed, max_freq, period=1.0):
    """``random_field(divfree=True)`` as it was built: draw, project every mode, drop the zero mode, rebuild."""
    f = refields.project_div_free(random_field(seed, max_freq, 1.0, period=period))
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
        xis, cs = mean_zero(random_field(2, 2, 1.0)).mode_arrays()
        p1 = project(cs, xis)
        np.testing.assert_allclose(project(p1, xis), p1, rtol=0, atol=1e-12)

    def test_divergence_free_input_fixed(self):
        xis, cs = random_field(4, 2, 1.0, divfree=True).mode_arrays()
        np.testing.assert_allclose(project(cs, xis), cs, rtol=0, atol=1e-12)

    def test_zero_mode_kept(self):
        # the tests' per-mode projection of a whole field keeps the constant mode
        c = np.eye(3, dtype=complex)
        f = TrigSymField({(0, 0, 0): c})
        np.testing.assert_allclose(refields.project_div_free(f).coeff((0, 0, 0)), c)

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

        got = project(np.eye(3)[None], [(1, 0, 0)])[0]
        np.testing.assert_allclose(got, oracle, atol=1e-10)


def curl_curl_symbol(xi):
    """The 6x6 Mandel curl curl^T symbol of one mode."""
    return _curl_curl_symbols(np.reshape(xi, (1, 3)), 1.0)[0]


def div_symbol_matrix(xi):
    """The 3x6 divergence symbol (Mandel basis, without the factor ``i 2pi/L``)."""
    return np.stack([_mandel_to_sym(e) @ np.asarray(xi, dtype=float) for e in np.eye(6)], axis=1)


def sym_grad_symbol_matrix(xi):
    """The 6x3 symmetric-gradient symbol (Mandel basis, without ``i 2pi/L``)."""
    x = np.asarray(xi, dtype=float)
    return np.stack([_sym_to_mandel(0.5 * (np.outer(u, x) + np.outer(x, u))) for u in np.eye(3)], axis=1)


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
        assert _div_defect(u) < 1e-10 * max(1.0, u.max_coeff_norm())

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
        assert list(a.coeffs) == list(b.coeffs)
        for xi in a.coeffs:
            np.testing.assert_array_equal(a.coeff(xi), b.coeff(xi))

    def test_divfree_flag(self):
        f = random_field(17, 2, 1.5, divfree=True)
        assert _div_defect(f) < 1e-12 * max(1.0, f.max_coeff_norm())
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


# ---------------------------------------------------------------------------
# the stacked constructor against the per-mode one it replaced


def sym_coefficient(rng, scale):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return scale * (m + m.T)


def as_given(draw, xi, c):
    """``xi`` and ``c`` as a caller may give them: int, float or numpy keys; arrays or nested lists."""
    as_key = draw(st.sampled_from([tuple, lambda v: tuple(map(float, v)), lambda v: tuple(np.array(v, dtype=np.int64))]))
    return as_key(xi), draw(st.sampled_from([np.asarray, lambda v: np.asarray(v).tolist()]))(c)


@st.composite
def mode_dicts(draw):
    """Valid coefficient dicts in any input order: modes alone or with their mirrors, exact or
    within rounding, coefficients symmetric to rounding, a zero mode with a tiny imaginary part."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=10))
    reps = sorted({max(xi, fields._neg(xi)) for xi in reps})
    items = []
    for xi in reps:
        c = sym_coefficient(rng, draw(st.sampled_from([1e-3, 1.0, 40.0])))
        if xi == (0, 0, 0):
            items.append(as_given(draw, xi, c.real + draw(st.sampled_from([0.0, 1e-13, -4e-12])) * 1j))
            continue
        c = c + draw(st.sampled_from([0.0, 1e-14])) * np.triu(np.ones((3, 3)), 1)  # asymmetric within tol
        how = draw(st.sampled_from(["given", "mirror", "both", "rounded"]))
        if how != "mirror":
            items.append(as_given(draw, xi, c))
        if how != "given":
            partner = c.conj() * (1 + 2.0**-52) if how == "rounded" else c.conj()
            items.append(as_given(draw, fields._neg(xi), partner))
    return dict(draw(st.permutations(items)))


def arrays_or_error(build):
    try:
        xis, cs = build()
    except Exception as exc:
        return type(exc), str(exc)
    return xis.dtype, xis.shape, xis.tobytes(), cs.dtype, cs.shape, cs.tobytes()


@settings(max_examples=150, deadline=None)
@given(mode_dicts(), st.sampled_from([1.0, 2.0, 0.75]))
@example({}, 1.0)
@example({(1, -2, 0): np.diag([1.0, 2.0j, 3.0])}, 1.0)
@example({(0, 0, 0): np.eye(3) + 1e-13j, (0, 1, 0): np.eye(3)}, 2.0)
def test_constructor_matches_per_mode_reference(coeffs, period):
    # sorted, closed, symmetrised mode arrays bit for bit, and the coeffs dict over their rows
    want = arrays_or_error(lambda: refields.mode_arrays(coeffs, period))
    f = TrigSymField(coeffs, period=period)
    assert arrays_or_error(f.mode_arrays) == want and f.period == float(period)
    assert list(f.coeffs) == [tuple(xi) for xi in f.mode_arrays()[0].tolist()]
    assert all(np.shares_memory(c, f.mode_arrays()[1]) for c in f.coeffs.values())


NAN, INF = float("nan"), float("inf")

# one malformed mode per class: (key, coefficient) from a free frequency xi and a valid coefficient c
MALFORMED = {
    "fractional key": lambda xi, c: ((xi[0] + 0.5, xi[1], xi[2]), c),
    "short key": lambda xi, c: (xi[:2], c),
    "long key": lambda xi, c: (xi + (0,), c),
    "inf key": lambda xi, c: ((INF, xi[1], xi[2]), c),
    "nan key": lambda xi, c: ((NAN, xi[1], xi[2]), c),
    "vector": lambda xi, c: (xi, c[0]),
    "2x2": lambda xi, c: (xi, c[:2, :2]),
    "3x3x1": lambda xi, c: (xi, c[..., None]),
    "nan": lambda xi, c: (xi, np.where(np.eye(3) > 0, NAN, c)),
    "inf": lambda xi, c: (xi, np.where(np.eye(3) > 0, INF, c)),
    "asymmetric": lambda xi, c: (xi, c + 1e-6 * np.abs(c).max() * np.triu(np.ones((3, 3)), 1)),
}


@settings(max_examples=150, deadline=None)
@given(mode_dicts(), st.data())
def test_constructor_errors_match_per_mode_reference(coeffs, data):
    # the first offending mode in input order raises the reference's error, type and message
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    items = list(coeffs.items())
    for kind in data.draw(st.lists(st.sampled_from([*MALFORMED, "non-Hermitian"]), min_size=1, max_size=3)):
        xi = data.draw(st.tuples(st.integers(4, 6), st.integers(-6, 6), st.integers(-6, 6)))
        c = sym_coefficient(rng, 1.0)
        new = ([(xi, c), (fields._neg(xi), c.conj() + 1e-6)] if kind == "non-Hermitian"
               else [MALFORMED[kind](xi, c)])
        at = data.draw(st.integers(0, len(items)))
        items[at:at] = new
    period = data.draw(st.sampled_from([1.0, 2.0, 0.75, 1.0, 2.0, 0.75, 0.0, -1.0, NAN, INF]))
    bad = dict(items)
    got = arrays_or_error(lambda: TrigSymField(bad, period=period).mode_arrays())
    assert got == arrays_or_error(lambda: refields.mode_arrays(bad, period))


@pytest.mark.parametrize("kind", [*MALFORMED, "non-Hermitian", "bad period"])
def test_each_malformed_class_is_refused_like_the_reference(kind):
    c = sym_coefficient(np.random.default_rng(0), 1.0)
    items = [((1, 0, 0), c)]
    if kind == "non-Hermitian":
        items += [((-1, 0, 0), c.conj() + 1e-6)]
    elif kind != "bad period":
        items += [MALFORMED[kind]((2, 1, 0), c)]
    coeffs, period = dict(items), 0.0 if kind == "bad period" else 1.0
    want = arrays_or_error(lambda: refields.mode_arrays(coeffs, period))
    assert want[0] is ValueError
    assert arrays_or_error(lambda: TrigSymField(coeffs, period=period).mode_arrays()) == want


def test_hermitian_tolerance_scales_with_the_largest_mode():
    # partners 1e-8 apart pass beside a mode of size 1e4 (tol 1e-10 x 1e4) and fail without it
    c = sym_coefficient(np.random.default_rng(1), 1.0)
    pair = {(2, 0, 0): c, (-2, 0, 0): c.conj() + 1e-8}
    for coeffs in ({(1, 0, 0): 1e4 * np.eye(3), **pair}, pair):
        want = arrays_or_error(lambda: refields.mode_arrays(coeffs))
        assert arrays_or_error(lambda: TrigSymField(coeffs).mode_arrays()) == want
        assert (want[0] is ValueError) == (len(coeffs) == 2)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-2, 2**16), st.integers(2**32, 2**70)), st.integers(0, 5),
       st.sampled_from([1.0, 0.37, 0.0, -1.0]), st.booleans(), st.sampled_from([1.0, 2 * np.pi, 0.3, 0.0, NAN]))
@example(2**32, 5, 1.0, True, 2 * np.pi)
@example(2**40, 1, 0.37, False, 0.3)
def test_random_field_matches_per_mode_loop(seed, max_freq, amplitude, divfree, period):
    # one stacked draw and one stacked projection give the loop's arrays bit for bit
    # (signs of zero included), and the same error where the inputs are refused
    def build(make):
        return lambda: make(seed, max_freq, amplitude, divfree=divfree, period=period).mode_arrays()

    assert arrays_or_error(build(random_field)) == arrays_or_error(build(refields.random_field))
