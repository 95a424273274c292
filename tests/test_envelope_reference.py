"""The coefficient-array descent against the dict reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_envelope as ref
from divsym import envelope
from divsym.envelope import (CompactSetDescriptor, DistanceObjective, _band, _band_field, _band_project,
                             _project_hull, _seed_words, _seeded_init, minimize_over_test_fields)
from divsym.fields import _band_grid, _band_modes, _sym_to_mandel

# Agreement bound, relative to the largest reference value.  Resampling by
# the inverse band DFT instead of the direct mode sum, and projecting all modes at
# once, changes only the rounding of each iterate.
RTOL = 1e-10


def rand_sym(rng, scale=1.0):
    m = rng.standard_normal((3, 3))
    return scale * (m + m.T) / 2


def compact_set(kind, rng):
    if kind == "ball":
        return CompactSetDescriptor(kind="ball", center=rand_sym(rng, 0.5), radius=0.5 + rng.random())
    # two polytope vertices, three points
    return CompactSetDescriptor(kind=kind, points=[rand_sym(rng) for _ in range(2 if kind == "polytope" else 3)])


def assert_fields_close(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    keys = set(got.coeffs) | set(want.coeffs) | {(0, 0, 0)}
    worst = max(np.abs(got.coeff(x) - want.coeff(x)).max() for x in keys)
    assert worst <= RTOL * max(1.0, want.max_coeff_norm())


def assert_descents_agree(k, p, max_freq, restarts, iterations, seed, amplitude, xi, objective=None):
    """Run both descents of dist^p(., K); ``objective`` (a wrapper of it) runs the one under test."""
    val, best, trace = minimize_over_test_fields(objective or DistanceObjective(k, p), max_freq, restarts,
                                                 iterations, seed, init_amplitude=amplitude,
                                                 xi_offset=_sym_to_mandel(xi))
    rval, rbest, rtrace = ref.minimize_over_test_fields(DistanceObjective(k, p), max_freq, restarts,
                                                        iterations, seed, init_amplitude=amplitude, xi_offset=xi)
    scale = max(1.0, np.abs(rtrace).max())
    np.testing.assert_allclose(trace, rtrace, rtol=0, atol=RTOL * scale)
    assert abs(val - rval) <= RTOL * scale
    assert_fields_close(best, rbest)
    return rtrace


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(["ball", "points"]), st.sampled_from([1, 2, 4]), st.sampled_from([1, 2]),
       st.integers(1, 3), st.integers(1, 15), st.integers(0, 2**16), st.floats(0.005, 0.5))
def test_descent_matches_reference(kind, p, max_freq, restarts, iterations, seed, amplitude):
    rng = np.random.default_rng(seed)
    k = compact_set(kind, rng)
    assert_descents_agree(k, p, max_freq, restarts, iterations, seed, amplitude, rand_sym(rng))


def test_descent_matches_reference_polytope():
    # one fixed case: the reference resamples by the direct mode sum
    rng = np.random.default_rng(11)
    k = compact_set("polytope", rng)
    assert_descents_agree(k, 2, 1, 2, 1, 11, 0.3, rand_sym(rng))


def test_laminate_descent_accepts_steps():
    # a rank-one pair with xi at its midpoint: small random restarts descend
    # below dist(xi, K), so the best field comes from accepted steps
    a, b = np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])
    k = CompactSetDescriptor(kind="points", points=[a, b])
    trace = assert_descents_agree(k, 1, 1, 3, 15, 5, 0.01, 0.5 * (a + b))
    assert max(trace[1:]) < trace[0]


class RecordingObjective(DistanceObjective):
    """dist^p(., K) that records the mean value of every evaluation, in order."""

    def __init__(self, k, p):
        super().__init__(k, p)
        self.means = []

    def __call__(self, values):
        vals, grads = super().__call__(values)
        self.means.append(float(vals.mean()))
        return vals, grads


def accepted_steps(means, restarts, iterations):
    """The accepted steps of a descent, replayed from its evaluations' means."""
    means, accepted = iter(means), 0
    for r in range(restarts):
        val, step = next(means), 1.0
        for _ in range(iterations if r else 0):  # restart 0, the zero field, is one evaluation
            tval = next(means)
            if tval < val - 1e-14:
                val, step, accepted = tval, step * 1.3, accepted + 1
            else:
                step *= 0.5
                if step < 1e-12:
                    break
    assert next(means, None) is None
    return accepted


def test_one_projection_per_accepted_point(monkeypatch):
    # every iterate lies in the band, so a trial step needs no transform: the
    # gradient is projected once per seeded restart and once per accepted step
    calls = []
    project = envelope._band_project
    monkeypatch.setattr(envelope, "_band_project", lambda values, band: calls.append(1) or project(values, band))
    a, b = np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])
    k = CompactSetDescriptor(kind="points", points=[a, b])
    objective = RecordingObjective(k, 1)
    restarts, iterations = 3, 15
    assert_descents_agree(k, 1, 1, restarts, iterations, 5, 0.01, 0.5 * (a + b), objective=objective)
    accepted = accepted_steps(objective.means, restarts, iterations)
    assert 0 < len(calls) <= accepted + restarts
    assert len(calls) < len(objective.means) - restarts  # fewer than one per trial step


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**16), st.booleans())
def test_project_hull_matches_active_set(vertices, seed, flat):
    # points inside the polytope, on its edges, at its vertices and outside it
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((vertices, 6))
    if flat:  # affinely dependent vertices
        v[:, 3:] = 0.0
    inside = rng.dirichlet(np.ones(vertices), size=4) @ v
    i, j = rng.integers(vertices, size=(2, 4))
    t = rng.random((4, 1))
    ys = np.concatenate([inside, t * v[i] + (1 - t) * v[j], v, inside + rng.standard_normal((4, 6))])
    want = np.stack([ref._project_simplex_hull(v, y) for y in ys])
    np.testing.assert_allclose(_project_hull(v, ys), want, rtol=0, atol=1e-12 * max(1.0, np.abs(ys).max()))


def test_band_project_idempotent_and_real_only():
    # the band projection is a projector: re-projecting its own resampled output
    # changes only rounding; a complex grid has no real transform and is refused
    rng = np.random.default_rng(0)
    band = _band(2, 16)
    values = rng.standard_normal((16, 16, 16, 6))
    coeffs = _band_project(values, band)
    assert coeffs.shape == (74, 6)
    again = _band_project(_band_grid(coeffs, band[1], band[2]), band)
    np.testing.assert_allclose(again, coeffs, rtol=0, atol=1e-12 * np.abs(coeffs).max())
    with pytest.raises(TypeError):
        _band_project(values + 1e-3j * rng.standard_normal(values.shape), band)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**16), st.booleans())
def test_band_dft_matches_fft(max_freq, seed, component_major):
    # the separable band DFT against the real FFT pair: forward on random real
    # grids in either layout, inverse on projected coefficients
    rng = np.random.default_rng(seed)
    n = max(4 * max_freq, 16)
    xis, dft, rows, _ = band = _band(max_freq, n)
    index = ref._fft_index(xis, n)
    values = rng.standard_normal((6, n, n, n) if component_major else (n, n, n, 6))
    if component_major:
        values = np.moveaxis(values, 0, -1)
    want = ref._grid_to_modes(values, index)
    np.testing.assert_allclose(_band_modes(values, dft, rows), want, rtol=0, atol=1e-14 * np.abs(want).max())
    coeffs = _band_project(values, band)
    want = ref._modes_to_grid(coeffs, index, n)
    np.testing.assert_allclose(_band_grid(coeffs, dft, rows), want, rtol=0, atol=1e-14 * np.abs(want).max())


class LayoutObjective(DistanceObjective):
    """dist^p(., K) that records whether each grid it is given is component-major."""

    def __init__(self, k, p):
        super().__init__(k, p)
        self.component_major = []

    def __call__(self, values):
        self.component_major.append(np.moveaxis(values, -1, 0).flags.c_contiguous)
        return super().__call__(values)


def test_objective_receives_component_major_grids():
    # the zero field, the seeded restarts and every trial step keep the layout
    # of the inverse band DFT, so the objective's row transpose copies nothing
    a, b = np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])
    objective = LayoutObjective(CompactSetDescriptor(kind="points", points=[a, b]), 1)
    minimize_over_test_fields(objective, 2, 3, 10, 5, init_amplitude=0.01, xi_offset=_sym_to_mandel(0.5 * (a + b)))
    assert len(objective.component_major) > 3
    assert all(objective.component_major)


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**40 + 3])
def test_seeded_init_draws_the_reference_streams(seed):
    # one uint32 word array per stream is the stream of the list [seed, restart, key + 64]:
    # a seed of 2^32 and above spans two little-endian words, as SeedSequence splits it
    xis, _, _, proj = _band(2, 16)
    for restart in (1, 2):
        got = _band_field(xis, _seeded_init(seed, restart, xis, 0.3, proj))
        assert_fields_close(got, ref._seeded_init(seed, restart, 2, 0.3, 1.0))
        key = [2 + 64, 0 + 64, 1 + 64]
        words = np.array(_seed_words(seed) + _seed_words(restart) + key, dtype=np.uint32)
        draws = np.random.default_rng(words).standard_normal(18)
        assert draws.tobytes() == np.random.default_rng([seed, restart] + key).standard_normal(18).tobytes()
    assert len(_seed_words(seed)) == (2 if seed >= 2**32 else 1)


def test_seeded_init_refuses_what_has_no_word():
    # a negative word would wrap silently in uint32; SeedSequence refuses it, and so does the init
    proj = np.zeros((1, 6, 6))
    with pytest.raises(ValueError, match="max-norm 64"):
        _seeded_init(0, 1, np.array([[1, -65, 0]]), 0.1, proj)
    with pytest.raises(ValueError, match="non-negative"):
        _seeded_init(-1, 1, np.array([[1, 0, 0]]), 0.1, proj)
