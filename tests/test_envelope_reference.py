"""The coefficient-array descent and clamp-and-project sequence against the dict reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_envelope as ref
from divsym.envelope import (CompactSetDescriptor, DistanceObjective, _band, _band_project,
                             minimize_over_test_fields, truncate_project_sequence)
from divsym.fields import TrigSymField, project_div_free, random_field

# Agreement bound, relative to the largest reference value.  Resampling by
# inverse FFT instead of the direct mode sum, and projecting all modes at
# once, changes only the rounding of each iterate.
RTOL = 1e-10


def rand_sym(rng, scale=1.0):
    m = rng.standard_normal((3, 3))
    return scale * (m + m.T) / 2


def compact_set(kind, rng):
    if kind == "ball":
        return CompactSetDescriptor(kind="ball", center=rand_sym(rng, 0.5), radius=0.5 + rng.random())
    # two points: the polytope objective projects point by point, so keep it small
    return CompactSetDescriptor(kind=kind, points=[rand_sym(rng) for _ in range(2 if kind == "polytope" else 3)])


def assert_fields_close(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    keys = set(got.coeffs) | set(want.coeffs) | {(0, 0, 0)}
    worst = max(np.abs(got.coeff(x) - want.coeff(x)).max() for x in keys)
    assert worst <= RTOL * max(1.0, want.max_coeff_norm())


def assert_descents_agree(k, p, max_freq, restarts, iterations, seed, amplitude, xi):
    objective = DistanceObjective(k, p)
    kwargs = dict(init_amplitude=amplitude, xi_offset=xi)
    val, best, trace = minimize_over_test_fields(objective, max_freq, restarts, iterations, seed, **kwargs)
    rval, rbest, rtrace = ref.minimize_over_test_fields(objective, max_freq, restarts, iterations, seed,
                                                        **kwargs)
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
    # one fixed case: each polytope evaluation costs about a second on the 16^3 grid
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


def test_truncate_project_sequence_matches_reference():
    u = project_div_free(random_field(6, 2, 2.0))
    u.coeffs.pop((0, 0, 0), None)
    u = TrigSymField(u.coeffs)
    for n in (16, 24):
        vals = u.grid_values(n)
        norms = np.sqrt(np.einsum("...ab,...ab->...", vals, vals))
        big_r = float(np.quantile(norms, 0.6)) / 2
        assert (norms > 2 * big_r).any()  # the clamp is active
        assert_fields_close(truncate_project_sequence(u, big_r, n=n),
                            ref.truncate_project_sequence(u, big_r, n=n))


def test_band_project_rejects_non_hermitian_band():
    # a complex grid field has band coefficients without Hermitian partners
    rng = np.random.default_rng(0)
    band = _band(2, 16)
    values = rng.standard_normal((16, 16, 16, 3, 3))
    assert _band_project(values, band).shape == (124, 3, 3)
    with pytest.raises(ValueError, match="Hermitian"):
        _band_project(values + 1e-3j * rng.standard_normal(values.shape), band)
