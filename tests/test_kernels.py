"""The array kernel against the scalar-loop reference at every flagged point."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import _loop_kernels as loops
from divsym import _kernels
from divsym.fields import TrigSymField, project_div_free, random_field
from divsym.truncation import _bad_grid_index, build_context, lambda_for_fraction
from divsym.whitney import _partition

# Agreement bound, relative to the largest reference component.  The array
# kernel sums each point's pair contributions in another order, so only the
# last few bits may differ.
RTOL = 1e-12

# A chunk far below the default, so every example spans many chunks: subset
# chunks over whole points, where a point with more than 50 subsets is its own.
SMALL_CHUNK = 50

# Smallest largest reference component a comparison must see.  At m = n
# every evaluation point is a mask-cell centre, where every phi derivative
# vanishes: both sides read 0 (or 1e-93) and the comparison checks nothing.
MIN_SCALE = 1e-6

# seed, n, m / n, bad fraction; m / n is even so that no evaluation point is
# a mask-cell centre.  The loop reference costs about 0.3 ms per pair, so a
# few examples at m = 2n already take seconds and m = 4n about a minute each.
CASES = st.tuples(st.integers(0, 30), st.sampled_from([16, 20]), st.just(2),
                  st.floats(0.01, 0.05))


def div_free(seed):
    f = project_div_free(random_field(seed, 2, 1.0))
    f.coeffs.pop((0, 0, 0), None)
    return TrigSymField(f.coeffs)


def assert_close(got, ref):
    assert np.abs(ref).max() > MIN_SCALE
    np.testing.assert_allclose(got, ref, rtol=0, atol=RTOL * np.abs(ref).max())


def spacks_both(cover, m, bad_index, npts):
    """The shared partition pass's S and phi packs against the loop reference; returns its S."""
    pts = (np.argwhere(bad_index >= 0) + 0.5) * (cover.period / m)
    cube, point, off, phi, s = _partition(cover, pts)
    ref = np.zeros((npts, 10))
    loops.accumulate_spacks(cover.centers, cover.sides, m, cover.period, bad_index, ref)
    assert_close(s.T, ref)
    eta, ref_phi = np.zeros(10), np.zeros((len(cube), 10))
    for q, (j, p) in enumerate(zip(cube, point)):
        loops._eta_pack(*off[q], 0.0, 0.0, 0.0, cover.sides[j], eta)
        loops._phi_pack(eta, ref[p], ref_phi[q])
    assert_close(phi.T, ref_phi)
    return ref


@mock.patch.object(_kernels, "_CHUNK", SMALL_CHUNK)
@settings(max_examples=3, deadline=None)
@given(CASES)
def test_truncation_and_spacks_match_loops(case):
    seed, n, r, fraction = case
    w = div_free(seed)
    ctx = build_context(w, lambda_for_fraction(w, n, fraction), n)
    m = r * n
    bad_index, mask_m = _bad_grid_index(ctx.bad.mask, m)
    npts = int(mask_m.sum())
    spacks = spacks_both(ctx.cover, m, bad_index, npts)

    args = (ctx.triples, ctx.tri_B, ctx.tri_G, ctx.tri_verts, ctx.cover.sides, m, ctx.period,
            bad_index)
    got, ref = np.zeros((npts, 6)), np.zeros((npts, 6))
    _kernels.accumulate_truncation(*args, ctx.cover, got)
    loops.accumulate_truncation(*args, spacks, ref)
    assert_close(got, ref)

