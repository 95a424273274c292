"""The array kernels against the scalar-loop reference at every flagged point."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import _loop_kernels as loops
from divsym import _kernels
from divsym.fields import TrigSymField, potential_inverse, project_div_free, random_field
from divsym.maximal import ScalarGrid, maximal_function
from divsym.potential_trunc import _derivative_magnitude_grids, afree_potential_truncate
from divsym.truncation import _bad_grid_index, build_context, lambda_for_fraction

# Agreement bound, relative to the largest reference component.  The array
# kernels sum each point's pair contributions in another order, so only the
# last few bits may differ.
RTOL = 1e-12

# A chunk far below the default for the cube kernels, so every example spans
# many chunks and a cube's box at m = 2n (4^3 points for the smallest cubes)
# forms its own.  The triple kernel shares the chunking and keeps the default.
SMALL_CHUNK = 50

# seed, n, m / n, bad fraction; the loop reference costs about 0.3 ms per pair,
# so a few examples already take seconds
CASES = st.tuples(st.integers(0, 30), st.sampled_from([16, 20]), st.sampled_from([1, 2]),
                  st.floats(0.01, 0.05))


def div_free(seed):
    f = project_div_free(random_field(seed, 2, 1.0))
    f.coeffs.pop((0, 0, 0), None)
    return TrigSymField(f.coeffs)


def assert_close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=0, atol=RTOL * np.abs(ref).max())


def spacks_both(cover, m, bad_index, npts):
    got, ref = np.zeros((npts, 10)), np.zeros((npts, 10))
    with mock.patch.object(_kernels, "_CHUNK", SMALL_CHUNK):
        _kernels.accumulate_spacks(cover.centers, cover.sides, m, cover.period, bad_index, got)
    loops.accumulate_spacks(cover.centers, cover.sides, m, cover.period, bad_index, ref)
    assert_close(got, ref)
    return ref


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
            bad_index, spacks)
    got, ref = np.zeros((npts, 6)), np.zeros((npts, 6))
    _kernels.accumulate_truncation(*args, got)
    loops.accumulate_truncation(*args, ref)
    assert_close(got, ref)


@mock.patch.object(_kernels, "_CHUNK", SMALL_CHUNK)
@settings(max_examples=3, deadline=None)
@given(CASES)
def test_patch_curl_matches_loops(case):
    seed, n, r, fraction = case
    u = div_free(seed)
    levels = [maximal_function(ScalarGrid(n=n, period=u.period, values=g)).values
              for g in _derivative_magnitude_grids(potential_inverse(u), n)]
    lam = float(np.quantile(sum(levels), 1.0 - fraction))
    ut = afree_potential_truncate(u, lam, n)
    m = r * n
    bad_index, mask_m, got = ut.sample_bad(m)
    vt = ut.vtrunc
    spacks = spacks_both(vt.cover, m, bad_index, len(got))

    ref = np.zeros_like(got)
    loops.accumulate_patch_curl(vt.cover.centers, vt.cover.sides,
                                np.stack([p.value for p in vt.patches]),
                                np.stack([p.grad for p in vt.patches]),
                                m, vt.period, bad_index, spacks, ref)
    assert_close(got, ref)
