"""The pair kernel against the scalar-loop reference and the 3-subset oracle at every flagged point."""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import _loop_kernels as loops
from _subset_kernel import subset_moments, subset_truncation
from divsym import _kernels
from divsym.fields import TrigSymField, random_field
from divsym.truncation import _bad_grid_index, _pair_moments, build_context, lambda_for_fraction, sample_bad_truncation
from divsym.whitney import _partition

# Agreement bound, relative to the largest reference component.  The pair
# kernel sums each point's terms in another order and after the third cube
# is summed out, so only the last few bits may differ.
RTOL = 1e-12

# A chunk far below the default, so every example spans many chunks: pair
# chunks over whole points, where a point with more than 50 pairs is its own.
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
    return random_field(seed, 2, 1.0, divfree=True)


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

    got, ref = np.zeros((npts, 6)), np.zeros((npts, 6))
    _kernels.accumulate_truncation(ctx.triples, ctx.pairs, ctx.pair_M, ctx.tri_verts, ctx.cover.sides, m,
                                   ctx.period, bad_index, ctx.cover, got)
    loops.accumulate_truncation(ctx.triples, *subset_moments(ctx), ctx.tri_verts, ctx.cover.sides, m, ctx.period,
                                bad_index, spacks, ref)
    assert_close(got, ref)


def check_against_subsets(ctx, small_chunk=False):
    """The grid kernel at m = 2n against the subset oracle, to ``RTOL`` of the largest component."""
    m = 2 * ctx.n
    with mock.patch.object(_kernels, "_CHUNK", SMALL_CHUNK if small_chunk else _kernels._CHUNK):
        _, mask_m, tvals = sample_bad_truncation(ctx, m)
    assert_close(tvals, subset_truncation(ctx, (np.argwhere(mask_m) + 0.5) * (ctx.period / m)))


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 30), st.integers(1, 16), st.sampled_from([20, 24]), st.booleans())
def test_pair_kernel_matches_subset_oracle(seed, percent, n, small_chunk):
    # non-dyadic n; with the small chunk a point's pairs never share a chunk with
    # more than 50 others, and points with more than 50 pairs get chunks of their own
    w = random_field(seed, 2, 1.0, divfree=True)
    check_against_subsets(build_context(w, lambda_for_fraction(w, n, percent / 100), n), small_chunk)


# a constant symmetric field, to which waves may be added
CONSTANT = np.array([[1.0, 0.3, -0.2], [0.3, -0.5, 0.7], [-0.2, 0.7, 0.4]])


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2), st.booleans(), st.sampled_from([20, 24]))
def test_constant_field_matches_subset_oracle(draw, waves, n):
    # the zero mode has no periodic potential: the pair kernel takes its circulations
    # about the point, the subset oracle adds C nu and the centroid term per triangle;
    # the cover is the seed-3 one, so the field may be constant
    rng = np.random.default_rng(draw)
    coeffs = dict(random_field(draw, 1, 1.0, divfree=True).coeffs) if waves else {}
    m = rng.standard_normal((3, 3))
    coeffs[(0, 0, 0)] = (CONSTANT + 0.5 * (m + m.T)).astype(complex)
    w = TrigSymField(coeffs)
    seed3 = random_field(3, 2, 1.0, divfree=True)
    ctx = build_context(seed3, lambda_for_fraction(seed3, n, 0.08), n)
    check_against_subsets(dataclasses.replace(ctx, w=w, pair_M=_pair_moments(w, ctx.cover)))


def test_chunks_hold_whole_points_and_at_most_chunk_pairs():
    point = np.repeat(np.arange(6), [3, 0, 12, 4, 1, 5])
    sizes = np.bincount(point, minlength=6) * (np.bincount(point, minlength=6) - 1) // 2
    with mock.patch.object(_kernels, "_CHUNK", 10):
        chunks = list(_kernels._point_chunks(point, sizes))
    assert [(c.start, c.stop) for c in chunks] == [(0, 3), (3, 15), (15, 20), (20, 25)]
    for c in chunks:
        held = np.unique(point[c])
        assert sizes[held].sum() <= 10 or len(held) == 1

