"""The cover's half-cell index against the per-cube box walk, brute force and the per-arc overlap loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _loop_kernels as loops
from divsym.fields import random_field
from divsym.maximal import bad_set, maximal_function, sample_abs
from divsym.truncation import _bad_grid_index
from divsym.whitney import WhitneyCover, _partition, whitney_decompose

# seed, n (20 and 24 are not dyadic), bad fraction, m / n; at m = n and
# m = 3n flagged points lie on half-cell lines
CASES = st.tuples(st.integers(0, 30), st.sampled_from([16, 20, 24]), st.floats(0.01, 0.30),
                  st.sampled_from([1, 2, 3]))


def mask_for(seed, n, fraction):
    m = maximal_function(sample_abs(random_field(seed, 2, 1.0, divfree=True), n))
    return bad_set(m, float(np.quantile(m.values, 1.0 - fraction)))


def max_overlap_arcs(cover):
    """W3 by the per-arc loop: the largest number of open supports holding one point.

    With ``DILATION = 2`` the support endpoints lie on the half-cell lattice,
    so the count is constant on each product of open half-cell arcs.
    """
    m = 2 * cover.n
    q = cover.period / m
    lo = np.rint((cover.centers - cover.sides[:, None] / 2.0) / q).astype(np.int64)
    width = np.rint(cover.sides / q).astype(np.int64)
    # inside[d][j, a]: arc (a, a + 1) of axis d lies in cube j's support
    inside = [(np.arange(m) - lo[:, d, None]) % m < width[:, None] for d in range(3)]
    best = 0
    for a in range(m):
        sel = inside[0][:, a]
        counts = inside[1][sel].T.astype(np.float64) @ inside[2][sel]
        best = max(best, int(counts.max()))
    return best


def half_cell_lists(cover):
    """(half-cell, cube) rows of the cubes whose open support holds each half-cell's centre, sorted."""
    m = 2 * cover.n
    mids = (np.arange(m) + 0.5) * cover.period / m
    rows = [np.zeros((0, 2), dtype=np.int64)]
    for j, (c, side) in enumerate(zip(cover.centers, cover.sides)):
        axes = [np.flatnonzero(np.abs(cover.wrap(mids - c[d])) < side / 2.0) for d in range(3)]
        cells = np.ravel_multi_index(np.meshgrid(*axes, indexing="ij"), (m,) * 3).ravel()
        rows.append(np.stack([cells, np.full(len(cells), j)], axis=1))
    rows = np.concatenate(rows)
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


@settings(max_examples=10, deadline=None)
@given(CASES)
def test_index_matches_box_walk_brute_force_and_arcs(case):
    seed, n, fraction, r = case
    mask = mask_for(seed, n, fraction)
    cover = whitney_decompose(mask)
    m = r * n
    bad_index, _ = _bad_grid_index(mask.mask, m)
    pts = (np.argwhere(bad_index >= 0) + 0.5) * (cover.period / m)

    cube, point, off, phi, _ = _partition(cover, pts)
    rcube, rpoint, roff, rphi, _ = loops.grid_partition(cover.centers, cover.sides, m, cover.period,
                                                        bad_index)
    np.testing.assert_array_equal(cube, rcube)
    np.testing.assert_array_equal(point, rpoint)
    for got, ref in ((off, roff), (phi, rphi)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    ptr = cover.cell_ptr
    listed = np.stack([np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)), cover.cell_ids], axis=1)
    np.testing.assert_array_equal(listed, half_cell_lists(cover))
    assert cover.stats["overlap"] == max_overlap_arcs(cover)


def test_off_lattice_centre_refused():
    mask = mask_for(3, 16, 0.08)
    cover = whitney_decompose(mask)
    centers = cover.centers.copy()
    centers[0, 1] += 1e-6 * mask.h
    with pytest.raises(ValueError, match="half-cell lattice"):
        WhitneyCover(period=cover.period, n=cover.n, centers=centers, sides=cover.sides,
                     levels=cover.levels)
