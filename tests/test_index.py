"""The cover's half-cell index against the per-cube box walk, brute force and the per-arc overlap loop."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _loop_kernels as loops
from divsym.fields import random_field
from divsym.maximal import ScalarGrid, bad_set, maximal_function, sample_abs
from divsym.truncation import _bad_grid_index
from divsym.whitney import WhitneyCover, _box_cells, _partition, whitney_decompose

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


def index_by_box_cells(cover):
    """``(cell_ptr, cell_ids)`` from every support expanded by ``_box_cells`` and one lexsort by (cell, cube)."""
    m = 2 * cover.n
    half = cover.sides[:, None] / 2.0
    lattice = np.rint(np.stack([cover.centers - half, cover.centers + half]) / (cover.period / m)).astype(np.int64)
    cube, cells = _box_cells(lattice[0], lattice[1] - lattice[0], m)
    ptr = np.zeros(m**3 + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells, minlength=m**3), out=ptr[1:])
    return ptr, cube[np.lexsort((cube, cells))]


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 30), st.sampled_from([16, 20, 24, 64]), st.floats(0.01, 0.30))
def test_level_boxes_match_box_cells(seed, n, fraction):
    # the index expands each level's boxes in one broadcast; n = 64 gives covers of several levels
    cover = whitney_decompose(mask_for(seed, n, fraction))
    assert n < 64 or len(np.unique(cover.levels)) > 1
    ptr, ids = index_by_box_cells(cover)
    assert np.array_equal(cover.cell_ptr, ptr)
    assert np.array_equal(cover.cell_ids, ids)


def test_empty_cover_index():
    n = 16
    cover = whitney_decompose(bad_set(ScalarGrid(n=n, period=1.0, values=np.zeros((n, n, n))), 0.5))
    assert len(cover) == 0 and len(cover.pairs) == 0
    ptr, ids = index_by_box_cells(cover)
    assert np.array_equal(cover.cell_ptr, ptr) and not cover.cell_ptr.any()
    assert cover.cell_ids.shape == ids.shape == (0,)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-4.0, 4.0, allow_nan=False), max_size=30), st.sampled_from([1.0, 2.0 * np.pi, 0.3]))
def test_wrap_lands_in_the_half_period_and_keeps_short_offsets(draws, period):
    d = np.array(draws + [0.5, -0.5, 0.25, 1.5, -1.5, 0.5 - 1e-16, 1e-300]) * period
    got = WhitneyCover.wrap(SimpleNamespace(period=period), d)
    turns = (d - got) / period              # whole periods taken off
    np.testing.assert_allclose(turns, np.rint(turns), rtol=0, atol=1e-12)
    # within half a period: exactly for a power-of-two period, else to rounding
    assert (np.abs(got) <= period / 2 * (1.0 if period == 1.0 else 1.0 + 1e-15)).all()
    short = np.abs(d) < period / 2
    assert np.array_equal(got[short], d[short])
    assert (np.abs(got[np.abs(d) == period / 2]) == period / 2).all()


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
