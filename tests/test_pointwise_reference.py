"""The pointwise evaluator ``truncate`` against the pou_eval reference and the 3-subset local fields."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference_pointwise import PointwiseReference, cubes_at
from _subset_kernel import subset_local_field
from divsym import whitney
from divsym.fields import TrigSymField, project_div_free, random_field
from divsym.truncation import build_context, lambda_for_fraction, sample_bad_truncation, sym6_to_mat, truncate
from divsym.whitney import SUPPORT_MARGIN

# Agreement bound, relative to max(1, largest reference component): the
# kernel formula takes phi derivatives from the packed quotient instead of
# the Leibniz recursion and sums pairs where the reference sums triples.
RTOL = 1e-10

# seed, n (20 is not dyadic), bad fraction; build_context dominates the cost
CASES = st.tuples(st.integers(0, 30), st.sampled_from([16, 20]), st.floats(0.01, 0.05))


def div_free(seed):
    f = project_div_free(random_field(seed, 2, 1.0))
    f.coeffs.pop((0, 0, 0), None)
    return TrigSymField(f.coeffs)


def assert_close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=0, atol=RTOL * max(1.0, np.abs(ref).max()))


def active_cubes(cover, y):
    return [k for k in cubes_at(cover, y)
            if (np.abs(cover.wrap(y - cover.centers[k])) < cover.sides[k] / 2.0 - SUPPORT_MARGIN).all()]


@settings(max_examples=3, deadline=None)
@given(CASES, st.integers(0, 2**16))
def test_evaluator_matches_reference(case, pick):
    seed, n, fraction = case
    w = div_free(seed)
    ctx = build_context(w, lambda_for_fraction(w, n, fraction), n)
    ref = PointwiseReference(ctx)
    rng = np.random.default_rng(pick)
    cells = np.argwhere(ctx.bad.mask)
    chosen = cells[rng.integers(0, len(cells), size=6)]
    h = ctx.period / n
    # three random flagged points, then three mask-cell centres (support edges)
    pts = np.concatenate([(chosen[:3] + rng.random((3, 3))) * h, (chosen[3:] + 0.5) * h])
    for s, y in enumerate(pts):
        got = truncate(ctx, y)
        assert np.array_equal(got, got.T)
        assert_close(got, ref(y))
        if s == 0:  # the reference's local fields, each T w
            for k in active_cubes(ctx.cover, y):
                assert_close(got, ref.local_field(k, y))


def cell_of(x, period, n):
    """The cell of the n-grid that holds the point ``x``, one coordinate at a time."""
    h = period / n
    return tuple(int(np.floor((float(v) % period) / h)) % n for v in x)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 30), st.integers(1, 30), st.sampled_from([16, 20, 24]), st.integers(0, 2**16),
       st.integers(1, 24), st.booleans())
def test_batched_evaluator_matches_points(seed, percent, n, pick, k, stacked):
    # truncate(ctx, x) on a (k, 3) or (2, k, 3) batch: symmetric, w off the mask, the grid
    # kernel at the flagged m-grid points, and w everywhere when the bad set is empty
    w = div_free(seed)
    ctx = build_context(w, lambda_for_fraction(w, n, percent / 100), n)
    rng = np.random.default_rng(pick)
    cells = np.argwhere(ctx.bad.mask)
    h = ctx.period / n
    # flagged points, and uniform ones shifted by whole periods
    shape = (2, k) if stacked else (k,)
    size = int(np.prod(shape))
    flagged = (cells[rng.integers(0, len(cells), size=size)] + rng.random((size, 3))) * h
    uniform = (rng.random((size, 3)) + rng.integers(-2, 3, size=(size, 3))) * ctx.period
    pts = np.where(rng.random((size, 1)) < 0.5, flagged, uniform)
    got = truncate(ctx, pts.reshape(shape + (3,)))
    bad = ctx.bad.contains(pts.reshape(shape + (3,)))
    assert got.shape == shape + (3, 3) and bad.shape == shape
    assert np.array_equal(got, got.swapaxes(-1, -2))
    got, bad = got.reshape(-1, 3, 3), bad.ravel()
    assert bad.tolist() == [bool(ctx.bad.mask[cell_of(x, ctx.period, n)]) for x in pts]
    for x, val in zip(pts[bad], got[bad]):
        assert np.array_equal(val, truncate(ctx, x))
    assert np.array_equal(got[~bad], w.eval_many(pts)[~bad])
    # flagged centres of the m-grid against the grid kernel
    m = 2 * n
    bad_index, mask_m, tvals = sample_bad_truncation(ctx, m)
    centres = np.argwhere(mask_m)[rng.integers(0, int(mask_m.sum()), size=size)]
    vals = truncate(ctx, ((centres + 0.5) * (ctx.period / m)).reshape(shape + (3,)))
    want = sym6_to_mat(tvals[bad_index[tuple(centres.T)]]).reshape(shape + (3, 3))
    np.testing.assert_allclose(vals, want, rtol=0, atol=1e-12 * max(1.0, np.abs(tvals).max()))
    # an empty bad set: T is the identity
    empty = build_context(w, 1e9, n)
    assert empty.bad.is_empty()
    assert np.array_equal(truncate(empty, pts), w.eval_many(pts))


def test_missing_pair_raises():
    w = div_free(3)
    ctx = build_context(w, lambda_for_fraction(w, 16, 0.03), 16)
    # a flagged point inside both supports of a pair: the centre of the boxes' overlap
    for row, (i, j) in enumerate(ctx.pairs):
        verts = ctx.cover.centers[i] + ctx.cover.wrap(ctx.cover.centers[[i, j]] - ctx.cover.centers[i])
        half = 0.5 * ctx.cover.sides[[i, j]][:, None]
        y = 0.5 * ((verts - half).max(axis=0) + (verts + half).min(axis=0)) % ctx.period
        if ctx.bad.contains(y):
            break
    else:
        pytest.fail("no pair overlaps at a flagged point")
    truncate(ctx, y)
    cut = dataclasses.replace(ctx, pairs=np.delete(ctx.pairs, row, axis=0),
                              pair_M=np.delete(ctx.pair_M, row, axis=0))
    with pytest.raises(KeyError):
        truncate(cut, y)
    with pytest.raises(KeyError):
        sample_bad_truncation(cut, 32)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 30), st.integers(1, 16), st.sampled_from([16, 20, 24]), st.integers(0, 2**16))
def test_local_field_is_the_truncation(seed, percent, n, pick):
    # wtilde^(k)(y) weights the orderings with k in their k slot by 1: weights that sum
    # to 1 over the active cubes, so they drop out as the partition does
    w = div_free(seed)
    ctx = build_context(w, lambda_for_fraction(w, n, percent / 100), n)
    rng = np.random.default_rng(pick)
    cells = np.argwhere(ctx.bad.mask)
    pts = (cells[rng.integers(0, len(cells), size=5)] + rng.random((5, 3))) * (ctx.period / n)
    vals = truncate(ctx, pts)
    scale = max(1.0, np.abs(vals).max())
    for y, val in zip(pts, vals):
        active = active_cubes(ctx.cover, y)
        assert len(active) >= 1
        for k in active:
            np.testing.assert_allclose(subset_local_field(ctx, k, y), val, rtol=0, atol=1e-12 * scale)


def test_partition_evaluated_once_per_pair(monkeypatch):
    """One bump-pack column per active (cube, flagged point) pair of the m-grid.

    Seed 3 at n = 16 with 8 % flagged (the truncate-n16 field): 10,192 pairs
    at m = 32, where evaluating each triple's vertices again took 94,936.
    """
    w = random_field(3, 2, 1.0, divfree=True)
    ctx = build_context(w, lambda_for_fraction(w, 16, 0.08), 16)
    columns = []
    eta_packs = whitney._eta_packs

    def counted(x, center, side):
        columns.append(len(x))
        return eta_packs(x, center, side)

    monkeypatch.setattr(whitney, "_eta_packs", counted)
    sample_bad_truncation(ctx, 32)
    assert sum(columns) == 10_192
