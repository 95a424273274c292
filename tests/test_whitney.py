import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import _reference_maximal as ref
from _reference_pointwise import build_partition, cubes_at, phi_at, pou_eval
from divsym.fields import PreconditionError, UnsupportedOrderError, random_field
from divsym.truncation import flag_bad_set, lambda_for_fraction
from divsym.maximal import OpenSetMask, ScalarGrid, bad_set, maximal_function, sample_abs
from _loop_kernels import _bump012, pack_slot
from divsym.whitney import (
    BUMP_CORE,
    BUMP_SUPP,
    DILATION,
    _bumps,
    bump,
    whitney_decompose,
)

# t where the bump's pieces meet, and beyond its support
BUMP_EDGES = [0.0, BUMP_CORE, -BUMP_CORE, BUMP_SUPP, -BUMP_SUPP, 0.75, -3.0]

# the derivative multi-index of each phi pack slot
PACK_ORDERS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2),
               (0, 1, 1), (1, 0, 1), (1, 1, 0)]

# Packs against pou_eval, relative to max(1, largest reference entry at the
# point): both are exact quotient formulas, evaluated in a different order.
PACK_RTOL = 1e-12


def ball_mask(n, center, radius, period=1.0):
    ax = (np.arange(n) + 0.5) * period / n
    grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    d = np.abs(grid - np.asarray(center))
    d = np.minimum(d, period - d)
    vals = np.where(np.linalg.norm(d, axis=-1) < radius, 1.0, 0.0)
    return bad_set(ScalarGrid(n=n, period=period, values=vals), 0.5)


def two_ball_mask(n):
    a = ball_mask(n, (0.25, 0.25, 0.25), 0.11)
    b = ball_mask(n, (0.75, 0.75, 0.75), 0.11)
    vals = np.where(a.mask | b.mask, 1.0, 0.0)
    return bad_set(ScalarGrid(n=n, period=1.0, values=vals), 0.5)


def random_mask(n, seed):
    vals = np.random.default_rng(seed).random((n, n, n))
    return bad_set(ScalarGrid(n=n, period=1.0, values=vals), 0.75)


def max_count_at_random_points(cover, count, seed=0):
    """Largest number of open cube supports holding one of ``count`` uniform points.

    Per cube, the points in its x-interval (found in the x-sorted points,
    wrapped across the period) are tested on y and z and counted.
    """
    p = cover.period
    pts = np.random.default_rng(seed).random((count, 3)) * p
    pts = pts[np.argsort(pts[:, 0])]
    hits = np.zeros(count, dtype=np.int64)
    for c, side in zip(cover.centers, cover.sides):
        lo, hi = c[0] - side / 2.0, c[0] + side / 2.0
        spans = [(lo, hi)] + [(lo + s, hi + s) for s in (-p, p)]
        idx = np.concatenate([np.arange(np.searchsorted(pts[:, 0], a, "right"),
                                        np.searchsorted(pts[:, 0], b, "left")) for a, b in spans])
        gap = np.abs(pts[idx, 1:] - c[1:])
        inside = (np.minimum(gap, p - gap) < side / 2.0).all(axis=1)
        hits[idx[inside]] += 1
    return int(hits.max())


def interior_points(mask, count, seed=0):
    rng = np.random.default_rng(seed)
    cells = np.argwhere(mask.mask)
    pick = cells[rng.integers(0, len(cells), size=count)]
    return (pick + rng.random((count, 3))) * (mask.period / mask.n)


class TestBump:
    def test_plateau_and_support(self):
        assert bump(0.0) == 1.0
        assert bump(BUMP_CORE) == 1.0
        assert bump(BUMP_SUPP) == 0.0
        assert bump(0.9) == 0.0
        mid = 0.5 * (BUMP_CORE + BUMP_SUPP)
        assert 0.0 < bump(mid) < 1.0

    def test_derivatives_match_finite_differences(self):
        ts = np.linspace(-0.49, 0.49, 23)
        h = 1e-6
        for order in (1, 2, 3):
            fd = (bump(ts + h, order - 1) - bump(ts - h, order - 1)) / (2 * h)
            np.testing.assert_allclose(bump(ts, order), fd, atol=1e-4 * max(1.0, np.abs(fd).max()))

    def test_even_symmetry(self):
        ts = np.linspace(0.0, 0.6, 13)
        np.testing.assert_array_equal(bump(ts), bump(-ts))
        np.testing.assert_array_equal(bump(ts, 1), -bump(-ts, 1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), max_size=40))
    def test_one_pass_matches_bump_and_the_power_form(self, draws):
        # _bumps gives b, b', b'' from one clipped s: bitwise bump's orders 0-2, and
        # the scalar power form of the loop reference up to rounding (exactly at the edges)
        ts = np.array(draws + BUMP_EDGES)
        got = _bumps(ts)
        for k in range(3):
            assert np.array_equal(got[k], bump(ts, k))
        want = np.array([_bump012(t) for t in ts]).T
        for k in range(3):   # largest |b|, |b'|, |b''|: 1, 9.84, 150
            np.testing.assert_allclose(got[k], want[k], rtol=0, atol=4e-15 * (1.0, 9.84, 150.0)[k])
        np.testing.assert_array_equal(np.stack(got)[:, len(draws):], want[:, len(draws):])


class TestDecompose:
    def test_empty(self):
        m = ball_mask(16, (0.5, 0.5, 0.5), 0.0)
        assert m.is_empty()
        assert len(whitney_decompose(m)) == 0

    def test_full_rejected(self):
        n = 16
        mask = bad_set(ScalarGrid(n=n, period=1.0, values=np.ones((n, n, n))), 0.5)
        with pytest.raises(PreconditionError):
            whitney_decompose(mask)

    def test_ball_w1_w2(self):
        mask = ball_mask(64, (0.5, 0.5, 0.5), 1.0 / 8)
        cover = whitney_decompose(mask)
        assert cover.stats["w1_exact"]
        # W2 sandwich with the recorded module constants
        assert cover.stats["w2_ratio_min"] >= 1.0 - 1e-12
        assert cover.stats["w2_ratio_max"] <= 5.0

    def test_two_balls_connectivity(self):
        mask = two_ball_mask(32)
        cover = whitney_decompose(mask)
        # union-find over touching cubes must yield exactly two classes
        parent = list(range(len(cover)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in cover.neighbor_pairs():
            parent[find(i)] = find(j)
        roots = {find(i) for i in range(len(cover))}
        assert len(roots) == 2

    def test_overlap_bounded_across_masks(self):
        overlaps = []
        for seed in range(6):
            mask = random_mask(16, seed)
            if mask.is_empty() or mask.is_full():
                continue
            cover = whitney_decompose(mask)
            overlaps.append(cover.stats["overlap"])
        assert max(overlaps) <= 27  # dimensional bound for the dilation in use

    @pytest.mark.parametrize("n, seed", [(16, s) for s in range(6)] + [(20, 0), (24, 0)])
    def test_overlap_matches_random_points(self, n, seed):
        # cell centres lie on support boundaries; generic points do not
        cover = whitney_decompose(random_mask(n, seed))
        assert cover.stats["overlap"] == max_count_at_random_points(cover, 200_000)

    def test_w4_comparability(self):
        mask = ball_mask(64, (0.5, 0.5, 0.5), 0.2)
        cover = whitney_decompose(mask)
        assert cover.stats["w4_ratio_max"] <= 8.0

    @pytest.mark.parametrize("n, size, stats", [
        (16, 328, {"w1_exact": True, "w2_ratio_min": 1.0, "w2_ratio_max": 1.0, "overlap": 8,
                   "w4_ratio_max": 1.0}),
        (32, 2608, {"w1_exact": True, "w2_ratio_min": 1.0, "w2_ratio_max": 2.0, "overlap": 10,
                    "w4_ratio_max": 2.0}),
    ])
    def test_benchmark_field_stats(self, n, size, stats):
        # random_field(3) at the lambda that flags 8 % of the n-grid
        w = random_field(3, 2, 1.0, divfree=True)
        cover = whitney_decompose(flag_bad_set(w, lambda_for_fraction(w, n, 0.08), n)[3])
        assert len(cover) == size and cover.stats == stats


@settings(max_examples=16, deadline=None)
@given(st.integers(8, 40), st.sampled_from([1.7, 2.5, 0.3, 2 * np.pi]), st.floats(0.02, 0.6),
       st.booleans(), st.integers(0, 2**16))
def test_cover_matches_length_units(n, period, fraction, blobs, seed):
    # admissibility and W2 in whole cells give the length-unit oracle's cover bit for bit:
    # i.i.d. masks, or superlevel sets of a smooth field's maximal function, which hold
    # blocks above level 0
    if blobs:
        grid = maximal_function(sample_abs(random_field(seed % 64, 2, 1.0, period=period), n))
    else:
        grid = ScalarGrid(n=n, period=period, values=np.random.default_rng(seed).random((n, n, n)))
    mask = bad_set(grid, float(np.quantile(grid.values, 1.0 - fraction)))
    assume(not mask.is_empty() and not mask.is_full())
    got, want = whitney_decompose(mask), ref.whitney_decompose(mask)
    for key in ("centers", "sides", "levels"):
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes()
    assert got.stats == want.stats
    assert all(type(got.stats[k]) is type(want.stats[k]) for k in want.stats)


def phi_pack(cover, x, j, order=(0, 0, 0)):
    """Derivative ``order`` of phi_j at ``x`` from the ``whitney`` packs; 0 where cube j is inactive."""
    active, _, packs = phi_at(cover, np.asarray(x, dtype=float))
    hit = np.flatnonzero(active == j)
    return float(packs[pack_slot(order), hit[0]]) if len(hit) else 0.0


class TestPartition:
    def setup_method(self):
        self.mask = ball_mask(32, (0.5, 0.5, 0.5), 0.15)
        self.cover = whitney_decompose(self.mask)
        self.pou = build_partition(self.cover)

    def test_empty_cover_rejected(self):
        empty = whitney_decompose(bad_set(ScalarGrid(n=16, period=1.0, values=np.zeros((16, 16, 16))), 1.0))
        assert len(empty) == 0
        with pytest.raises(PreconditionError):
            build_partition(empty)

    def test_pack_slots(self):
        assert [pack_slot(o) for o in PACK_ORDERS] == list(range(10))

    def test_partition_of_unity_on_bad_set(self):
        for x in interior_points(self.mask, 60):
            _, _, packs = phi_at(self.cover, x)
            assert abs(packs[0].sum() - 1.0) < 1e-12

    def test_outside_supports_zero(self):
        # a point far from the ball is in no cube
        x = np.array([0.03, 0.03, 0.03])
        assert cubes_at(self.cover, x) == []
        assert len(phi_at(self.cover, x)[0]) == 0
        assert phi_pack(self.cover, x, 0) == 0.0

    def test_single_cube_region(self):
        # wherever only one cube covers, its phi is exactly 1
        for x in interior_points(self.mask, 200, seed=3):
            active = cubes_at(self.cover, x)
            if len(active) == 1:
                assert phi_pack(self.cover, x, active[0]) == pytest.approx(1.0, abs=1e-14)
                break
        else:
            pytest.skip("no single-cube point sampled")

    def test_value_at_center_positive(self):
        j = len(self.cover) // 2
        val = phi_pack(self.cover, self.cover.centers[j], j)
        assert 0.0 < val <= 1.0

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        pts = interior_points(self.mask, 5, seed=11)
        h = 1e-5
        for x in pts:
            for j in cubes_at(self.cover, x):
                for d in range(3):
                    e = np.zeros(3)
                    e[d] = h
                    order = tuple(int(q == d) for q in range(3))
                    fd = (phi_pack(self.cover, x + e, j) - phi_pack(self.cover, x - e, j)) / (2 * h)
                    an = phi_pack(self.cover, x, j, order)
                    assert abs(fd - an) <= 1e-6 * max(1.0, abs(an)) + 1e-4 * abs(an) + 5e-5

    def test_derivative_sums_vanish(self):
        # differentiating the constant 1: every derivative sum is 0 on the set
        for x in interior_points(self.mask, 25, seed=5):
            _, _, packs = phi_at(self.cover, x)
            for order in [(1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0)]:
                row = packs[pack_slot(order)]
                assert abs(row.sum()) < 1e-9 * max(1.0, np.abs(row).max())
            # third order lies beyond the packs: the reference partition
            active = cubes_at(self.cover, x)
            for order in [(1, 1, 1), (0, 0, 3)]:
                vals = [pou_eval(self.pou, j, x, order) for j in active]
                assert abs(sum(vals)) < 1e-9 * max(1.0, max(abs(v) for v in vals))

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            pou_eval(self.pou, 0, self.cover.centers[0], (2, 2, 0))

    def test_p3_scaling(self):
        # |grad^l phi| * ell^l bounded by one constant across cube sizes
        rng = np.random.default_rng(13)
        worst = {1: 0.0, 2: 0.0, 3: 0.0}
        for j in range(0, len(self.cover), max(1, len(self.cover) // 40)):
            ell = self.cover.sides[j]
            for _ in range(12):
                x = self.cover.centers[j] + (rng.random(3) - 0.5) * ell
                for order, l in [((1, 0, 0), 1), ((1, 1, 0), 2)]:
                    worst[l] = max(worst[l], abs(phi_pack(self.cover, x, j, order)) * ell**l)
                worst[3] = max(worst[3], abs(pou_eval(self.pou, j, x, (1, 1, 1))) * ell**3)
        # recorded magnitudes for the shipped bump profile (dilation 2)
        assert worst[1] < 60 and worst[2] < 6000 and worst[3] < 8e5

    def test_cubes_at_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.random(3)
            got = cubes_at(self.cover, x)
            oracle = []
            for j in range(len(self.cover)):
                d = np.abs(self.cover.wrap(x - self.cover.centers[j]))
                if (d < self.cover.sides[j] / 2).all():
                    oracle.append(j)
            assert got == oracle

    def test_cubes_at_center(self):
        j = 0
        assert j in cubes_at(self.cover, self.cover.centers[j])


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 30), st.sampled_from([16, 20, 24]), st.floats(0.01, 0.30), st.integers(0, 2**16))
def test_packs_match_pou_eval(seed, n, fraction, pick):
    # all ten pack slots at random flagged points and at mask-cell centres (support edges)
    maxf = maximal_function(sample_abs(random_field(seed, 2, 1.0), n))
    mask = bad_set(maxf, float(np.quantile(maxf.values, 1.0 - fraction)))
    cover = whitney_decompose(mask)
    pou = build_partition(cover)
    rng = np.random.default_rng(pick)
    cells = np.argwhere(mask.mask)
    chosen = cells[rng.integers(0, len(cells), size=6)]
    for y in np.concatenate([chosen[:3] + rng.random((3, 3)), chosen[3:] + 0.5]) / n:
        active, _, packs = phi_at(cover, y)
        listed = cubes_at(cover, y)
        assert len(active) >= 1 and set(active.tolist()) <= set(listed)
        ref = np.array([[pou_eval(pou, j, y, o) for o in PACK_ORDERS] for j in listed])
        got = np.zeros_like(ref)  # cubes within SUPPORT_MARGIN of their edge carry phi = 0
        got[np.searchsorted(listed, active)] = packs.T
        np.testing.assert_allclose(got, ref, rtol=0, atol=PACK_RTOL * max(1.0, np.abs(ref).max()))
