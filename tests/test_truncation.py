import numpy as np
import pytest

from divsym.fields import PreconditionError, TrigSymField, project_div_free, random_field
from divsym.flux import eval_A, rule_for_degree, triangle_moments
from divsym.maximal import ScalarGrid, bad_set
from divsym.truncation import (
    PlaneWave,
    TruncationContext,
    _batched_moments,
    battery_psis,
    build_context,
    divergence_battery,
    lambda_for_fraction,
    local_field,
    sample_bad_truncation,
    sample_truncation_norm,
    spiked_battery,
    summation_vanish_check,
    sym6_to_mat,
    truncate,
    verify,
    weak_divergence_defect,
)
from divsym.whitney import build_partition, pou_eval, whitney_decompose


def div_free(seed, max_freq=2, amplitude=1.0):
    f = project_div_free(random_field(seed, max_freq, amplitude))
    f.coeffs.pop((0, 0, 0), None)
    return TrigSymField(f.coeffs)


@pytest.fixture(scope="module")
def ctx():
    w = div_free(7)
    lam = lambda_for_fraction(w, 24, 0.08)
    return build_context(w, lam, 24)


def bad_points(ctx, count, seed=0):
    rng = np.random.default_rng(seed)
    cells = np.argwhere(ctx.bad.mask)
    pick = cells[rng.integers(0, len(cells), size=count)]
    return (pick + rng.random((count, 3))) * (ctx.period / ctx.n)


class TestBuildContext:
    def test_zero_field_empty(self):
        ctx = build_context(TrigSymField({}), 1.0, 16)
        assert ctx.cover is None and ctx.bad.is_empty()

    def test_huge_lambda_empty(self):
        w = div_free(1)
        big = 10.0 * float(np.abs(w.max_coeff_norm())) * len(w.coeffs)
        ctx = build_context(w, big, 16)
        assert ctx.bad.is_empty()

    def test_non_divfree_rejected(self):
        with pytest.raises(PreconditionError):
            build_context(random_field(2, 1, 1.0), 1.0, 16)

    def test_triple_count_brute_force(self, ctx):
        # all-pairs touch matrix by the same wrapped-gap predicate as _touch;
        # a triangle of touching cubes is counted once per ordering (6 times).
        # Float products stay exact: every count is far below 2^53.
        a = _touch_matrix(ctx.cover)
        assert len(ctx.triples) == int(((a @ a) * a).sum()) // 6

    def test_cached_triples_pairwise_touching(self, ctx):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, len(ctx.triples), size=min(50, len(ctx.triples)))
        for r in rows:
            a, b, c = (int(v) for v in ctx.triples[r])
            assert _touch(ctx.cover, a, b) and _touch(ctx.cover, a, c) and _touch(ctx.cover, b, c)


def _touch(cover, i, j):
    gap = np.abs(cover.wrap(cover.centers[i] - cover.centers[j]))
    return bool((gap < (cover.sides[i] + cover.sides[j]) / 2.0 - 1e-12).all())


def _touch_matrix(cover):
    gap = np.abs(cover.wrap(cover.centers[:, None, :] - cover.centers[None, :, :]))
    reach = (cover.sides[:, None] + cover.sides[None, :]) / 2.0 - 1e-12
    a = (gap < reach[..., None]).all(axis=2)
    np.fill_diagonal(a, False)
    return a.astype(float)


class TestLocalField:
    def test_symmetry_exact(self, ctx):
        for y in bad_points(ctx, 5, seed=2):
            k = ctx.cover.cubes_at(y)[0]
            val = local_field(ctx, k, y)
            assert np.array_equal(val, val.T)

    def test_outside_cube_rejected(self, ctx):
        far = ctx.cover.centers[0] + 0.5
        with pytest.raises(PreconditionError):
            local_field(ctx, 0, far % 1.0)

    def test_transcription_oracle(self):
        # independent straight-line evaluation of the two component formulas,
        # with every flux/moment integral done by direct quadrature (no cache,
        # no sign bookkeeping), on a hand-placed three-cube cover
        n = 16
        vals = np.zeros((n, n, n))
        for cell in [(4, 4, 4), (5, 4, 4), (5, 5, 4)]:
            vals[cell] = 1.0
        mask = bad_set(ScalarGrid(n=n, period=1.0, values=vals), 0.5)
        cover = whitney_decompose(mask)
        assert len(cover) == 3
        pou = build_partition(cover)
        w = div_free(3)
        rule = rule_for_degree(10)
        triples = np.array([[0, 1, 2]], dtype=np.int32)
        tri_verts = np.zeros((1, 3, 3))
        tri_verts[0, 0] = cover.centers[0]
        for v in (1, 2):
            tri_verts[0, v] = cover.centers[0] + cover.wrap(cover.centers[v] - cover.centers[0])
        tri_b, tri_g = _batched_moments(w, tri_verts, rule)
        ctx = TruncationContext(
            w=w, lam=1.0, lam_eff=1.25, n=n, abs_grid=None, maximal_grid=None, bad=mask,
            cover=cover, pou=pou, rule=rule, triples=triples, tri_verts=tri_verts,
            tri_B=tri_b, tri_G=tri_g, moment_index={(0, 1, 2): 0},
        )
        y = (np.array([5, 4, 4]) + np.array([0.45, 0.52, 0.5])) / n
        active = cover.cubes_at(y)
        k = active[0]
        got = local_field(ctx, k, y)

        # ---- oracle: no shared machinery beyond pou_eval and quadrature ----
        def phi(j, order=(0, 0, 0)):
            return pou_eval(pou, j, y, order)

        def B(i, j, kk, alpha):
            verts = [cover.centers[0] + cover.wrap(cover.centers[t] - cover.centers[0])
                     for t in (i, j, kk)]
            return triangle_moments(w, *verts, rule).B[alpha]

        def A(i, j, kk, alpha, beta):
            verts = [cover.centers[0] + cover.wrap(cover.centers[t] - cover.centers[0])
                     for t in (i, j, kk)]
            m = triangle_moments(w, *verts, rule)
            yf = cover.centers[0] + cover.wrap(y - cover.centers[0])
            return eval_A(m, yf, alpha, beta)

        d1 = {(j, d): phi(j, tuple(int(q == d) for q in range(3))) for j in active for d in range(3)}
        orders2 = {(0, 0): (2, 0, 0), (1, 1): (0, 2, 0), (2, 2): (0, 0, 2),
                   (0, 1): (1, 1, 0), (0, 2): (1, 0, 1), (1, 2): (0, 1, 1)}
        d2 = {}
        for j in active:
            for (a, b), o in orders2.items():
                d2[(j, a, b)] = d2[(j, b, a)] = phi(j, o)

        oracle = np.zeros((3, 3))
        for al, be, ga in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            nd = 0.0
            dd = 0.0
            for i in active:
                for j in active:
                    nd += 3.0 * (d1[(j, ga)] * d1[(i, al)] * B(i, j, k, al)
                                 + d1[(j, be)] * d1[(i, ga)] * B(i, j, k, be))
                    nd += (d2[(j, be, ga)] * d1[(i, ga)] - d2[(j, ga, ga)] * d1[(i, be)]) * A(i, j, k, be, ga)
                    nd += (d2[(j, al, ga)] * d1[(i, ga)] - d2[(j, ga, ga)] * d1[(i, al)]) * A(i, j, k, ga, al)
                    nd += (d2[(j, al, ga)] * d1[(i, be)] + d2[(j, be, ga)] * d1[(i, al)]
                           - 2.0 * d2[(j, al, be)] * d1[(i, ga)]) * A(i, j, k, al, be)
                    dd += 6.0 * d1[(j, be)] * d1[(i, ga)] * B(i, j, k, al)
                    dd += 2.0 * (d2[(j, ga, ga)] * d1[(i, be)] - d2[(j, be, ga)] * d1[(i, ga)]) * A(i, j, k, ga, al)
                    dd += 2.0 * (d2[(j, be, be)] * d1[(i, ga)] - d2[(j, be, ga)] * d1[(i, be)]) * A(i, j, k, al, be)
            oracle[al, be] = oracle[be, al] = nd
            oracle[al, al] = dd
        scale = max(1.0, np.abs(oracle).max())
        np.testing.assert_allclose(got, oracle, atol=1e-10 * scale)


class TestTruncate:
    def test_identity_off_bad_set_bitwise(self, ctx):
        ev = truncate(ctx)
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 10:
            x = rng.random(3)
            if ctx.in_bad_set(x):
                continue
            assert np.array_equal(ev(x), ctx.w(x))
            checked += 1

    def test_empty_bad_set_identity(self):
        w = div_free(5)
        ctx = build_context(w, 1e9, 16)
        ev = truncate(ctx)
        for x in np.random.default_rng(1).random((5, 3)):
            assert np.array_equal(ev(x), w(x))

    def test_zero_field(self):
        ctx = build_context(TrigSymField({}), 1.0, 16)
        assert not truncate(ctx)(np.array([0.1, 0.5, 0.9])).any()

    def test_symmetric_values(self, ctx):
        ev = truncate(ctx)
        for y in bad_points(ctx, 5, seed=6):
            val = ev(y)
            assert np.array_equal(val, val.T)

    def test_mask_cell_centres(self, ctx):
        # cell centres of the mask grid lie exactly on support edges of
        # neighbouring cubes; the evaluator must not look up their triples
        bad_index, mask_m, tvals = sample_bad_truncation(ctx, ctx.n)
        ev = truncate(ctx)
        scale = max(1.0, np.abs(tvals).max())
        for cell in np.argwhere(ctx.bad.mask)[:40]:
            ker = sym6_to_mat(tvals[bad_index[tuple(cell)]])
            np.testing.assert_allclose(ev((cell + 0.5) / ctx.n), ker, rtol=0, atol=1e-12 * scale)

    def test_kernel_matches_reference(self, ctx):
        m = 2 * ctx.n
        bad_index, mask_m, tvals = sample_bad_truncation(ctx, m)
        ev = truncate(ctx)
        pts = (np.argwhere(mask_m) + 0.5) / m
        rng = np.random.default_rng(8)
        scale = max(1.0, np.abs(tvals).max())
        for s in rng.choice(len(pts), size=6, replace=False):
            cell = tuple((pts[s] * m - 0.5).round().astype(int))
            ker = sym6_to_mat(tvals[bad_index[cell]])
            np.testing.assert_allclose(ev(pts[s]), ker, atol=1e-10 * scale)

    def test_interior_divergence_vanishes(self):
        # pointwise solenoidality inside the bad set, by central differences
        w = div_free(7, max_freq=1)
        lam = lambda_for_fraction(w, 24, 0.3)
        ctx = build_context(w, lam, 24)
        ev = truncate(ctx)
        h = 1.0 / ctx.n
        deep = np.argwhere(ctx.bad.distance > 2.5 * h)
        assert len(deep) > 0
        rng = np.random.default_rng(2)
        hfd = 1e-5
        for cell in deep[rng.choice(len(deep), size=3, replace=False)]:
            x = (cell + 0.5) * h + (rng.random(3) - 0.5) * 0.2 * h
            div = np.zeros(3)
            grad_scale = 0.0
            for d in range(3):
                e = np.zeros(3)
                e[d] = hfd
                diff = (ev(x + e) - ev(x - e)) / (2 * hfd)
                div += diff[:, d]
                grad_scale = max(grad_scale, np.abs(diff).max())
            assert np.abs(div).max() < 1e-4 * max(1.0, grad_scale)

    def test_norm_grid_matches_values(self, ctx):
        m = 2 * ctx.n
        g = sample_truncation_norm(ctx, m)
        ev = truncate(ctx)
        rng = np.random.default_rng(3)
        for _ in range(4):
            cell = rng.integers(0, m, size=3)
            x = (cell + 0.5) / m
            assert abs(g.values[tuple(cell)] - np.linalg.norm(ev(x))) < 1e-8 * max(1.0, g.values.max())


class TestWeakDivergence:
    def test_constant_psi_zero(self, ctx):
        class Const:
            def value(self, pts):
                return np.ones(len(np.atleast_2d(pts)))

            def grad(self, pts):
                return np.zeros((len(np.atleast_2d(pts)), 3))

        assert weak_divergence_defect(ctx, 0, Const()) == 0.0

    def test_empty_bad_set_exact(self):
        w = div_free(9)
        ctx = build_context(w, 1e9, 16)
        for psi in battery_psis()[:4]:
            d2 = abs(weak_divergence_defect(ctx, 0, psi, 32))
            d4 = abs(weak_divergence_defect(ctx, 0, psi, 64))
            assert d2 < 1e-12
            assert d4 <= d2 + 1e-15

    def test_plane_wave_pairing_matches_grid_sum(self, ctx):
        # the analytic trig part must equal the literal midpoint sum
        psi = PlaneWave((1, 1, 0), 0.4)
        m = 2 * ctx.n
        h3 = 1.0 / m**3

        class NotAWave:
            def __init__(self, inner):
                self.inner = inner

            def value(self, pts):
                return self.inner.value(pts)

            def grad(self, pts):
                return self.inner.grad(pts)

        direct = weak_divergence_defect(ctx, 1, NotAWave(psi), m)
        fast = weak_divergence_defect(ctx, 1, psi, m)
        assert abs(direct - fast) < 1e-9 * max(1.0, abs(direct))

    def test_refinement_shrinks(self, ctx):
        psi = battery_psis()[0]
        d2 = max(abs(weak_divergence_defect(ctx, a, psi, 2 * ctx.n)) for a in range(3))
        d4 = max(abs(weak_divergence_defect(ctx, a, psi, 4 * ctx.n)) for a in range(3))
        assert d4 < d2

    def test_spiked_control_discriminates(self, ctx):
        defects = divergence_battery(ctx, 2 * ctx.n).max()
        spiked = spiked_battery(ctx).max()
        assert spiked > np.pi * ctx.lam * 0.6


class TestSummationVanish:
    def test_constant_moment_factorizes(self, ctx):
        # with the moment replaced by 1 the sum factorizes into derivative sums
        y = bad_points(ctx, 1, seed=9)[0]
        active = ctx.cover.cubes_at(y)
        for order in ((1, 0, 0), (0, 1, 0)):
            total = sum(pou_eval(ctx.pou, l, y, order) for l in active)
            scale = max(abs(pou_eval(ctx.pou, l, y, order)) for l in active)
            assert abs(total) ** 3 < 1e-20 * max(1.0, scale**3)

    def test_sums_small_and_refinement_convergent(self):
        w = div_free(7)
        lam = lambda_for_fraction(w, 24, 0.08)
        fine = build_context(w, lam, 24, degree=10)
        coarse = build_context(w, lam, 24, degree=2)
        samples = bad_points(fine, 40, seed=10)
        got_f = summation_vanish_check(fine, (1, 0, 0), (0, 1, 0), (0, 0, 1), ("B", 0), samples)
        got_c = summation_vanish_check(coarse, (1, 0, 0), (0, 1, 0), (0, 0, 1), ("B", 0), samples)
        ell = fine.cover.sides.min()
        assert got_f["max_abs"] < 1e-3 * fine.lam / ell  # recorded scale, see notes
        assert got_f["max_abs"] <= got_c["max_abs"] + 1e-15

    def test_A_mode_and_skip_counting(self, ctx):
        samples = [np.array([0.0, 0.0, 0.0]), bad_points(ctx, 1, seed=11)[0]]
        if ctx.in_bad_set(samples[0]):
            samples = samples[1:]
        rep = summation_vanish_check(ctx, (1, 0, 0), (1, 0, 0), (1, 0, 0), ("A", 0, 1), samples)
        assert rep["used"] >= 1
        assert np.isfinite(rep["max_abs"])


class TestVerify:
    def test_empty_bad_set(self):
        w = div_free(11)
        ctx = build_context(w, 1e9, 16)
        rep = verify(ctx)
        assert rep.l1_distance == 0.0
        assert rep.changed_measure == 0.0
        assert rep.stability_ratio == 0.0
        assert rep.linf_ratio <= 1.25

    def test_zero_field(self):
        rep = verify(build_context(TrigSymField({}), 1.0, 16))
        assert rep.linf_ratio == 0.0 and rep.tail_integral == 0.0
        assert max(rep.div_defects) == 0.0

    def test_report_fields_finite(self, ctx):
        rep = verify(ctx)
        d = rep.to_dict()
        for key in ("linf_ratio", "l1_distance", "tail_integral", "stability_ratio",
                    "changed_measure", "small_change_ratio", "spiked_defect"):
            assert np.isfinite(d[key]) and d[key] >= 0
        assert len(d["div_defects"]) == 12

    def test_monotone_vanishing_changed_measure(self):
        w = div_free(13)
        n = 16
        from divsym.maximal import maximal_function, sample_abs

        mx = maximal_function(sample_abs(w, n)).values.max()
        measures = []
        for lam in (mx / 1.25 * 0.7, mx / 1.25 * 0.9, mx / 1.25 * 1.01):
            measures.append(build_context(w, lam, n).bad.measure())
        assert measures[0] >= measures[1] >= measures[2]
        assert measures[2] == 0.0
