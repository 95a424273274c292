import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _loop_kernels import pack_slot
from _reference_divergence import battery_psis, divergence_battery, spiked_battery
from _reference_fields import cell_centers
from _reference_moments import _batched_moments, _triangle_moments, antisym, triangle_rule
from _reference_pointwise import (PointwiseReference, build_partition, cubes_at, phi_at, pou_eval,
                                  summation_vanish_loop)
from _subset_kernel import summation_vanish_check
from divsym import truncation
from divsym.fields import (SYM6_SLOT, PreconditionError, TrigSymField, UnsupportedOrderError,
                           project_div_free, random_field)
from divsym.flux import _moment_functions
from divsym.maximal import ScalarGrid, bad_set
from divsym.truncation import (
    TruncationContext,
    _pair_moments,
    build_context,
    divergence_defects,
    flag_bad_set,
    lambda_for_fraction,
    sample_bad_truncation,
    sym6_to_mat,
    truncate,
    verify,
)
from divsym.whitney import _cell_distance, whitney_decompose
from test_topology import triangles


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
        assert len(ctx.cover) == 0 and len(ctx.pairs) == 0 and ctx.bad.is_empty()

    def test_huge_lambda_empty(self):
        w = div_free(1)
        big = 10.0 * float(np.abs(w.max_coeff_norm())) * len(w.coeffs)
        ctx = build_context(w, big, 16)
        assert ctx.bad.is_empty()

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_lambda_must_be_positive_and_finite(self, lam):
        with pytest.raises(PreconditionError, match="lambda must be positive and finite"):
            flag_bad_set(div_free(1), lam, 16)

    def test_non_divfree_rejected(self):
        with pytest.raises(PreconditionError):
            build_context(random_field(2, 1, 1.0), 1.0, 16)

    def test_triple_count_brute_force(self, ctx):
        # all-pairs touch matrix by the same wrapped-gap predicate as _touch;
        # a triangle of touching cubes is counted once per ordering (6 times).
        # Float products stay exact: every count is far below 2^53.
        a = _touch_matrix(ctx.cover)
        assert len(ctx.triples) == int(((a @ a) * a).sum()) // 6
        np.testing.assert_array_equal(ctx.triples, triangles(a.astype(bool)))  # same rows, same order

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
        # every local field active at a flagged point is T w there
        val = truncate(ctx, bad_points(ctx, 5, seed=2))
        assert np.array_equal(val, val.swapaxes(1, 2))

    def test_transcription_oracle(self):
        # independent straight-line evaluation of the two component formulas,
        # with every flux/moment integral done by direct quadrature (no cache,
        # no sign bookkeeping), on a hand-placed three-cube cover; the package
        # side runs the pair kernel on its edge moments
        n = 16
        vals = np.zeros((n, n, n))
        for cell in [(4, 4, 4), (5, 4, 4), (5, 5, 4)]:
            vals[cell] = 1.0
        mask = bad_set(ScalarGrid(n=n, period=1.0, values=vals), 0.5)
        cover = whitney_decompose(mask)
        assert len(cover) == 3
        pou = build_partition(cover)
        w = div_free(3)
        triples = np.array([[0, 1, 2]], dtype=np.int32)
        tri_verts = np.zeros((1, 3, 3))
        tri_verts[0, 0] = cover.centers[0]
        for v in (1, 2):
            tri_verts[0, v] = cover.centers[0] + cover.wrap(cover.centers[v] - cover.centers[0])
        rule = triangle_rule(w, tri_verts)
        assert cover.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
        ctx = TruncationContext(
            w=w, lam=1.0, lam_eff=1.25, n=n, bad=mask,
            cover=cover, rule=rule, triples=triples, tri_verts=tri_verts,
            pairs=cover.pairs, pair_M=_pair_moments(w, cover),
        )
        y = (np.array([5, 4, 4]) + np.array([0.45, 0.52, 0.5])) / n
        active = cubes_at(cover, y)
        k = active[0]
        got = truncate(ctx, y)  # wtilde^(k) for every active k

        # ---- oracle: no shared machinery beyond pou_eval and quadrature ----
        def phi(j, order=(0, 0, 0)):
            return pou_eval(pou, j, y, order)

        def moments(i, j, kk):
            verts = np.array([cover.centers[0] + cover.wrap(cover.centers[t] - cover.centers[0])
                              for t in (i, j, kk)])
            _, b, g = _triangle_moments(w, verts[:1], (verts - verts[0])[None], rule, [0], [0])
            return b, g

        def B(i, j, kk, alpha):
            return moments(i, j, kk)[0][0, alpha]

        def A(i, j, kk, alpha, beta):
            b, g = moments(i, j, kk)
            yf = cover.centers[0] + cover.wrap(y - cover.centers[0])
            return float(np.squeeze(_moment_functions(b.T, antisym(g), yf[:, None])[alpha][beta]))

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
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 10:
            x = rng.random(3)
            if ctx.bad.contains(x):
                continue
            assert np.array_equal(truncate(ctx, x), ctx.w(x))
            checked += 1

    def test_empty_bad_set_identity(self):
        w = div_free(5)
        ctx = build_context(w, 1e9, 16)
        for x in np.random.default_rng(1).random((5, 3)):
            assert np.array_equal(truncate(ctx, x), w(x))

    def test_zero_field(self):
        ctx = build_context(TrigSymField({}), 1.0, 16)
        assert not truncate(ctx, np.array([0.1, 0.5, 0.9])).any()

    def test_symmetric_values(self, ctx):
        for y in bad_points(ctx, 5, seed=6):
            val = truncate(ctx, y)
            assert np.array_equal(val, val.T)

    def test_mask_cell_centres(self, ctx):
        # cell centres of the mask grid lie exactly on support edges of
        # neighbouring cubes; the evaluator must not look up their triples
        bad_index, mask_m, tvals = sample_bad_truncation(ctx, ctx.n)
        ref = PointwiseReference(ctx)
        scale = max(1.0, np.abs(tvals).max())
        for cell in np.argwhere(ctx.bad.mask)[:40]:
            x = (cell + 0.5) / ctx.n
            got = truncate(ctx, x)
            ker = sym6_to_mat(tvals[bad_index[tuple(cell)]])
            np.testing.assert_allclose(got, ker, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(got, ref(x), rtol=0, atol=1e-12 * scale)

    def test_kernel_matches_reference(self, ctx):
        m = 2 * ctx.n
        bad_index, mask_m, tvals = sample_bad_truncation(ctx, m)
        ref = PointwiseReference(ctx)
        pts = (np.argwhere(mask_m) + 0.5) / m
        rng = np.random.default_rng(8)
        scale = max(1.0, np.abs(tvals).max())
        for s in rng.choice(len(pts), size=6, replace=False):
            cell = tuple((pts[s] * m - 0.5).round().astype(int))
            got = truncate(ctx, pts[s])
            ker = sym6_to_mat(tvals[bad_index[cell]])
            np.testing.assert_allclose(got, ker, atol=1e-10 * scale)
            np.testing.assert_allclose(got, ref(pts[s]), atol=1e-10 * scale)

    def test_interior_divergence_vanishes(self):
        # pointwise solenoidality inside the bad set, by central differences
        w = div_free(7, max_freq=1)
        lam = lambda_for_fraction(w, 24, 0.3)
        ctx = build_context(w, lam, 24)
        h = 1.0 / ctx.n
        deep = np.argwhere(_cell_distance(ctx.bad.mask) > 2.5)
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
                diff = (truncate(ctx, x + e) - truncate(ctx, x - e)) / (2 * hfd)
                div += diff[:, d]
                grad_scale = max(grad_scale, np.abs(diff).max())
            assert np.abs(div).max() < 1e-4 * max(1.0, grad_scale)

    def test_norm_grid_matches_values(self, ctx):
        m = 2 * ctx.n
        _, g = verify(ctx, m)
        rng = np.random.default_rng(3)
        for _ in range(4):
            cell = rng.integers(0, m, size=3)
            x = (cell + 0.5) / m
            assert abs(g.values[tuple(cell)] - np.linalg.norm(truncate(ctx, x))) < 1e-8 * max(1.0, g.values.max())

    def test_norm_grid_sampled_once(self, ctx, monkeypatch):
        # one verify pass samples the kernel and w once each; the report and the grid read them
        kernel, comps = [], []
        sample = truncation.sample_bad_truncation
        monkeypatch.setattr(truncation, "sample_bad_truncation", lambda c, m: kernel.append(m) or sample(c, m))
        grid_components = TrigSymField.grid_components
        monkeypatch.setattr(TrigSymField, "grid_components", lambda f, m: comps.append(m) or grid_components(f, m))
        report, g = verify(ctx)
        assert kernel == comps == [2 * ctx.n] and g.n == 2 * ctx.n
        assert report["linf_ratio"] == g.values.max() / ctx.lam


class TestWeakDivergence:
    def test_empty_bad_set_exact(self):
        w = div_free(9)
        ctx = build_context(w, 1e9, 16)
        d2 = divergence_defects(ctx, 32)
        d4 = divergence_defects(ctx, 64)
        assert d2.max() < 1e-12
        assert np.all(d4 <= d2 + 1e-15)

    def test_plane_wave_pairing_matches_grid_sum(self, ctx):
        # the exact trig pairing plus the flagged correction must equal the literal midpoint sum
        m = 2 * ctx.n
        _, mask_m, tvals = sample_bad_truncation(ctx, m)
        comps = ctx.w.grid_components(m)
        comps[mask_m] = tvals
        rows = comps.reshape(-1, 6)[:, SYM6_SLOT]
        pts = cell_centers(m, ctx.period).reshape(-1, 3)
        direct = np.array([[(rows[:, a] * psi.grad(pts)).sum() / m**3 for a in range(3)]
                           for psi in battery_psis()])
        fast = divergence_defects(ctx, m)
        assert np.abs(fast - np.abs(direct)).max() < 1e-9 * max(1.0, np.abs(direct).max())

    def test_refinement_shrinks(self, ctx):
        d2 = divergence_defects(ctx, 2 * ctx.n)[0].max()
        d4 = divergence_defects(ctx, 4 * ctx.n)[0].max()
        assert d4 < d2

    def test_spiked_control_discriminates(self, ctx):
        rep, _ = verify(ctx)
        assert rep["spiked_defect"] > np.pi * ctx.lam * 0.6
        assert max(rep["div_defects"]) < rep["spiked_defect"]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 30), st.integers(1, 16), st.sampled_from([16, 20, 24]), st.sampled_from([1, 2]))
def test_battery_matches_per_wave_loop(seed, percent, n, ratio):
    w = div_free(seed)
    ctx = build_context(w, lambda_for_fraction(w, n, percent / 100), n)
    m = ratio * n
    oracle = divergence_battery(ctx, m)
    got = divergence_defects(ctx, m)
    assert np.abs(got - oracle).max() <= 1e-13 * max(1.0, oracle.max())
    assert verify(ctx)[0]["spiked_defect"] == spiked_battery(ctx).max()


class TestSummationVanish:
    def test_constant_moment_factorizes(self, ctx):
        # with the moment replaced by 1 the sum factorizes into derivative sums
        y = bad_points(ctx, 1, seed=9)[0]
        _, _, packs = phi_at(ctx.cover, y)
        for order in ((1, 0, 0), (0, 1, 0)):
            row = packs[pack_slot(order)]
            assert abs(row.sum()) ** 3 < 1e-20 * max(1.0, np.abs(row).max() ** 3)

    def test_sums_small_and_refinement_convergent(self):
        w = div_free(7)
        lam = lambda_for_fraction(w, 24, 0.08)
        fine = build_context(w, lam, 24)
        samples = bad_points(fine, 40, seed=10)
        got_f = summation_vanish_check(fine, (1, 0, 0), (0, 1, 0), (0, 0, 1), ("B", 0), samples)
        ell = fine.cover.sides.min()
        assert got_f["max_abs"] < 1e-3 * fine.lam / ell  # recorded scale, see notes

    def test_A_mode_and_skip_counting(self, ctx):
        samples = [np.array([0.0, 0.0, 0.0]), bad_points(ctx, 1, seed=11)[0]]
        if ctx.bad.contains(samples[0]):
            samples = samples[1:]
        rep = summation_vanish_check(ctx, (1, 0, 0), (1, 0, 0), (1, 0, 0), ("A", 0, 1), samples)
        assert rep["used"] >= 1
        assert np.isfinite(rep["max_abs"])

    @pytest.mark.parametrize("orders, mode", [
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("B", 0)),
        (((1, 0, 0), (1, 0, 0), (1, 0, 0)), ("A", 0, 1)),
        (((1, 1, 0), (0, 0, 2), (0, 0, 0)), ("A", 2, 2)),
    ])
    def test_batch_matches_per_sample_loop(self, ctx, orders, mode):
        # flagged points and uniform ones, some off the bad set
        samples = np.concatenate([bad_points(ctx, 40, seed=14), np.random.default_rng(15).random((20, 3))])
        totals, scales, skipped = summation_vanish_loop(ctx, *orders, mode, samples)
        rep = summation_vanish_check(ctx, *orders, mode, samples)
        assert (rep["used"], rep["skipped"]) == (len(totals), skipped)
        assert abs(rep["max_abs"] - np.abs(totals).max()) <= 1e-14 * scales.max()
        used = [y for y in samples if ctx.bad.contains(y)]
        for y, total, scale in zip(used, totals, scales):
            one = summation_vanish_check(ctx, *orders, mode, [y])["max_abs"]
            assert abs(one - abs(total)) <= 1e-14 * scale

    def test_order_cap(self, ctx):
        # the phi packs stop at second derivatives
        samples = bad_points(ctx, 2, seed=12)
        rep = summation_vanish_check(ctx, (1, 1, 0), (0, 0, 2), (0, 0, 0), ("B", 1), samples)
        assert rep["used"] == 2 and np.isfinite(rep["max_abs"])
        for orders in [((2, 1, 0), (0, 0, 0), (0, 0, 0)), ((0, 0, 0), (1, 1, 1), (0, 0, 0)),
                       ((0, 0, 0), (0, 0, 0), (0, 0, 3))]:
            with pytest.raises(UnsupportedOrderError):
                summation_vanish_check(ctx, *orders, ("B", 0), samples)


class TestVerify:
    def test_empty_bad_set(self):
        w = div_free(11)
        ctx = build_context(w, 1e9, 16)
        rep, _ = verify(ctx)
        assert rep["l1_distance"] == 0.0
        assert rep["changed_measure"] == 0.0
        assert rep["stability_ratio"] == 0.0
        assert rep["linf_ratio"] <= 1.25
        assert (rep["cover_size"], rep["triple_count"], rep["overlap"]) == (0, 0, 0)

    def test_zero_field(self):
        rep, _ = verify(build_context(TrigSymField({}), 1.0, 16))
        assert rep["linf_ratio"] == 0.0 and rep["tail_integral"] == 0.0
        assert max(rep["div_defects"]) == 0.0

    def test_report_fields_finite(self, ctx):
        d, _ = verify(ctx)
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
