"""Edge-circulation moments against the triangle quadrature oracle, and guards on where they run."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_moments as ref
from _subset_kernel import triple_moments
from divsym import flux, potential_trunc, whitney
from divsym.fields import TrigSymField, potential_inverse, random_field
from divsym.maximal import ScalarGrid, bad_set
from divsym.truncation import _pair_moments, build_context, flag_bad_set, lambda_for_fraction
from divsym.whitney import whitney_decompose
from test_potential import vt_level

# Agreement bound, relative to the largest reference entry, fixed before the
# first run.  Both sides are exact formulas up to rounding: the closed forms
# here, a quadrature accurate to about 1e-14 of the largest entry there.
RTOL = 1e-13

# random triples compared per example besides every wrapping and collinear one
SAMPLE = 150

# a constant symmetric field, and one plane wave to add to it
CONSTANT = np.array([[1.0, 0.3, -0.2], [0.3, -0.5, 0.7], [-0.2, 0.7, 0.4]])


def assert_close(got, want):
    scale = max(np.abs(w).max() for w in want)
    assert scale > 1e-6
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=RTOL * scale)


def cover_of(w, n, fraction):
    return whitney_decompose(flag_bad_set(w, lambda_for_fraction(w, n, fraction), n)[3])


def special(cover, triples, tri_verts):
    """Wrapping triples (a vertex unwrapped across the period from its cube's centre) and collinear ones."""
    wrapping = np.abs(tri_verts - cover.centers[triples]).max(axis=(1, 2)) > cover.period / 2
    collinear = ~ref._normals(tri_verts).any(axis=1)
    return wrapping, collinear


def compare_oracle(w, cover, pick=None):
    """Edge moments of the cover's triples against the quadrature oracle.

    Every triple, or with ``pick`` a random sample plus every wrapping and every collinear one.
    """
    triples = cover.triples()
    tri_verts, tri_b, tri_g = triple_moments(w, cover, triples)
    rows = np.arange(len(triples))
    if pick is not None:
        wrapping, collinear = special(cover, triples, tri_verts)
        rows = np.concatenate([np.random.default_rng(pick).integers(0, len(triples), SAMPLE),
                               np.flatnonzero(wrapping | collinear)])
    want_verts, *want, _ = ref.triangle_oracle(w, cover, triples[rows])
    assert np.array_equal(tri_verts[rows], want_verts)
    assert_close((tri_b[rows], tri_g[rows]), want)
    return triples, tri_verts


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 30), st.sampled_from([0.04, 0.08, 0.16]), st.sampled_from([24, 40]), st.sampled_from([2, 8]),
       st.integers(0, 2**16))
def test_edge_moments_match_triangle_oracle(seed, fraction, n, max_freq, pick):
    # off-dyadic grids (h/2 = 1/48 and 1/80 are not binary fractions); at F = 2 the
    # covers take a second level and with it collinear triples
    w = random_field(seed, max_freq, 1.0, divfree=True)
    cover = cover_of(w, n, fraction)
    if len(cover.triples()):
        compare_oracle(w, cover, pick)


@functools.cache
def seed3(max_freq):
    """The seed-3 field at ``max_freq``, drawn once (35,937 modes take about a second at F = 16)."""
    return random_field(3, max_freq, 1.0, divfree=True)


@pytest.mark.parametrize("n", [16, 24, 32])
@pytest.mark.parametrize("max_freq", [2, 8, 16])
def test_edge_moments_on_every_triple(n, max_freq):
    compare_oracle(seed3(max_freq), cover_of(seed3(max_freq), n, 0.08))


@pytest.mark.parametrize("modes", [{}, {(1, 2, 0): None}], ids=["constant", "constant-plus-wave"])
def test_constant_field(modes):
    # the zero mode has no potential: its B is C nu and its G - G^T the centroid term;
    # the cover is the seed-3 one at n = 24 and 16 %, which has collinear triples
    coeffs = {(0, 0, 0): CONSTANT.astype(complex)}
    for xi in modes:
        c = np.zeros((3, 3), dtype=complex)
        c[2, 2] = 0.4 - 0.3j                     # xi = (1, 2, 0) is orthogonal to e_3
        coeffs[xi] = c
    w = TrigSymField(coeffs)
    _, tri_verts = compare_oracle(w, cover_of(seed3(2), 24, 0.16))
    assert (~ref._normals(tri_verts).any(axis=1)).sum() == 9


@pytest.mark.parametrize("max_freq, n, nodes", [(2, 16, 64), (4, 16, 100), (8, 32, 100)])
def test_moments_match_collapsed_reference(max_freq, n, nodes):
    # the oracle's accuracy: B and G - G^T on the rule ``triangle_rule`` picks, against a
    # 40 x 40 collapsed rule, relative to the largest reference entry.  The rows are the
    # largest triangle, which fixes theta and so the rule of the whole cover, and a
    # random sample of the rest.
    w = random_field(3, max_freq, 1.0, divfree=True)
    cover = cover_of(w, n, 0.08)
    triples = cover.triples()
    anchors = cover.centers[triples[:, 0], None]
    verts = anchors + cover.wrap(cover.centers[triples] - anchors)
    diameter = np.linalg.norm(verts - verts[:, [1, 2, 0]], axis=2).max(axis=1)
    rows = np.append(np.random.default_rng(n).integers(0, len(triples), 60), diameter.argmax())
    _, tri_b, tri_g, rule = ref.triangle_oracle(w, cover, triples[rows])
    assert len(rule.weights) == nodes
    _, ref_b, ref_g, _ = ref.triangle_oracle(w, cover, triples[rows], ref._collapsed_rule(40))
    for got, want in ((tri_b, ref_b), (tri_g, ref_g)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def phase_pairs(ctx):
    """Distinct (xi.v1, xi.v2), in half cells, over the shapes of ``ctx`` and one mode of each +-xi."""
    unit = ctx.period / (2 * ctx.n)
    offsets = np.rint((ctx.tri_verts[:, 1:] - ctx.tri_verts[:, :1]) / unit).astype(np.int64)
    shapes = np.unique(offsets.reshape(-1, 6), axis=0).reshape(-1, 2, 3)
    xis = np.array([xi for xi in ctx.w.coeffs if xi >= (0, 0, 0)])
    return len(np.unique((shapes @ xis.T).transpose(0, 2, 1).reshape(-1, 2), axis=0))


@pytest.mark.parametrize("n, pairs", [(16, 97), (32, 634)])
def test_phase_pair_count(n, pairs):
    # the size of the oracle's node table: 105 shapes x 62 modes share 97 phase pairs
    # at n = 16, 1,756 x 62 share 634 at n = 32
    w = random_field(3, 2, 1.0, divfree=True)
    assert phase_pairs(build_context(w, lambda_for_fraction(w, n, 0.08), n)) == pairs


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 30), st.sampled_from([16, 20, 24]), st.floats(0.01, 0.30), st.integers(0, 2**16))
def test_triangle_moments_match_point_sums(seed, n, fraction, pick):
    # the oracle's own check: its lattice factoring against every node evaluated by eval_many
    w = random_field(seed, 2, 1.0, divfree=True)
    cover = cover_of(w, n, fraction)
    triples = cover.triples()
    if not len(triples):
        return
    rows = np.random.default_rng(pick).integers(0, len(triples), SAMPLE)
    tri_verts, tri_b, tri_g, rule = ref.triangle_oracle(w, cover, triples[rows])
    want_b, want_g = ref._batched_moments(w, tri_verts, rule)
    assert_close((tri_b, tri_g), (want_b, ref.antisym(want_g)))


@pytest.mark.parametrize("max_freq, n", [(2, 24), (4, 24), (8, 16)])
def test_point_sums_off_dyadic_grids_and_at_high_frequency(max_freq, n):
    # the edge moments against node-by-node quadrature: h/2 = 1/48 is not a binary
    # fraction at n = 24, and at F = 4 and 8 the phase swings are large
    w = random_field(3, max_freq, 1.0, divfree=True)
    cover = cover_of(w, n, 0.08)
    triples = cover.triples()
    tri_verts, tri_b, tri_g = triple_moments(w, cover, triples)
    rows = np.random.default_rng(n).integers(0, len(triples), 40)
    want_b, want_g = ref._batched_moments(w, tri_verts[rows], ref.triangle_rule(w, tri_verts[rows]))
    assert_close((tri_b[rows], tri_g[rows]), (want_b, ref.antisym(want_g)))


def test_permuted_triples_permute_the_moments():
    w = random_field(3, 2, 1.0, divfree=True)
    cover = cover_of(w, 16, 0.08)
    triples = cover.triples()
    perm = np.random.default_rng(1).permutation(len(triples))
    want = triple_moments(w, cover, triples)
    got = triple_moments(w, cover, triples[perm])
    for g, v in zip(got, want, strict=True):
        assert np.array_equal(g, v[perm])


def test_wrapping_and_degenerate_triples():
    # a 6 x 6 x 6 block of cells across the x boundary: two level-1 cubes among
    # level-0 ones give collinear triples, and the block's wrap puts vertex 1 of
    # many triples a period away from its cube's centre
    n = 16
    vals = np.zeros((n, n, n))
    vals[[13, 14, 15, 0, 1, 2], 2:8, 2:8] = 1.0
    cover = whitney_decompose(bad_set(ScalarGrid(n=n, period=1.0, values=vals), 0.5))
    assert np.bincount(cover.levels).tolist() == [200, 2]
    w = random_field(4, 2, 1.0, divfree=True)
    triples, tri_verts = compare_oracle(w, cover)
    wrapping, collinear = special(cover, triples, tri_verts)
    vertex1 = np.abs(tri_verts[:, 1] - cover.centers[triples[:, 1]]).max(axis=1) > 0.5
    assert (collinear.sum(), vertex1.sum()) == (8, 836) and wrapping.sum() > vertex1.sum()


def test_off_lattice_centres_refused():
    n = 16
    vals = np.zeros((n, n, n))
    vals[4:7, 4, 4] = 1.0
    cover = whitney_decompose(bad_set(ScalarGrid(n=n, period=1.0, values=vals), 0.5))
    cover.centers[1] += 1e-4
    with pytest.raises(ValueError, match="lattice"):
        _pair_moments(random_field(1, 1, 1.0, divfree=True), cover)


def test_triple_with_a_side_off_the_pairs_refused():
    # cubes 0 and 2 of a row of three level-0 cubes do not intersect
    n = 16
    vals = np.zeros((n, n, n))
    vals[4:7, 4, 4] = 1.0
    cover = whitney_decompose(bad_set(ScalarGrid(n=n, period=1.0, values=vals), 0.5))
    assert cover.pairs.tolist() == [[0, 1], [1, 2]]
    with pytest.raises(KeyError, match="pairs"):
        triple_moments(random_field(1, 1, 1.0, divfree=True), cover, np.array([[0, 1, 2]], dtype=np.int32))


def test_triple_wrapped_apart_refused():
    # x = 0, 13/32 and 19/32 pairwise within 13/32 of each other around the period:
    # the frame of cube 0 puts cube 2 at -13/32, 26/32 from cube 1 where the pair says 6/32
    cover = SimpleNamespace(n=16, period=1.0, centers=np.array([[0.0, 0, 0], [13 / 32, 0, 0], [19 / 32, 0, 0]]),
                            pairs=np.array([[0, 1], [0, 2], [1, 2]]))
    cover.wrap = lambda delta: (np.asarray(delta) + 0.5) % 1.0 - 0.5
    with pytest.raises(ValueError, match="wraps"):
        triple_moments(random_field(1, 1, 1.0, divfree=True), cover, np.array([[0, 1, 2]], dtype=np.int32))


def test_no_point_sums(monkeypatch):
    # the moments come from mode tables, never from field values at nodes
    calls = []
    original = TrigSymField.eval_many

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TrigSymField, "eval_many", counted)
    w = random_field(3, 2, 1.0, divfree=True)
    ctx = build_context(w, lambda_for_fraction(w, 16, 0.08), 16)
    assert len(ctx.triples)
    assert calls == []


def test_one_exponential_per_start_mode_and_offset_mode(monkeypatch):
    # the moments' exponentials: one per (start cube, mode) and one per (offset, mode);
    # the quadrature took one per (shape, mode, node)
    sizes = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, **kwargs):
            sizes.append(np.size(x))
            return np.exp(x, **kwargs)

    monkeypatch.setattr(flux, "np", CountingNumpy())
    w = random_field(3, 2, 1.0, divfree=True)
    ctx = build_context(w, lambda_for_fraction(w, 16, 0.08), 16)
    modes = sum(xi > (0, 0, 0) for xi in w.coeffs)
    unit = ctx.period / (2 * ctx.n)
    offsets = np.rint(ctx.cover.wrap(np.diff(ctx.cover.centers[ctx.cover.pairs], axis=1)[:, 0]) / unit)
    starts, groups = len(np.unique(ctx.cover.pairs[:, 0])), len(np.unique(offsets, axis=0))
    assert groups == 26
    assert 0 < sum(sizes) <= (starts + groups) * modes


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 30), st.sampled_from([16, 24, 32]), st.sampled_from([0.04, 0.08, 0.16]), st.sampled_from([2, 4]))
def test_batched_edge_moments_match_per_offset_loop(seed, n, fraction, max_freq):
    # every distinct offset's matrix comes from one batch; the loop builds them offset by offset
    w = random_field(seed, max_freq, 1.0, divfree=True)
    cover = cover_of(w, n, fraction)
    unit = cover.period / (2 * cover.n)
    offsets = np.rint(cover.wrap(np.diff(cover.centers[cover.pairs], axis=1)[:, 0]) / unit).astype(np.int64)
    args = (w, cover.centers, cover.pairs[:, 0], offsets, unit)
    want = ref.edge_moments_loop(*args)
    assert np.abs(want).max() > 1e-6
    np.testing.assert_allclose(flux._edge_moments(*args), want, rtol=0, atol=1e-15 * np.abs(want).max())


def test_compare_stops_at_the_mask(monkeypatch):
    # the comparison reads the two bad sets only: it builds no cover on either side
    covers = []
    build = whitney.WhitneyCover.__post_init__

    def counted(cover):
        covers.append(cover)
        build(cover)

    monkeypatch.setattr(whitney.WhitneyCover, "__post_init__", counted)
    w = random_field(3, 2, 1.0, divfree=True)
    lam = lambda_for_fraction(w, 16, 0.08)
    rep = potential_trunc.stability_comparison(w, lam, 16)
    assert covers == []
    mask = flag_bad_set(w, lam, 16)[3]
    assert rep["geometric"]["bad_fraction"] == float(mask.mask.mean())
    potential = bad_set(ScalarGrid(n=16, period=1.0, values=vt_level(potential_inverse(w))), lam)
    assert rep["potential"]["bad_fraction"] == float(potential.mask.mean())
    whitney_decompose(mask)   # the counter sees a cover that is built
    assert len(covers) == 1


def test_context_frames_match_the_oracle():
    # the context keeps the triples' frames for the benchmark's tracer, without their moments
    w = random_field(3, 2, 1.0, divfree=True)
    ctx = build_context(w, lambda_for_fraction(w, 16, 0.08), 16)
    assert ctx.pairs is ctx.cover.pairs
    assert np.array_equal(ctx.tri_verts, triple_moments(w, ctx.cover, ctx.triples)[0])
