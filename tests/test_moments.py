"""Lattice-factored moments against the point-sum reference, and guards on where they run."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_moments as ref
from divsym import flux, potential_trunc, whitney
from divsym.fields import TrigSymField, potential_inverse, random_field
from divsym.flux import _collapsed_rule, _normals
from divsym.maximal import ScalarGrid, bad_set
from divsym.truncation import _triple_moments, build_context, flag_bad_set, lambda_for_fraction
from divsym.whitney import whitney_decompose
from test_potential import vt_level

# Agreement bound, relative to the largest reference entry, fixed before the
# first run.  The two sides sum the same node values in another order and
# through another factorisation of each phase, so only rounding may differ.
RTOL = 1e-12

# triples compared per example besides every wrapping and degenerate one (capped)
SAMPLE = 150
CAP = 60


def assert_close(got, want):
    scale = max(np.abs(w).max() for w in want)
    assert scale > 1e-6
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=RTOL * scale)


def wrapping(cover, triples, tri_verts):
    """Triples with a vertex unwrapped across the period from its cube's centre."""
    return np.abs(tri_verts - cover.centers[triples]).max(axis=(1, 2)) > cover.period / 2


def compare_triples(w, cover, triples):
    tri_verts, tri_b, tri_g, rule = _triple_moments(w, cover, triples)
    assert_close((tri_b, tri_g), ref._batched_moments(w, tri_verts, rule))
    return tri_verts


def compare_sampled(w, n, fraction, pick, sample=SAMPLE, cap=CAP):
    """Point sums on random triples plus every wrapping and degenerate one (capped)."""
    cover = whitney_decompose(flag_bad_set(w, lambda_for_fraction(w, n, fraction), n)[3])
    triples = cover.triples()
    if not len(triples):
        return
    anchors = cover.centers[triples[:, 0]]
    verts = anchors[:, None] + cover.wrap(cover.centers[triples] - anchors[:, None])
    rng = np.random.default_rng(pick)
    special = [np.flatnonzero(wrapping(cover, triples, verts))[:cap],
               np.flatnonzero(~_normals(verts).any(axis=1))[:cap]]
    rows = np.concatenate([rng.integers(0, len(triples), sample)] + special)
    compare_triples(w, cover, triples[rows])


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 30), st.sampled_from([16, 20, 24]), st.floats(0.01, 0.30), st.integers(0, 2**16))
def test_triangle_moments_match_point_sums(seed, n, fraction, pick):
    compare_sampled(random_field(seed, 2, 1.0, divfree=True), n, fraction, pick)


@pytest.mark.parametrize("max_freq, n", [(2, 24), (4, 24), (8, 16)])
def test_point_sums_off_dyadic_grids_and_at_high_frequency(max_freq, n):
    # h/2 = 1/48 is not a binary fraction at n = 24, and at F = 4 and 8 the
    # phase pairs (xi.v1, xi.v2) spread over far more values than at F = 2
    compare_sampled(random_field(3, max_freq, 1.0, divfree=True), n, 0.08, n, sample=40, cap=20)


def test_permuted_triples_permute_the_moments():
    w = random_field(3, 2, 1.0, divfree=True)
    cover = whitney_decompose(flag_bad_set(w, lambda_for_fraction(w, 16, 0.08), 16)[3])
    triples = cover.triples()
    perm = np.random.default_rng(1).permutation(len(triples))
    *want, rule = _triple_moments(w, cover, triples)
    *got, permuted_rule = _triple_moments(w, cover, triples[perm])
    assert np.array_equal(permuted_rule.weights, rule.weights)
    for g, v in zip(got, want, strict=True):
        assert np.array_equal(g, v[perm])


def test_wrapping_and_degenerate_triples():
    # a row of cells across the period boundary plus two off-line cells; the
    # moment code takes any index triple, so collinear and wrapped rows are chosen
    n = 16
    vals = np.zeros((n, n, n))
    for x in (13, 14, 15, 0, 1, 2):
        vals[x, 4, 4] = 1.0
    vals[0, 5, 4] = vals[15, 4, 5] = 1.0
    cover = whitney_decompose(bad_set(ScalarGrid(n=n, period=1.0, values=vals), 0.5))
    cells = {tuple(np.rint(c * n - 0.5).astype(int)): j for j, c in enumerate(cover.centers)}
    line = [cells[(x, 4, 4)] for x in (13, 14, 15, 0, 1, 2)]
    triples = np.array([line[0:3], line[1:4], line[2:5], line[3:6], [line[0], line[2], line[5]],
                        [line[2], line[3], cells[(0, 5, 4)]], [line[2], cells[(15, 4, 5)], line[4]],
                        [cells[(0, 5, 4)], line[2], cells[(15, 4, 5)]]], dtype=np.int32)
    w = random_field(4, 2, 1.0, divfree=True)
    verts = compare_triples(w, cover, triples)
    assert (~_normals(verts).any(axis=1)).tolist() == [True] * 5 + [False] * 3
    assert wrapping(cover, triples, verts).tolist() == [False, True, True, False] + [True] * 4


def test_off_lattice_centres_refused():
    n = 16
    vals = np.zeros((n, n, n))
    vals[4:7, 4, 4] = 1.0
    cover = whitney_decompose(bad_set(ScalarGrid(n=n, period=1.0, values=vals), 0.5))
    cover.centers[1] += 1e-4
    with pytest.raises(ValueError, match="lattice"):
        _triple_moments(random_field(1, 1, 1.0, divfree=True), cover,
                        np.array([[0, 1, 2]], dtype=np.int32))


@pytest.mark.parametrize("n", [16, 24, 32])
def test_shape_codes_match_row_unique(n):
    # one integer per shape row picks the same shapes in the same order as
    # np.unique over the rows, so every output is bit-identical
    w = random_field(3, 2, 1.0, divfree=True)
    cover = whitney_decompose(flag_bad_set(w, lambda_for_fraction(w, n, 0.08), n)[3])
    triples = cover.triples()
    *got, rule = _triple_moments(w, cover, triples)
    want = ref._row_unique_triple_moments(w, cover, triples, rule)
    for g, v in zip(got, want, strict=True):
        assert g.shape == v.shape and np.array_equal(g, v)


def test_shape_code_overflow_refused():
    # offsets of -64 and +63 half cells give a span of 128 and 128**9 = 2**63
    n = 64
    cover = SimpleNamespace(n=n, period=1.0, centers=np.array([[0.25, 0.25, 0.25], [0.75, 0.25, 0.25],
                                                               [0.25 + 63 / 128, 0.25, 0.25]]))
    cover.wrap = lambda delta: (np.asarray(delta) + 0.5) % 1.0 - 0.5
    with pytest.raises(ValueError, match="encode"):
        _triple_moments(random_field(1, 1, 1.0, divfree=True), cover, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("max_freq, n, nodes", [(2, 16, 64), (4, 16, 100), (8, 32, 100)])
def test_moments_match_collapsed_reference(max_freq, n, nodes):
    # B and G on the rule ``triangle_rule`` picks, against a 40 x 40 collapsed rule, relative
    # to the largest reference entry.  The rows are the largest triangle, which fixes theta
    # and so the rule of the whole cover, and a random sample of the rest.
    w = random_field(3, max_freq, 1.0, divfree=True)
    cover = whitney_decompose(flag_bad_set(w, lambda_for_fraction(w, n, 0.08), n)[3])
    triples = cover.triples()
    anchors = cover.centers[triples[:, 0], None]
    verts = anchors + cover.wrap(cover.centers[triples] - anchors)
    diameter = np.linalg.norm(verts - verts[:, [1, 2, 0]], axis=2).max(axis=1)
    rows = np.append(np.random.default_rng(n).integers(0, len(triples), 60), diameter.argmax())
    _, tri_b, tri_g, rule = _triple_moments(w, cover, triples[rows])
    assert len(rule.weights) == nodes
    _, ref_b, ref_g = ref._row_unique_triple_moments(w, cover, triples[rows], _collapsed_rule(40))
    for got, want in ((tri_b, ref_b), (tri_g, ref_g)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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


def phase_pairs(ctx):
    """Distinct (xi.v1, xi.v2), in half cells, over the shapes of ``ctx`` and one mode of each +-xi."""
    unit = ctx.period / (2 * ctx.n)
    offsets = np.rint((ctx.tri_verts[:, 1:] - ctx.tri_verts[:, :1]) / unit).astype(np.int64)
    shapes = np.unique(offsets.reshape(-1, 6), axis=0).reshape(-1, 2, 3)
    xis = np.array([xi for xi in ctx.w.coeffs if xi >= (0, 0, 0)])
    return len(np.unique((shapes @ xis.T).transpose(0, 2, 1).reshape(-1, 2), axis=0))


@pytest.mark.parametrize("n, pairs", [(16, 97), (32, 634)])
def test_phase_pair_count(n, pairs):
    # 105 shapes x 62 modes share 97 phase pairs at n = 16, 1,756 x 62 share 634 at n = 32
    w = random_field(3, 2, 1.0, divfree=True)
    assert phase_pairs(build_context(w, lambda_for_fraction(w, n, 0.08), n)) == pairs


def test_one_exponential_per_phase_pair_node_and_anchor_mode(monkeypatch):
    # the moments' exponentials: one per (distinct phase pair, node) and one per
    # (anchor cube, mode); one per (shape, mode, node) would be 105 x 62 x 64 here
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
    modes = sum(xi >= (0, 0, 0) for xi in w.coeffs)
    anchors = len(np.unique(ctx.triples[:, 0]))
    assert 0 < sum(sizes) <= phase_pairs(ctx) * len(ctx.rule.weights) + anchors * modes


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
