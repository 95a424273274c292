"""The triangle quadrature oracle for the edge-circulation moments of ``divsym.flux``.

The moments were once computed by quadrature on each triangle; that code
lives here as the reference the closed forms are tested against:

- ``_collapsed_rule``: the k x k collapsed (Duffy) Gauss-Legendre rule,
  nodes (u, v) mapped to barycentric (1 - s - t, s, t) with s = u,
  t = (1 - u) v and positive weights w_u w_v (1 - u), exact to total
  degree 2k - 2;
- ``triangle_rule``: k = ceil(6 + 0.7 theta) from the largest phase swing
  theta = (2 pi / period) max|xi| diameter over the triangles, which keeps
  single triangles in random phase directions within 1e-14 for theta in
  [1, 15];
- ``_triangle_moments``: the lattice-factored quadrature.  Every node of a
  triangle is its anchor plus s v1 + t v2, so each mode factors into the
  anchor's phase and a table of node sums per distinct phase pair
  (xi.v1, xi.v2), and one GEMM per shape gives B and G;
- ``_batched_moments``: the same integrals with every node evaluated by
  ``eval_many``, the check on the factoring;
- ``gauss_green_defect_A`` and ``_B``: the closed-surface combinations
  over a tetrahedron's four faces, zero for exact moments;
- ``edge_moments_loop``: ``flux._edge_moments`` offset by offset, each
  offset's (2 modes x 6) matrix built on its own, the check on the batch.

G comes back as the full (nt, 3, 3) first moment; ``antisym`` gives the
three entries of G - G^T in ``flux.PAIRS`` order that the kernel reads.
"""

import numpy as np

from divsym.fields import TWO_PI, TrigSymField, assert_div_free
from divsym.flux import _AL, _BE, PAIRS, QuadratureRule, _moment_functions, _segment_integrals

DEGENERACY_TOL = 1e-12


def antisym(g):
    """The entries (alpha, beta) of ``flux.PAIRS`` of G - G^T, (nt, 3), from first moments (nt, 3, 3)."""
    return np.stack([g[:, a, b] - g[:, b, a] for a, b in PAIRS], axis=1)


def _collapsed_rule(k: int) -> QuadratureRule:
    """The k x k collapsed Gauss-Legendre rule, exact to total degree 2k - 2; all weights positive."""
    x, wx = np.polynomial.legendre.leggauss(k)
    x, wx = (x + 1.0) / 2.0, wx / 2.0
    s = np.repeat(x, k)
    t = (1.0 - s) * np.tile(x, k)
    weights = np.outer(wx * (1.0 - x), wx).ravel()
    return QuadratureRule(points=np.stack([1.0 - s - t, s, t], axis=1), weights=weights / weights.sum())


def triangle_rule(w: TrigSymField, triangles) -> QuadratureRule:
    """The rule for the modes of ``w`` on the triangles (..., 3, 3): k = ceil(6 + 0.7 theta)."""
    tri = np.asarray(triangles, dtype=float).reshape(-1, 3, 3)
    diameter = np.linalg.norm(tri - tri[:, [1, 2, 0]], axis=2).max(initial=0.0)
    freq = np.linalg.norm(w.mode_arrays()[0], axis=1).max(initial=0.0)
    theta = TWO_PI / w.period * freq * diameter
    return _collapsed_rule(int(np.ceil(6.0 + 0.7 * theta)))


def _normals(tri_verts):
    """Area-weighted normals (v0 - v1) x (v2 - v1) / 2 of (nt, 3, 3) triangles; zero rows where degenerate."""
    e_ij = tri_verts[:, 0] - tri_verts[:, 1]
    e_kj = tri_verts[:, 2] - tri_verts[:, 1]
    nu = 0.5 * np.cross(e_ij, e_kj)
    edges = np.stack([
        np.linalg.norm(e_ij, axis=1),
        np.linalg.norm(e_kj, axis=1),
        np.linalg.norm(tri_verts[:, 0] - tri_verts[:, 2], axis=1),
    ]).max(axis=0)
    nu[np.linalg.norm(nu, axis=1) < DEGENERACY_TOL * edges**2] = 0.0
    return nu


def _triangle_moments(w, anchors, shapes, rule, anchor_of, shape_of, unit=1.0):
    """Normals (nt, 3), fluxes B (nt, 3) and first moments G (nt, 3, 3) of triangles.

    Triangle t has vertices ``anchors[anchor_of[t]] + unit * shapes[shape_of[t]]``, and
    the first vertex of every shape is 0.
    """
    shapes, shape_of = np.asarray(shapes, dtype=float), np.asarray(shape_of)
    nu, (xis, cs) = _normals(shapes * unit), w.mode_arrays()
    # modes pair as c(-xi) = conj c(xi), and both give one real part: keep one of each pair, doubled
    key = xis @ (2 * np.abs(xis).max(initial=0) + 1) ** np.arange(2, -1, -1)
    xis, cs = xis[key >= 0], cs[key >= 0] * (1.0 + (key[key >= 0] > 0))[:, None, None]
    out = np.zeros((len(shape_of), 3, 4))   # row alpha: B_alpha, then G_alpha
    if len(xis) and len(shape_of):
        c, s, t = TWO_PI / w.period, rule.points[:, 1], rule.points[:, 2]
        ab = shapes[:, 1:] @ xis.T                                      # (shapes, 2, modes)
        pairs, pair_of = np.unique(ab[:, 0] + 1j * ab[:, 1], return_inverse=True)
        table = np.exp(1j * c * unit * (np.outer(pairs.real, s) + np.outer(pairs.imag, t)))
        table = table @ (rule.weights[:, None] * np.stack([np.ones_like(s), s, t], axis=1))   # (pairs, 3)
        used, anchor_row = np.unique(anchor_of, return_inverse=True)
        anchors = anchors[used]
        phase = 1j * c * (anchors @ xis.T)
        phase = np.exp(phase, out=phase).view(float)                    # (anchors, modes x [cos, sin])
        order = np.argsort(shape_of, kind="stable")
        bounds = np.searchsorted(shape_of[order], np.arange(len(shapes) + 1))
        for k in np.flatnonzero(np.diff(bounds)):
            rows = order[bounds[k]:bounds[k + 1]]
            tab = table[pair_of.reshape(len(shapes), -1)[k]]             # (modes, 3): I, I_s, I_t
            moment = np.concatenate([tab[:, :1], tab[:, 1:] @ shapes[k, 1:] * unit], axis=1)
            fold = (cs @ nu[k])[:, :, None] * moment[:, None]           # (modes, alpha, 4)
            block = phase[anchor_row[rows]] @ np.stack([fold.real, -fold.imag], axis=1).reshape(-1, 12)
            block = block.reshape(-1, 3, 4)
            block[:, :, 1:] += block[:, :, :1] * anchors[anchor_row[rows], None]
            out[rows] = block
    return nu[shape_of], out[:, :, 0], out[:, :, 1:]


def triangle_oracle(w, cover, triples, rule=None):
    """Unwrapped vertices (nt, 3, 3), B (nt, 3), G - G^T (nt, 3) and the rule, by quadrature.

    The vertices are the cube centres unwrapped next to the first; shapes are
    their offsets rounded to half cells, keyed by ``np.unique`` over rows.
    The rule defaults to ``triangle_rule``'s pick for the shapes.
    """
    anchors = cover.centers[triples[:, 0], None]
    off = cover.wrap(cover.centers[triples] - anchors)
    unit = cover.period / (2 * cover.n)
    shapes, shape_of = np.unique(np.rint(off / unit).reshape(-1, 9), axis=0, return_inverse=True)
    shapes = shapes.reshape(-1, 3, 3)
    rule = triangle_rule(w, shapes * unit) if rule is None else rule
    _, tri_b, tri_g = _triangle_moments(w, cover.centers, shapes, rule, triples[:, 0], shape_of.ravel(), unit)
    return anchors + off, tri_b, antisym(tri_g), rule


def _batched_moments(w, tri_verts, rule):
    """Flux vectors (nt, 3) and first moments (nt, 3, 3) of (nt, 3, 3) triangles, node by node."""
    nt = tri_verts.shape[0]
    if nt == 0:
        return np.zeros((0, 3)), np.zeros((0, 3, 3))
    nu = _normals(tri_verts)
    q = len(rule.weights)
    pts = np.einsum("qk,tkd->tqd", rule.points, tri_verts).reshape(nt * q, 3)
    nmodes = max(1, len(w.coeffs))
    chunk = max(1, int(4.0e6 / nmodes))
    vals = np.empty((nt * q, 3, 3))
    for start in range(0, nt * q, chunk):
        vals[start:start + chunk] = w.eval_many(pts[start:start + chunk])
    vals = vals.reshape(nt, q, 3, 3)
    flux = np.einsum("tqab,tb->tqa", vals, nu)
    tri_b = np.einsum("q,tqa->ta", rule.weights, flux)
    tri_g = np.einsum("q,tqb,tqa->tab", rule.weights, pts.reshape(nt, q, 3), flux)
    return tri_b, tri_g


# the faces ijk, ljk, ilk, ijl of a tetrahedron ijkl: the closed-surface sum is face 0 minus the rest
_FACES = np.array([(0, 1, 2), (3, 1, 2), (0, 3, 2), (0, 1, 3)])


def _face_moments(w, x_i, x_j, x_k, x_l):
    """Fluxes B (3, faces) and first moments G (faces, 3, 3) of the four ``_FACES``."""
    faces = np.array([x_i, x_j, x_k, x_l], dtype=float)[_FACES]
    _, tri_b, tri_g = _triangle_moments(w, faces[:, 0], faces - faces[:, :1], triangle_rule(w, faces),
                                        np.arange(4), np.arange(4))
    return tri_b.T, tri_g


def gauss_green_defect_B(w: TrigSymField, x_i, x_j, x_k, x_l, alpha: int) -> float:
    """Closed-surface flux combination over the tetrahedron; zero for exact moments."""
    assert_div_free(w, what="gauss_green_defect_B input")
    b = _face_moments(w, x_i, x_j, x_k, x_l)[0][alpha]
    return float(b[0] - b[1] - b[2] - b[3])


def gauss_green_defect_A(w: TrigSymField, x_i, x_j, x_k, x_l, y, alpha: int, beta: int) -> float:
    """Same four-term combination for the moment function evaluated at ``y``."""
    assert_div_free(w, what="gauss_green_defect_A input")
    b, g = _face_moments(w, x_i, x_j, x_k, x_l)
    a = np.broadcast_to(_moment_functions(b, antisym(g), np.asarray(y, dtype=float)[:, None])[alpha][beta], 4)
    return float(a[0] - a[1] - a[2] - a[3])


def edge_moments_loop(w, starts, start_of, offsets, unit):
    """``flux._edge_moments`` with one matrix and one GEMM per distinct offset, built in turn."""
    xis, cs = w.mode_arrays()
    key = xis @ (2 * np.abs(xis).max(initial=0) + 1) ** np.arange(2, -1, -1)
    xis, cs = xis[key > 0], 2.0 * cs[key > 0]
    out = np.zeros((len(start_of), 6))
    if not len(xis) or not len(start_of):
        return out
    k = TWO_PI / w.period
    inv = 1j / (k * (xis * xis).sum(axis=1))[:, None, None]
    psi = np.cross(xis[:, None], cs) * inv
    eye = np.eye(3)
    r = np.cross(eye[_BE], psi[:, _AL]) - np.cross(eye[_AL], psi[:, _BE])
    rho = np.cross(xis[:, None], r) * inv
    used, start_row = np.unique(start_of, return_inverse=True)
    phase = 1j * k * (starts[used] @ xis.T)
    phase = np.exp(phase, out=phase).view(float)
    low = offsets.min(initial=0)
    span = int(offsets.max(initial=0) - low) + 1
    _, group = np.unique((offsets - low) @ span ** np.arange(2, -1, -1), return_inverse=True)
    for rows in np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1]):
        d = offsets[rows[0]] * unit
        e0, e1 = (v[:, None] for v in _segment_integrals(k * unit * (xis @ offsets[rows[0]])))
        pd = psi @ d
        coeff = np.concatenate([e0 * pd, e1 * (d[_BE] * pd[:, _AL] - d[_AL] * pd[:, _BE]) - e0 * (rho @ d)], axis=1)
        out[rows] = phase[start_row[rows]] @ np.stack([coeff.real, -coeff.imag], axis=1).reshape(-1, 6)
    return out
