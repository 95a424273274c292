"""Triangle flux and moment integrals over simplices of cube centers.

``B[alpha]`` is the average of ``w_alpha(xi) . nu`` over the triangle (the
area-weighted normal makes this the actual flux of row alpha), and
``G[alpha, beta]`` the first moment ``avg of xi_beta * (w_alpha . nu)``.
From these the moment function is affine in the evaluation point:

    A(alpha, beta)(y) = y_beta B_alpha - G_ab - y_alpha B_beta + G_ba

Quadrature is one collapsed (Duffy) Gauss-Legendre rule: k x k nodes
(u, v) map to barycentric (1 - s - t, s, t), s = u, t = (1 - u) v, with
positive weights w_u w_v (1 - u), exact to total degree 2k - 2.
``triangle_rule`` sets k = ceil(6 + 0.7 theta) from the largest phase
swing theta = (2 pi / period) max|xi| diameter over the triangles: at
every theta measured in [1, 15] that is at least the smallest k bringing
single triangles in random phase directions to 1e-14 (k = 8 for the
seed-3 field at n = 16).  The rule is not symmetric under vertex
permutations and need not be: the moments are computed once per sorted
triple, and ``_kernels._PERMS`` gives the other orderings their signs.

Every quadrature node of a triangle is its anchor ``a`` plus
``s v1 + t v2``, where v1, v2 are the second and third vertices of its
shape (the first is 0), so each mode factors as
e^{2 pi i xi.a / L} e^{2 pi i (s xi.v1 + t xi.v2) / L} on the period L,
and ``_triangle_moments`` never evaluates the field at a node:

- a (shape, mode) pair enters only through its phase pair
  (xi.v1, xi.v2), with the shapes given in multiples of ``unit``; the
  table holds the node sums of e^{ic(s a + t b)} [1, s, t],
  c = 2 pi unit / L, once per distinct pair (a, b), and the first moments
  follow as v1 I_s + v2 I_t.  Whitney cube centres lie on the half-cell
  lattice, so ``truncation._triple_moments`` passes shapes in units of
  h/2, exact small integers (it refuses a larger residue rather than
  merge two shapes), and the pairs deduplicate exactly at any n: 97
  distinct pairs serve 105 shapes x 62 modes of the seed-3 field at
  n = 16;
- the phase rows cos, sin of 2 pi xi.a / L are built for the cubes that
  anchor a triangle only;
- triangles are taken shape by shape: the coefficients folded with the
  shape's normal, c(xi) nu, and with its table rows make one real
  (2 modes x 12) matrix, and one GEMM with the anchors' phase rows gives
  B and the offset part of G, to which B a^T is added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TWO_PI, TrigSymField, assert_div_free

DEGENERACY_TOL = 1e-12


@dataclass
class QuadratureRule:
    """Barycentric nodes and averaging weights (summing to 1) on the triangle."""

    points: np.ndarray   # (q, 3) barycentric
    weights: np.ndarray  # (q,), sum 1

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")


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
    """Area-weighted normals of (nt, 3, 3) triangles; zero rows where degenerate."""
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


def _moment_functions(b, g, y):
    """A(alpha, beta)(y) as a 3x3 nested list of columns, one per triangle; the diagonal is 0.

    ``b`` is (3, triangles), ``g`` (triangles, 3, 3) and ``y`` (3, triangles), each in its triangle's frame.
    """
    amat = [[0.0] * 3 for _ in range(3)]
    for a in range(3):
        for c in range(a + 1, 3):
            val = y[c] * b[a] - g[:, a, c] - y[a] * b[c] + g[:, c, a]
            amat[a][c] = val
            amat[c][a] = -val
    return amat


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
    a = np.broadcast_to(_moment_functions(b, g, np.asarray(y, dtype=float)[:, None])[alpha][beta], 4)
    return float(a[0] - a[1] - a[2] - a[3])
