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

Every quadrature node is an anchor ``a`` plus an offset ``delta`` of a
shared shape, so each mode factors as e^{ik xi.a} e^{ik xi.delta}:
``_lattice_moments`` contracts one transfer row per shape (node sums of
e^{ik xi.delta} and delta e^{ik xi.delta}) times one phase row per anchor
with the coefficients, and never evaluates the field at a node.  Whitney
cube centres lie on the half-cell lattice, so a triangle's shape key, its
vertex offsets from the anchor cube in units of h/2, is exact after
rounding; ``truncation._triple_moments`` refuses a larger residue rather
than merge two shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TWO_PI, TrigSymField, assert_div_free

DEGENERACY_TOL = 1e-12
_CHUNK = 1 << 19  # complex entries per (rows, 4, modes) product block


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


def _triangle_moments(w, anchors, shapes, rule, anchor_of, shape_of):
    """Normals (nt, 3), fluxes B (nt, 3) and first moments G (nt, 3, 3) of triangles.

    Triangle t has vertices ``anchors[anchor_of[t]] + shapes[shape_of[t]]``.
    """
    nu = _normals(shapes)[shape_of]
    m0, m1 = _lattice_moments(w, anchors, np.einsum("qk,skd->sqd", rule.points, shapes),
                              rule.weights, anchor_of, shape_of)
    tri_b = np.einsum("tab,tb->ta", m0, nu)
    tri_g = tri_b[:, :, None] * anchors[anchor_of][:, None, :] + np.einsum("tdab,tb->tad", m1, nu)
    return nu, tri_b, tri_g


def _lattice_moments(w, anchors, offsets, weights, anchor_of, shape_of):
    """Weighted moments of ``w`` over the nodes ``anchors[anchor_of[r]] + offsets[shape_of[r]]``.

    Returns ``m0[r] = sum_q weights_q w(node_q)``, (nr, 3, 3), and
    ``m1[r, d] = sum_q weights_q offsets_qd w(node_q)``, (nr, 3, 3, 3), from
    one transfer table per shape, one phase row per anchor and chunks of
    ``(rows, modes) @ (modes, 9)`` contractions, never a per-node field value.
    """
    nr, (xis, cs) = len(anchor_of), w.mode_arrays()
    # modes pair as c(-xi) = conj c(xi), and both give one real part: keep one of each pair, doubled
    key = xis @ (2 * np.abs(xis).max(initial=0) + 1) ** np.arange(2, -1, -1)
    xis, cs = xis[key >= 0], cs[key >= 0] * (1.0 + (key[key >= 0] > 0))[:, None, None]
    out = np.zeros((nr, 4, 3, 3))
    if len(xis) and nr:
        k, nm = TWO_PI / w.period, len(xis)
        transfer = np.empty((len(offsets), 4, nm), dtype=complex)
        step = max(1, _CHUNK // (offsets.shape[1] * nm))
        for s in range(0, len(offsets), step):
            off = offsets[s:s + step]
            moment = weights * np.concatenate([np.ones(off.shape[:2] + (1,)), off], axis=2).swapaxes(1, 2)
            transfer[s:s + step] = moment @ np.exp(1j * k * (off @ xis.T))   # (s, 4, q) @ (s, q, modes)
        phase = np.exp(1j * k * (anchors @ xis.T))                          # (na, modes)
        coeffs = cs.reshape(nm, 9)
        step = max(1, _CHUNK // (4 * nm))
        for r in range(0, nr, step):
            rows = phase[anchor_of[r:r + step], None, :] * transfer[shape_of[r:r + step]]
            out[r:r + step] = (rows @ coeffs).real.reshape(-1, 4, 3, 3)
    return out[:, 0], out[:, 1:]


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
