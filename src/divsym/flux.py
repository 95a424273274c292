"""Triangle flux and moment integrals over simplices of cube centers.

``B[alpha]`` is the average of ``w_alpha(xi) . nu`` over the triangle (the
area-weighted normal makes this the actual flux of row alpha), and
``G[alpha, beta]`` the first moment ``avg of xi_beta * (w_alpha . nu)``.
From these the moment function is affine in the evaluation point:

    A(alpha, beta)(y) = y_beta B_alpha - G_ab - y_alpha B_beta + G_ba

Quadrature is Grundmann-Moller: fully symmetric under vertex permutations
(so the antisymmetry of B and A under index swaps is exact up to rounding)
with polynomial degree 2s+1 at C(s+3,3) nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .fields import PreconditionError, TrigSymField, assert_div_free

DEGENERACY_TOL = 1e-12


@dataclass
class QuadratureRule:
    """Barycentric nodes and averaging weights (summing to 1) on the triangle."""

    points: np.ndarray   # (q, 3) barycentric
    weights: np.ndarray  # (q,), sum 1
    degree: int

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")


def grundmann_moeller(s: int) -> QuadratureRule:
    """Symmetric simplex rule of degree 2s+1 on the triangle (d = 2)."""
    d = 2
    points, weights = [], []
    for i in range(s + 1):
        denom = d + 1 + 2 * (s - i)
        w = (
            (-1.0) ** i
            * 2.0 ** (-2 * s)
            * float(denom) ** (2 * s + 1)
            / (factorial(i) * factorial(d + 2 * s + 1 - i))
        )
        for k0 in range(s - i + 1):
            for k1 in range(s - i - k0 + 1):
                k2 = s - i - k0 - k1
                points.append([(2 * k0 + 1) / denom, (2 * k1 + 1) / denom, (2 * k2 + 1) / denom])
                weights.append(w)
    points = np.array(points)
    weights = np.array(weights)
    # Grundmann-Moller weights integrate against volume 1/d!; renormalize to averages
    weights = weights / weights.sum()
    return QuadratureRule(points=points, weights=weights, degree=2 * s + 1)


def rule_for_degree(degree: int) -> QuadratureRule:
    """Smallest Grundmann-Moller rule of polynomial degree >= ``degree``."""
    return grundmann_moeller(max(0, degree // 2))


def normal(x_i, x_j, x_k, tol=DEGENERACY_TOL):
    """Area-weighted normal ``0.5 (x_i - x_j) x (x_k - x_j)``; zero if degenerate."""
    verts = np.stack([np.asarray(v, dtype=float) for v in (x_i, x_j, x_k)])
    return _normals(verts[None], tol)[0]


def _normals(tri_verts, tol=DEGENERACY_TOL):
    """Area-weighted normals of (nt, 3, 3) triangles; zero rows where degenerate."""
    e_ij = tri_verts[:, 0] - tri_verts[:, 1]
    e_kj = tri_verts[:, 2] - tri_verts[:, 1]
    nu = 0.5 * np.cross(e_ij, e_kj)
    edges = np.stack([
        np.linalg.norm(e_ij, axis=1),
        np.linalg.norm(e_kj, axis=1),
        np.linalg.norm(tri_verts[:, 0] - tri_verts[:, 2], axis=1),
    ]).max(axis=0)
    nu[np.linalg.norm(nu, axis=1) < tol * edges**2] = 0.0
    return nu


@dataclass
class TriangleMoments:
    """Cached flux vector and first moments of one triangle of centers."""

    vertices: np.ndarray  # (3, 3) rows x_i, x_j, x_k in a common frame
    nu: np.ndarray        # (3,)
    B: np.ndarray         # (3,)
    G: np.ndarray         # (3, 3)

    @property
    def degenerate(self):
        return not self.nu.any()


def triangle_moments(w: TrigSymField, x_i, x_j, x_k, rule: QuadratureRule) -> TriangleMoments:
    """Flux vector B and moment matrix G of ``w`` over one triangle.

    Degenerate simplices get all-zero data by convention.  Vertices are taken
    verbatim (no wrapping): callers on the torus unwrap them into a common
    frame first, and must evaluate ``A`` in the same frame.
    """
    verts = np.stack([np.asarray(v, dtype=float) for v in (x_i, x_j, x_k)])
    b, g = _batched_moments(w, verts[None], rule)
    return TriangleMoments(vertices=verts, nu=_normals(verts[None])[0], B=b[0], G=g[0])


def _batched_moments(w, tri_verts, rule):
    """Flux vectors (nt, 3) and first moments (nt, 3, 3) of (nt, 3, 3) triangles."""
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


def eval_A(m: TriangleMoments, y, alpha: int, beta: int) -> float:
    """The affine moment function at ``y`` (same frame as the cached triangle)."""
    y = np.asarray(y, dtype=float)
    return float(y[beta] * m.B[alpha] - m.G[alpha, beta] - y[alpha] * m.B[beta] + m.G[beta, alpha])


def _tetra_defect(w, x_i, x_j, x_k, x_l, rule, extract):
    m_ijk = triangle_moments(w, x_i, x_j, x_k, rule)
    m_ljk = triangle_moments(w, x_l, x_j, x_k, rule)
    m_ilk = triangle_moments(w, x_i, x_l, x_k, rule)
    m_ijl = triangle_moments(w, x_i, x_j, x_l, rule)
    return extract(m_ijk) - extract(m_ljk) - extract(m_ilk) - extract(m_ijl)


def gauss_green_defect_B(w: TrigSymField, x_i, x_j, x_k, x_l, alpha: int, rule: QuadratureRule) -> float:
    """Closed-surface flux combination over the tetrahedron; zero for exact moments."""
    assert_div_free(w, what="gauss_green_defect_B input")
    return float(_tetra_defect(w, x_i, x_j, x_k, x_l, rule, lambda m: m.B[alpha]))


def gauss_green_defect_A(w: TrigSymField, x_i, x_j, x_k, x_l, y, alpha: int, beta: int, rule: QuadratureRule) -> float:
    """Same four-term combination for the moment function evaluated at ``y``."""
    assert_div_free(w, what="gauss_green_defect_A input")
    return float(_tetra_defect(w, x_i, x_j, x_k, x_l, rule, lambda m: eval_A(m, y, alpha, beta)))
