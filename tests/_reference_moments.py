"""Point-sum references for the lattice-factored moments: every node evaluated by ``eval_many``.

``_batched_moments`` is the triangle moment routine and ``averaged_taylor``
the per-cube patch loop that ``flux._lattice_moments`` replaced, kept as
the oracles it is tested against.
"""

import numpy as np

from divsym.flux import _normals

_GAUSS4 = np.polynomial.legendre.leggauss(4)


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


def _cube_quadrature(cube, period):
    """Tensor Gauss nodes/weights over the (dilated) cube, weights averaging."""
    nodes, weights = _GAUSS4
    half = cube.side / 2.0
    ax = [cube.center[d] + half * nodes for d in range(3)]
    pts = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
    ww = (weights[:, None, None] * weights[None, :, None] * weights[None, None, :]).ravel()
    return pts, ww / ww.sum()


def averaged_taylor(v, cube, degree=1):
    """The per-cube affine patch ``(value, grad)`` from node values."""
    pts, ww = _cube_quadrature(cube, v.period)
    vals = v.eval_many(pts)                       # (q, 3, 3)
    t = (pts - cube.center) / cube.side           # centered, orthogonal to 1
    mean = np.einsum("q,qab->ab", ww, vals)
    grad = np.zeros((3, 3, 3))
    if degree == 1:
        tsq = np.einsum("q,qd->d", ww, t * t)
        for d in range(3):
            grad[:, :, d] = np.einsum("q,qab->ab", ww * t[:, d], vals) / tsq[d] / cube.side
    return mean, grad
