"""Point-sum reference for the lattice-factored moments: every node evaluated by ``eval_many``.

``_batched_moments`` is the triangle moment routine that the lattice
factoring of ``flux._triangle_moments`` replaced, kept as the oracle it is
tested against.
``_row_unique_triple_moments`` is ``truncation._triple_moments`` as it keyed
triangle shapes before the integer codes: ``np.unique`` over whole rows.
"""

import numpy as np

from divsym.flux import _normals, _triangle_moments


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



def _row_unique_triple_moments(w, cover, triples, rule):
    """Unwrapped vertices (nt, 3, 3), fluxes and first moments; shapes keyed by row-unique."""
    anchors = cover.centers[triples[:, 0], None]
    off = cover.wrap(cover.centers[triples] - anchors)
    unit = cover.period / (2 * cover.n)
    shapes, shape_of = np.unique(np.rint(off / unit).reshape(-1, 9), axis=0, return_inverse=True)
    _, tri_b, tri_g = _triangle_moments(w, cover.centers, shapes.reshape(-1, 3, 3), rule,
                                        triples[:, 0], shape_of.ravel(), unit)
    return anchors + off, tri_b, tri_g
