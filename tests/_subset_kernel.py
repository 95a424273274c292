"""The 3-subset truncation kernel that the pair kernel of ``divsym._kernels`` replaced, kept as its oracle.

- ``triple_moments``: each sorted triple's flux B and G - G^T, assembled
  from the three rows of ``truncation._pair_moments`` on its sides, in a
  frame around the triple's first cube: side 12 gets the lattice shift
  a_b e_a - a_a e_b where the frame puts vertex 1 a lattice vector a from
  its cube, and a zero mode c0 adds c0 nu and the centroid term;
- ``active_triples``: the 3-subsets of each point's active cubes and their
  triple rows;
- ``local_terms``: the local reconstruction formula summed over a
  triangle's six vertex orderings, each ordering's k slot weighted;
- ``subset_evaluate``: ``local_terms`` over every subset of each point,
  scattered with ``np.add.at``;
- ``subset_truncation`` and ``subset_local_field``: a context's T w and
  wtilde^(k) by that route, with the triple moments cached per context;
- ``summation_vanish_check``: the triple partition-derivative sums against
  B or A, which vanish at flagged points.
"""

import numpy as np

from divsym._kernels import _point_chunks
from divsym.fields import SYM6_SLOT
from divsym.flux import _AL, _BE, CENTROID, _moment_functions
from divsym.truncation import _pair_moments, sym6_to_mat
from divsym.whitney import _D2, _pack_slot, _partition, _segments

# (i, j, k, sign) of the six permutations, and the cycles (alpha, beta, gamma)
PERMS = ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
         (1, 0, 2, -1.0), (0, 2, 1, -1.0), (2, 1, 0, -1.0))
CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def triple_moments(w, cover, triples):
    """Vertices unwrapped next to the anchor cube's centre (nt, 3, 3), fluxes B (nt, 3) and G - G^T (nt, 3).

    The triple's frame puts its sides 01 and 02 on their pairs' segments
    and side 12 a lattice vector a from its pair's.  A side missing from
    the pairs raises ``KeyError``; centres off the half-cell lattice, or a
    side 12 that the frame wraps apart from its pair, ``ValueError``.
    """
    pairs, unit = cover.pairs, cover.period / (2 * cover.n)
    edges = _pair_moments(w, cover)
    start, off = cover.centers[pairs[:, 0]], cover.wrap(cover.centers[pairs[:, 1]] - cover.centers[pairs[:, 0]])
    edges[:, 3:] += start[:, _BE] * edges[:, _AL] - start[:, _AL] * edges[:, _BE]   # f about the origin
    offsets = np.rint(off / unit).astype(np.int64)
    nc, t = len(cover.centers), triples.astype(np.int64)
    keys, want = pairs[:, 0] * nc + pairs[:, 1], t[:, [0, 0, 1]] * nc + t[:, [1, 2, 2]]
    side = np.searchsorted(keys, want)
    miss = np.append(keys, -1)[side] != want
    if miss.any():
        raise KeyError(f"{int(miss.any(axis=1).sum())} triples with a side missing from the cover's pairs")
    s01, s02, s12 = side.T
    if (offsets[s02] - offsets[s01] != offsets[s12]).any():
        raise ValueError("a triple's frame wraps its side 12 apart from the pair's offset")
    tri_verts = np.stack([cover.centers[triples[:, 0]], start[s01] + off[s01], start[s02] + off[s02]], axis=1)
    tri = edges[s02] - edges[s01]
    tri -= edges[s12]
    tri_b, tri_g = tri[:, :3], tri[:, 3:]
    lattice = np.rint((start + off - cover.centers[pairs[:, 1]]) / cover.period) * cover.period
    wraps = np.flatnonzero(lattice.any(axis=1)[s01])
    a, e12 = lattice[s01[wraps]], edges[s12[wraps]]
    tri_g[wraps] -= a[:, _BE] * e12[:, _AL] - a[:, _AL] * e12[:, _BE]
    c0 = w.coeffs.get((0, 0, 0))
    if c0 is not None:
        nu = -0.5 * unit**2 * np.cross(offsets[s01], offsets[s02])     # exact zeros on collinear triples
        b0 = nu @ c0.real.T
        centroid = np.einsum("q,qv,tvd->td", CENTROID.weights, CENTROID.points, tri_verts)
        tri_b += b0
        tri_g += centroid[:, _BE] * b0[:, _AL] - centroid[:, _AL] * b0[:, _BE]
    return tri_verts, tri_b, tri_g


def active_triples(cube, point, triples, nc):
    """The 3-subsets of each point's active cubes: ``(sub, rows)``.

    ``cube`` and ``point`` are pair rows sorted by (point, cube), as
    ``whitney._partition`` returns them, and ``triples`` the sorted rows of
    a cover of ``nc`` cubes.  ``sub`` (nsub, 3) holds the pair indices of
    each subset in increasing cube order, points in turn, and ``rows`` the
    triple each subset is; a subset missing from the triples raises
    ``KeyError``.
    """
    end = np.searchsorted(point, point, side="right")
    first, rank = _segments(end - np.arange(len(point)) - 1)
    second = first + 1 + rank
    pair, rank = _segments(end[second] - second - 1)
    sub = np.stack([first[pair], second[pair], second[pair] + 1 + rank], axis=1)
    keys, want = (np.ravel_multi_index(t.T, (nc,) * 3) for t in (triples, cube[sub]))
    rows = np.searchsorted(keys, want)
    miss = np.append(keys, -1)[rows] != want
    if miss.any():
        raise KeyError(f"{int(miss.sum())} triples of active cubes, first {cube[sub[miss][0]].tolist()}, "
                       "missing from the moment cache")
    return sub, rows


def local_terms(phi, weight, b, g, y):
    """The local reconstruction formula summed over the six vertex orderings.

    ``phi[v]`` is the phi pack of the triangle's vertex v (subset columns)
    and ``weight[v]`` multiplies the orderings whose k slot is vertex v:
    phi_v itself for the truncated field, an indicator of one cube for its
    local field.  ``b``, ``g`` and ``y`` are as in
    ``flux._moment_functions``.  Returns (6, subsets), components ordered
    [11, 22, 33, 23, 13, 12].
    """
    amat = _moment_functions(b, g, y)
    acc = np.zeros((6, len(weight[0])))
    for pi, pj, pk, sg in PERMS:
        di, dj = phi[pi], phi[pj]
        phik = sg * weight[pk]
        for al, be, ga in CYCLES:
            a_bega, a_gaal, a_albe = amat[be][ga], amat[ga][al], amat[al][be]
            nd = 3.0 * (dj[1 + ga] * di[1 + al] * b[al] + dj[1 + be] * di[1 + ga] * b[be])
            nd += (dj[_D2[be, ga]] * di[1 + ga] - dj[_D2[ga, ga]] * di[1 + be]) * a_bega
            nd += (dj[_D2[al, ga]] * di[1 + ga] - dj[_D2[ga, ga]] * di[1 + al]) * a_gaal
            nd += (dj[_D2[al, ga]] * di[1 + be] + dj[_D2[be, ga]] * di[1 + al]
                   - 2.0 * dj[_D2[al, be]] * di[1 + ga]) * a_albe
            acc[SYM6_SLOT[al, be]] += phik * nd

            dd = 6.0 * dj[1 + be] * di[1 + ga] * b[al]
            dd += 2.0 * (dj[_D2[ga, ga]] * di[1 + be] - dj[_D2[be, ga]] * di[1 + ga]) * a_gaal
            dd += 2.0 * (dj[_D2[be, be]] * di[1 + ga] - dj[_D2[be, ga]] * di[1 + be]) * a_albe
            acc[al] += phik * dd
    return acc


def subset_evaluate(cover, triples, tri_b, tri_g, tri_verts, pts, weight, out):
    """Add ``local_terms`` over the active triples of each point of ``pts`` (k, 3) into ``out`` (k, 6).

    ``weight(rows, phi)`` gives the per-vertex weights of ``local_terms``
    from the triples' rows and their vertices' phi packs.  Subsets run in
    chunks of whole points (``_kernels._point_chunks``).  Returns the
    active cubes, sorted by (point, cube).
    """
    cube, point, off, phi, _ = _partition(cover, pts)
    count = np.bincount(point, minlength=len(pts))
    for rng in _point_chunks(point, count * (count - 1) * (count - 2) // 6):
        sub, rows = active_triples(cube[rng], point[rng], triples, len(cover))
        sub += rng.start
        ph = [np.take(phi, sub[:, v], axis=1) for v in range(3)]
        y = tri_verts[rows, 0] + off[sub[:, 0]]
        acc = local_terms(ph, weight(rows, ph), tri_b[rows].T, tri_g[rows], y.T)
        np.add.at(out, point[sub[:, 0]], acc.T)
    return cube


def subset_moments(ctx):
    """``triple_moments`` of the context's triples, (tri_b, tri_g), computed once per context."""
    if "subset_moments" not in ctx._caches:
        ctx._caches["subset_moments"] = triple_moments(ctx.w, ctx.cover, ctx.triples)[1:]
    return ctx._caches["subset_moments"]


def subset_truncation(ctx, pts):
    """T w at the flagged points ``pts`` (k, 3) by the subset route: packed (k, 6)."""
    out = np.zeros((len(pts), 6))
    subset_evaluate(ctx.cover, ctx.triples, *subset_moments(ctx), ctx.tri_verts, np.asarray(pts, dtype=float),
                    lambda rows, phi: [p[0] for p in phi], out)
    return out


def subset_local_field(ctx, k, y):
    """wtilde^(k) at ``y`` by the subset route: the orderings with cube k in their k slot, weighted 1."""
    out = np.zeros((1, 6))
    subset_evaluate(ctx.cover, ctx.triples, *subset_moments(ctx), ctx.tri_verts,
                    np.asarray(y, dtype=float)[None],
                    lambda rows, phi: [(ctx.triples[rows, v] == k).astype(float) for v in range(3)], out)
    return sym6_to_mat(out[0])


def summation_vanish_check(ctx, a, b, c, mode, samples):
    """Max over samples of the triple partition-derivative sums against B or A.

    ``mode`` is ``("B", alpha)`` or ``("A", alpha, beta)``; ``a`` weights
    phi_k, ``b`` weights phi_j, ``c`` weights phi_i, each a derivative
    multi-index of total order <= 2 (the phi packs' range).  Samples
    outside the bad set are skipped (counted in the returned report).
    """
    sa, sb, sc = (_pack_slot(o) for o in (a, b, c))
    pts = np.asarray(list(samples), dtype=float).reshape(-1, 3)
    if ctx.cover is None:
        return {"max_abs": 0.0, "used": 0, "skipped": len(pts)}
    used = pts[ctx.bad.contains(pts)]
    tri_b, tri_g = subset_moments(ctx)
    cube, point, off, phi, _ = _partition(ctx.cover, used)
    sub, rows = active_triples(cube, point, ctx.triples, len(ctx.cover))
    if mode[0] == "B":
        val = tri_b[rows, mode[1]]
    else:
        yf = ctx.tri_verts[rows, 0] + off[sub[:, 0]]
        val = _moment_functions(tri_b[rows].T, tri_g[rows], yf.T)[mode[1]][mode[2]]
    ph = [np.take(phi, sub[:, v], axis=1) for v in range(3)]
    total = sum(sg * (ph[pk][sa] * ph[pj][sb] * ph[pi][sc] * val) for pi, pj, pk, sg in PERMS)
    sums = np.bincount(point[sub[:, 0]], total, minlength=len(used))
    return {"max_abs": float(np.abs(sums).max(initial=0.0)), "used": len(used),
            "skipped": len(pts) - len(used)}
