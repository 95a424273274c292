"""Grid-evaluation kernels for the truncation assembly.

Two passes over the evaluation grid: one accumulates the bump sum S and
its derivatives up to second order at every flagged point, the second
walks the cached triangle data and accumulates the local fields into the
truncated values.

Every kernel works on flattened (cube or triple, grid point) pairs.  Each
cube or triple gets an integer box of the grid points strictly inside its
support; the boxes are expanded with ``np.repeat`` plus offsets into at
most ``_CHUNK`` pairs at a time (a larger box is one chunk of its own),
pairs at unflagged points are dropped by a ``bad_index`` lookup, the
formulas are evaluated column by column over the chunk, and the pair
results are scattered into ``out`` with ``np.add.at``.  The chunk bound
keeps the working set to a few tens of MB whatever the grid size.

The local reconstruction formula is ``_local_terms``; the pointwise
evaluator in ``truncation`` runs it on the packs of a single point.

The bump and phi derivative packs, layout [v, dx, dy, dz, dxx, dyy, dzz,
dyz, dxz, dxy], come from ``whitney``, which owns the partition; packed
symmetric outputs follow ``fields.SYM6``.
"""

from __future__ import annotations

import numpy as np

from .fields import SYM6_SLOT
from .whitney import _D2, _eta_packs, _phi_packs

# The kernels are plain numpy; the constant stays because benchmark records
# stamp the kernel backend from it.
HAVE_NUMBA = False

_CHUNK = 100_000  # pairs per evaluation chunk

# (i, j, k, sign) of the six permutations, and the cycles (alpha, beta, gamma)
_PERMS = ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
          (1, 0, 2, -1.0), (0, 2, 1, -1.0), (2, 1, 0, -1.0))
_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _grid_box(lo, hi, hm):
    """Integer sample range with (i + 1/2) hm inside the open interval (lo, hi)."""
    return (np.floor(lo / hm - 0.5).astype(np.int64) + 1,
            np.ceil(hi / hm - 0.5).astype(np.int64) - 1)


def _flagged_pairs(ilo, ihi, m, hm, bad_index):
    """Yield ``(box, x, p)`` chunks for the flagged grid points inside each box.

    ``box`` is the row of the owning box, ``x`` the point in the box's own
    (unwrapped) frame and ``p`` the flagged-point index; pairs come in box
    order, then in row-major grid order within a box.
    """
    ext = np.maximum(ihi - ilo + 1, 0)
    counts = ext.prod(axis=1)
    ends = np.cumsum(counts)
    start, nbox = 0, len(counts)
    while start < nbox:
        base = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
        box = np.repeat(np.arange(start, stop), counts[start:stop])
        off = base + np.arange(len(box)) - (ends[box] - counts[box])
        plane = ext[box, 1] * ext[box, 2]
        i0 = ilo[box, 0] + off // plane
        i1 = ilo[box, 1] + (off % plane) // ext[box, 2]
        i2 = ilo[box, 2] + off % ext[box, 2]
        p = bad_index[i0 % m, i1 % m, i2 % m]
        keep = p >= 0
        x = (np.stack([i0[keep], i1[keep], i2[keep]], axis=1) + 0.5) * hm
        yield box[keep], x, p[keep]
        start = stop


def _cube_boxes(centers, sides, hm):
    half = 0.5 * sides[:, None]
    return _grid_box(centers - half, centers + half, hm)


def accumulate_spacks(centers, sides, m, period, bad_index, out):
    """Add every cube's bump derivative pack onto the flagged grid points."""
    hm = period / m
    ilo, ihi = _cube_boxes(centers, sides, hm)
    for j, x, p in _flagged_pairs(ilo, ihi, m, hm, bad_index):
        np.add.at(out, p, _eta_packs(x, centers[j], sides[j]).T)


def accumulate_truncation(triples, tri_b, tri_g, tri_verts, sides, m, period,
                          bad_index, spacks, out):
    """Accumulate sum_k phi_k * wtilde^(k) over all cached triangles.

    ``tri_verts[t]`` holds the three cube centers unwrapped into a common
    frame; ``tri_g`` is taken in that frame, so the moment function is
    evaluated at the frame coordinates of each grid point.  Output
    components are ordered [11, 22, 33, 23, 13, 12].
    """
    hm = period / m
    half = 0.5 * sides[triples][:, :, None]
    lo = (tri_verts - half).max(axis=1)
    hi = (tri_verts + half).min(axis=1)
    ilo, ihi = _grid_box(lo, hi, hm)
    disjoint = (hi <= lo).any(axis=1)
    ihi[disjoint] = ilo[disjoint] - 1

    for t, x, p in _flagged_pairs(ilo, ihi, m, hm, bad_index):
        spk = spacks[p].T
        phi = [_phi_packs(_eta_packs(x, tri_verts[t, v], sides[triples[t, v]]), spk)
               for v in range(3)]
        acc = _local_terms(phi, [phi[v][0] for v in range(3)], tri_b[t].T, tri_g[t], x.T)
        np.add.at(out, p, acc.T)


def _amat(b, g, y):
    """Moment functions A(alpha, beta)(y) as a 3x3 nested list of pair columns.

    ``b`` is (3, pairs), ``g`` (pairs, 3, 3) and ``y`` (3, pairs), all in the
    frame of each pair's triangle; the diagonal is the scalar 0.
    """
    amat = [[0.0] * 3 for _ in range(3)]
    for a in range(3):
        for c in range(a + 1, 3):
            val = y[c] * b[a] - g[:, a, c] - y[a] * b[c] + g[:, c, a]
            amat[a][c] = val
            amat[c][a] = -val
    return amat


def _local_terms(phi, weight, b, g, y):
    """The local reconstruction formula summed over the six vertex orderings.

    ``phi[v]`` is the phi pack of the triangle's vertex v (pair columns) and
    ``weight[v]`` multiplies the orderings whose k slot is vertex v: phi_v
    itself for the truncated field, an indicator of one cube for its local
    field.  ``b``, ``g`` and ``y`` are as in ``_amat``.  Returns (6, pairs),
    components ordered [11, 22, 33, 23, 13, 12].
    """
    amat = _amat(b, g, y)
    acc = np.zeros((6, len(weight[0])))
    for pi, pj, pk, sg in _PERMS:
        di, dj = phi[pi], phi[pj]
        phik = sg * weight[pk]
        for al, be, ga in _CYCLES:
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


def accumulate_patch_curl(centers, sides, patch_c0, patch_grad, m, period, bad_index,
                          spacks, out):
    """Accumulate curl curl^T of sum_j phi_j * (affine patch_j) at flagged points.

    ``patch_c0[j]`` is the 3x3 patch value at the cube center, ``patch_grad[j]``
    its constant gradient (3x3x3, last axis the derivative direction).  Output
    components ordered [11, 22, 33, 23, 13, 12].
    """
    hm = period / m
    ilo, ihi = _cube_boxes(centers, sides, hm)
    comp = ((1, 2), (2, 0), (0, 1))  # row r of curl pairs derivative a with component b
    for j, x, p in _flagged_pairs(ilo, ihi, m, hm, bad_index):
        phi = _phi_packs(_eta_packs(x, centers[j], sides[j]), spacks[p].T)
        grad = patch_grad[j]
        d = x - centers[j]
        pv = (patch_c0[j] + grad[..., 0] * d[:, 0, None, None]
              + grad[..., 1] * d[:, 1, None, None] + grad[..., 2] * d[:, 2, None, None])

        def hess(a, b, pp, qq):
            """Second derivative d_pp d_qq of phi * (patch entry a, b)."""
            pp, qq = min(pp, qq), max(pp, qq)
            return (phi[_D2[pp, qq]] * pv[:, a, b] + phi[1 + pp] * grad[:, a, b, qq]
                    + phi[1 + qq] * grad[:, a, b, pp])

        acc = np.empty((6, len(p)))
        for r in range(3):
            a, b = comp[r]
            for sc in range(r, 3):
                cc, dd = comp[sc]
                val = hess(b, dd, a, cc) + hess(a, cc, b, dd) - hess(b, cc, a, dd) - hess(a, dd, b, cc)
                acc[SYM6_SLOT[r, sc]] = val
        np.add.at(out, p, acc.T)
