"""Grid-evaluation kernel for the truncation assembly.

The kernel runs ``whitney._partition`` once over the (cube, flagged
point) pairs of the evaluation grid: each cube's box of grid points
strictly inside its support, less the unflagged points (a ``bad_index``
lookup).  It sums the local reconstruction formula ``_local_terms`` over
the 3-subsets of each point's active cubes (``whitney._active_triples``),
at most ``_CHUNK`` subsets at a time (a point with more subsets is a
chunk of its own), and scatters into ``out`` with ``np.add.at``, which
keeps the working set to a few tens of MB whatever the grid size.  The
pointwise evaluator in ``truncation`` takes the same steps at one point.
Packs follow ``whitney``'s layout and packed symmetric outputs
``fields.SYM6``.
"""

from __future__ import annotations

import numpy as np

from .fields import SYM6_SLOT
from .flux import _moment_functions
from .whitney import _D2, _active_triples, _partition, _segments

# The kernels are plain numpy; the constant stays because benchmark records
# stamp the kernel backend from it.
HAVE_NUMBA = False

_CHUNK = 100_000  # subsets per evaluation chunk

# (i, j, k, sign) of the six permutations, and the cycles (alpha, beta, gamma)
_PERMS = ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
          (1, 0, 2, -1.0), (0, 2, 1, -1.0), (2, 1, 0, -1.0))
_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _grid_partition(centers, sides, m, period, bad_index):
    """``whitney._partition`` at the flagged points ``(i + 1/2) hm`` of the m-grid.

    Each cube's box holds the grid indices strictly inside its support,
    unwrapped around its centre; points are looked up modulo m in
    ``bad_index``, which numbers the flagged points and holds -1 elsewhere.
    """
    hm = period / m
    half = 0.5 * sides[:, None]
    ilo = np.floor((centers - half) / hm - 0.5).astype(np.int64) + 1
    ext = np.maximum(np.ceil((centers + half) / hm - 0.5).astype(np.int64) - ilo, 0)
    cube, rank = _segments(ext.prod(axis=1))
    plane = ext[cube, 1] * ext[cube, 2]
    idx = ilo[cube] + np.stack([rank // plane, rank % plane // ext[cube, 2], rank % ext[cube, 2]], axis=1)
    point = bad_index[tuple((idx % m).T)]
    keep = point >= 0
    cube, idx = cube[keep], idx[keep]
    return _partition(sides, cube, point[keep], (idx + 0.5) * hm - centers[cube])


def _point_chunks(point, sizes):
    """Slices of the sorted ``point`` rows over whole points, each at most ``_CHUNK`` of ``sizes``."""
    ends = np.cumsum(sizes)
    ptr = np.searchsorted(point, np.arange(len(sizes) + 1))
    start = 0
    while start < len(sizes):
        base = ends[start] - sizes[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
        yield slice(ptr[start], ptr[stop])
        start = stop


def accumulate_truncation(triples, tri_b, tri_g, tri_verts, sides, m, period,
                          bad_index, centers, out):
    """Accumulate sum_k phi_k * wtilde^(k) over the active triples of every flagged point.

    ``tri_verts[t]`` holds the three cube centers unwrapped into a common
    frame around the first; ``tri_g`` is taken in that frame, so the moment
    function is evaluated at the frame coordinates of each grid point.
    ``centers`` are the cube centres.  Output components are ordered
    [11, 22, 33, 23, 13, 12].
    """
    cube, point, off, phi, _ = _grid_partition(centers, sides, m, period, bad_index)
    count = np.bincount(point, minlength=len(out))
    for rng in _point_chunks(point, count * (count - 1) * (count - 2) // 6):
        sub, rows = _active_triples(cube[rng], point[rng], triples, len(sides))
        sub += rng.start
        ph = [np.take(phi, sub[:, v], axis=1) for v in range(3)]
        y = tri_verts[rows, 0] + off[sub[:, 0]]
        acc = _local_terms(ph, [q[0] for q in ph], tri_b[rows].T, tri_g[rows], y.T)
        np.add.at(out, point[sub[:, 0]], acc.T)


def _local_terms(phi, weight, b, g, y):
    """The local reconstruction formula summed over the six vertex orderings.

    ``phi[v]`` is the phi pack of the triangle's vertex v (pair columns) and
    ``weight[v]`` multiplies the orderings whose k slot is vertex v: phi_v
    itself for the truncated field, an indicator of one cube for its local
    field.  ``b``, ``g`` and ``y`` are as in
    ``flux._moment_functions``.  Returns (6, pairs),
    components ordered [11, 22, 33, 23, 13, 12].
    """
    amat = _moment_functions(b, g, y)
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

