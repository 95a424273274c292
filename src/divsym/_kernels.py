"""Evaluation kernel for the truncation assembly.

``_evaluate`` takes a batch of points: ``whitney._partition`` finds each
point's active cubes through the cover's half-cell index
(``WhitneyCover.candidates``) and their phi packs, and the local
reconstruction formula ``_local_terms`` is summed over the 3-subsets of
each point's active cubes (``whitney._active_triples``), through the
flux B and G - G^T of the triple, edge circulations by Stokes (``flux``),
at most ``_CHUNK`` subsets at a time (a point with more subsets is a chunk
of its own), and scattered into ``out`` with ``np.add.at``, which keeps the
working set to a few tens of MB whatever the grid size.  The grid kernel
``accumulate_truncation`` and the pointwise evaluators in ``truncation``
all run it.  Packs follow ``whitney``'s layout and packed symmetric
outputs ``fields.SYM6``.
"""

from __future__ import annotations

import numpy as np

from .fields import SYM6_SLOT
from .flux import _moment_functions
from .whitney import _D2, _active_triples, _partition

# The kernels are plain numpy; the constant stays because benchmark records
# stamp the kernel backend from it.
HAVE_NUMBA = False

_CHUNK = 100_000  # subsets per evaluation chunk

# (i, j, k, sign) of the six permutations, and the cycles (alpha, beta, gamma)
_PERMS = ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
          (1, 0, 2, -1.0), (0, 2, 1, -1.0), (2, 1, 0, -1.0))
_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


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
                          bad_index, cover, out):
    """Accumulate sum_k phi_k * wtilde^(k) at the flagged points ``(i + 1/2) period / m`` of the m-grid.

    ``bad_index`` numbers the flagged points in row-major order (-1 elsewhere)
    and ``out`` has a row for each.  ``tri_verts[t]`` holds the three cube
    centers unwrapped into a common frame around the first; ``tri_g`` holds
    G - G^T at ``flux.PAIRS``, taken in that frame.  ``sides`` repeats
    ``cover.sides``.  Output components are ordered [11, 22, 33, 23, 13, 12].
    """
    pts = (np.argwhere(bad_index >= 0) + 0.5) * (period / m)
    _evaluate(cover, triples, tri_b, tri_g, tri_verts, pts, lambda rows, phi: [p[0] for p in phi], out)


def _evaluate(cover, triples, tri_b, tri_g, tri_verts, pts, weight, out):
    """Add ``_local_terms`` over the active triples of each point of ``pts`` (k, 3) into ``out`` (k, 6).

    ``weight(rows, phi)`` gives the per-vertex weights of ``_local_terms``
    from the triples' rows and their vertices' phi packs.  Returns the
    active cubes, sorted by (point, cube).
    """
    cube, point, off, phi, _ = _partition(cover, pts)
    count = np.bincount(point, minlength=len(pts))
    for rng in _point_chunks(point, count * (count - 1) * (count - 2) // 6):
        sub, rows = _active_triples(cube[rng], point[rng], triples, len(cover))
        sub += rng.start
        ph = [np.take(phi, sub[:, v], axis=1) for v in range(3)]
        y = tri_verts[rows, 0] + off[sub[:, 0]]
        acc = _local_terms(ph, weight(rows, ph), tri_b[rows].T, tri_g[rows], y.T)
        np.add.at(out, point[sub[:, 0]], acc.T)
    return cube


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

