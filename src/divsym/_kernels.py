"""Evaluation kernel for the truncation assembly: a sum over pairs of active cubes.

The local reconstruction formula sums, over the ordered triples (i, j, k)
of a point's active cubes, phi_k F(D phi_j, D phi_i; M_ijk), F bilinear in
the derivative packs and linear in the triangle's moments M = (B, A).  The
moments are edge sums, M_ijk = -(m_ij + m_jk + m_ki), where m_ab(x) holds
the circulations e_ab and y_b e_a - y_a e_b - f_ab (y the point relative to
cube a's centre, f about that centre) and m_ba = -m_ab.  Each edge term
leaves one cube index free; summing it out with sum phi = 1,
sum D phi = 0 and sum D^2 phi = 0 leaves

    T w(x) = sum over a < b active of F(Q_ab; m_ab(x)),
    Q_ab[p, q] = u_a[p] v_b[q] - u_b[p] v_a[q],

u a cube's first and second phi derivatives and v its first ones.  The
weights drop out: an ordered pair collects (1 - phi_a - phi_b) + phi_a +
phi_b = 1, and the terms u_a v_a cancel between the two edges at a.  Any
weights summing to 1 over the active cubes drop out alike, so each cube's
local reconstruction is T w itself.

``_evaluate`` takes a batch of points, ``_POINTS`` at a time through
``whitney._partition`` (active cubes and phi packs) and
``whitney._active_pairs`` (their rows of the pair cache); the sum runs over
at most ``_CHUNK`` point pairs at a time, whole points per chunk (a point
with more pairs is a chunk of its own), scattered with ``np.bincount``.
The grid kernel ``accumulate_truncation`` and the pointwise evaluators in
``truncation`` all run it.  Packs follow ``whitney``'s layout and packed
symmetric outputs ``fields.SYM6``.
"""

from __future__ import annotations

import numpy as np

from .fields import SYM6_SLOT
from .flux import _moment_functions, _zero_mode_moments
from .whitney import _D2, _active_pairs, _partition

# The kernels are plain numpy; the constant stays because benchmark records
# stamp the kernel backend from it.
HAVE_NUMBA = False

_CHUNK = 100_000  # point pairs per evaluation chunk
_POINTS = 1 << 15  # points per partition pass

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


def accumulate_truncation(triples, pairs, pair_m, tri_verts, sides, m, period, bad_index, cover, out,
                          c0=None):
    """Add T w at the flagged points ``(i + 1/2) period / m`` of the m-grid into ``out``.

    ``bad_index`` numbers the flagged points in row-major order (-1 elsewhere)
    and ``out`` has a row for each.  ``pairs`` and ``pair_m`` are the pair
    cache and ``c0`` the zero mode, as in ``_evaluate``.  ``triples``,
    ``tri_verts`` and ``sides`` are not read: the benchmark's tracer counts
    triangle-point pairs from them.  Output components are ordered
    [11, 22, 33, 23, 13, 12].
    """
    pts = (np.argwhere(bad_index >= 0) + 0.5) * (period / m)
    _evaluate(cover, pairs, pair_m, c0, pts, out)


def _evaluate(cover, pairs, pair_m, c0, pts, out):
    """Add the pair sum at each point of ``pts`` (k, 3) into ``out`` (k, 6).

    ``pairs`` (np, 2) are sorted cube pairs i < j and ``pair_m`` (np, 6)
    their circulations e and f (``flux.PAIRS``) along centre i -> centre j,
    f about centre i; ``c0`` is the zero mode (3, 3) or None.  A pair of
    active cubes missing from ``pairs`` raises ``KeyError``.
    """
    for lo in range(0, len(pts), _POINTS):
        cube, point, off, phi, _ = _partition(cover, pts[lo:lo + _POINTS])
        count = np.bincount(point, minlength=min(_POINTS, len(pts) - lo))
        for rng in _point_chunks(point, count * (count - 1) // 2):
            ia, ib, rows = _active_pairs(cube[rng], point[rng], pairs, len(cover))
            if not len(rows):
                continue
            ia += rng.start
            ib += rng.start
            e, f = pair_m[rows, :3], pair_m[rows, 3:]
            flux = e.T
            if c0 is not None:  # its potentials put the point at the origin: no y terms
                e0, f0 = _zero_mode_moments(c0, -off[ia], -off[ib])
                flux, f = (e + e0).T, f + f0
            amat = _moment_functions(e.T, f, off[ia].T)
            acc = _pair_terms(np.take(phi, ia, axis=1), np.take(phi, ib, axis=1), flux, amat)
            first = point[rng.start]
            span = int(point[rng.stop - 1]) + 1 - first
            for c in range(6):
                out[lo + first:lo + first + span, c] += np.bincount(point[ia] - first, acc[c], minlength=span)


def _pair_terms(pa, pb, b, amat):
    """F(Q_ab; m_ab) for the point pairs with phi packs ``pa``, ``pb`` (10, pairs).

    ``b`` (3, pairs) and ``amat`` (``flux._moment_functions``) hold m_ab.
    F is one ordering's cycle body of the triple formula with each product
    dj[p] * di[q] replaced by Q[p][q]: 42 terms over 18 distinct (p, q).
    Returns (6, pairs), components ordered [11, 22, 33, 23, 13, 12].
    """
    cache = {}

    def q(p, r):
        if (p, r) not in cache:
            cache[p, r] = pa[p] * pb[1 + r] - pb[p] * pa[1 + r]
        return cache[p, r]

    acc = np.empty((6, pa.shape[1]))
    for al, be, ga in _CYCLES:
        a_bega, a_gaal, a_albe = amat[be][ga], amat[ga][al], amat[al][be]
        nd = 3.0 * (q(1 + ga, al) * b[al] + q(1 + be, ga) * b[be])
        nd += (q(_D2[be, ga], ga) - q(_D2[ga, ga], be)) * a_bega
        nd += (q(_D2[al, ga], ga) - q(_D2[ga, ga], al)) * a_gaal
        nd += (q(_D2[al, ga], be) + q(_D2[be, ga], al) - 2.0 * q(_D2[al, be], ga)) * a_albe
        acc[SYM6_SLOT[al, be]] = nd

        dd = 6.0 * q(1 + be, ga) * b[al]
        dd += 2.0 * (q(_D2[ga, ga], be) - q(_D2[be, ga], ga)) * a_gaal
        dd += 2.0 * (q(_D2[be, be], ga) - q(_D2[be, ga], be)) * a_albe
        acc[al] = dd
    return acc
