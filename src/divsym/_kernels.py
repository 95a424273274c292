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
The sizes keep each pass's temporaries cache-resident: a row of a chunk
is 80 KB, one of a partition pass (4 to 7 active cubes per point) 130 to
230 KB.  In a sweep at n = 32 and n = 64 (2-core Xeon, 2 MB L2 per core)
they cut the kernel stage by 21 to 27 % against 100,000 pairs and
32,768 points, and halving or doubling both moved it by under 4 %.
Chunks hold whole points, so no size changes a point's summation order.
The grid kernel ``accumulate_truncation`` and the pointwise evaluator
``truncation.truncate`` both run it.  Packs follow ``whitney``'s layout and
packed symmetric outputs ``fields.SYM6``.
"""

from __future__ import annotations

import numpy as np

from .fields import SYM6_SLOT
from .flux import _moment_functions, _zero_mode_moments
from .whitney import _D2, _active_pairs, _partition

# The kernels are plain numpy; the constant stays because benchmark records
# stamp the kernel backend from it.
HAVE_NUMBA = False

_CHUNK = 10_000  # point pairs per evaluation chunk
_POINTS = 1 << 12  # points per partition pass

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
    active cubes missing from ``pairs`` raises ``KeyError``.  Gathers run
    along rows of component-major copies, so every operand is contiguous.
    """
    keys = np.append(pairs[:, 0] * len(cover) + pairs[:, 1], len(cover) ** 2)
    pair_m = np.ascontiguousarray(pair_m.T)
    for lo in range(0, len(pts), _POINTS):
        cube, point, off, phi, _ = _partition(cover, pts[lo:lo + _POINTS])
        off, phi = np.ascontiguousarray(off.T), phi[1:]  # phi itself (row 0) is never read
        count = np.bincount(point, minlength=min(_POINTS, len(pts) - lo))
        for rng in _point_chunks(point, count * (count - 1) // 2):
            ia, ib, rows = _active_pairs(cube[rng], point[rng], keys, len(cover))
            if not len(rows):
                continue
            ia += rng.start
            ib += rng.start
            moments = np.take(pair_m, rows, axis=1)
            e, f, y = moments[:3], moments[3:], np.take(off, ia, axis=1)
            flux = e
            if c0 is not None:  # its potentials put the point at the origin: no y terms
                e0, f0 = _zero_mode_moments(c0, -y.T, -np.take(off, ib, axis=1).T)
                flux = e + e0.T
                f += f0.T
            packs = np.take(phi, np.concatenate([ia, ib]), axis=1)
            acc = _pair_terms(packs[:, :len(ia)], packs[:, len(ia):], flux, _moment_functions(e, f.T, y))
            first = point[rng.start]
            span = int(point[rng.stop - 1]) + 1 - first
            at, dest = point[ia] - first, out[lo + first:lo + first + span]
            for c in range(6):
                dest[:, c] += np.bincount(at, acc[c], minlength=span)


def _pair_terms(pa, pb, b, amat):
    """F(Q_ab; m_ab) for the point pairs with phi packs ``pa``, ``pb`` (9, pairs), row 0 dropped.

    ``b`` (3, pairs) and ``amat`` (``flux._moment_functions``) hold m_ab.
    F is one ordering's cycle body of the triple formula with each product
    dj[p] * di[q] replaced by Q[p][q]: 42 terms over 18 distinct (p, q).
    Returns (6, pairs), components ordered [11, 22, 33, 23, 13, 12].
    """
    size = pa.shape[1]
    acc, qs, tmp, scratch = np.empty((6, size)), np.empty((18, size)), np.empty(size), np.empty(size)
    cache = {}

    def q(p, r):
        if (p, r) not in cache:
            val = cache[p, r] = np.multiply(pa[p - 1], pb[r], out=qs[len(cache)])
            val -= np.multiply(pb[p - 1], pa[r], out=scratch)
        return cache[p, r]

    for al, be, ga in _CYCLES:
        a_bega, a_gaal, a_albe = amat[be][ga], amat[ga][al], amat[al][be]
        nd = acc[SYM6_SLOT[al, be]]
        np.multiply(q(1 + ga, al), b[al], out=nd)
        nd += np.multiply(q(1 + be, ga), b[be], out=tmp)
        nd *= 3.0
        nd += np.multiply(np.subtract(q(_D2[be, ga], ga), q(_D2[ga, ga], be), out=tmp), a_bega, out=tmp)
        nd += np.multiply(np.subtract(q(_D2[al, ga], ga), q(_D2[ga, ga], al), out=tmp), a_gaal, out=tmp)
        np.add(q(_D2[al, ga], be), q(_D2[be, ga], al), out=tmp)
        tmp -= np.multiply(2.0, q(_D2[al, be], ga), out=scratch)
        nd += np.multiply(tmp, a_albe, out=tmp)

        dd = acc[al]
        np.multiply(6.0, q(1 + be, ga), out=dd)
        dd *= b[al]
        dd += np.multiply(np.multiply(2.0, np.subtract(q(_D2[ga, ga], be), q(_D2[be, ga], ga), out=tmp), out=tmp),
                          a_gaal, out=tmp)
        dd += np.multiply(np.multiply(2.0, np.subtract(q(_D2[be, be], ga), q(_D2[be, ga], be), out=tmp), out=tmp),
                          a_albe, out=tmp)
    return acc
