"""Scalar-loop reference for the array kernels in ``divsym._kernels``.

Straight per-point loops over every cube or triple and every grid point in
its support, with their own bump evaluation, kept apart from the code under
test.  Fill-``out``-in-place semantics as the kernels; where the kernels
sum the S packs themselves (``whitney._partition``), the loops take them
from ``accumulate_spacks`` as an argument.
Slow (about 0.3 ms per pair); use on small grids only.

``grid_partition`` is the per-cube box walk the kernel used before the
cover's half-cell index: array code, the oracle for the pair rows that
``whitney._partition`` finds through ``WhitneyCover.candidates``.

Pack layout per point: [v, dx, dy, dz, dxx, dyy, dzz, dyz, dxz, dxy];
``pack_slot`` gives the slot of a derivative multi-index.
"""

import math

import numpy as np

from divsym.fields import UnsupportedOrderError, _check_order
from divsym.whitney import _D2, BUMP_CORE, BUMP_SUPP, SUPPORT_MARGIN, _eta_packs, _phi_packs, _segments

_TRANS = BUMP_SUPP - BUMP_CORE


def pack_slot(order):
    """Pack slot of the derivative multi-index ``order``; packs stop at total order 2."""
    axes = [d for d, k in enumerate(_check_order(order)) for _ in range(k)]
    if len(axes) > 2:
        raise UnsupportedOrderError(f"phi packs hold derivatives up to order 2, not {tuple(order)}")
    if len(axes) == 2:
        return int(_D2[axes[0], axes[1]])
    return 1 + axes[0] if axes else 0


def _bump012(t):
    """Bump value and first two derivatives w.r.t. the normalized coordinate."""
    u = abs(t)
    if u <= BUMP_CORE:
        return 1.0, 0.0, 0.0
    if u >= BUMP_SUPP:
        return 0.0, 0.0, 0.0
    s = (u - BUMP_CORE) / _TRANS
    one = 1.0 - s
    b0 = 1.0 - s**5 * (126.0 + s * (-420.0 + s * (540.0 + s * (-315.0 + s * 70.0))))
    b1 = -630.0 * s**4 * one**4 / _TRANS
    b2 = -2520.0 * s**3 * one**3 * (1.0 - 2.0 * s) / _TRANS**2
    if t < 0.0:
        b1 = -b1
    return b0, b1, b2


def grid_partition(centers, sides, m, period, bad_index):
    """The partition at the flagged points ``(i + 1/2) hm`` of the m-grid: ``(cube, point, off, phi, s)``.

    Each cube's box holds the grid indices strictly inside its support,
    unwrapped around its centre; points are looked up modulo m in
    ``bad_index``, which numbers the flagged points and holds -1 elsewhere.
    Pairs within ``SUPPORT_MARGIN`` of the support's edge are dropped and
    the rest sorted by (point, cube), as ``whitney._partition`` returns them.
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
    cube, point, off = cube[keep], point[keep], (idx[keep] + 0.5) * hm - centers[cube[keep]]
    keep = (np.abs(off) < sides[cube, None] / 2.0 - SUPPORT_MARGIN).all(axis=1)
    order = np.flatnonzero(keep)[np.lexsort((cube[keep], point[keep]))]
    cube, point, off = cube[order], point[order], off[order]
    eta = _eta_packs(off, 0.0, sides[cube])
    s = np.stack([np.bincount(point, row, minlength=int((bad_index >= 0).sum())) for row in eta])
    return cube, point, off, _phi_packs(eta, np.take(s, point, axis=1)), s


def _axis_range(center, half, hm):
    """Integer sample range with (i + 1/2) hm inside (center - half, center + half)."""
    lo = int(math.floor((center - half) / hm - 0.5)) + 1
    hi = int(math.ceil((center + half) / hm - 0.5)) - 1
    return lo, hi


def accumulate_spacks(centers, sides, m, period, bad_index, out):
    """Add every cube's bump derivative pack onto the flagged grid points."""
    hm = period / m
    nc = centers.shape[0]
    for j in range(nc):
        s = sides[j]
        half = 0.5 * s
        lo0, hi0 = _axis_range(centers[j, 0], half, hm)
        lo1, hi1 = _axis_range(centers[j, 1], half, hm)
        lo2, hi2 = _axis_range(centers[j, 2], half, hm)
        for i0 in range(lo0, hi0 + 1):
            x0 = (i0 + 0.5) * hm
            a0, a1, a2 = _bump012((x0 - centers[j, 0]) / s)
            if a0 == 0.0 and a1 == 0.0 and a2 == 0.0:
                continue
            ii0 = ((i0 % m) + m) % m
            for i1 in range(lo1, hi1 + 1):
                x1 = (i1 + 0.5) * hm
                b0, b1, b2 = _bump012((x1 - centers[j, 1]) / s)
                if b0 == 0.0 and b1 == 0.0 and b2 == 0.0:
                    continue
                ii1 = ((i1 % m) + m) % m
                for i2 in range(lo2, hi2 + 1):
                    x2 = (i2 + 0.5) * hm
                    p = bad_index[ii0, ii1, ((i2 % m) + m) % m]
                    if p < 0:
                        continue
                    c0, c1, c2 = _bump012((x2 - centers[j, 2]) / s)
                    if c0 == 0.0 and c1 == 0.0 and c2 == 0.0:
                        continue
                    out[p, 0] += a0 * b0 * c0
                    out[p, 1] += a1 * b0 * c0 / s
                    out[p, 2] += a0 * b1 * c0 / s
                    out[p, 3] += a0 * b0 * c1 / s
                    out[p, 4] += a2 * b0 * c0 / (s * s)
                    out[p, 5] += a0 * b2 * c0 / (s * s)
                    out[p, 6] += a0 * b0 * c2 / (s * s)
                    out[p, 7] += a0 * b1 * c1 / (s * s)
                    out[p, 8] += a1 * b0 * c1 / (s * s)
                    out[p, 9] += a1 * b1 * c0 / (s * s)


def _eta_pack(x0, x1, x2, c0, c1, c2, s, pack):
    a0, a1, a2 = _bump012((x0 - c0) / s)
    b0, b1, b2 = _bump012((x1 - c1) / s)
    g0, g1, g2 = _bump012((x2 - c2) / s)
    pack[0] = a0 * b0 * g0
    pack[1] = a1 * b0 * g0 / s
    pack[2] = a0 * b1 * g0 / s
    pack[3] = a0 * b0 * g1 / s
    pack[4] = a2 * b0 * g0 / (s * s)
    pack[5] = a0 * b2 * g0 / (s * s)
    pack[6] = a0 * b0 * g2 / (s * s)
    pack[7] = a0 * b1 * g1 / (s * s)
    pack[8] = a1 * b0 * g1 / (s * s)
    pack[9] = a1 * b1 * g0 / (s * s)


def _phi_pack(eta, spk, out):
    """Quotient derivatives of phi = eta / S up to second order."""
    s0 = spk[0]
    v = eta[0] / s0
    out[0] = v
    for d in range(3):
        out[1 + d] = (eta[1 + d] - v * spk[1 + d]) / s0
    # second derivatives: index map (d,e) -> 4..9 as in the pack layout
    pairs = ((0, 0, 4), (1, 1, 5), (2, 2, 6), (1, 2, 7), (0, 2, 8), (0, 1, 9))
    for d, e, q in pairs:
        out[q] = (eta[q] - out[1 + d] * spk[1 + e] - out[1 + e] * spk[1 + d] - v * spk[q]) / s0


def _d2(pack, d, e):
    if d == e:
        return pack[4 + d]
    if (d == 1 and e == 2) or (d == 2 and e == 1):
        return pack[7]
    if (d == 0 and e == 2) or (d == 2 and e == 0):
        return pack[8]
    return pack[9]


def accumulate_truncation(triples, tri_b, tri_g, tri_verts, sides, m, period,
                          bad_index, spacks, out):
    """Accumulate sum_k phi_k * wtilde^(k) over all cached triangles.

    ``tri_verts[t]`` holds the three cube centers unwrapped into a common
    frame; ``tri_g`` holds G - G^T at (0, 1), (0, 2) and (1, 2), taken in
    that frame, so the moment function is evaluated at the frame coordinates
    of each grid point.  Output
    components are ordered [11, 22, 33, 23, 13, 12].
    """
    hm = period / m
    nt = triples.shape[0]
    perm_i = (0, 1, 2, 1, 0, 2)
    perm_j = (1, 2, 0, 0, 2, 1)
    perm_k = (2, 0, 1, 2, 1, 0)
    perm_s = (1.0, 1.0, 1.0, -1.0, -1.0, -1.0)
    cyc_a = (0, 1, 2)
    cyc_b = (1, 2, 0)
    cyc_g = (2, 0, 1)
    comp_off = (5, 3, 4)  # (0,1) -> 12, (1,2) -> 23, (2,0) -> 13

    eta = np.zeros(10)
    packs = np.zeros((3, 10))
    amat = np.zeros((3, 3))

    for t in range(nt):
        # intersection box of the three supports, in frame coordinates
        lo0 = -1e30
        hi0 = 1e30
        lo1 = -1e30
        hi1 = 1e30
        lo2 = -1e30
        hi2 = 1e30
        for v in range(3):
            half = 0.5 * sides[triples[t, v]]
            lo0 = max(lo0, tri_verts[t, v, 0] - half)
            hi0 = min(hi0, tri_verts[t, v, 0] + half)
            lo1 = max(lo1, tri_verts[t, v, 1] - half)
            hi1 = min(hi1, tri_verts[t, v, 1] + half)
            lo2 = max(lo2, tri_verts[t, v, 2] - half)
            hi2 = min(hi2, tri_verts[t, v, 2] + half)
        if hi0 <= lo0 or hi1 <= lo1 or hi2 <= lo2:
            continue
        ilo0 = int(math.floor(lo0 / hm - 0.5)) + 1
        ihi0 = int(math.ceil(hi0 / hm - 0.5)) - 1
        ilo1 = int(math.floor(lo1 / hm - 0.5)) + 1
        ihi1 = int(math.ceil(hi1 / hm - 0.5)) - 1
        ilo2 = int(math.floor(lo2 / hm - 0.5)) + 1
        ihi2 = int(math.ceil(hi2 / hm - 0.5)) - 1

        for i0 in range(ilo0, ihi0 + 1):
            ii0 = ((i0 % m) + m) % m
            x0 = (i0 + 0.5) * hm
            for i1 in range(ilo1, ihi1 + 1):
                ii1 = ((i1 % m) + m) % m
                x1 = (i1 + 0.5) * hm
                for i2 in range(ilo2, ihi2 + 1):
                    p = bad_index[ii0, ii1, ((i2 % m) + m) % m]
                    if p < 0:
                        continue
                    x2 = (i2 + 0.5) * hm

                    for v in range(3):
                        cj = triples[t, v]
                        _eta_pack(x0, x1, x2, tri_verts[t, v, 0], tri_verts[t, v, 1],
                                  tri_verts[t, v, 2], sides[cj], eta)
                        _phi_pack(eta, spacks[p], packs[v])

                    # antisymmetric moment matrix at this point
                    for a in range(3):
                        amat[a, a] = 0.0
                    ya = (x0, x1, x2)
                    for a in range(3):
                        for b in range(a + 1, 3):
                            val = ya[b] * tri_b[t, a] - ya[a] * tri_b[t, b] - tri_g[t, a + b - 1]
                            amat[a, b] = val
                            amat[b, a] = -val

                    for q in range(6):
                        pi = perm_i[q]
                        pj = perm_j[q]
                        pk = perm_k[q]
                        sg = perm_s[q]
                        phik = packs[pk][0]
                        if phik == 0.0:
                            continue
                        for c in range(3):
                            al = cyc_a[c]
                            be = cyc_b[c]
                            ga = cyc_g[c]
                            b_al = sg * tri_b[t, al]
                            b_be = sg * tri_b[t, be]
                            a_bega = sg * amat[be, ga]
                            a_gaal = sg * amat[ga, al]
                            a_albe = sg * amat[al, be]
                            dj = packs[pj]
                            di = packs[pi]
                            nd = 3.0 * (dj[1 + ga] * di[1 + al] * b_al + dj[1 + be] * di[1 + ga] * b_be)
                            nd += (_d2(dj, be, ga) * di[1 + ga] - _d2(dj, ga, ga) * di[1 + be]) * a_bega
                            nd += (_d2(dj, al, ga) * di[1 + ga] - _d2(dj, ga, ga) * di[1 + al]) * a_gaal
                            nd += (_d2(dj, al, ga) * di[1 + be] + _d2(dj, be, ga) * di[1 + al]
                                   - 2.0 * _d2(dj, al, be) * di[1 + ga]) * a_albe
                            out[p, comp_off[c]] += phik * nd

                            dd = 6.0 * dj[1 + be] * di[1 + ga] * b_al
                            dd += 2.0 * (_d2(dj, ga, ga) * di[1 + be] - _d2(dj, be, ga) * di[1 + ga]) * a_gaal
                            dd += 2.0 * (_d2(dj, be, be) * di[1 + ga] - _d2(dj, be, ga) * di[1 + be]) * a_albe
                            out[p, al] += phik * dd

