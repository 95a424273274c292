"""Pointwise reference for the truncated field and the local fields.

The per-point path the package used before it ran the grid kernel's
formula at one point: phi derivatives from the ``pou_eval`` Leibniz
quotient, a dict from sorted cube triples to cache rows, and the
permutation sign of each ordered triple applied to the cached B and A.
Kept apart from the code under test; the tests compare
``truncation.TruncationEvaluator`` and ``truncation.local_field`` with it.
About 0.1 s per point on the n = 24 test fixture.
"""

import numpy as np

from divsym.flux import permutation_sign
from divsym.truncation import sym6_to_mat
from divsym.whitney import SUPPORT_MARGIN, pou_eval

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_COMP6 = {(0, 0): 0, (1, 1): 1, (2, 2): 2, (1, 2): 3, (2, 1): 3, (0, 2): 4, (2, 0): 4, (0, 1): 5, (1, 0): 5}

_FIRST = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_SECOND = {(0, 0): (2, 0, 0), (1, 1): (0, 2, 0), (2, 2): (0, 0, 2),
           (1, 2): (0, 1, 1), (0, 2): (1, 0, 1), (0, 1): (1, 1, 0)}


class PointwiseReference:
    """Truncated field and local fields of a ``TruncationContext``, point by point."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.moment_index = {tuple(int(v) for v in t): r for r, t in enumerate(ctx.triples)}

    def in_bad_set(self, x):
        ctx = self.ctx
        h = ctx.period / ctx.n
        idx = tuple(int(np.floor((float(v) % ctx.period) / h)) % ctx.n for v in np.asarray(x).ravel())
        return bool(ctx.bad.mask[idx])

    def moment(self, i, j, k):
        """Signed (B, row) data for the ordered triple; None when it vanishes."""
        if i == j or j == k or i == k:
            return None
        key = tuple(sorted((i, j, k)))
        row = self.moment_index.get(key)
        if row is None:
            raise KeyError(f"triple {key} missing from the moment cache")
        return row, permutation_sign((i, j, k))

    def frame_point(self, row, y):
        """Unwrap ``y`` into the frame of cached triangle ``row``."""
        anchor = self.ctx.tri_verts[row, 0]
        p = self.ctx.period
        return anchor + ((np.asarray(y, dtype=float) - anchor + p / 2) % p - p / 2)

    def phi_packs(self, y):
        """Value, gradient and Hessian of each active phi at ``y`` via pou_eval.

        Active cubes hold ``y`` more than ``SUPPORT_MARGIN`` inside their
        support, as ``neighbor_pairs`` demands, so all their triples are cached.
        """
        ctx = self.ctx
        cover = ctx.cover
        active = [c for c in cover.cubes_at(y)
                  if (np.abs(cover.wrap(y - cover.centers[c])) < cover.sides[c] / 2.0 - SUPPORT_MARGIN).all()]
        packs = {}
        for c in active:
            val = pou_eval(ctx.pou, c, y)
            d1 = np.array([pou_eval(ctx.pou, c, y, o) for o in _FIRST])
            d2 = np.zeros((3, 3))
            for (a, b), o in _SECOND.items():
                d2[a, b] = pou_eval(ctx.pou, c, y, o)
                d2[b, a] = d2[a, b]
            packs[c] = (val, d1, d2)
        return active, packs

    def accumulate_local(self, k, y, packs, active, weight=1.0):
        """Contribution phi-weighted local field of cube k at y (packed sym6)."""
        ctx = self.ctx
        out = np.zeros(6)
        for i in active:
            for j in active:
                mom = self.moment(i, j, k)
                if mom is None:
                    continue
                row, sign = mom
                b = sign * ctx.tri_B[row]
                yf = self.frame_point(row, y)
                amat = np.zeros((3, 3))
                for a in range(3):
                    for bb in range(a + 1, 3):
                        val = sign * (yf[bb] * ctx.tri_B[row, a] - ctx.tri_G[row, a, bb]
                                      - yf[a] * ctx.tri_B[row, bb] + ctx.tri_G[row, bb, a])
                        amat[a, bb] = val
                        amat[bb, a] = -val
                _, dj, d2j = packs[j]
                _, di, _ = packs[i]
                for al, be, ga in CYCLES:
                    nd = 3.0 * (dj[ga] * di[al] * b[al] + dj[be] * di[ga] * b[be])
                    nd += (d2j[be, ga] * di[ga] - d2j[ga, ga] * di[be]) * amat[be, ga]
                    nd += (d2j[al, ga] * di[ga] - d2j[ga, ga] * di[al]) * amat[ga, al]
                    nd += (d2j[al, ga] * di[be] + d2j[be, ga] * di[al]
                           - 2.0 * d2j[al, be] * di[ga]) * amat[al, be]
                    out[_COMP6[(al, be)]] += weight * nd

                    dd = 6.0 * dj[be] * di[ga] * b[al]
                    dd += 2.0 * (d2j[ga, ga] * di[be] - d2j[be, ga] * di[ga]) * amat[ga, al]
                    dd += 2.0 * (d2j[be, be] * di[ga] - d2j[be, ga] * di[be]) * amat[al, be]
                    out[al] += weight * dd
        return out

    def local_field(self, k, y):
        """The local reconstruction wtilde^(k) at ``y``; ``k`` must be active there."""
        y = np.asarray(y, dtype=float)
        active, packs = self.phi_packs(y)
        if k not in active:
            raise ValueError(f"point {y} is outside cube {k}")
        return sym6_to_mat(self.accumulate_local(k, y, packs, active))

    def __call__(self, x):
        ctx = self.ctx
        x = np.asarray(x, dtype=float)
        if ctx.cover is None or not self.in_bad_set(x):
            return ctx.w(x)
        active, packs = self.phi_packs(x)
        acc = np.zeros(6)
        for k in active:
            acc += self.accumulate_local(k, x, packs, active, weight=packs[k][0])
        return sym6_to_mat(acc)
