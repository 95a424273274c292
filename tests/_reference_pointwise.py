"""Pointwise reference for the partition of unity, the truncated field and the local fields.

``pou_eval`` is the partition the package used before its phi derivatives
came only from ``whitney``'s array packs: each derivative of
``phi_j = eta_j / sum eta`` to total order 3 by the Leibniz recursion on
``phi * S = eta_j``, one cube and one multi-index at a time.  The tests
compare the packs (``phi_at``, ``whitney._partition`` at one point) with it.

``cubes_at`` lists the cubes whose open support holds a point, without
the margin ``whitney._partition`` keeps; the partition and the tests use it.

``summation_vanish_loop`` is ``_subset_kernel.summation_vanish_check`` as
it ran before it took its samples as one batch: one point at a time, each
permutation's terms summed over the point's triples before the six are
added.

``PointwiseReference`` is the per-point path the package used before it
ran the grid kernel's formula at one point: phi derivatives from
``pou_eval``, a dict from sorted cube triples to rows of the triple
moments (``_subset_kernel.subset_moments``), and the permutation sign of
each ordered triple applied to their B and A.
The tests compare ``truncation.truncate`` with it, and with each of its
local fields wtilde^(k), which the pair kernel finds equal to T w.  About
0.1 s per point on the n = 24 test fixture.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from _loop_kernels import pack_slot
from _subset_kernel import PERMS, active_triples, subset_moments
from divsym.fields import PreconditionError, _check_order
from divsym.flux import PAIRS, _moment_functions
from divsym.truncation import sym6_to_mat
from divsym.whitney import SUPPORT_MARGIN, WhitneyCover, _partition, bump

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_COMP6 = {(0, 0): 0, (1, 1): 1, (2, 2): 2, (1, 2): 3, (2, 1): 3, (0, 2): 4, (2, 0): 4, (0, 1): 5, (1, 0): 5}

_FIRST = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_SECOND = {(0, 0): (2, 0, 0), (1, 1): (0, 2, 0), (2, 2): (0, 0, 2),
           (1, 2): (0, 1, 1), (0, 2): (1, 0, 1), (0, 1): (1, 1, 0)}


def cubes_at(cover: WhitneyCover, x):
    """Indices of cubes whose open (dilated) cube contains ``x``."""
    x = np.asarray(x, dtype=float)
    cand, _ = cover.candidates(x[None])
    if len(cand) == 0:
        return []
    d = np.abs(cover.wrap(x[None, :] - cover.centers[cand]))
    hit = (d < cover.sides[cand, None] / 2.0).all(axis=1)
    return sorted(int(j) for j in cand[hit])


def phi_at(cover: WhitneyCover, y):
    """``whitney._partition`` at one point ``y``: the increasing active cubes, their offsets and packs."""
    active, _, off, packs, _ = _partition(cover, np.asarray(y, dtype=float).reshape(1, 3))
    return active, off, packs


def summation_vanish_loop(ctx, a, b, c, mode, samples):
    """The summation check one sample at a time: ``(totals, scales, skipped)``.

    ``totals`` holds each used sample's sum and ``scales`` the sum of the
    absolute values of its terms, the size its rounding scales with.
    """
    sa, sb, sc = (pack_slot(o) for o in (a, b, c))
    tri_b, tri_g = subset_moments(ctx)
    totals, scales, skipped = [], [], 0
    for y in samples:
        y = np.asarray(y, dtype=float)
        if not ctx.bad.contains(y):
            skipped += 1
            continue
        active, off, packs = phi_at(ctx.cover, y)
        sub, rows = active_triples(active, np.zeros_like(active), ctx.triples, len(ctx.cover))
        phi = [np.take(packs, sub[:, v], axis=1) for v in range(3)]
        if mode[0] == "B":
            val = tri_b[rows, mode[1]]
        else:
            yf = ctx.tri_verts[rows, 0] + off[sub[:, 0]]
            val = _moment_functions(tri_b[rows].T, tri_g[rows], yf.T)[mode[1]][mode[2]]
        terms = [sg * (phi[pk][sa] * phi[pj][sb] * phi[pi][sc] * val) for pi, pj, pk, sg in PERMS]
        totals.append(sum(float(t.sum()) for t in terms))
        scales.append(sum(float(np.abs(t).sum()) for t in terms))
    return np.array(totals), np.array(scales), skipped


@dataclass
class PartitionOfUnity:
    cover: WhitneyCover

    def __post_init__(self):
        if len(self.cover) == 0:
            raise PreconditionError("cannot build a partition over an empty cover")

    def eta(self, j, x, order=(0, 0, 0)):
        """Derivative of the unnormalized bump eta_j at ``x``."""
        c = self.cover.centers[j]
        ell = self.cover.sides[j]
        t = self.cover.wrap(np.asarray(x, dtype=float) - c) / ell
        val = 1.0
        for d in range(3):
            val *= bump(t[d], order[d]) / ell ** order[d]
        return val


def build_partition(cover: WhitneyCover) -> PartitionOfUnity:
    return PartitionOfUnity(cover=cover)


def _multi_indices_upto(order):
    out = [
        (a, b, c)
        for a in range(order[0] + 1)
        for b in range(order[1] + 1)
        for c in range(order[2] + 1)
    ]
    out.sort(key=sum)
    return out


def _mi_binom(beta, gamma):
    return comb(beta[0], gamma[0]) * comb(beta[1], gamma[1]) * comb(beta[2], gamma[2])


def pou_eval(pou: PartitionOfUnity, j: int, x, order=(0, 0, 0)) -> float:
    """Analytic derivative of phi_j = eta_j / sum_l eta_l; total order <= 3.

    The quotient is resolved by the Leibniz recursion on phi * S = eta_j,
    so only bump derivatives enter and the result is exact to rounding.
    """
    order = _check_order(order)
    active = cubes_at(pou.cover, x)
    if j not in active:
        return 0.0
    betas = _multi_indices_upto(order)
    eta_j = {}
    s = {}
    for beta in betas:
        eta_j[beta] = pou.eta(j, x, beta)
        s[beta] = sum(pou.eta(l, x, beta) for l in active)
    if s[(0, 0, 0)] <= 0.0:
        return 0.0
    phi = {}
    for beta in betas:
        acc = eta_j[beta]
        for gamma in _multi_indices_upto(beta):
            if gamma == beta:
                continue
            diff = (beta[0] - gamma[0], beta[1] - gamma[1], beta[2] - gamma[2])
            acc -= _mi_binom(beta, gamma) * phi[gamma] * s[diff]
        phi[beta] = acc / s[(0, 0, 0)]
    return phi[order]


def permutation_sign(perm):
    """Parity sign of a sequence of distinct items relative to sorted order."""
    items = list(perm)
    sign = 1
    for a in range(len(items)):
        m = min(range(a, len(items)), key=lambda i: items[i])
        if m != a:
            items[a], items[m] = items[m], items[a]
            sign = -sign
    return sign


class PointwiseReference:
    """Truncated field and local fields of a ``TruncationContext``, point by point."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.pou = build_partition(ctx.cover)
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
        support, as in ``whitney._partition``; they pairwise overlap, so all
        their triples are cached.
        """
        ctx = self.ctx
        cover = ctx.cover
        active = [c for c in cubes_at(cover, y)
                  if (np.abs(cover.wrap(y - cover.centers[c])) < cover.sides[c] / 2.0 - SUPPORT_MARGIN).all()]
        packs = {}
        for c in active:
            val = pou_eval(self.pou, c, y)
            d1 = np.array([pou_eval(self.pou, c, y, o) for o in _FIRST])
            d2 = np.zeros((3, 3))
            for (a, b), o in _SECOND.items():
                d2[a, b] = pou_eval(self.pou, c, y, o)
                d2[b, a] = d2[a, b]
            packs[c] = (val, d1, d2)
        return active, packs

    def accumulate_local(self, k, y, packs, active, weight=1.0):
        """Contribution phi-weighted local field of cube k at y (packed sym6)."""
        ctx = self.ctx
        tri_b, tri_g = subset_moments(ctx)
        out = np.zeros(6)
        for i in active:
            for j in active:
                mom = self.moment(i, j, k)
                if mom is None:
                    continue
                row, sign = mom
                b = sign * tri_b[row]
                yf = self.frame_point(row, y)
                amat = np.zeros((3, 3))
                for a in range(3):
                    for bb in range(a + 1, 3):
                        val = sign * (yf[bb] * tri_b[row, a] - yf[a] * tri_b[row, bb]
                                      - tri_g[row, PAIRS.index((a, bb))])
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
        if not self.in_bad_set(x):
            return ctx.w(x)
        active, packs = self.phi_packs(x)
        acc = np.zeros(6)
        for k in active:
            acc += self.accumulate_local(k, x, packs, active, weight=packs[k][0])
        return sym6_to_mat(acc)
