"""Dyadic Whitney covers of grid-resolved open sets and smooth partitions of unity.

Blocks are unions of grid cells whose side is a power-of-two multiple of
the spacing; a block is admissible when it is fully flagged and its side
does not exceed its center-distance to the complement.  Maximal
admissible blocks tile the flagged region exactly, and each is dilated
about its center to create overlap.  The stored ``side`` of a cube is the
dilated sidelength; the undilated tile is the middle ``1/DILATION``.

Bumps are even C^4 piecewise polynomials equal to 1 on the undilated core
``[-BUMP_CORE, BUMP_CORE]`` (in units of the dilated side) and 0 outside
``(-1/2, 1/2)``, so supports stay inside the open dilated cubes.  The
partition is the normalized family ``phi_j = eta_j / sum eta``; since the
cores tile the covered set, the normalizer is >= 1 there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .fields import PreconditionError, UnsupportedOrderError, _check_order
from .maximal import OpenSetMask

DILATION = 2.0        # dilated side over tile side; 9/8 leaves overlap too thin to sample
BUMP_CORE = 1.0 / (2.0 * DILATION)   # |t| below this: b = 1; cores tile the covered set
BUMP_SUPP = 0.5

_TRANS = BUMP_SUPP - BUMP_CORE  # transition width in units of the dilated side

# Supports closer than this to touching do not intersect: the bumps vanish
# there to rounding, so such cubes are neither neighbours nor active at a point.
SUPPORT_MARGIN = 1e-12


def _smootherstep(s, order):
    """Derivative ``order`` (<= 3) of S(s) = s^5 (126 - 420 s + 540 s^2 - 315 s^3 + 70 s^4).

    S rises from 0 to 1 on [0, 1] with four vanishing derivatives at both
    ends.  The derivatives are kept in factored form: next to the support
    edge s = 1 they vanish to high order, and an expanded polynomial would
    leave rounding noise of up to 1e-11 there instead.
    """
    r = 1.0 - s
    if order == 0:
        return s**5 * (126.0 + s * (-420.0 + s * (540.0 + s * (-315.0 + s * 70.0))))
    if order == 1:
        return 630.0 * s**4 * r**4
    if order == 2:
        return 2520.0 * s**3 * r**3 * (1.0 - 2.0 * s)
    if order == 3:
        return 2520.0 * s**2 * r**2 * (3.0 + s * (-14.0 + s * 14.0))
    raise UnsupportedOrderError(f"bump derivative order {order} exceeds 3")


def bump(t, order=0):
    """The 1-D bump b (or derivative b^(k), k <= 3) at ``t``; vectorized."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u = np.abs(t)
    inside = u <= BUMP_CORE
    outside = u >= BUMP_SUPP
    trans = ~inside & ~outside
    out = np.zeros_like(t)
    s = (u[trans] - BUMP_CORE) / _TRANS
    if order == 0:
        out[inside] = 1.0
        out[trans] = 1.0 - _smootherstep(s, 0)
    else:
        sign = np.where(t[trans] < 0, (-1.0) ** order, 1.0)
        out[trans] = -_smootherstep(s, order) / _TRANS**order * sign
    return float(out[0]) if scalar else out


@dataclass
class WhitneyCube:
    center: np.ndarray   # (3,)
    side: float          # dilated sidelength (support width)
    level: int           # undilated side = 2^level * h

    @property
    def tile_half(self):
        return self.side * BUMP_CORE

    @property
    def support_half(self):
        return self.side * BUMP_SUPP


@dataclass
class WhitneyCover:
    period: float
    n: int                      # resolution of the generating mask
    cubes: list
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        nc = len(self.cubes)
        self.centers = np.array([c.center for c in self.cubes]).reshape(nc, 3)
        self.sides = np.array([c.side for c in self.cubes])
        self.levels = np.array([c.level for c in self.cubes], dtype=np.int64)
        self._build_index()

    def _build_index(self):
        n, h = self.n, self.period / self.n
        pairs = []
        for j in range(len(self.cubes)):
            c, half = self.centers[j], self.sides[j] / 2.0
            ranges = []
            for d in range(3):
                lo = int(np.floor((c[d] - half) / h + 1e-12))
                hi = int(np.ceil((c[d] + half) / h - 1e-12)) - 1
                ranges.append([i % n for i in range(lo, hi + 1)])
            for ix in ranges[0]:
                for iy in ranges[1]:
                    for iz in ranges[2]:
                        pairs.append((ix * n * n + iy * n + iz, j))
        self.cell_ptr = np.zeros(n**3 + 1, dtype=np.int64)
        if pairs:
            pairs.sort()
            cells = np.array([p[0] for p in pairs], dtype=np.int64)
            self.cell_ids = np.array([p[1] for p in pairs], dtype=np.int32)
            np.add.at(self.cell_ptr, cells + 1, 1)
            np.cumsum(self.cell_ptr, out=self.cell_ptr)
        else:
            self.cell_ids = np.zeros(0, dtype=np.int32)

    def __len__(self):
        return len(self.cubes)

    def wrap(self, delta):
        p = self.period
        return (np.asarray(delta) + p / 2.0) % p - p / 2.0

    def candidates(self, x):
        n, h = self.n, self.period / self.n
        cell = 0
        for d in range(3):
            cell = cell * n + int(np.floor((x[d] % self.period) / h)) % n
        return self.cell_ids[self.cell_ptr[cell]:self.cell_ptr[cell + 1]]

    def cubes_at(self, x):
        """Indices of cubes whose open (dilated) cube contains ``x``."""
        x = np.asarray(x, dtype=float)
        cand = self.candidates(x)
        if len(cand) == 0:
            return []
        d = np.abs(self.wrap(x[None, :] - self.centers[cand]))
        hit = (d < self.sides[cand, None] / 2.0).all(axis=1)
        return sorted(int(j) for j in cand[hit])

    def neighbor_pairs(self):
        """Unordered pairs of cubes with intersecting open supports."""
        seen = set()
        nc = len(self.cubes)
        adj = [set() for _ in range(nc)]
        for cell in range(len(self.cell_ptr) - 1):
            ids = self.cell_ids[self.cell_ptr[cell]:self.cell_ptr[cell + 1]]
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    i, j = int(ids[a]), int(ids[b])
                    if i > j:
                        i, j = j, i
                    if (i, j) in seen:
                        continue
                    seen.add((i, j))
                    gap = np.abs(self.wrap(self.centers[i] - self.centers[j]))
                    if (gap < (self.sides[i] + self.sides[j]) / 2.0 - SUPPORT_MARGIN).all():
                        adj[i].add(j)
                        adj[j].add(i)
        return adj

    def to_json(self):
        return [
            {"center": [float(v) for v in c.center], "side": float(c.side), "level": int(c.level)}
            for c in self.cubes
        ]

    def w2_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,side,level,dist,ratio\n")
            for j, (dist, ratio) in enumerate(zip(self.stats["w2_dist"], self.stats["w2_ratio"])):
                fh.write(f"{j},{self.sides[j]!r},{self.levels[j]},{dist!r},{ratio!r}\n")


def _block_min(arr, s):
    n = arr.shape[0]
    m = n // s
    return arr.reshape(m, s, m, s, m, s).min(axis=(1, 3, 5))


def whitney_decompose(mask: OpenSetMask) -> WhitneyCover:
    """Maximal admissible dyadic blocks of the flagged set, dilated by 9/8.

    Admissible means fully flagged with side <= center distance to the
    complement; maximality is failure of the parent block.  The selected
    undilated blocks partition the flagged cells exactly (W1).
    """
    n, h, period = mask.n, mask.h, mask.period
    if mask.is_empty():
        return WhitneyCover(period=period, n=n, cubes=[], stats={"overlap": 0})
    if mask.is_full():
        raise PreconditionError("bad set covers the whole torus: no complement to measure against")

    levels = [k for k in range(0, n.bit_length()) if n % (1 << k) == 0 and (1 << k) <= n // 4]
    dist_cells = mask.distance / h
    adm = {}
    for k in levels:
        s = 1 << k
        flagged = _block_min(mask.mask.astype(np.int8), s).astype(bool)
        dmin = _block_min(dist_cells, s)
        adm[k] = flagged & (s <= dmin + 1e-9)

    cubes = []
    for k in levels:
        s = 1 << k
        maximal = adm[k].copy()
        if k + 1 in adm:
            parent = adm[k + 1]
            up = np.repeat(np.repeat(np.repeat(parent, 2, axis=0), 2, axis=1), 2, axis=2)
            maximal &= ~up
        for idx in np.argwhere(maximal):
            center = (idx + 0.5) * s * h
            cubes.append(WhitneyCube(center=center, side=DILATION * s * h, level=k))

    cover = WhitneyCover(period=period, n=n, cubes=cubes)
    cover.stats = _cover_stats(cover, mask)
    return cover


def _cover_stats(cover: WhitneyCover, mask: OpenSetMask) -> dict:
    n, h = mask.n, mask.h
    # W1: the undilated blocks must repaint the mask exactly
    paint = np.zeros_like(mask.mask)
    for c in cover.cubes:
        s = 1 << c.level
        base = np.round(c.center / h - 0.5 * s).astype(int)
        sl = tuple(slice(b, b + s) for b in base)
        paint[sl] = True
    w1_exact = bool((paint == mask.mask).all())

    # W2: center distance to the complement against the undilated side
    dists, ratios = [], []
    for c in cover.cubes:
        s = 1 << c.level
        base = np.round(c.center / h - 0.5 * s).astype(int)
        sl = tuple(slice(b, b + s) for b in base)
        dist = float(mask.distance[sl].min())
        dists.append(dist)
        ratios.append(dist / (s * h))

    # W3: overlap count at every cell center
    overlap = 0
    for cell in np.argwhere(mask.mask):
        overlap = max(overlap, len(cover.cubes_at((cell + 0.5) * h)))

    # W4: side comparability over touching cubes
    w4 = 1.0
    for i, nbrs in enumerate(cover.neighbor_pairs()):
        for j in nbrs:
            w4 = max(w4, cover.sides[i] / cover.sides[j], cover.sides[j] / cover.sides[i])

    return {
        "w1_exact": w1_exact,
        "w2_dist": dists,
        "w2_ratio": ratios,
        "w2_ratio_min": min(ratios) if ratios else 0.0,
        "w2_ratio_max": max(ratios) if ratios else 0.0,
        "overlap": overlap,
        "w4_ratio_max": w4,
    }


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
    active = pou.cover.cubes_at(x)
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


def cubes_at(cover: WhitneyCover, x):
    """Cube indices whose open cube contains ``x`` (at most the overlap bound)."""
    return cover.cubes_at(x)
