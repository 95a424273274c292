"""Dyadic Whitney covers of grid-resolved open sets and smooth partitions of unity.

Blocks are unions of grid cells whose side is a power-of-two multiple of
the spacing; a block is admissible when it is fully flagged and its side
does not exceed its center-distance to the complement.  Both count whole
cells: the distance is the periodic Chebyshev distance from a cell's
center to the nearest unflagged center, an integer, and a block of side
s cells is admissible when s is at most the least distance over its
cells.  Maximal admissible blocks tile the flagged region exactly, and
each is dilated about its center to create overlap.  The stored ``side``
of a cube is the dilated sidelength; the undilated tile is the middle
``1/DILATION``.

Bumps are even C^4 piecewise polynomials equal to 1 on the undilated core
``[-BUMP_CORE, BUMP_CORE]`` (in units of the dilated side) and 0 outside
``(-1/2, 1/2)``, so supports stay inside the open dilated cubes.  The
partition is the normalized family ``phi_j = eta_j / sum eta``; since the
cores tile the covered set, the normalizer is >= 1 there.

The partition's derivatives up to second order live here and nowhere
else: ``_bumps`` gives b, b' and b'' in one pass per axis, ``_eta_packs``
their products and ``_phi_packs`` the quotient, as packs
[v, dx, dy, dz, dxx, dyy, dzz, dyz, dxz, dxy] with the second derivatives
in ``fields.SYM6`` order.  ``_partition`` applies them
once per active (cube, point) pair of a batch of points;
``_active_pairs`` finds the cover's pairs among each point's active cubes.

With ``DILATION = 2`` every support endpoint lies on the half-cell lattice
(spacing h/2), so each open support is a box of whole half-cells.  The
cover lists, per half-cell, the cubes whose support holds it; endpoints are
rounded onto the lattice, so the lists are exact (an off-lattice cover is
refused).  ``WhitneyCover.candidates`` is the only lookup from points to
cubes; W3 is the longest list, and neighbours are cubes sharing a list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import SYM6, SYM6_SLOT, PreconditionError, UnsupportedOrderError
from .maximal import OpenSetMask

DILATION = 2.0        # dilated side over tile side; 9/8 leaves overlap too thin to sample
BUMP_CORE = 1.0 / (2.0 * DILATION)   # |t| below this: b = 1; cores tile the covered set
BUMP_SUPP = 0.5

_TRANS = BUMP_SUPP - BUMP_CORE  # transition width in units of the dilated side

# A point closer than this to a support's edge is outside it: the bump
# vanishes there to rounding, so the cube is not active at the point.
SUPPORT_MARGIN = 1e-12


def _bumps(t):
    """The 1-D bump b = 1 - S(s) and its derivatives b', b'' at ``t``, from one clipped s; vectorized.

    S(s) = s^5 (126 - 420 s + 540 s^2 - 315 s^3 + 70 s^4) rises from 0 to 1
    on [0, 1] with four vanishing derivatives at both ends, and
    s = (|t| - BUMP_CORE) / _TRANS is clipped to [0, 1], so core and outside
    need no masks.  S' = 630 u^4 and S'' = 2520 u^3 (1 - 2 s) share
    u = s (1 - s).  This factored form vanishes to high order next to the
    support edge s = 1, where an expanded polynomial would leave rounding
    noise of up to 1e-11.
    """
    t = np.asarray(t, dtype=float)
    s = np.clip((np.abs(t) - BUMP_CORE) / _TRANS, 0.0, 1.0)
    u = s * (1.0 - s)
    u3 = u * u * u
    s2 = s * s
    b = 1.0 - s2 * s2 * s * (126.0 + s * (-420.0 + s * (540.0 + s * (-315.0 + s * 70.0))))
    return b, np.copysign(630.0 / _TRANS * u3 * u, -t), (-2520.0 / _TRANS**2 * u3) * (1.0 - 2.0 * s)


def bump(t, order=0):
    """The 1-D bump b (or derivative b^(k), k <= 3) at ``t``; vectorized.  Orders up to 2 are ``_bumps``'."""
    t = np.asarray(t, dtype=float)
    if order == 3:   # b''' = -sign(t) S'''(s) / _TRANS^3, S''' = 2520 u^2 (3 - 14 s + 14 s^2)
        s = np.clip((np.abs(t) - BUMP_CORE) / _TRANS, 0.0, 1.0)
        out = -2520.0 / _TRANS**3 * (s * (1.0 - s)) ** 2 * (3.0 + s * (-14.0 + s * 14.0)) * np.where(t < 0, -1.0, 1.0)
    elif order in (0, 1, 2):
        out = _bumps(t)[order]
    else:
        raise UnsupportedOrderError(f"bump derivative order {order} exceeds 3")
    return float(out) if out.ndim == 0 else out


# pack slot of the second derivative d^2 / dx_d dx_e
_D2 = 4 + SYM6_SLOT


def _eta_packs(x, center, side):
    """Bump derivative packs of the cubes (center, side) at x, one column per pair."""
    inv = 1.0 / side
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (_bumps(t) for t in ((x - center) * inv[:, None]).T)
    a1, b1, c1, inv2 = a1 * inv, b1 * inv, c1 * inv, inv * inv
    bc, ac, ab = b0 * c0, a0 * c0, a0 * b0
    out = np.empty((10, len(side)))
    for row, (u, v) in enumerate(((a0, bc), (a1, bc), (b1, ac), (c1, ab), (a2 * inv2, bc), (b2 * inv2, ac),
                                  (c2 * inv2, ab), (a0, b1 * c1), (b0, a1 * c1), (c0, a1 * b1))):
        np.multiply(u, v, out=out[row])
    return out


def _phi_packs(eta, spk):
    """Quotient derivatives of phi = eta / S up to second order (packs as rows)."""
    s0 = spk[0]
    out = np.empty_like(eta)
    v = out[0] = eta[0] / s0
    for d in range(3):
        out[1 + d] = (eta[1 + d] - v * spk[1 + d]) / s0
    for d, e in SYM6:
        q = _D2[d, e]
        out[q] = (eta[q] - out[1 + d] * spk[1 + e] - out[1 + e] * spk[1 + d] - v * spk[q]) / s0
    return out


def _partition(cover, x):
    """The partition at the points ``x`` (k, 3): ``(cube, point, off, phi, s)``.

    It runs over the (cube, point) rows that ``cover.candidates`` lists.
    ``off`` holds each pair's offset ``wrap(x - center)``.  A cube is
    active at a point that lies more than ``SUPPORT_MARGIN`` inside its
    support; two such cubes overlap by at least h/2, so they share a list
    of the index and the active cubes of one point pairwise intersect.
    The active pairs come back sorted by (point, cube) with their
    (10, pairs) phi packs; ``s`` holds the bump sum S and its derivatives,
    (10, points), each point's pairs added in cube order.
    """
    cube, point = cover.candidates(x)
    off, side = cover.wrap(x[point] - cover.centers[cube]), cover.sides[cube]
    keep = (np.abs(off) < side[:, None] / 2.0 - SUPPORT_MARGIN).all(axis=1)
    cube, point, off, side = cube[keep], point[keep], off[keep], side[keep]
    eta = _eta_packs(off, 0.0, side)
    s = np.stack([np.bincount(point, row, minlength=len(x)) for row in eta])
    return cube, point, off, _phi_packs(eta, np.take(s, point, axis=1)), s


def _active_pairs(cube, point, keys, nc):
    """The 2-subsets of each point's active cubes: ``(first, second, rows)``.

    ``cube`` and ``point`` are pair rows sorted by (point, cube), as
    ``_partition`` returns them; ``keys`` holds the sorted keys i * nc + j
    of the cube pairs i < j of a cover of ``nc`` cubes, then nc^2.
    ``first`` and ``second`` index the rows of each subset in increasing
    cube order, points in turn, and ``rows`` the pair each subset is.
    Active cubes pairwise intersect, so a subset missing from ``keys``
    raises ``KeyError``.
    """
    end = np.searchsorted(point, point, side="right")
    first, rank = _segments(end - np.arange(len(point)) - 1)
    second = first + 1 + rank
    want = cube[first] * nc + cube[second]
    rows = np.searchsorted(keys, want)
    miss = keys[rows] != want
    if miss.any():
        raise KeyError(f"{int(miss.sum())} pairs of active cubes, first "
                       f"{cube[[first[miss][0], second[miss][0]]].tolist()}, missing from the moment cache")
    return first, second, rows


def _segments(counts):
    """``(owner, rank)`` of every entry when segment i holds ``counts[i]`` entries in turn."""
    counts = np.asarray(counts, dtype=np.int64)
    owner = np.repeat(np.arange(len(counts)), counts)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, rank


def _box_cells(lo, width, m):
    """``(box, cell)``: the cells [lo, lo + width) of each box (k, 3), row-major, on the periodic m-grid."""
    box, rank = _segments(width.prod(axis=1))
    plane = width[box, 1] * width[box, 2]
    off = np.stack([rank // plane, rank % plane // width[box, 2], rank % width[box, 2]], axis=1)
    ijk = (lo[box] + off) % m
    return box, (ijk[:, 0] * m + ijk[:, 1]) * m + ijk[:, 2]


def _upsample(arr, r):
    """Each entry of a 3-D array repeated into an r x r x r block."""
    return np.repeat(np.repeat(np.repeat(arr, r, axis=0), r, axis=1), r, axis=2)


@dataclass
class WhitneyCover:
    period: float
    n: int                      # resolution of the generating mask
    centers: np.ndarray         # (nc, 3)
    sides: np.ndarray           # (nc,) dilated sidelengths (support widths)
    levels: np.ndarray          # (nc,) int64: undilated side = 2^level * h
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        self._build_index()
        self.pairs = self.neighbor_pairs()

    def _build_index(self):
        """``cell_ids[cell_ptr[c]:cell_ptr[c + 1]]``: the cubes whose open support holds half-cell c.

        Lists are increasing.  A support endpoint more than 1e-9 half-cells
        off the lattice raises ``ValueError``.  Cubes of one level share a
        box width, so the boxes of each width expand in one broadcast; one
        sort of the keys cell * nc + cube orders the lists.
        """
        m = 2 * self.n
        half = self.sides[:, None] / 2.0
        ends = np.stack([self.centers - half, self.centers + half]) / (self.period / m)
        lattice = np.rint(ends)
        if np.abs(ends - lattice).max(initial=0.0) > 1e-9:
            raise ValueError("support endpoints are off the half-cell lattice")
        lo, width, nc = lattice[0].astype(np.int64), (lattice[1] - lattice[0]).astype(np.int64), len(self)
        keys = [np.zeros(0, dtype=np.int64)]
        for w in np.unique(width, axis=0):
            box = np.flatnonzero((width == w).all(axis=1))
            i, j, k = ((lo[box, d, None] + np.arange(w[d])) % m for d in range(3))
            cells = (i[:, :, None, None] * m + j[:, None, :, None]) * m + k[:, None, None, :]
            keys.append((cells * nc + box[:, None, None, None]).ravel())
        keys = np.sort(np.concatenate(keys))
        self.cell_ids = keys % nc
        self.cell_ptr = np.zeros(m**3 + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // nc, minlength=m**3), out=self.cell_ptr[1:])

    def __len__(self):
        return len(self.sides)

    def wrap(self, delta):
        """``delta`` minus the nearest multiple of the period p: the offset in [-p/2, p/2].

        It is ``delta`` itself, exactly, for |delta| < p/2, and the bounds
        hold exactly when p is a power of two (else to rounding).  Ties
        round to even, so +-p/2 both occur; no offset the kernel reads gets
        there, since an active one is below side/2 <= p/4.
        """
        p = self.period
        delta = np.asarray(delta, dtype=float)
        return delta - p * np.rint(delta / p)

    def candidates(self, x):
        """The index lists at the points ``x`` (k, 3): ``(cube, point)`` rows sorted by (point, cube).

        A point within 1e-9 half-cells of a lattice line looks up the half-cells
        on both sides of it, so a cube holding it only by rounding is listed too.
        """
        m = 2 * self.n
        u = np.asarray(x, dtype=float) / (self.period / m)
        near = np.abs(u - np.rint(u)) <= 1e-9
        lo = np.where(near, np.rint(u) - 1, np.floor(u)).astype(np.int64)
        point, cells = _box_cells(lo, near + 1, m)
        start = self.cell_ptr[cells]
        row, rank = _segments(self.cell_ptr[cells + 1] - start)
        cube, point = self.cell_ids[start[row] + rank], point[row]
        if len(cells) > len(u):                              # some point looked up several lists
            keys = np.unique(point * len(self) + cube)
            cube, point = keys % len(self), keys // len(self)
        return cube, point

    def neighbor_pairs(self):
        """Cubes with intersecting open supports: ``(pairs, 2)`` int64 rows ``i < j``, sorted.

        Two such supports share a box of whole half-cells, so they are the
        distinct pairs of cubes that share a list of the index.  The cover
        keeps the result as ``pairs``.
        """
        nc = len(self)
        ptr, ids = self.cell_ptr, self.cell_ids
        cell_end = np.repeat(ptr[1:], np.diff(ptr))
        entry, rank = _segments(cell_end - np.arange(len(ids)) - 1)
        keys = np.sort(ids[entry] * nc + ids[entry + 1 + rank])     # entry x later entries of its list
        keys = keys[np.diff(keys, prepend=-1) != 0]                 # a sort beats np.unique's hashing
        return np.stack([keys // nc, keys % nc], axis=1)

    def triples(self):
        """Pairwise-intersecting triples: ``(nt, 3)`` int32 rows ``i < j < k``, sorted.

        Pair ``(i, j)`` joins the later rows ``(i, k)`` of ``pairs`` with ``(j, k)`` a pair.
        """
        nc = len(self)
        first, second = self.pairs[:, 0], self.pairs[:, 1]
        keys = first * nc + second
        block_end = np.searchsorted(first, first, side="right")
        row, rank = _segments(block_end - np.arange(len(first)) - 1)
        i, j, k = first[row], second[row], second[row + 1 + rank]
        jk = j * nc + k
        hit = keys[np.minimum(np.searchsorted(keys, jk), len(keys) - 1)] == jk
        return np.stack([i[hit], j[hit], k[hit]], axis=1).astype(np.int32)


def _block_min(arr, s):
    n = arr.shape[0]
    m = n // s
    return arr.reshape(m, s, m, s, m, s).min(axis=(1, 3, 5))


def _wrap_min3(a):
    """Minimum over each cell's periodic 3x3x3 neighbourhood, one axis at a time."""
    for ax in range(a.ndim):
        a = np.minimum(np.minimum(np.roll(a, 1, ax), a), np.roll(a, -1, ax))
    return a


def _cell_distance(mask):
    """Periodic Chebyshev distance in cells from each flagged cell to the unflagged ones; 0 off the set.

    The mask must leave a cell unflagged.  No distance exceeds n/2, so n
    stands for "not reached yet".
    """
    n = mask.shape[0]
    dist = np.where(mask, n, 0)
    for _ in range(n // 2):
        new = np.minimum(dist, _wrap_min3(dist) + 1)
        if np.array_equal(new, dist):
            break
        dist = new
    return dist


def whitney_decompose(mask: OpenSetMask) -> WhitneyCover:
    """Maximal admissible dyadic blocks of the flagged set, dilated by ``DILATION``.

    Admissible means fully flagged with side <= center distance to the
    complement, both in cells; maximality is failure of the parent block.
    The selected undilated blocks partition the flagged cells exactly (W1).
    Cubes run by level, then block in row-major order; ``stats`` holds
    W1-W4.
    """
    n, h, period = mask.n, mask.h, mask.period
    if mask.is_empty():
        return WhitneyCover(period=period, n=n, centers=np.zeros((0, 3)), sides=np.zeros(0),
                            levels=np.zeros(0, dtype=np.int64), stats={"overlap": 0})
    if mask.is_full():
        raise PreconditionError("bad set covers the whole torus: no complement to measure against")
    if n < 4:
        raise PreconditionError(f"grid resolution {n} has no dyadic block level (needs n >= 4)")

    levels = [k for k in range(0, n.bit_length()) if n % (1 << k) == 0 and (1 << k) <= n // 4]
    cells = _cell_distance(mask.mask)
    # admissible: least distance >= side, which (0 off the set) also makes the block fully flagged
    block_dist = {k: _block_min(cells, 1 << k) for k in levels}
    adm = {k: (1 << k) <= block_dist[k] for k in levels}

    centers, cube_levels, dists = [], [], []
    paint = np.zeros_like(mask.mask)     # W1: the undilated blocks must repaint the mask exactly
    for k in levels:
        s = 1 << k
        maximal = adm[k].copy()
        if k + 1 in adm:
            maximal &= ~_upsample(adm[k + 1], 2)
        paint |= _upsample(maximal, s)
        centers.append((np.argwhere(maximal) + 0.5) * s * h)
        cube_levels.append(np.full(len(centers[-1]), k, dtype=np.int64))
        # W2: center distance to the complement against the undilated side
        dists.append(block_dist[k][maximal] * h)

    cube_levels = np.concatenate(cube_levels)
    tile = (1 << cube_levels) * h           # undilated sides
    cover = WhitneyCover(period=period, n=n, centers=np.concatenate(centers), sides=DILATION * tile,
                         levels=cube_levels)
    ratios = np.concatenate(dists) / tile
    si, sj = cover.sides[cover.pairs.T]     # W4: side comparability over touching cubes
    cover.stats = {
        "w1_exact": bool((paint == mask.mask).all()),
        "w2_ratio_min": float(ratios.min()),
        "w2_ratio_max": float(ratios.max()),
        "overlap": int(np.diff(cover.cell_ptr).max(initial=0)),   # W3: the longest list of the index
        "w4_ratio_max": float(np.max(np.maximum(si, sj) / np.minimum(si, sj), initial=1.0)),
    }
    return cover

