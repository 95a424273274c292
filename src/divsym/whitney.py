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

The partition's derivatives up to second order live here and nowhere
else: ``_eta_packs`` gives the bump derivatives and ``_phi_packs`` the
quotient, as packs [v, dx, dy, dz, dxx, dyy, dzz, dyz, dxz, dxy] with the
second derivatives in ``fields.SYM6`` order.  ``_partition`` applies them
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

from .fields import SYM6, SYM6_SLOT, PreconditionError, UnsupportedOrderError, _check_order
from .maximal import OpenSetMask

DILATION = 2.0        # dilated side over tile side; 9/8 leaves overlap too thin to sample
BUMP_CORE = 1.0 / (2.0 * DILATION)   # |t| below this: b = 1; cores tile the covered set
BUMP_SUPP = 0.5

_TRANS = BUMP_SUPP - BUMP_CORE  # transition width in units of the dilated side

# A point closer than this to a support's edge is outside it: the bump
# vanishes there to rounding, so the cube is not active at the point.
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
    """The 1-D bump b = 1 - S(s) (or derivative b^(k), k <= 3) at ``t``; vectorized.

    s = (|t| - BUMP_CORE) / _TRANS clipped to [0, 1]: S(0) = 0, S(1) = 1 and every
    derivative of S vanishes at both ends, exactly, so core and outside need no masks.
    """
    t = np.asarray(t, dtype=float)
    s = np.clip((np.abs(t) - BUMP_CORE) / _TRANS, 0.0, 1.0)
    if order == 0:
        out = 1.0 - _smootherstep(s, 0)
    else:
        out = -_smootherstep(s, order) / _TRANS**order * np.where(t < 0, (-1.0) ** order, 1.0)
    return float(out) if out.ndim == 0 else out


# pack slot of the second derivative d^2 / dx_d dx_e
_D2 = 4 + SYM6_SLOT


def _eta_packs(x, center, side):
    """Bump derivative packs of the cubes (center, side) at x, one column per pair."""
    t = (x - center) / side[:, None]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = [
        [bump(t[:, d], k) for k in range(3)] for d in range(3)]
    s2 = side * side
    return np.stack([
        a0 * b0 * c0,
        a1 * b0 * c0 / side, a0 * b1 * c0 / side, a0 * b0 * c1 / side,
        a2 * b0 * c0 / s2, a0 * b2 * c0 / s2, a0 * b0 * c2 / s2,
        a0 * b1 * c1 / s2, a1 * b0 * c1 / s2, a1 * b1 * c0 / s2,
    ])


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


def _pack_slot(order):
    """Pack slot of the derivative multi-index ``order``; packs stop at total order 2."""
    axes = [d for d, k in enumerate(_check_order(order)) for _ in range(k)]
    if len(axes) > 2:
        raise UnsupportedOrderError(f"phi packs hold derivatives up to order 2, not {tuple(order)}")
    if len(axes) == 2:
        return int(_D2[axes[0], axes[1]])
    return 1 + axes[0] if axes else 0


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
    off = cover.wrap(x[point] - cover.centers[cube])
    keep = (np.abs(off) < cover.sides[cube, None] / 2.0 - SUPPORT_MARGIN).all(axis=1)
    cube, point, off = cube[keep], point[keep], off[keep]
    eta = _eta_packs(off, 0.0, cover.sides[cube])
    s = np.stack([np.bincount(point, row, minlength=len(x)) for row in eta])
    return cube, point, off, _phi_packs(eta, np.take(s, point, axis=1)), s


def _active_pairs(cube, point, pairs, nc):
    """The 2-subsets of each point's active cubes: ``(first, second, rows)``.

    ``cube`` and ``point`` are pair rows sorted by (point, cube), as
    ``_partition`` returns them, and ``pairs`` the sorted cube pairs of a
    cover of ``nc`` cubes.  ``first`` and ``second`` index the rows of each
    subset in increasing cube order, points in turn, and ``rows`` the pair
    each subset is.  Active cubes pairwise intersect, so a subset missing
    from ``pairs`` raises ``KeyError``.
    """
    end = np.searchsorted(point, point, side="right")
    first, rank = _segments(end - np.arange(len(point)) - 1)
    second = first + 1 + rank
    keys, want = pairs[:, 0] * nc + pairs[:, 1], cube[first] * nc + cube[second]
    rows = np.searchsorted(keys, want)
    miss = np.append(keys, -1)[rows] != want
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
        off the lattice raises ``ValueError``.
        """
        m = 2 * self.n
        half = self.sides[:, None] / 2.0
        ends = np.stack([self.centers - half, self.centers + half]) / (self.period / m)
        lattice = np.rint(ends)
        if np.abs(ends - lattice).max(initial=0.0) > 1e-9:
            raise ValueError("support endpoints are off the half-cell lattice")
        cube, cells = _box_cells(lattice[0].astype(np.int64), (lattice[1] - lattice[0]).astype(np.int64), m)
        order = np.lexsort((cube, cells))
        self.cell_ids = cube[order]
        self.cell_ptr = np.zeros(m**3 + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=m**3), out=self.cell_ptr[1:])

    def __len__(self):
        return len(self.sides)

    def wrap(self, delta):
        p = self.period
        return (np.asarray(delta) + p / 2.0) % p - p / 2.0

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
        keys = np.unique(ids[entry] * nc + ids[entry + 1 + rank])   # entry x later entries of its list
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


def whitney_decompose(mask: OpenSetMask) -> WhitneyCover:
    """Maximal admissible dyadic blocks of the flagged set, dilated by ``DILATION``.

    Admissible means fully flagged with side <= center distance to the
    complement; maximality is failure of the parent block.  The selected
    undilated blocks partition the flagged cells exactly (W1).  Cubes run
    by level, then block in row-major order; ``stats`` holds W1-W4.
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
    dist_cells = mask.distance / h
    adm = {}
    for k in levels:
        s = 1 << k
        flagged = _block_min(mask.mask.astype(np.int8), s).astype(bool)
        dmin = _block_min(dist_cells, s)
        adm[k] = flagged & (s <= dmin + 1e-9)

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
        dists.append(_block_min(mask.distance, s)[maximal])

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

