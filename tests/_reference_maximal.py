"""The flagging stage and Whitney admissibility in length units: the oracle of the cell-unit route.

``maximal_function`` averages over the radii ``dyadic_radii`` lists, in
length units, with a ball kernel that compares ``(r / h)^2`` behind a
1e-12 slack.  ``chebyshev_distance`` is the periodic Chebyshev distance
to the unflagged cells in length units (period/2 on a full mask), and
``whitney_decompose`` divides it back into cells and admits a block
behind a 1e-9 slack.  ``divsym`` counts all of these in whole cells and
must give the same numbers bit for bit.
"""

import numpy as np

from divsym.maximal import ScalarGrid
from divsym.whitney import DILATION, WhitneyCover, _block_min, _upsample


def dyadic_radii(n, period=1.0):
    """The radius family {h, 2h, 4h, ...} below period/2, then period/2."""
    h = period / n
    radii = []
    r = h
    while r < period / 2:
        radii.append(r)
        r *= 2
    radii.append(period / 2)
    return radii


def ball_kernel(n, h, r):
    """Indicator of grid offsets whose periodic distance is strictly below the length r."""
    ax = np.minimum(np.arange(n), n - np.arange(n)).astype(float)
    d2 = ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2
    return d2 < (r / h) ** 2 * (1.0 - 1e-12)


def maximal_function(g: ScalarGrid, radii=None) -> ScalarGrid:
    """Max over ``radii`` (default ``dyadic_radii``) of the ball averages, through ``numpy.fft``."""
    radii = sorted(dyadic_radii(g.n, g.period) if radii is None else radii)
    spec = np.fft.rfftn(g.values)
    out = np.full_like(g.values, -np.inf)
    for r in radii:
        kernel = ball_kernel(g.n, g.h, r)
        avg = np.fft.irfftn(spec * np.fft.rfftn(kernel), s=g.values.shape, axes=(0, 1, 2)) / int(kernel.sum())
        np.maximum(out, avg, out=out)
    np.maximum(out, g.values, out=out)
    return ScalarGrid(n=g.n, period=g.period, values=out)


def wrap_min3(a):
    for ax in range(a.ndim):
        a = np.minimum(np.minimum(np.roll(a, 1, ax), a), np.roll(a, -1, ax))
    return a


def chebyshev_distance(mask, h, period):
    """Periodic Chebyshev distance (cell centers) to the unflagged cells, in length units."""
    n = mask.shape[0]
    if not mask.any():
        return np.zeros_like(mask, dtype=float)
    if mask.all():
        return np.full(mask.shape, period / 2.0)
    dist = np.where(mask, np.inf, 0.0)
    for _ in range(n // 2):
        new = np.minimum(dist, wrap_min3(dist) + 1.0)
        if np.array_equal(new, dist):
            break
        dist = new
    return dist * h


def whitney_decompose(mask) -> WhitneyCover:
    """Maximal admissible blocks, admitted on the length distance divided back into cells."""
    n, h, period = mask.n, mask.h, mask.period
    distance = chebyshev_distance(mask.mask, h, period)
    levels = [k for k in range(0, n.bit_length()) if n % (1 << k) == 0 and (1 << k) <= n // 4]
    adm = {}
    for k in levels:
        s = 1 << k
        flagged = _block_min(mask.mask.astype(np.int8), s).astype(bool)
        adm[k] = flagged & (s <= _block_min(distance / h, s) + 1e-9)
    centers, cube_levels, dists = [], [], []
    paint = np.zeros_like(mask.mask)
    for k in levels:
        s = 1 << k
        maximal = adm[k].copy()
        if k + 1 in adm:
            maximal &= ~_upsample(adm[k + 1], 2)
        paint |= _upsample(maximal, s)
        centers.append((np.argwhere(maximal) + 0.5) * s * h)
        cube_levels.append(np.full(len(centers[-1]), k, dtype=np.int64))
        dists.append(_block_min(distance, s)[maximal])
    cube_levels = np.concatenate(cube_levels)
    tile = (1 << cube_levels) * h
    cover = WhitneyCover(period=period, n=n, centers=np.concatenate(centers), sides=DILATION * tile,
                         levels=cube_levels)
    ratios = np.concatenate(dists) / tile
    si, sj = cover.sides[cover.pairs.T]
    cover.stats = {
        "w1_exact": bool((paint == mask.mask).all()),
        "w2_ratio_min": float(ratios.min()),
        "w2_ratio_max": float(ratios.max()),
        "overlap": int(np.diff(cover.cell_ptr).max(initial=0)),
        "w4_ratio_max": float(np.max(np.maximum(si, sj) / np.minimum(si, sj), initial=1.0)),
    }
    return cover
