"""Discrete centered maximal operator, superlevel bad sets, and set estimates.

Grids sample the torus at cell centers ``x = (idx + 1/2) h`` with ``h =
period / n``.  Ball averages use cell-center membership in the open
periodic Euclidean ball; the default radius family is dyadic ``{h, 2h,
4h, ..., period/2}``, so the supremum over all radii is approximated
within a fixed factor of ball-volume ratios.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .fields import TrigSymField, _sym6_sq


@dataclass
class ScalarGrid:
    """Scalar samples at the n^3 cell centers of the periodic grid."""

    n: int
    period: float
    values: np.ndarray  # (n, n, n), indexed [ix, iy, iz]

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("grid resolution must be >= 8")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n, self.n, self.n):
            raise ValueError("values shape does not match resolution")
        if not np.isfinite(self.values).all():
            raise ValueError("grid contains non-finite values")

    @property
    def h(self):
        return self.period / self.n

    def cell_measure(self):
        return self.h**3


@dataclass
class OpenSetMask:
    """Boolean cell mask plus periodic Chebyshev distance to the complement."""

    n: int
    period: float
    mask: np.ndarray  # (n, n, n) bool
    distance: np.ndarray  # (n, n, n) float, length units; 0 exactly off the set

    @property
    def h(self):
        return self.period / self.n

    def measure(self):
        return float(self.mask.sum()) * (self.period / self.n) ** 3

    def is_empty(self):
        return not self.mask.any()

    def is_full(self):
        return bool(self.mask.all())

    def contains(self, x):
        """Whether the flagged cells hold the points ``x`` (..., 3), taken modulo the period; bools (...)."""
        cell = np.floor((np.asarray(x, dtype=float) % self.period) / self.h).astype(np.int64) % self.n
        return self.mask[cell[..., 0], cell[..., 1], cell[..., 2]]


def dyadic_radii(n, period=1.0):
    """The default radius family {h, 2h, 4h, ...} capped at period/2."""
    h = period / n
    radii = []
    r = h
    while r < period / 2:
        radii.append(r)
        r *= 2
    radii.append(period / 2)
    return radii


def sample_abs(f: TrigSymField, n: int) -> ScalarGrid:
    """Grid of Frobenius norms |f(x)| at cell centers."""
    if n < 8:
        raise ValueError("resolution must be >= 8")
    return ScalarGrid(n=n, period=f.period, values=np.sqrt(_sym6_sq(f.grid_components(n))))


def _ball_kernel(n, h, r):
    """Indicator of grid offsets whose periodic distance is strictly below r."""
    ax = np.minimum(np.arange(n), n - np.arange(n)).astype(float)
    d2 = ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2
    return d2 < (r / h) ** 2 * (1.0 - 1e-12)


def maximal_function(g: ScalarGrid, radii=None) -> ScalarGrid:
    """Centered maximal function: max over the radius family of ball averages.

    Output dominates the input pointwise because the smallest admissible
    radius ball contains the cell itself.
    """
    if radii is None:
        radii = dyadic_radii(g.n, g.period)
    radii = sorted(float(r) for r in radii)
    if not radii:
        raise ValueError("radius list must be nonempty")
    h = g.h
    if radii[0] < h * (1.0 - 1e-12):
        raise ValueError(f"smallest radius {radii[0]} is below the grid spacing {h}")
    if radii[-1] > g.period / 2 + 1e-12:
        raise ValueError("radii must stay within half the period")
    spec = np.fft.rfftn(g.values)
    out = np.full_like(g.values, -np.inf)
    shape = g.values.shape
    for r in radii:
        kernel = _ball_kernel(g.n, h, r)
        count = int(kernel.sum())
        avg = np.fft.irfftn(spec * np.fft.rfftn(kernel), s=shape, axes=(0, 1, 2)) / count
        np.maximum(out, avg, out=out)
    # the r=h ball is the cell itself; guard rounding so domination is exact
    np.maximum(out, g.values, out=out)
    return ScalarGrid(n=g.n, period=g.period, values=out)


def _wrap_min3(a):
    """Minimum over each cell's periodic 3x3x3 neighbourhood, one axis at a time."""
    for ax in range(a.ndim):
        a = np.minimum(np.minimum(np.roll(a, 1, ax), a), np.roll(a, -1, ax))
    return a


def _chebyshev_distance(mask, h, period):
    """Periodic Chebyshev distance (cell centers) to the unflagged cells."""
    n = mask.shape[0]
    if not mask.any():
        return np.zeros_like(mask, dtype=float)
    if mask.all():
        return np.full(mask.shape, period / 2.0)
    dist = np.where(mask, np.inf, 0.0)
    for _ in range(n // 2):
        step = _wrap_min3(dist) + 1.0
        new = np.minimum(dist, step)
        if np.array_equal(new, dist):
            break
        dist = new
    return dist * h


def bad_set(m: ScalarGrid, lam: float) -> OpenSetMask:
    """Superlevel mask {values > lam} with its periodic distance transform."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    mask = m.values > lam
    dist = _chebyshev_distance(mask, m.h, m.period)
    return OpenSetMask(n=m.n, period=m.period, mask=mask, distance=dist)


@dataclass
class ZhangReport:
    lhs: float     # measure of {maximal > lambda}
    rhs: float     # integral of |f| over {|f| > lambda/2}
    ratio: float   # lhs * lambda / rhs (0 when both vanish, inf when only rhs does)


def zhang_bound_check(f: TrigSymField, lam: float, n: int, radii=None) -> ZhangReport:
    """Both sides of the superlevel set estimate, by midpoint quadrature."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    g = sample_abs(f, n)
    m = maximal_function(g, radii)
    cell = g.cell_measure()
    lhs = float((m.values > lam).sum()) * cell
    tail = g.values > lam / 2
    rhs = float(g.values[tail].sum()) * cell
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else np.inf
    else:
        ratio = lhs * lam / rhs
    return ZhangReport(lhs=lhs, rhs=rhs, ratio=ratio)


# ---------------------------------------------------------------------------
# grid i/o: header {n: u32, period: f64}, then n^3 little-endian f64, x fastest


def write_grid(path, g: ScalarGrid):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Id", g.n, g.period))
        fh.write(g.values.astype("<f8").ravel(order="F").tobytes())


def read_grid(path) -> ScalarGrid:
    with open(path, "rb") as fh:
        n, period = struct.unpack("<Id", fh.read(12))
        data = np.frombuffer(fh.read(8 * n**3), dtype="<f8")
    return ScalarGrid(n=n, period=period, values=data.reshape((n, n, n), order="F").copy())

