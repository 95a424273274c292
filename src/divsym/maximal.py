"""Discrete centered maximal operator, superlevel bad sets, and set estimates.

Grids sample the torus at cell centers ``x = (idx + 1/2) h`` with ``h =
period / n``.  Ball averages use cell-center membership in the open
periodic Euclidean ball.  Radii count cells: the family is fixed at
1, 2, 4, ... below n/2, then n/2 (half the period), so the supremum over
all radii is approximated within a fixed factor of ball-volume ratios, and
a ball holds the offsets whose integer squared length is below r^2.

The flagging stage ends at the superlevel mask; the distance to its
complement is read only by the Whitney step, which computes it there.
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
    """Boolean mask of the flagged cells."""

    n: int
    period: float
    mask: np.ndarray  # (n, n, n) bool

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


def sample_abs(f: TrigSymField, n: int) -> ScalarGrid:
    """Grid of Frobenius norms |f(x)| at cell centers."""
    if n < 8:
        raise ValueError("resolution must be >= 8")
    return ScalarGrid(n=n, period=f.period, values=np.sqrt(_sym6_sq(f.grid_components(n))))


def _radii(n):
    """The radius family in cells: 1, 2, 4, ... below n/2, then n/2."""
    return [1 << k for k in range(n.bit_length()) if 2 << k < n] + [n / 2]


def _ball_kernel(n, r):
    """Indicator of grid offsets whose periodic distance is strictly below r cells."""
    ax = np.minimum(np.arange(n), n - np.arange(n))
    d2 = ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2
    return d2 < r * r


def maximal_function(g: ScalarGrid) -> ScalarGrid:
    """Centered maximal function: max over the radius family ``_radii`` of ball averages.

    Output dominates the input pointwise because the one-cell ball is the
    cell itself.  The one-grid case of ``_maximal``.
    """
    return ScalarGrid(n=g.n, period=g.period, values=_maximal(g.values))


def _maximal(values):
    """The maximal function of each (n, n, n) grid of a stack ``values`` (..., n, n, n).

    Each radius's ball kernel is transformed once per call, and every grid
    of the stack goes through one batched ``rfftn``/``irfftn`` over the
    last three axes.  The product keeps the spelling ``spec * rfftn(kernel)``:
    from n = 32 on, numpy reuses the temporary of a lone (n, n, n) grid and
    computes ``rfftn(kernel) * spec``, and complex products are not bitwise
    commutative, so a stacked grid may differ from a lone one by a rounding
    step there.
    """
    n, axes = values.shape[-1], (-3, -2, -1)
    spec = np.fft.rfftn(values, axes=axes)
    out = np.full_like(values, -np.inf)
    for r in _radii(n):
        kernel = _ball_kernel(n, r)
        count = int(kernel.sum())
        avg = np.fft.irfftn(spec * np.fft.rfftn(kernel), s=values.shape[-3:], axes=axes) / count
        np.maximum(out, avg, out=out)
    # the r=1 ball is the cell itself; guard rounding so domination is exact
    np.maximum(out, values, out=out)
    return out


def _check_lambda(lam, error=ValueError):
    if not (np.isfinite(lam) and lam > 0):
        raise error("lambda must be positive and finite")


def bad_set(m: ScalarGrid, lam: float) -> OpenSetMask:
    """Superlevel mask {values > lam}."""
    _check_lambda(lam)
    return OpenSetMask(n=m.n, period=m.period, mask=m.values > lam)


@dataclass
class ZhangReport:
    lhs: float     # measure of {maximal > lambda}
    rhs: float     # integral of |f| over {|f| > lambda/2}
    ratio: float   # lhs * lambda / rhs (0 when both vanish, inf when only rhs does)


def zhang_bound_check(f: TrigSymField, lam: float, n: int) -> ZhangReport:
    """Both sides of the superlevel set estimate, by midpoint quadrature."""
    _check_lambda(lam)
    g = sample_abs(f, n)
    m = maximal_function(g)
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

