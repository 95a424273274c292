"""Per-wave reference for the weak-divergence battery.

``divergence_battery`` is the loop of one ``weak_divergence_defect`` call
per (plane wave, row) that ``truncation.divergence_defects`` replaced, and
``spiked_battery`` the matching loop for the non-solenoidal control; both
are kept as the oracles they are tested against.
"""

import numpy as np

from divsym.fields import SYM6_SLOT, TWO_PI, TrigSymField
from divsym.truncation import TruncationContext, sample_bad_truncation


class PlaneWave:
    """Scalar test function cos(2 pi xi . x / period + phase)."""

    def __init__(self, xi, phase=0.0, period=1.0):
        self.xi = tuple(int(v) for v in xi)
        self.phase = float(phase)
        self.period = float(period)

    def _arg(self, pts):
        return TWO_PI / self.period * (np.atleast_2d(pts) @ np.asarray(self.xi, dtype=float)) + self.phase

    def value(self, pts):
        return np.cos(self._arg(pts))

    def grad(self, pts):
        k_xi = TWO_PI / self.period * np.asarray(self.xi, dtype=float)
        return -np.sin(self._arg(pts))[:, None] * k_xi[None, :]


def battery_psis(period=1.0):
    """The fixed divergence test battery: three frequencies, four phases."""
    freqs = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    phases = [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4]
    return [PlaneWave(xi, ph, period) for xi in freqs for ph in phases]


def _plane_wave_pairing(f: TrigSymField, psi: PlaneWave, alpha: int) -> float:
    """Exact integral of f_alpha . grad(psi); equals the aliasing-free midpoint sum."""
    p = f.period
    k = TWO_PI / p
    xi = np.asarray(psi.xi, dtype=float)
    c = f.coeffs.get(tuple(-int(v) for v in psi.xi))
    if c is None:
        return 0.0
    total = 0.0
    for d in range(3):
        total += -k * xi[d] * np.imag(np.exp(1j * psi.phase) * p**3 * c[alpha, d])
    return float(total)


def weak_divergence_defect(ctx: TruncationContext, alpha: int, psi: PlaneWave, mask_m, tvals, w_bad) -> float:
    """Midpoint quadrature of integral (T w)_alpha . grad(psi) on the grid of ``mask_m``.

    ``tvals`` and ``w_bad`` hold T w and w at its flagged points, packed.
    Splits into the trig part (exact by discrete orthogonality for plane
    waves) plus the flagged-point correction (T - w) . grad(psi).
    """
    m = mask_m.shape[0]
    h3 = (ctx.period / m) ** 3

    term1 = _plane_wave_pairing(ctx.w, psi, alpha)

    if not mask_m.any():
        return term1

    pts = (np.argwhere(mask_m) + 0.5) * (ctx.period / m)
    g = psi.grad(pts)
    t_row = tvals[:, SYM6_SLOT[alpha]]
    w_row = w_bad[:, SYM6_SLOT[alpha]]
    term2 = float(((t_row - w_row) * g).sum()) * h3
    return term1 + term2


def divergence_battery(ctx: TruncationContext, m: int | None = None, psis=None) -> np.ndarray:
    """Defects |integral (T w)_alpha . grad psi| for the whole battery; (npsi, 3).

    T w and w are sampled once, at the flagged points of the m-grid.
    """
    psis = battery_psis(ctx.period) if psis is None else psis
    m = 2 * ctx.n if m is None else m
    _, mask_m, tvals = sample_bad_truncation(ctx, m)
    w_bad = ctx.w.grid_components(m)[mask_m]
    out = np.zeros((len(psis), 3))
    for p, psi in enumerate(psis):
        for alpha in range(3):
            out[p, alpha] = abs(weak_divergence_defect(ctx, alpha, psi, mask_m, tvals, w_bad))
    return out


def spiked_battery(ctx: TruncationContext, psis=None) -> np.ndarray:
    """Same battery for the non-solenoidal control w + lam sin(2 pi x1) e1 x e1."""
    psis = battery_psis(ctx.period) if psis is None else psis
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = -0.5j * ctx.lam
    spike = TrigSymField({(1, 0, 0): c}, period=ctx.period)
    out = np.zeros((len(psis), 3))
    for p, psi in enumerate(psis):
        for alpha in range(3):
            out[p, alpha] = abs(_plane_wave_pairing(spike, psi, alpha))
    return out
