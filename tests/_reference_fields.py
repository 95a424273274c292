"""Per-mode reference for the ``TrigSymField`` constructor.

``mode_arrays`` is the constructor the stacked one replaced: every mode is
checked in a Python loop (frequency key, shape, finiteness, symmetry), then
the Hermitian mirrors are checked and closed one pair at a time, the zero
mode is made real and the modes are sorted.  It is kept as the oracle the
stacked checks and closure are tested against, for the arrays and for the
error raised on malformed input.  ``cell_centers`` is the grid the tests
sample fields on by direct mode sums.
"""

import numpy as np

from divsym.fields import _as_freq, _neg


def cell_centers(n, period):
    """The n^3 cell centres of the torus of side ``period``, (n, n, n, 3)."""
    ax = (np.arange(n) + 0.5) * (period / n)
    return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)


def mode_arrays(coeffs, period=1.0, tol=1e-10):
    """The sorted ``(xis (m,3) int64, cs (m,3,3) complex)`` of a field built from ``coeffs``."""
    if not (np.isfinite(period) and period > 0):
        raise ValueError(f"period must be positive and finite, not {period}")
    cleaned = {}
    for xi, c in coeffs.items():
        xi = _as_freq(xi)
        c = np.asarray(c, dtype=complex)
        if c.shape != (3, 3):
            raise ValueError(f"coefficient for {xi} has shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError(f"coefficient for {xi} is not finite")
        asym = np.abs(c - c.T).max()
        if asym > tol * max(1.0, np.abs(c).max()):
            raise ValueError(f"coefficient at {xi} is not symmetric (defect {asym:.2e})")
        cleaned[xi] = 0.5 * (c + c.T)
    # enforce closure under negation: coeff(-xi) = conj(coeff(xi))
    scale = max((np.abs(c).max() for c in cleaned.values()), default=0.0)
    for xi in list(cleaned):
        mirror = _neg(xi)
        if mirror in cleaned:
            if np.abs(cleaned[mirror] - cleaned[xi].conj()).max() > tol * max(1.0, scale):
                raise ValueError(f"coefficients at {xi}/{mirror} are not Hermitian partners")
            cleaned[mirror] = cleaned[xi].conj() if xi <= mirror else cleaned[mirror]
        else:
            cleaned[mirror] = cleaned[xi].conj()
    if (0, 0, 0) in cleaned:
        cleaned[(0, 0, 0)] = cleaned[(0, 0, 0)].real.astype(complex)
    coeffs = {xi: cleaned[xi] for xi in sorted(cleaned)}
    if not coeffs:
        return np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3, 3), dtype=complex)
    xis = np.array(list(coeffs), dtype=np.int64)
    return xis, np.stack([coeffs[tuple(x)] for x in xis])
