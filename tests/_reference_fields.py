"""Per-mode reference for the ``TrigSymField`` constructor.

``mode_arrays`` is the constructor the stacked one replaced: every mode is
checked in a Python loop (frequency key, shape, finiteness, symmetry), then
the Hermitian mirrors are checked and closed one pair at a time, the zero
mode is made real and the modes are sorted.  It is kept as the oracle the
stacked checks and closure are tested against, for the arrays and for the
error raised on malformed input.  ``cell_centers`` is the grid the tests
sample fields on by direct mode sums.  ``random_field`` is the draw loop
the stacked one replaced, each mode projected as drawn by ``project_mode``,
the per-mode projector; ``project_div_free`` projects a whole field with it
and keeps the zero mode.
"""

import numpy as np

from divsym.fields import TrigSymField, _as_freq, _neg


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


def project_mode(xi, c):
    """``Q c Q`` with ``Q = I - n n^T``, n = xi / |xi|, for a non-zero frequency ``xi``."""
    nvec = np.asarray(xi, dtype=float)
    nvec = nvec / np.linalg.norm(nvec)
    q = np.eye(3) - np.outer(nvec, nvec)
    return q @ c @ q


def project_div_free(f):
    """Every non-zero mode of ``f`` projected by ``project_mode``; the zero mode, a constant, is kept."""
    return TrigSymField({xi: c if xi == (0, 0, 0) else project_mode(xi, c) for xi, c in f.coeffs.items()},
                        period=f.period)


def random_field(seed, max_freq, amplitude, divfree=False, period=1.0):
    """``fields.random_field`` as a loop over the Hermitian pairs, each mode projected as it is drawn."""
    if max_freq < 1:
        raise ValueError("max_freq must be >= 1")
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if amplitude == 0.0:
        return TrigSymField({}, period=period)
    rng = np.random.default_rng(seed)
    coeffs = {}
    span = range(-max_freq, max_freq + 1)
    for xi in sorted((a, b, c) for a in span for b in span for c in span):
        if xi < _neg(xi):
            continue  # one draw per Hermitian pair
        m = rng.standard_normal((3, 3)) + (0.0 if xi == (0, 0, 0) else 1j) * rng.standard_normal((3, 3))
        c = amplitude * 0.5 * (m + m.T)
        if not divfree:
            coeffs[xi] = c
        elif xi != (0, 0, 0):  # the field projected keeps the partner's projection and mirrors it
            coeffs[_neg(xi)] = project_mode(_neg(xi), c.conj())
    return TrigSymField(coeffs, period=period)
