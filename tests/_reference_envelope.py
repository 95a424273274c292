"""Dict/``eval_many`` reference for the spectral-array envelope descent.

The projected descent and the clamp-and-project sequence as they were
written before ``divsym.envelope`` switched to coefficient arrays: each
iterate is a ``TrigSymField`` resampled by the direct mode sum
``eval_many``, band-projected mode by mode through a dict and re-validated
by the constructor.  Kept apart from the code under test; same signatures
and return values.  Slow (about 40 ms per iteration at max_freq 2).
"""

import numpy as np

from divsym.envelope import _seeded_init
from divsym.fields import PreconditionError, TrigSymField, _cell_centers, project_div_free


def _band_project(values, max_freq, n, period):
    """Grid field -> band-limited, mean-zero, divergence-free trig field."""
    spec = np.empty((3, 3, n, n, n), dtype=complex)
    for a in range(3):
        for b in range(3):
            spec[a, b] = np.fft.fftn(values[..., a, b]) / n**3
    coeffs = {}
    rng_span = range(-max_freq, max_freq + 1)
    shift = np.exp(-1j * np.pi * np.arange(-max_freq, max_freq + 1) / n)  # undo half-cell offset
    for i, fi in enumerate(rng_span):
        for j, fj in enumerate(rng_span):
            for l, fl in enumerate(rng_span):
                if (fi, fj, fl) == (0, 0, 0):
                    continue
                c = spec[:, :, fi % n, fj % n, fl % n] * (shift[i] * shift[j] * shift[l])
                c = 0.5 * (c + c.T)
                coeffs[(fi, fj, fl)] = c
    f = TrigSymField(coeffs, period=period, tol=1e-6)
    return project_div_free(f)


def minimize_over_test_fields(objective, max_freq, restarts, iterations, seed,
                              period=1.0, init_amplitude=0.1, xi_offset=None):
    """Projected descent of mean(objective(xi + phi)) over admissible fields.

    Restart 0 starts from the zero field; every restart only ever accepts
    decreasing steps, so the reported value never exceeds the restart's
    initial one.  Returns (best value, best field, trace).
    """
    n = max(4 * max_freq, 16)
    grid = _cell_centers(n, period).reshape(-1, 3)
    offset = np.zeros((3, 3)) if xi_offset is None else np.asarray(xi_offset, dtype=float)

    def evaluate(phi_values):
        vals, grads = objective(offset[None, :, :] + phi_values)
        return float(vals.mean()), grads

    best_val, best_field, trace = np.inf, None, []
    for r in range(restarts):
        if r == 0:
            phi = TrigSymField({}, period=period)
        else:
            phi = _seeded_init(seed, r, max_freq, init_amplitude, period)
        phi_vals = phi.eval_many(grid).reshape(n, n, n, 3, 3) if phi.coeffs else np.zeros((n, n, n, 3, 3))
        val, grads = evaluate(phi_vals)
        step = 1.0
        for _ in range(iterations):
            trial_grid = phi_vals - step * grads
            trial = _band_project(trial_grid, max_freq, n, period)
            trial_vals = trial.eval_many(grid).reshape(n, n, n, 3, 3) if trial.coeffs else np.zeros_like(phi_vals)
            tval, tgrads = evaluate(trial_vals)
            if tval < val - 1e-14:
                phi, phi_vals, val, grads = trial, trial_vals, tval, tgrads
                step *= 1.3
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        trace.append(val)
        if val < best_val:
            best_val, best_field = val, phi
    return best_val, best_field, trace


def truncate_project_sequence(u: TrigSymField, big_r: float, n: int | None = None) -> TrigSymField:
    """Indicator-clamp at |u| > 2R, re-expand on the grid, recentre and project.

    Frequencies at the grid Nyquist are dropped (they have no Hermitian
    partner on an even grid); choose n above twice the bandwidth to make
    the clamp-free round trip exact.
    """
    if big_r <= 0:
        raise PreconditionError("R must be positive")
    if n is None:
        n = max(2 * u.max_freq + 2, 16)
    vals = u.grid_values(n)
    norms = np.sqrt(np.einsum("...ab,...ab->...", vals, vals))
    vals = np.where((norms <= 2.0 * big_r)[..., None, None], vals, 0.0)
    spec = np.empty((3, 3, n, n, n), dtype=complex)
    for a in range(3):
        for b in range(3):
            spec[a, b] = np.fft.fftn(vals[..., a, b]) / n**3
    coeffs = {}
    half = n // 2
    freqs = [f if f <= half else f - n for f in range(n)]
    shift = {f: np.exp(-1j * np.pi * f / n) for f in freqs}
    scale = max(np.abs(spec).max(), 1.0)
    for i, fi in enumerate(freqs):
        for j, fj in enumerate(freqs):
            for l, fl in enumerate(freqs):
                if (fi, fj, fl) == (0, 0, 0) or abs(fi) == half or abs(fj) == half or abs(fl) == half:
                    continue
                c = spec[:, :, i, j, l] * (shift[fi] * shift[fj] * shift[fl])
                if np.abs(c).max() < 1e-15 * scale:
                    continue
                coeffs[(fi, fj, fl)] = 0.5 * (c + c.T)
    f = TrigSymField(coeffs, period=u.period, tol=1e-8)
    return project_div_free(f)
