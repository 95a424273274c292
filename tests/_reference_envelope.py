"""Dict/``eval_many`` reference for the spectral-array envelope descent.

The projected descent as it was written before ``divsym.envelope``
switched to coefficient arrays: each iterate is a ``TrigSymField``
resampled by the direct mode sum ``eval_many``, band-projected mode by
mode through a dict and re-validated by the constructor.  Kept apart
from the code under test; same signatures and return values.  Slow
(about 40 ms per iteration at max_freq 2).  The initializer draws a dict
field and projects it with ``project_div_free``.

``_project_simplex_hull`` is the active-set nearest point of a polytope,
one point at a time: the oracle for ``envelope._project_hull``.
``_fft_index``, ``_modes_to_grid`` and ``_grid_to_modes`` are the real
FFT pair that sampled fields and ran the descent before the separable band
DFT: the oracle for ``fields._band_grid`` and ``fields._band_modes``.
"""

import numpy as np
from scipy import fft

from _reference_fields import cell_centers
from divsym.fields import TrigSymField, project_div_free


def _fft_index(xis, n):
    """Half-spectrum index of the modes ``(m, 3)`` on the n-grid.

    Returns the rows of the modes whose folded ``xi_z mod n <= n/2`` (the
    bins ``irfftn`` reads; the mirror of every other mode is among them),
    their bins, and the phases of the half-cell shift.
    """
    keep = np.flatnonzero(xis[:, 2] % n <= n // 2)
    return keep, tuple((xis[keep] % n).T), np.exp(1j * np.pi * xis[keep].sum(axis=1) / n)


def _modes_to_grid(coeffs, index, n):
    """Real values ``(n, n, n, ...)`` at the cell centres ``(idx + 1/2) h`` of modes ``(m, ...)``.

    Exact for any Hermitian-paired mode set, aliased modes included: every
    kept mode adds into its bin of the half spectrum.
    """
    keep, idx, phase = index
    spec = np.zeros((n, n, n // 2 + 1) + coeffs.shape[1:], dtype=complex)
    np.add.at(spec, idx, (coeffs[keep].T * phase).T)
    return fft.irfftn(spec, s=(n, n, n), axes=(0, 1, 2), norm="forward")


def _grid_to_modes(values, index):
    """Coefficients ``(len(keep), ...)`` of real cell-centre values ``(n, n, n, ...)``.

    ``index`` is ``_fft_index``; inverts ``_modes_to_grid`` on the index's
    kept modes.
    """
    _, idx, phase = index
    return (fft.rfftn(values, axes=(0, 1, 2), norm="forward")[idx].T * phase.conj()).T


def _seeded_init(seed, restart, max_freq, amplitude, period):
    """Nested random initializer: modes are drawn per-frequency from a hashed stream."""
    coeffs = {}
    rng_span = range(-max_freq, max_freq + 1)
    for xi in sorted((a, b, c) for a in rng_span for b in rng_span for c in rng_span):
        if xi <= (-xi[0], -xi[1], -xi[2]) or xi == (0, 0, 0):
            continue
        rng = np.random.default_rng([seed, restart, xi[0] + 64, xi[1] + 64, xi[2] + 64])
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        coeffs[xi] = amplitude * 0.5 * (m + m.T)
    f = TrigSymField(coeffs, period=period)
    return project_div_free(f)


def _project_simplex_hull(vertices6, y6):
    """Nearest point of conv(vertices) to y, by an active-set loop on the weights.

    Solves min |V lam - y| over the probability simplex: repeatedly solve the
    equality-constrained problem on the active support and prune negative
    weights Lawson-Hanson style.
    """
    v = np.asarray(vertices6)
    k = len(v)
    start = int(np.argmin(np.linalg.norm(v - y6, axis=1)))
    lam = np.zeros(k)
    lam[start] = 1.0
    support = {start}
    for _ in range(8 * k + 16):
        idx = sorted(support)
        vs = v[idx]
        g = vs @ vs.T
        kkt = np.zeros((len(idx) + 1, len(idx) + 1))
        kkt[:len(idx), :len(idx)] = 2.0 * g
        kkt[:len(idx), -1] = 1.0
        kkt[-1, :len(idx)] = 1.0
        rhs = np.concatenate([2.0 * vs @ y6, [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        trial = np.zeros(k)
        trial[idx] = sol[:len(idx)]
        if (trial[idx] >= -1e-12).all():
            lam = np.clip(trial, 0.0, None)
            lam /= lam.sum()
            # optimality: no outside vertex may offer a lower multiplier
            grad = 2.0 * v @ (v.T @ lam - y6)
            mu = float(np.min(grad[idx]))
            outside = np.setdiff1d(np.arange(k), idx)
            if len(outside) == 0 or grad[outside].min() >= mu - 1e-10 * (1 + abs(mu)):
                return v.T @ lam
            support.add(int(outside[np.argmin(grad[outside])]))
        else:
            # step from lam toward trial until the first weight hits zero
            d = trial - lam
            neg = [i for i in idx if trial[i] < 0 and d[i] < 0]
            alpha = min(-lam[i] / d[i] for i in neg)
            lam = lam + alpha * d
            for i in list(support):
                if lam[i] <= 1e-14:
                    lam[i] = 0.0
                    support.discard(i)
            if not support:
                support = {start}
                lam[start] = 1.0
    return v.T @ lam  # fallback: best found


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
    grid = cell_centers(n, period).reshape(-1, 3)
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

