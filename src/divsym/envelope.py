"""Div-quasiconvex envelope estimation by projected descent over test fields.

The admissible class is the linear subspace of mean-zero divergence-free
trigonometric fields up to a frequency cutoff F, so projected gradient
descent is exact.  The iterate is a coefficient array over the (2F+1)^3 - 1
non-zero modes.  Each step resamples it at the n^3 cell centres by one
inverse FFT (exact: n = max(4F, 16) > 2F, so no mode aliases), steps along
the pointwise objective gradient, and band-projects: one forward FFT, then
every band mode is symmetrised, paired and projected at once.  The FFT pair
is the one in ``fields``.  Estimates are upper bounds of the
restricted-frequency envelope; membership in a hull is therefore one-sided.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .fields import (PreconditionError, TrigSymField, _fft_index, _grid_to_modes,
                     _modes_to_grid, project_div_free)

_SQRT2 = np.sqrt(2.0)


def _to6(m):
    """Isometric 6-vector of a symmetric matrix (Mandel components)."""
    m = np.asarray(m, dtype=float)
    return np.array([m[..., 0, 0], m[..., 1, 1], m[..., 2, 2],
                     _SQRT2 * m[..., 1, 2], _SQRT2 * m[..., 0, 2], _SQRT2 * m[..., 0, 1]]).T


def _from6(v):
    v = np.asarray(v, dtype=float)
    s = 1.0 / _SQRT2
    out = np.empty(v.shape[:-1] + (3, 3))
    out[..., 0, 0] = v[..., 0]
    out[..., 1, 1] = v[..., 1]
    out[..., 2, 2] = v[..., 2]
    out[..., 1, 2] = out[..., 2, 1] = s * v[..., 3]
    out[..., 0, 2] = out[..., 2, 0] = s * v[..., 4]
    out[..., 0, 1] = out[..., 1, 0] = s * v[..., 5]
    return out


@dataclass
class CompactSetDescriptor:
    """A compact subset of the symmetric matrices with the Frobenius metric."""

    kind: str                       # "ball" | "points" | "polytope"
    center: np.ndarray = None       # ball
    radius: float = 0.0             # ball
    points: list = dfield(default_factory=list)  # points / polytope vertices

    def __post_init__(self):
        if self.kind == "ball":
            if self.radius <= 0:
                raise ValueError("ball radius must be positive")
            self.center = np.asarray(self.center, dtype=float).reshape(3, 3)
        elif self.kind in ("points", "polytope"):
            if not self.points:
                raise ValueError("point set must be nonempty")
            self.points = [np.asarray(p, dtype=float).reshape(3, 3) for p in self.points]
        else:
            raise ValueError(f"unknown set kind {self.kind!r}")

    def diameter(self):
        if self.kind == "ball":
            return 2.0 * self.radius
        pts = np.stack([_to6(p) for p in self.points])
        if len(pts) == 1:
            return 0.0
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        return float(d.max())

    def to_json(self):
        if self.kind == "ball":
            return {"kind": "ball", "center": self.center.tolist(), "radius": self.radius}
        return {"kind": self.kind, "points": [p.tolist() for p in self.points]}

    @classmethod
    def from_json(cls, data):
        kind = data.get("kind")
        if kind == "ball":
            return cls(kind="ball", center=np.asarray(data["center"]), radius=float(data["radius"]))
        if kind in ("points", "polytope"):
            return cls(kind=kind, points=[np.asarray(p) for p in data["points"]])
        raise ValueError(f"unknown set kind {kind!r}")


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


def nearest_point(k: CompactSetDescriptor, xi):
    """The (deterministically tie-broken) nearest point of K to xi."""
    y6 = _to6(np.asarray(xi, dtype=float))
    if k.kind == "ball":
        c6 = _to6(k.center)
        d = np.linalg.norm(y6 - c6)
        if d <= k.radius:
            return np.asarray(xi, dtype=float)
        return _from6(c6 + (y6 - c6) * (k.radius / d))
    if k.kind == "points":
        pts = np.stack([_to6(p) for p in k.points])
        return k.points[int(np.argmin(np.linalg.norm(pts - y6, axis=1)))]
    return _from6(_project_simplex_hull(np.stack([_to6(p) for p in k.points]), y6))


def dist_p(k: CompactSetDescriptor, xi, p: float) -> float:
    """Frobenius distance from xi to K, raised to the power p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    y6 = _to6(np.asarray(xi, dtype=float))
    n6 = _to6(nearest_point(k, xi))
    return float(np.linalg.norm(y6 - n6) ** p)


class DistanceObjective:
    """Pointwise value/gradient of dist^p(., K) for batched matrix samples."""

    def __init__(self, k: CompactSetDescriptor, p: float):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.k = k
        self.p = float(p)

    def __call__(self, values):
        """values: (..., 3, 3) -> (vals (...,), grads (..., 3, 3))."""
        y6 = _to6(values).reshape(-1, 6)
        if self.k.kind == "ball":
            c6 = _to6(self.k.center)
            delta = y6 - c6
            dist = np.maximum(np.linalg.norm(delta, axis=1) - self.k.radius, 0.0)
            dirs = np.zeros_like(delta)
            nz = dist > 0
            dirs[nz] = delta[nz] / np.linalg.norm(delta[nz], axis=1, keepdims=True)
        elif self.k.kind == "points":
            pts = np.stack([_to6(q) for q in self.k.points])
            d2 = ((y6[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            best = np.argmin(d2, axis=1)
            delta = y6 - pts[best]
            dist = np.linalg.norm(delta, axis=1)
            dirs = np.zeros_like(delta)
            nz = dist > 0
            dirs[nz] = delta[nz] / dist[nz, None]
        else:
            near = np.stack([_to6(nearest_point(self.k, _from6(v))) for v in y6])
            delta = y6 - near
            dist = np.linalg.norm(delta, axis=1)
            dirs = np.zeros_like(delta)
            nz = dist > 0
            dirs[nz] = delta[nz] / dist[nz, None]
        vals = dist**self.p
        gmag = np.where(dist > 0, self.p * dist ** (self.p - 1.0), 0.0)
        grads = _from6(gmag[:, None] * dirs)
        shape = values.shape[:-2]
        return vals.reshape(shape), grads.reshape(shape + (3, 3))


def _modes(max_freq):
    """All modes of max-norm <= max_freq, sorted; the zero mode sits in the middle."""
    span = np.arange(-max_freq, max_freq + 1)
    return np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)


def _band(max_freq, n):
    """The non-zero modes, their FFT index on the n-grid and projectors Q = I - xi^ xi^T.

    The modes are symmetric about the removed zero mode, so reversing an
    array pairs each mode with its mirror -xi, and the first half holds the
    smaller mode of each pair.
    """
    xis = np.delete(_modes(max_freq), (2 * max_freq + 1) ** 3 // 2, axis=0)
    unit = xis / np.linalg.norm(xis, axis=1, keepdims=True)
    return xis, _fft_index(xis, n), np.eye(3) - unit[:, :, None] * unit[:, None, :]


def _pair_and_project(c, q, tol):
    """Symmetrise band coefficients, pair mirrors and project every mode by Q c Q.

    As in the validating constructor, mirrors must be Hermitian partners
    within ``tol * max(1, max|c|)`` and the smaller mode of a pair wins.
    """
    c = 0.5 * (c + c.swapaxes(1, 2))
    partner = c[::-1].conj()
    if np.abs(c - partner).max(initial=0.0) > tol * max(1.0, np.abs(c).max(initial=0.0)):
        raise ValueError("band coefficients are not Hermitian partners")
    c[len(c) // 2:] = partner[len(c) // 2:]
    c = q @ c @ q  # q is real and even in xi, so the pairs stay exact
    return 0.5 * (c + c.swapaxes(1, 2))


def _band_project(values, band):
    """Grid field -> coefficients of its band-limited, mean-zero, divergence-free part."""
    _, index, q = band
    return _pair_and_project(_grid_to_modes(values, index), q, tol=1e-6)


def _band_field(xis, coeffs, period):
    return TrigSymField(dict(zip(map(tuple, xis.tolist()), coeffs)), period=period)


@dataclass
class EnvelopeEstimate:
    xi: np.ndarray
    p: float
    value: float
    best_field: TrigSymField
    trace: list

    def __post_init__(self):
        if self.value < -1e-12:
            raise ValueError("envelope estimates are nonnegative")


def minimize_over_test_fields(objective, max_freq, restarts, iterations, seed,
                              period=1.0, init_amplitude=0.1, xi_offset=None):
    """Projected descent of mean(objective(xi + phi)) over admissible fields.

    Restart 0 starts from the zero field; every restart only ever accepts
    decreasing steps, so the reported value never exceeds the restart's
    initial one.  Returns (best value, best field, trace).
    """
    n = max(4 * max_freq, 16)
    band = _band(max_freq, n)
    xis, index, _ = band
    offset = np.zeros((3, 3)) if xi_offset is None else np.asarray(xi_offset, dtype=float)

    def evaluate(phi_values):
        vals, grads = objective(offset[None, :, :] + phi_values)
        return float(vals.mean()), grads

    best_val, best_coeffs, trace = np.inf, None, []
    for r in range(restarts):
        if r == 0:  # the zero field: no modes, so a best field from it has none
            coeffs, phi_vals = np.zeros((0, 3, 3), dtype=complex), np.zeros((n, n, n, 3, 3))
        else:
            # the initial field holds every band mode, so its sorted modes are the band
            coeffs = _seeded_init(seed, r, max_freq, init_amplitude, period).mode_arrays()[1]
            phi_vals = _modes_to_grid(coeffs, index, n)
        val, grads = evaluate(phi_vals)
        step = 1.0
        for _ in range(iterations):
            trial = _band_project(phi_vals - step * grads, band)
            trial_vals = _modes_to_grid(trial, index, n)
            tval, tgrads = evaluate(trial_vals)
            if tval < val - 1e-14:
                coeffs, phi_vals, val, grads = trial, trial_vals, tval, tgrads
                step *= 1.3
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        trace.append(val)
        if val < best_val:
            best_val, best_coeffs = val, coeffs
    best_field = None if best_coeffs is None else _band_field(xis, best_coeffs, period)
    return best_val, best_field, trace


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


def qsdqc_estimate(k: CompactSetDescriptor, xi, p, budget, seed=0) -> EnvelopeEstimate:
    """Upper bound of the div-quasiconvex envelope of dist^p(., K) at xi."""
    budget = dict(budget)
    max_freq = int(budget.get("max_freq", 2))
    restarts = int(budget.get("restarts", 10))
    iterations = int(budget.get("iterations", 60))
    if max_freq < 1 or restarts < 1 or iterations < 1:
        raise PreconditionError("budget entries must be positive")
    xi = np.asarray(xi, dtype=float).reshape(3, 3)
    objective = DistanceObjective(k, p)
    val, best, trace = minimize_over_test_fields(
        objective, max_freq, restarts, iterations, seed, xi_offset=xi,
        init_amplitude=0.25 * max(k.diameter(), 1.0),
    )
    val = max(val, 0.0)
    if best is None:
        best = TrigSymField({})
    return EnvelopeEstimate(xi=xi, p=float(p), value=val, best_field=best, trace=trace)


def hull_membership(k: CompactSetDescriptor, xi, p, budget, seed=0, tol=None) -> dict:
    """One-sided hull test: membership when the envelope estimate is tiny.

    'member' is reliable (the estimate is an upper bound); 'non-member'
    only says no descent was found within the supplied budget.
    """
    est = qsdqc_estimate(k, xi, p, budget, seed)
    if tol is None:
        tol = 1e-4 * max(k.diameter(), 1e-12) ** p
    return {"member": bool(est.value <= tol), "score": float(est.value), "tolerance": float(tol),
            "budget_limited": True}


def truncate_project_sequence(u: TrigSymField, big_r: float, n: int | None = None) -> TrigSymField:
    """Indicator-clamp at |u| > 2R, re-expand on the grid, recentre and project.

    Frequencies at the grid Nyquist are dropped (they have no Hermitian
    partner on an even grid); choose n above twice the bandwidth to make
    the clamp-free round trip exact.  Modes below 1e-15 times the largest
    grid coefficient are dropped.
    """
    if big_r <= 0:
        raise PreconditionError("R must be positive")
    if n is None:
        n = max(2 * u.max_freq + 2, 16)
    vals = u.grid_values(n)
    norms = np.sqrt(np.einsum("...ab,...ab->...", vals, vals))
    vals = np.where((norms <= 2.0 * big_r)[..., None, None], vals, 0.0)
    full = _modes(n // 2)  # every grid frequency: the Nyquist and zero modes also set the drop scale
    coeffs = _grid_to_modes(vals, _fft_index(full, n))
    scale = max(np.abs(coeffs).max(), 1.0)
    xis, _, q = _band(n // 2 - 1, n)
    coeffs = coeffs[(np.abs(full) < n // 2).all(axis=1) & full.any(axis=1)]
    keep = np.abs(coeffs).max(axis=(1, 2)) >= 1e-15 * scale
    keep |= keep[::-1]
    coeffs = _pair_and_project(coeffs, q, tol=1e-8)
    return _band_field(xis[keep], coeffs[keep], u.period)
