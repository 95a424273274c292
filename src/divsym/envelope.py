"""Div-quasiconvex envelope estimation by projected descent over test fields.

The admissible class is the linear subspace of mean-zero divergence-free
trigonometric fields up to a frequency cutoff F, so projected gradient
descent is exact.  Symmetric matrices are Mandel rows (six real components,
an isometry), from the iterate to the objective's gradient.  The iterate is
a coefficient array over the half band: the non-zero modes with xi_z >= 0,
one of each Hermitian pair except in the plane xi_z = 0.  Since it lies in
the band, the band projection P of a trial step is P(phi - s g) =
phi - s P(g).  So the gradient is projected once per accepted point: one
forward band DFT, one 6x6 matrix per mode for c -> Q c Q, and one inverse
band DFT to resample P(g) at the n^3 cell centres.  A rejected step costs
only an axpy on the coefficients and on the grid.  Estimates are upper
bounds of the restricted-frequency envelope; membership in a hull is
therefore one-sided.

The objective is pointwise: each cell's value and gradient depend on that
cell's matrix alone.  So restart 0, the zero field, is one evaluation, of
xi as a single row: on the constant grid xi the gradient is constant, its
band projection is zero, and no step could move it.  The nearest point of
a finite set is the first one of largest y.r - |r|^2/2, picked by a
running comparison over the points (the first largest, as ``argmax``
picks it).  Sets and exponents must be finite.

The band DFT is the separable one that samples every field in ``fields``
(``_band_dft``): three small matmuls each way over the (2F+1)^2 (F+1)
frequencies of the half band.  The z axis is the real end of both
transforms: the forward one refuses complex input, and the inverse one
adds the mirror of every mode off the plane xi_z = 0 (the plane holds both
modes of its pairs).  The resampled grids are component-major, so the
objective reads its rows without a copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dfield

import numpy as np

from .fields import (PreconditionError, TrigSymField, _band_dft, _band_grid, _band_modes, _band_rows,
                     _mandel_to_sym, _sym_to_mandel)


@dataclass
class CompactSetDescriptor:
    """A compact subset of the symmetric matrices with the Frobenius metric."""

    kind: str                       # "ball" | "points" | "polytope"
    center: np.ndarray = None       # ball
    radius: float = 0.0             # ball
    points: list = dfield(default_factory=list)  # points / polytope vertices

    def __post_init__(self):
        if self.kind == "ball":
            if not (np.isfinite(self.radius) and self.radius > 0):
                raise ValueError(f"ball radius must be finite and positive, not {self.radius}")
            self.center = np.asarray(self.center, dtype=float).reshape(3, 3)
        elif self.kind in ("points", "polytope"):
            if not self.points:
                raise ValueError("point set must be nonempty")
            self.points = [np.asarray(p, dtype=float).reshape(3, 3) for p in self.points]
        else:
            raise ValueError(f"unknown set kind {self.kind!r}")
        mats = self.center[None] if self.kind == "ball" else np.stack(self.points)
        if not np.isfinite(mats).all():
            raise ValueError("ball centre must be finite" if self.kind == "ball" else "set points must be finite")
        # asymmetry above 1e-10 * max(1, largest entry) is refused, the rule of ``TrigSymField``
        asym = np.abs(mats - mats.swapaxes(1, 2)).max(axis=(1, 2))
        bad = np.flatnonzero(asym > 1e-10 * np.maximum(1.0, np.abs(mats).max(axis=(1, 2))))
        if len(bad):
            raise ValueError(("ball centre" if self.kind == "ball" else f"set point {bad[0]}")
                             + f" is not symmetric (defect {asym[bad[0]]:.2e})")
        # Mandel rows of the points (of the centre for a ball) and their |r|^2/2, computed once
        self.rows = _sym_to_mandel(mats)
        self.half_sq = 0.5 * np.einsum("ij,ij->i", self.rows, self.rows)

    def diameter(self):
        if self.kind == "ball":
            return 2.0 * self.radius
        d = np.linalg.norm(self.rows[:, None, :] - self.rows[None, :, :], axis=-1)
        return float(d.max())

    def to_json(self):
        if self.kind == "ball":
            return {"kind": "ball", "center": self.center.tolist(), "radius": self.radius}
        return {"kind": self.kind, "points": [p.tolist() for p in self.points]}

    @classmethod
    def from_json(cls, data):
        """The descriptor of a JSON object; ``ValueError`` names a missing key or a wrong type."""
        if not isinstance(data, dict):
            raise ValueError(f"a set descriptor is a JSON object, not {type(data).__name__}")
        kind = data.get("kind")
        if kind not in ("ball", "points", "polytope"):
            raise ValueError(f"unknown set kind {kind!r}")
        try:
            if kind == "ball":
                return cls(kind="ball", center=np.asarray(data["center"]), radius=float(data["radius"]))
            return cls(kind=kind, points=[np.asarray(p) for p in data["points"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"set descriptor of kind {kind!r} lacks or mistypes {exc}") from None


def _project_hull(vertices, y):
    """Nearest points of conv(vertices) to the rows of ``y`` (N, 6), all rows at once.

    The nearest point is the projection onto the affine hull of some affinely
    independent vertex subset (at most 7 in six dimensions) with non-negative
    weights, so every such subset gets one solve, shared by all rows, and each
    row keeps its nearest feasible projection.  Weights are clipped to the
    simplex, so every candidate lies in the hull.
    """
    best, best_d2 = np.empty_like(y), np.full(len(y), np.inf)
    for size in range(1, min(len(vertices), 7) + 1):
        for subset in itertools.combinations(vertices, size):
            vs = np.stack(subset)
            edges = vs[1:] - vs[0]
            if size > 1 and np.linalg.matrix_rank(edges) < size - 1:
                continue
            mu = (y - vs[0]) @ np.linalg.solve(edges @ edges.T, edges).T
            lam = np.concatenate([1.0 - mu.sum(axis=1, keepdims=True), mu], axis=1)
            ok = (lam >= -1e-12).all(axis=1)
            lam = np.clip(lam, 0.0, None)
            point = (lam / lam.sum(axis=1, keepdims=True)) @ vs
            gap = y - point
            d2 = np.einsum("ij,ij->i", gap, gap)
            take = ok & (d2 < best_d2)
            best[take], best_d2[take] = point[take], d2[take]
    return best


def dist_p(k: CompactSetDescriptor, xi, p: float) -> float:
    """Frobenius distance from xi to K, raised to the power p."""
    vals, _ = DistanceObjective(k, p)(_sym_to_mandel(np.asarray(xi, dtype=float))[None])
    return float(vals[0])


class DistanceObjective:
    """Pointwise value/gradient of dist^p(., K) for batched Mandel rows."""

    def __init__(self, k: CompactSetDescriptor, p: float):
        if not (np.isfinite(p) and p >= 1):
            raise ValueError(f"p must be finite and >= 1, not {p}")
        self.k = k
        self.p = float(p)

    def __call__(self, values):
        """values: (..., 6) -> (vals (...,), grads (..., 6)).

        Matrices (..., 3, 3) are converted to rows on entry and the
        gradients back to matrices on exit.  The work runs on the rows
        transposed to component-major (6, N).  The nearest of a point set
        is the first point of largest score y.r - |r|^2/2, as ``argmax``
        picks it; a running comparison over the few points keeps the
        reduction off the strided axis of the (k, N) scores.
        """
        values = np.asarray(values)
        if values.shape[-1] == 3:
            vals, grads = self(_sym_to_mandel(values))
            return vals, _mandel_to_sym(grads)
        y, rows = np.ascontiguousarray(values.reshape(-1, 6).T), self.k.rows
        if self.k.kind == "ball":
            delta = y - rows[0][:, None]
        elif self.k.kind == "points":
            scores = rows @ y
            scores -= self.k.half_sq[:, None]
            best, nearest = scores[0], np.zeros(y.shape[1], dtype=np.intp)
            for i in range(1, len(rows)):
                take = scores[i] > best  # strict: a tie keeps the earlier point
                nearest[take] = i
                np.maximum(best, scores[i], out=best)
            delta = np.take(rows.T, nearest, axis=1)
            np.subtract(y, delta, out=delta)
        else:
            delta = y - _project_hull(rows, y.T).T
        norm = np.sqrt(np.einsum("ij,ij->j", delta, delta))
        dist = np.maximum(norm - self.k.radius, 0.0)  # the radius of a point set is 0
        slope = np.where(dist > 0, norm, np.inf)  # the slope is 0 where dist = 0
        np.divide(self.p * dist ** (self.p - 1.0), slope, out=slope)
        delta *= slope
        return (dist**self.p).reshape(values.shape[:-1]), delta.T.reshape(values.shape)


def _modes(max_freq):
    """All modes of max-norm <= max_freq, sorted; the zero mode sits in the middle."""
    span = np.arange(-max_freq, max_freq + 1)
    return np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)


def _band(max_freq, n):
    """The half band on the n-grid: its modes, its separable DFT, their rows in it, and its projectors.

    The modes are the non-zero ``xi`` of max-norm <= F = max_freq with
    ``xi_z >= 0``, in sorted order; ``fields._band_dft`` and
    ``fields._band_rows`` give the DFT and the rows.  The projectors are the
    6x6 Mandel matrices of c -> Q c Q, Q = I - xi^ xi^T.
    """
    xis = _modes(max_freq)
    xis = xis[(xis[:, 2] >= 0) & xis.any(axis=1)]
    unit = xis / np.linalg.norm(xis, axis=1, keepdims=True)
    q = (np.eye(3) - unit[:, :, None] * unit[:, None, :])[:, None]
    proj = _sym_to_mandel(q @ _mandel_to_sym(np.eye(6)) @ q).swapaxes(1, 2)
    return xis, _band_dft(max_freq, n), _band_rows(xis, max_freq), proj


def _band_project(values, band):
    """Real grid rows (n, n, n, 6) -> half-band Mandel coefficients of their divergence-free part.

    The part is band-limited and mean-zero by construction of the band.
    """
    _, dft, rows, proj = band
    return np.einsum("mij,mj->mi", proj, _band_modes(values, dft, rows))


def _band_field(xis, coeffs):
    """The period-1 field of half-band Mandel coefficients; the constructor adds the mirrors."""
    return TrigSymField(dict(zip(map(tuple, xis.tolist()), _mandel_to_sym(coeffs))))


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
                              init_amplitude=0.1, xi_offset=None):
    """Projected descent of mean(objective(xi + phi)) over admissible fields.

    The objective is pointwise: it maps Mandel rows ``(n, n, n, 6)`` to
    values ``(n, n, n)`` and gradients ``(n, n, n, 6)`` row by row.  The
    grids it receives are component-major views.  Every iterate lies in
    the band, so the projected trial P(phi - s g) is phi - s P(g): the
    gradient is projected and resampled once per accepted point (one band
    DFT pair), and a rejected step costs only an axpy on the coefficients
    and on the grid.

    Restart 0 is the zero field, and it is one evaluation.  On the constant
    grid xi a pointwise objective's gradient is constant too, and the band
    holds only non-zero modes, so P(g) = 0 in exact arithmetic.  Every
    trial point would be the start point, no step could be accepted, and
    the restart's value is its first one: objective(xi), evaluated on xi
    as one row (the grid mean of n^3 equal values is not always the value),
    which opens the trace.  (Trying the steps anyway can only accept
    rounding noise in P(g).)  Every other restart only ever accepts
    decreasing steps, so the reported value never exceeds the restart's
    initial one.  Returns (best value, best field, trace).
    """
    n = max(4 * max_freq, 16)
    band = _band(max_freq, n)
    xis, dft, rows, proj = band
    offset = _sym_to_mandel(np.zeros((3, 3)) if xi_offset is None else np.asarray(xi_offset, dtype=float))

    def evaluate(values):
        vals, grads = objective(values)
        return float(np.add.reduce(vals, axis=None) / vals.size), grads  # the arithmetic of vals.mean()

    best_val, best_coeffs, trace = np.inf, None, []
    for r in range(restarts):
        if r == 0:  # the zero field: xi as one row of the pointwise objective, and no step to try
            coeffs, tries, point = np.zeros((0, 6), dtype=complex), 0, offset[None]
        else:
            coeffs, tries = _seeded_init(seed, r, xis, init_amplitude, proj), iterations
            point = offset + _band_grid(coeffs, dft, rows)  # xi + phi at the cell centres
        val, grads = evaluate(point)
        step, down = 1.0, None
        for _ in range(tries):
            if down is None:  # the current point's projected gradient, on the modes and the grid
                down = _band_project(grads, band)
                down_vals = _band_grid(down, dft, rows)
            trial = down_vals * -step  # point - step * P(g), bit for bit, with one temporary
            trial += point
            tval, tgrads = evaluate(trial)
            if tval < val - 1e-14:
                coeffs = coeffs - step * down
                point, val, grads, down = trial, tval, tgrads, None
                step *= 1.3
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        trace.append(val)
        if val < best_val:
            best_val, best_coeffs = val, coeffs
    best_field = None if best_coeffs is None else _band_field(xis, best_coeffs)
    return best_val, best_field, trace


_KEY_SHIFT = 64  # a stream's key words are its mode + 64, non-negative on bands up to max-norm 64


def _seed_words(value):
    """The little-endian 32-bit words ``numpy.random.SeedSequence`` splits a non-negative int into."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed words need a non-negative integer, not {value}")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _seeded_init(seed, restart, xis, amplitude, proj):
    """Half-band Mandel rows of a restart's divergence-free initial field.

    Each Hermitian pair draws from its own hashed stream, keyed by the
    lexicographically larger mode; the other mode is the conjugate.  A
    stream's entropy is the words of [seed, restart, key + _KEY_SHIFT], given to
    ``default_rng`` as one uint32 array: the stream of the list itself.
    The band's ``proj`` matrices make the rows divergence-free.
    """
    flip = xis[np.arange(len(xis)), (xis != 0).argmax(axis=1)] < 0  # the smaller mode of its pair
    shifted = np.where(flip[:, None], -xis, xis) + _KEY_SHIFT
    if (shifted < 0).any():
        raise ValueError(f"modes beyond max-norm {_KEY_SHIFT} have no seed word")
    prefix = _seed_words(seed) + _seed_words(restart)
    words = np.column_stack([np.tile(prefix, (len(xis), 1)), shifted]).astype(np.uint32)
    # the same numbers as two (3, 3) draws per stream
    re, im = np.stack([np.random.default_rng(w).standard_normal((2, 3, 3)) for w in words], axis=1)
    drawn = re + 1j * im
    drawn[flip] = drawn[flip].conj()
    rows = _sym_to_mandel(amplitude * 0.5 * (drawn + drawn.swapaxes(1, 2)))
    return np.einsum("mij,mj->mi", proj, rows)


def qsdqc_estimate(k: CompactSetDescriptor, xi, p, budget, seed=0) -> EnvelopeEstimate:
    """Upper bound of the div-quasiconvex envelope of dist^p(., K) at xi."""
    budget = dict(budget)
    max_freq = int(budget.get("max_freq", 2))
    restarts = int(budget.get("restarts", 10))
    iterations = int(budget.get("iterations", 60))
    if max_freq < 1 or restarts < 1 or iterations < 1:
        raise PreconditionError("budget entries must be positive")
    if max_freq > _KEY_SHIFT:
        raise PreconditionError(f"budget max_freq {max_freq} exceeds {_KEY_SHIFT}, the widest seeded band")
    if seed < 0:
        raise PreconditionError(f"seed {seed} is negative; seeds are non-negative integers")
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


def hull_membership(k: CompactSetDescriptor, xi, p, budget, seed=0) -> dict:
    """One-sided hull test: membership when the envelope estimate is tiny.

    'member' is reliable (the estimate is an upper bound); 'non-member'
    only says no descent was found within the supplied budget.
    """
    est = qsdqc_estimate(k, xi, p, budget, seed)
    tol = 1e-4 * max(k.diameter(), 1e-12) ** p
    return {"member": bool(est.value <= tol), "score": float(est.value), "tolerance": float(tol),
            "budget_limited": True}

