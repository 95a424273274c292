"""The divergence-preserving truncation operator and its verification suite.

Pipeline: sample |w| on a grid, form the centered maximal function, flag
the superlevel set at an effective threshold 1.25 * lambda, cover it with
dyadic Whitney cubes, build the normalized bump partition, and cache six
edge moments per pair of intersecting cubes.  The truncated field
T w = sum_k phi_k wtilde^(k) equals w off the flagged cells.

The local reconstruction wtilde^(k) sums, over the triangles of cube
centres with k as a vertex, the triangle's flux B and antisymmetric first
moment G - G^T against partition derivatives.  Off its zero mode each row
of w is curl psi_alpha, psi_alpha^ = i xi x c_alpha / (k |xi|^2), so by
Stokes B and G - G^T are sums of closed-form circulations e and f of psi
and of x_b psi_a - x_a psi_b - rho_ab along the triangle's sides
(``flux``).  Summing the third cube out with sum phi = 1 and its vanishing
derivative sums makes T w a sum over pairs of active cubes of their edge
terms, in which the partition weights cancel (``_kernels``): every
wtilde^(k) active at a point is T w there, so ``truncate`` is the one
pointwise evaluator.  The zero mode c0 enters through its potentials about
the evaluated point, c0_a x x / 2 and (x_b c0_a x x - x_a c0_b x x) / 3,
whose curls are c0_a and x_b c0_a - x_a c0_b for symmetric c0.

``verify`` samples T w at the flagged points of the m-grid and w on the
whole m-grid once each, and reads every figure of the report from those
two arrays.  Its weak divergence pairs the rows of T w with the battery of
plane waves cos(2 pi xi . x / period + phase), one wave per row of
``BATTERY_XI`` and entry of ``BATTERY_PHASE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .fields import SYM6_SLOT, TWO_PI, PreconditionError, TrigSymField, _sym6_sq, assert_div_free
from .flux import CENTROID, _edge_moments
from .maximal import OpenSetMask, ScalarGrid, _check_lambda, bad_set, maximal_function, sample_abs
from .whitney import WhitneyCover, _upsample, whitney_decompose

LAMBDA_EFF_FACTOR = 1.25
BAD_MARGIN = 1e-9  # relative threshold slack: borderline cells count as bad

# the divergence test battery: three frequencies, each at four phases
BATTERY_XI = np.repeat([(1, 0, 0), (1, 1, 0), (1, 1, 1)], 4, axis=0).astype(float)
BATTERY_PHASE = np.tile([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4], 3)


def sym6_to_mat(v):
    """The symmetric 3x3 matrices (..., 3, 3) of vectors (..., 6) packed in ``SYM6`` order."""
    return np.asarray(v, dtype=float)[..., SYM6_SLOT]


@dataclass
class TruncationContext:
    w: TrigSymField
    lam: float
    lam_eff: float
    n: int
    bad: OpenSetMask
    cover: WhitneyCover      # empty when the bad set is
    rule: object             # ``flux.CENTROID``; the kernel reads no rule, the benchmark's tracer does
    triples: np.ndarray      # (nt, 3) int32, sorted rows: the report's ``triple_count`` and the tracer's
    tri_verts: np.ndarray    # (nt, 3, 3) centers unwrapped around the first; read by the tracer only
    pairs: np.ndarray        # (np, 2) the cover's sorted pairs i < j, the keys of ``pair_M``
    pair_M: np.ndarray       # (np, 6) e and f (``flux.PAIRS``) of w's non-zero modes from centre i to j, f about i

    @property
    def period(self):
        return self.w.period


def lambda_for_fraction(w, n, fraction):
    """Threshold whose effective superlevel set flags about ``fraction`` of cells."""
    m = maximal_function(sample_abs(w, n))
    return float(np.quantile(m.values, 1.0 - fraction)) / LAMBDA_EFF_FACTOR


def flag_bad_set(w: TrigSymField, lam: float, n: int):
    """The flagging stage: |w| on the n-grid, its maximal function, lam_eff = 1.25 lam, the mask."""
    _check_lambda(lam, PreconditionError)
    g = sample_abs(w, n)
    m = maximal_function(g)
    lam_eff = LAMBDA_EFF_FACTOR * lam
    mask = bad_set(m, lam_eff * (1.0 - BAD_MARGIN))
    if mask.is_full():
        raise PreconditionError("bad set covers the whole torus; raise lambda")
    return g, m, lam_eff, mask


def _pair_moments(w, cover):
    """The circulations (np, 6) of ``_edge_moments`` along each row (i, j) of ``cover.pairs``.

    Each segment runs from centre i along the wrapped offset to centre j,
    in half cells; centres off the half-cell lattice raise ``ValueError``.
    """
    unit = cover.period / (2 * cover.n)
    off = cover.wrap(np.diff(cover.centers[cover.pairs], axis=1)[:, 0]) / unit
    offsets = np.rint(off)
    if np.abs(off - offsets).max(initial=0.0) > 1e-9:
        raise ValueError("cube centres are off the half-cell lattice")
    return _edge_moments(w, cover.centers, cover.pairs[:, 0], offsets.astype(np.int64), unit)


def build_context(w: TrigSymField, lam: float, n: int) -> TruncationContext:
    """Run the full pipeline and cache the edge moments of all cube pairs."""
    assert_div_free(w, what="build_context input")
    _, _, lam_eff, mask = flag_bad_set(w, lam, n)
    cover = whitney_decompose(mask)
    triples = cover.triples()
    anchor = cover.centers[triples[:, 0]]
    tri_verts = np.stack([anchor] + [anchor + cover.wrap(cover.centers[triples[:, v]] - anchor) for v in (1, 2)],
                         axis=1)
    return TruncationContext(
        w=w, lam=lam, lam_eff=lam_eff, n=n, bad=mask, cover=cover,
        rule=CENTROID, triples=triples, tri_verts=tri_verts, pairs=cover.pairs, pair_M=_pair_moments(w, cover))


def truncate(ctx: TruncationContext, x) -> np.ndarray:
    """T w at the points ``x`` (..., 3): symmetric matrices (..., 3, 3).

    w at every point, with the pair sum of ``_kernels._evaluate`` at the
    points the mask flags.  A pair of active cubes missing from
    ``ctx.pairs`` raises ``KeyError``.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 3)
    vals = ctx.w.eval_many(pts)
    bad = ctx.bad.contains(pts)
    acc = np.zeros((int(bad.sum()), 6))
    _kernels._evaluate(ctx.cover, ctx.pairs, ctx.pair_M, ctx.w.coeffs.get((0, 0, 0)), pts[bad], acc)
    vals[bad] = sym6_to_mat(acc)
    return vals.reshape(x.shape[:-1] + (3, 3))


# ---------------------------------------------------------------------------
# grid sampling (kernel path)


def _bad_grid_index(mask, m):
    """Flagged-point index on the m-grid refining the n-grid ``mask``: (index, mask_m).

    ``index`` numbers the flagged points of the m-grid in row-major order
    and holds -1 elsewhere.
    """
    n = mask.shape[0]
    if m % n != 0:
        raise ValueError("evaluation resolution must be a multiple of the grid")
    r = m // n
    mask_m = _upsample(mask, r)
    idx = np.full(m**3, -1, dtype=np.int32)
    flat = np.flatnonzero(mask_m.ravel())
    idx[flat] = np.arange(len(flat), dtype=np.int32)
    return idx.reshape(m, m, m), mask_m


def sample_bad_truncation(ctx: TruncationContext, m: int):
    """Truncated values at every flagged point of the m-grid.

    Returns ``(bad_index, mask_m, tvals)`` where ``tvals`` holds the packed
    symmetric components in the order [11, 22, 33, 23, 13, 12].  The array
    kernels agree with the scalar-loop reference in the tests to
    1e-12 times the largest component.
    """
    bad_index, mask_m = _bad_grid_index(ctx.bad.mask, m)
    tvals = np.zeros((int(mask_m.sum()), 6))
    _kernels.accumulate_truncation(ctx.triples, ctx.pairs, ctx.pair_M, ctx.tri_verts,
                                   ctx.cover.sides, m, ctx.period, bad_index,
                                   ctx.cover, tvals, ctx.w.coeffs.get((0, 0, 0)))
    return bad_index, mask_m, tvals


# ---------------------------------------------------------------------------
# weak divergence defects


def _pairings(f: TrigSymField) -> np.ndarray:
    """Exact integrals of f_alpha . grad(psi_q) over the battery; (12, 3).

    They equal the aliasing-free midpoint sums on every grid.
    """
    p = f.period
    zero = np.zeros((3, 3), dtype=complex)
    c = np.stack([f.coeffs.get(tuple(-int(v) for v in xi), zero) for xi in BATTERY_XI])
    c_xi = (c @ BATTERY_XI[..., None])[..., 0]
    return -TWO_PI / p * np.imag(np.exp(1j * BATTERY_PHASE)[:, None] * p**3 * c_xi)


def _defects(ctx, mask_m, diff):
    """The battery defects (12, 3) from T - w, packed (k, 6) in ``diff``, at the flagged points of ``mask_m``."""
    h = ctx.period / mask_m.shape[0]
    k = TWO_PI / ctx.period
    pts = (np.argwhere(mask_m) + 0.5) * h
    sines = np.sin(k * (pts @ BATTERY_XI.T) + BATTERY_PHASE)                # grad psi_q = -sines[:, q] k xi_q
    moments = (sines.T @ diff[:, SYM6_SLOT].reshape(len(diff), 9)).reshape(-1, 3, 3)  # (waves, alpha, 3)
    return np.abs(_pairings(ctx.w) - (moments @ (k * BATTERY_XI)[..., None])[..., 0] * h**3)


def divergence_defects(ctx: TruncationContext, m: int | None = None) -> np.ndarray:
    """Defects |integral (T w)_alpha . grad(psi_q)| for the battery at resolution m; (12, 3).

    The trig part of w pairs exactly; the flagged points of the m-grid add
    the midpoint sum of (T - w) . grad(psi_q).
    """
    m = 2 * ctx.n if m is None else m
    _, mask_m, tvals = sample_bad_truncation(ctx, m)
    return _defects(ctx, mask_m, tvals - ctx.w.grid_components(m)[mask_m])


# ---------------------------------------------------------------------------
# the verification report


def verify(ctx: TruncationContext, m: int | None = None):
    """Measure every quantity of the truncation theorem on the m-grid: ``(report, grid)``.

    ``report`` holds the ``report`` schema's keys but ``sampled_field``,
    ``grid`` the ``ScalarGrid`` of |T w|.  ``div_defects`` holds, per wave
    of ``BATTERY_XI`` x ``BATTERY_PHASE``, the largest row defect of
    ``divergence_defects``; ``spiked_defect`` is the largest battery
    pairing of the non-solenoidal control lam sin(2 pi x1 / period) e1 x e1.
    """
    m = 2 * ctx.n if m is None else m
    _, mask_m, tvals = sample_bad_truncation(ctx, m)
    wcomps = ctx.w.grid_components(m)
    h3 = (ctx.period / m) ** 3

    sq = _sym6_sq(wcomps)
    norm_w = np.sqrt(sq)
    tail = float(norm_w[norm_w > ctx.lam / 2].sum()) * h3
    sq[mask_m] = _sym6_sq(tvals)
    grid = ScalarGrid(n=m, period=ctx.period, values=np.sqrt(sq))

    diff = tvals - wcomps[mask_m]
    l1_distance = float(np.sqrt(_sym6_sq(diff)).sum()) * h3
    changed = ctx.bad.measure()
    if tail > 0:
        stability_ratio = l1_distance / tail
        small_change_ratio = ctx.lam * changed / tail
    else:
        stability_ratio = 0.0 if l1_distance == 0 else np.inf
        small_change_ratio = 0.0 if changed == 0 else np.inf

    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = -0.5j * ctx.lam
    report = {
        "lambda": ctx.lam, "lambda_effective": ctx.lam_eff, "grid_n": ctx.n, "eval_m": m,
        "linf_ratio": float(grid.values.max() / ctx.lam), "l1_distance": l1_distance, "tail_integral": tail,
        "stability_ratio": float(stability_ratio), "changed_measure": float(changed),
        "small_change_ratio": float(small_change_ratio),
        "div_defects": [float(v) for v in _defects(ctx, mask_m, diff).max(axis=1)],
        "spiked_defect": float(np.abs(_pairings(TrigSymField({(1, 0, 0): c}, period=ctx.period))).max()),
        "cover_size": len(ctx.cover), "triple_count": len(ctx.triples),
        "overlap": int(ctx.cover.stats.get("overlap", 0)),
    }
    return report, grid
