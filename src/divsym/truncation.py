"""The divergence-preserving truncation operator and its verification suite.

Pipeline: sample |w| on a grid, form the centered maximal function, flag
the superlevel set at an effective threshold 1.25 * lambda, cover it with
dyadic Whitney cubes, build the normalized bump partition, and cache six
edge moments per pair of intersecting cubes.  The truncated field equals w
off the flagged cells and the partition-weighted sum of the local flux
reconstructions on them.

The reconstruction of cube k sums, over the triangles of cube centres
with k as a vertex, the triangle's flux B and antisymmetric first moment
G - G^T against partition derivatives.  Off its zero mode each row of w is
curl psi_alpha, psi_alpha^ = i xi x c_alpha / (k |xi|^2), so by Stokes B and
G - G^T are sums of closed-form circulations e and f of psi and of
x_b psi_a - x_a psi_b - rho_ab along the triangle's sides (``flux``).
Summing the third cube out with sum phi = 1 and its vanishing derivative
sums makes T w a sum over pairs of active cubes of their edge terms, in
which the partition weights cancel (``_kernels``): each cube's local
reconstruction is T w itself.  The zero mode c0 enters through its
potentials about the evaluated point, c0_a x x / 2 and
(x_b c0_a x x - x_a c0_b x x) / 3, whose curls are c0_a and
x_b c0_a - x_a c0_b for symmetric c0.

``verify`` measures the weak divergence of the rows of T w against the
battery of plane waves cos(2 pi xi . x / period + phase), one wave per row
of ``BATTERY_XI`` and entry of ``BATTERY_PHASE``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dfield

import numpy as np

from . import _kernels
from .fields import SYM6_SLOT, TWO_PI, PreconditionError, TrigSymField, _sym6_sq, assert_div_free
from .flux import CENTROID, _edge_moments
from .maximal import OpenSetMask, ScalarGrid, _check_lambda, bad_set, maximal_function, sample_abs
from .whitney import _partition, _upsample, whitney_decompose

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
    cover: object            # WhitneyCover (cube arrays) or None when the bad set is empty
    rule: object             # ``flux.CENTROID``; the kernel reads no rule, the benchmark's tracer does
    triples: np.ndarray      # (nt, 3) int32, sorted rows: the report's ``triple_count`` and the tracer's
    tri_verts: np.ndarray    # (nt, 3, 3) centers unwrapped around the first; read by the tracer only
    pairs: np.ndarray        # (np, 2) the cover's sorted pairs i < j, the keys of ``pair_M``
    pair_M: np.ndarray       # (np, 6) e and f (``flux.PAIRS``) of w's non-zero modes from centre i to j, f about i
    _caches: dict = dfield(default_factory=dict)

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
    cover, triples, tri_verts = None, np.zeros((0, 3), dtype=np.int32), np.zeros((0, 3, 3))
    pairs, pair_m = np.zeros((0, 2), dtype=np.int64), np.zeros((0, 6))
    if not mask.is_empty():
        cover = whitney_decompose(mask)
        triples = cover.triples()
        anchor = cover.centers[triples[:, 0]]
        tri_verts = np.stack([anchor] + [anchor + cover.wrap(cover.centers[triples[:, v]] - anchor) for v in (1, 2)],
                             axis=1)
        pairs, pair_m = cover.pairs, _pair_moments(w, cover)
    return TruncationContext(
        w=w, lam=lam, lam_eff=lam_eff, n=n, bad=mask, cover=cover,
        rule=CENTROID, triples=triples, tri_verts=tri_verts, pairs=pairs, pair_M=pair_m)


# ---------------------------------------------------------------------------
# pointwise evaluation (the kernel's driver on a batch of points)


def _pair_sum(ctx, pts):
    """The kernel's values (k, 6) at the points ``pts`` (k, 3)."""
    acc = np.zeros((len(pts), 6))
    _kernels._evaluate(ctx.cover, ctx.pairs, ctx.pair_M, ctx.w.coeffs.get((0, 0, 0)), pts, acc)
    return acc


def local_field(ctx: TruncationContext, k: int, y) -> np.ndarray:
    """The local reconstruction wtilde^(k) at ``y`` (must lie in cube k).

    It is T w(y) for every cube k active at y: wtilde^(k) sums the triple
    formula with phi_k's slot weighted by 1 and the others by 0, weights
    that sum to 1 over the active cubes, and any such weights drop out of
    the pair sum (``_kernels``), as the partition does in T w.
    """
    y = np.asarray(y, dtype=float)
    if ctx.cover is None:
        raise PreconditionError("context has an empty cover")
    if k not in _partition(ctx.cover, y[None])[0]:
        raise PreconditionError(f"point {y} is outside cube {k}")
    return sym6_to_mat(_pair_sum(ctx, y[None])[0])


class TruncationEvaluator:
    """Pure pointwise evaluator of the truncated field."""

    def __init__(self, ctx: TruncationContext):
        self.ctx = ctx

    def __call__(self, x):
        """The truncated field at the points ``x`` (..., 3): symmetric matrices (..., 3, 3).

        w at every point, with the kernel's values at the flagged ones.
        """
        ctx = self.ctx
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, 3)
        vals = ctx.w.eval_many(pts)
        if ctx.cover is not None:
            bad = ctx.bad.contains(pts)
            vals[bad] = sym6_to_mat(_pair_sum(ctx, pts[bad]))
        return vals.reshape(x.shape[:-1] + (3, 3))


def truncate(ctx: TruncationContext) -> TruncationEvaluator:
    return TruncationEvaluator(ctx)


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
    key = ("tvals", m)
    if key in ctx._caches:
        return ctx._caches[key]
    bad_index, mask_m = _bad_grid_index(ctx.bad.mask, m)
    npts = int(mask_m.sum())
    tvals = np.zeros((npts, 6))
    if ctx.cover is not None and npts:
        _kernels.accumulate_truncation(ctx.triples, ctx.pairs, ctx.pair_M, ctx.tri_verts,
                                       ctx.cover.sides, m, ctx.period, bad_index,
                                       ctx.cover, tvals, ctx.w.coeffs.get((0, 0, 0)))
    ctx._caches[key] = (bad_index, mask_m, tvals)
    return ctx._caches[key]


def _w_on_grid(ctx, m):
    """The packed components of w on the m-grid, (m, m, m, 6) in ``SYM6`` order."""
    key = ("w", m)
    if key not in ctx._caches:
        ctx._caches[key] = ctx.w.grid_components(m)
    return ctx._caches[key]


def _w_sq_on_grid(ctx, m):
    """The squared Frobenius norms of w on the m-grid, (m, m, m)."""
    key = ("w_sq", m)
    if key not in ctx._caches:
        ctx._caches[key] = _sym6_sq(_w_on_grid(ctx, m))
    return ctx._caches[key]


def sample_truncation_norm(ctx: TruncationContext, m: int) -> ScalarGrid:
    """Frobenius norm of the truncated field on the m-grid, sampled once per context and m."""
    key = ("norm", m)
    if key not in ctx._caches:
        _, mask_m, tvals = sample_bad_truncation(ctx, m)
        sq = _w_sq_on_grid(ctx, m).copy()
        sq[mask_m] = _sym6_sq(tvals)
        ctx._caches[key] = ScalarGrid(n=m, period=ctx.period, values=np.sqrt(sq))
    return ctx._caches[key]


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


def divergence_defects(ctx: TruncationContext, m: int | None = None) -> np.ndarray:
    """Defects |integral (T w)_alpha . grad(psi_q)| for the battery at resolution m; (12, 3).

    The trig part of w pairs exactly; the flagged points of the m-grid add
    the midpoint sum of (T - w) . grad(psi_q).
    """
    m = 2 * ctx.n if m is None else m
    _, mask_m, tvals = sample_bad_truncation(ctx, m)
    h = ctx.period / m
    k = TWO_PI / ctx.period
    pts = (np.argwhere(mask_m) + 0.5) * h
    sines = np.sin(k * (pts @ BATTERY_XI.T) + BATTERY_PHASE)                # grad psi_q = -sines[:, q] k xi_q
    diff = (tvals - _w_on_grid(ctx, m)[mask_m])[:, SYM6_SLOT]
    moments = (sines.T @ diff.reshape(len(diff), 9)).reshape(-1, 3, 3)     # (waves, alpha, 3)
    return np.abs(_pairings(ctx.w) - (moments @ (k * BATTERY_XI)[..., None])[..., 0] * h**3)


# ---------------------------------------------------------------------------
# the verification report


_REPORT_KEYS = {"lam": "lambda", "lam_eff": "lambda_effective", "n": "grid_n", "m": "eval_m"}


@dataclass
class VerificationReport:
    lam: float
    lam_eff: float
    n: int
    m: int
    linf_ratio: float
    l1_distance: float
    tail_integral: float
    stability_ratio: float
    changed_measure: float
    small_change_ratio: float
    div_defects: list
    spiked_defect: float
    cover_size: int
    triple_count: int
    overlap: int

    def to_dict(self):
        return {_REPORT_KEYS.get(k, k): v for k, v in asdict(self).items()}


def verify(ctx: TruncationContext, m: int | None = None) -> VerificationReport:
    """Measure every quantity of the truncation theorem on the m-grid.

    ``div_defects`` holds, per wave of ``BATTERY_XI`` x ``BATTERY_PHASE``,
    the largest row defect of ``divergence_defects``; ``spiked_defect`` is
    the largest battery pairing of the non-solenoidal control
    lam sin(2 pi x1 / period) e1 x e1.
    """
    m = 2 * ctx.n if m is None else m
    _, mask_m, tvals = sample_bad_truncation(ctx, m)
    h3 = (ctx.period / m) ** 3

    wcomps = _w_on_grid(ctx, m)
    norm_w = np.sqrt(_w_sq_on_grid(ctx, m))
    linf_ratio = sample_truncation_norm(ctx, m).values.max() / ctx.lam

    l1_distance = float(np.sqrt(_sym6_sq(tvals - wcomps[mask_m])).sum()) * h3
    tail = float(norm_w[norm_w > ctx.lam / 2].sum()) * h3
    changed = ctx.bad.measure()

    if tail > 0:
        stability_ratio = l1_distance / tail
        small_change_ratio = ctx.lam * changed / tail
    else:
        stability_ratio = 0.0 if l1_distance == 0 else np.inf
        small_change_ratio = 0.0 if changed == 0 else np.inf

    defects = divergence_defects(ctx, m).max(axis=1)
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = -0.5j * ctx.lam
    spiked = float(np.abs(_pairings(TrigSymField({(1, 0, 0): c}, period=ctx.period))).max())

    return VerificationReport(
        lam=ctx.lam, lam_eff=ctx.lam_eff, n=ctx.n, m=m,
        linf_ratio=float(linf_ratio), l1_distance=l1_distance, tail_integral=tail,
        stability_ratio=float(stability_ratio), changed_measure=float(changed),
        small_change_ratio=float(small_change_ratio),
        div_defects=[float(v) for v in defects], spiked_defect=spiked,
        cover_size=0 if ctx.cover is None else len(ctx.cover),
        triple_count=int(len(ctx.triples)),
        overlap=0 if ctx.cover is None else int(ctx.cover.stats.get("overlap", 0)),
    )
