"""The divergence-preserving truncation operator and its verification suite.

Pipeline: sample |w| on a grid, form the centered maximal function, flag
the superlevel set at an effective threshold 1.25 * lambda, cover it with
dyadic Whitney cubes, build the normalized bump partition, and cache the
flux B and the antisymmetric first moment G - G^T of the triangle of cube
centres of every triple of pairwise-intersecting cubes.  The truncated
field equals w off the flagged cells and the partition-weighted sum of the
local flux reconstructions on them.

The moments need no quadrature.  Off its zero mode each row of w is
curl psi_alpha, psi_alpha^ = i xi x c_alpha / (k |xi|^2), so by Stokes B and
G - G^T are closed-form circulations of psi and of x_b psi_a - x_a psi_b -
rho_ab along the triangle's sides (``flux``), taken once per cover pair;
the zero mode c0 adds c0 nu and a centroid term.

``verify`` measures the weak divergence of the rows of T w against the
battery of plane waves cos(2 pi xi . x / period + phase), one wave per row
of ``BATTERY_XI`` and entry of ``BATTERY_PHASE``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dfield

import numpy as np

from . import _kernels
from .fields import SYM6, SYM6_SLOT, TWO_PI, PreconditionError, TrigSymField, _sym6_sq, assert_div_free
from .flux import _AL, _BE, CENTROID, _edge_moments, _moment_functions
from .maximal import OpenSetMask, ScalarGrid, bad_set, maximal_function, sample_abs
from .whitney import _active_triples, _pack_slot, _partition, _upsample, whitney_decompose

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
    rule: object             # ``flux.CENTROID``, the one-node rule of the zero mode's centroid term
    triples: np.ndarray      # (nt, 3) int32, sorted rows
    tri_verts: np.ndarray    # (nt, 3, 3) centers unwrapped into a per-triple frame around the first
    tri_B: np.ndarray        # (nt, 3) fluxes -(e01 + e12 - e02), plus c0 nu
    tri_G: np.ndarray        # (nt, 3) G - G^T at ``flux.PAIRS``, in the frame: -(f01 + f12 - f02) + centroid term
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
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    g = sample_abs(w, n)
    m = maximal_function(g)
    lam_eff = LAMBDA_EFF_FACTOR * lam
    mask = bad_set(m, lam_eff * (1.0 - BAD_MARGIN))
    if mask.is_full():
        raise PreconditionError("bad set covers the whole torus; raise lambda")
    return g, m, lam_eff, mask


def _triple_moments(w, cover, triples):
    """Vertices unwrapped next to the anchor cube's centre (nt, 3, 3), fluxes B (nt, 3) and G - G^T (nt, 3).

    Each side of a sorted triple is a row of ``cover.pairs``, whose
    circulations ``flux._edge_moments`` gives once, from the first cube's
    centre along the wrapped offset in half cells.  The triple's frame puts
    its sides 01 and 02 on those segments and side 12 a lattice vector a
    from its pair's, which adds a_b e_a - a_a e_b to f.  A side missing
    from the pairs raises ``KeyError``; centres off the half-cell lattice,
    or a side 12 that the frame wraps apart from its pair, ``ValueError``.
    """
    pairs, unit = cover.pairs, cover.period / (2 * cover.n)
    start, off = cover.centers[pairs[:, 0]], cover.wrap(cover.centers[pairs[:, 1]] - cover.centers[pairs[:, 0]])
    offsets = np.rint(off / unit)
    if len(offsets) and np.abs(off / unit - offsets).max() > 1e-9:
        raise ValueError("cube centres are off the half-cell lattice")
    offsets = offsets.astype(np.int64)
    nc, t = len(cover.centers), triples.astype(np.int64)
    keys, want = pairs[:, 0] * nc + pairs[:, 1], t[:, [0, 0, 1]] * nc + t[:, [1, 2, 2]]
    side = np.searchsorted(keys, want)
    miss = np.append(keys, -1)[side] != want
    if miss.any():
        raise KeyError(f"{int(miss.any(axis=1).sum())} triples with a side missing from the cover's pairs")
    s01, s02, s12 = side.T
    if (offsets[s02] - offsets[s01] != offsets[s12]).any():
        raise ValueError("a triple's frame wraps its side 12 apart from the pair's offset")
    tri_verts = np.stack([cover.centers[triples[:, 0]], start[s01] + off[s01], start[s02] + off[s02]], axis=1)
    edges, sides = np.zeros((len(pairs), 6)), np.flatnonzero(np.bincount(side.ravel(), minlength=len(pairs)))
    edges[sides] = _edge_moments(w, cover.centers, pairs[sides, 0], offsets[sides], unit)
    tri = edges[s02] - edges[s01]
    tri -= edges[s12]
    tri_b, tri_g = tri[:, :3], tri[:, 3:]
    lattice = np.rint((start + off - cover.centers[pairs[:, 1]]) / cover.period) * cover.period
    wraps = np.flatnonzero(lattice.any(axis=1)[s01])
    a, e12 = lattice[s01[wraps]], edges[s12[wraps]]
    tri_g[wraps] -= a[:, _BE] * e12[:, _AL] - a[:, _AL] * e12[:, _BE]
    c0 = w.coeffs.get((0, 0, 0))
    if c0 is not None:
        nu = -0.5 * unit**2 * np.cross(offsets[s01], offsets[s02])     # exact zeros on collinear triples
        b0 = nu @ c0.real.T
        centroid = np.einsum("q,qv,tvd->td", CENTROID.weights, CENTROID.points, tri_verts)
        tri_b += b0
        tri_g += centroid[:, _BE] * b0[:, _AL] - centroid[:, _AL] * b0[:, _BE]
    return tri_verts, tri_b, tri_g


def build_context(w: TrigSymField, lam: float, n: int) -> TruncationContext:
    """Run the full pipeline and cache triangle moments for all cube triples."""
    assert_div_free(w, what="build_context input")
    _, _, lam_eff, mask = flag_bad_set(w, lam, n)
    cover, triples = None, np.zeros((0, 3), dtype=np.int32)
    tri_verts, tri_B, tri_G = np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros((0, 3))
    if not mask.is_empty():
        cover = whitney_decompose(mask)
        triples = cover.triples()
        tri_verts, tri_B, tri_G = _triple_moments(w, cover, triples)
    return TruncationContext(
        w=w, lam=lam, lam_eff=lam_eff, n=n, bad=mask, cover=cover,
        rule=CENTROID, triples=triples, tri_verts=tri_verts, tri_B=tri_B, tri_G=tri_G)


# ---------------------------------------------------------------------------
# pointwise evaluation (the kernel's driver on a batch of points)


def local_field(ctx: TruncationContext, k: int, y) -> np.ndarray:
    """The local reconstruction wtilde^(k) at ``y`` (must lie in cube k)."""
    y = np.asarray(y, dtype=float)
    if ctx.cover is None:
        raise PreconditionError("context has an empty cover")
    acc = np.zeros((1, 6))
    active = _kernels._evaluate(
        ctx.cover, ctx.triples, ctx.tri_B, ctx.tri_G, ctx.tri_verts, y[None],
        lambda rows, phi: [(ctx.triples[rows, v] == k).astype(float) for v in range(3)], acc)
    if k not in active:
        raise PreconditionError(f"point {y} is outside cube {k}")
    return sym6_to_mat(acc[0])


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
            acc = np.zeros((int(bad.sum()), 6))
            _kernels._evaluate(ctx.cover, ctx.triples, ctx.tri_B, ctx.tri_G, ctx.tri_verts, pts[bad],
                               lambda rows, phi: [p[0] for p in phi], acc)
            vals[bad] = sym6_to_mat(acc)
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
        _kernels.accumulate_truncation(ctx.triples, ctx.tri_B, ctx.tri_G, ctx.tri_verts,
                                       ctx.cover.sides, m, ctx.period, bad_index,
                                       ctx.cover, tvals)
    ctx._caches[key] = (bad_index, mask_m, tvals)
    return ctx._caches[key]


def _w_on_grid(ctx, m):
    """The packed components of w on the m-grid, (m, m, m, 6) in ``SYM6`` order."""
    key = ("w", m)
    if key not in ctx._caches:
        ctx._caches[key] = ctx.w.grid_components(m, SYM6)
    return ctx._caches[key]


def sample_truncation_norm(ctx: TruncationContext, m: int) -> ScalarGrid:
    """Frobenius norm of the truncated field on the m-grid, sampled once per context and m."""
    key = ("norm", m)
    if key not in ctx._caches:
        _, mask_m, tvals = sample_bad_truncation(ctx, m)
        sq = _sym6_sq(_w_on_grid(ctx, m))
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
    grads = -np.sin(k * (pts @ BATTERY_XI.T) + BATTERY_PHASE)[..., None] * (k * BATTERY_XI)
    diff = (tvals - _w_on_grid(ctx, m)[mask_m])[:, SYM6_SLOT]
    return np.abs(_pairings(ctx.w) + np.einsum("pad,pqd->qa", diff, grads) * h**3)


# ---------------------------------------------------------------------------
# identity checks and the verification report


def summation_vanish_check(ctx: TruncationContext, a, b, c, mode, samples):
    """Max over samples of the triple partition-derivative sums against B or A.

    ``mode`` is ``("B", alpha)`` or ``("A", alpha, beta)``; ``a`` weights
    phi_k, ``b`` weights phi_j, ``c`` weights phi_i, each a derivative
    multi-index of total order <= 2 (the phi packs' range).  Samples
    outside the bad set are skipped (counted in the returned report).
    """
    sa, sb, sc = (_pack_slot(o) for o in (a, b, c))
    pts = np.asarray(list(samples), dtype=float).reshape(-1, 3)
    if ctx.cover is None:
        return {"max_abs": 0.0, "used": 0, "skipped": len(pts)}
    used = pts[ctx.bad.contains(pts)]
    cube, point, off, phi, _ = _partition(ctx.cover, used)
    sub, rows = _active_triples(cube, point, ctx.triples, len(ctx.cover))
    if mode[0] == "B":
        val = ctx.tri_B[rows, mode[1]]
    else:
        yf = ctx.tri_verts[rows, 0] + off[sub[:, 0]]
        val = _moment_functions(ctx.tri_B[rows].T, ctx.tri_G[rows], yf.T)[mode[1]][mode[2]]
    ph = [np.take(phi, sub[:, v], axis=1) for v in range(3)]
    total = sum(sg * (ph[pk][sa] * ph[pj][sb] * ph[pi][sc] * val) for pi, pj, pk, sg in _kernels._PERMS)
    sums = np.bincount(point[sub[:, 0]], total, minlength=len(used))
    return {"max_abs": float(np.abs(sums).max(initial=0.0)), "used": len(used),
            "skipped": len(pts) - len(used)}


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
    norm_w = np.sqrt(_sym6_sq(wcomps))
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
