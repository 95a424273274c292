"""The divergence-preserving truncation operator and its verification suite.

Pipeline: sample |w| on a grid, form the centered maximal function, flag
the superlevel set at an effective threshold 1.25 * lambda, cover it with
dyadic Whitney cubes, build the normalized bump partition, and cache the
triangle flux/moment data for every triple of pairwise-intersecting
cubes.  The truncated field equals w off the flagged cells and the
partition-weighted sum of the local flux reconstructions on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from . import _kernels
from .fields import TWO_PI, PreconditionError, TrigSymField, assert_div_free
from .flux import permutation_sign, rule_for_degree, triangle_moments
from .maximal import OpenSetMask, ScalarGrid, bad_set, maximal_function, sample_abs
from .whitney import SUPPORT_MARGIN, build_partition, pou_eval, whitney_decompose

LAMBDA_EFF_FACTOR = 1.25
BAD_MARGIN = 1e-9  # relative threshold slack: borderline cells count as bad

SYM6 = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_COMP6 = {(0, 0): 0, (1, 1): 1, (2, 2): 2, (1, 2): 3, (2, 1): 3, (0, 2): 4, (2, 0): 4, (0, 1): 5, (1, 0): 5}

_FIRST = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_SECOND = {(0, 0): (2, 0, 0), (1, 1): (0, 2, 0), (2, 2): (0, 0, 2),
           (1, 2): (0, 1, 1), (0, 2): (1, 0, 1), (0, 1): (1, 1, 0)}


def sym6_to_mat(v):
    m = np.empty((3, 3))
    for q, (a, b) in enumerate(SYM6):
        m[a, b] = v[q]
        m[b, a] = v[q]
    return m


class PlaneWave:
    """Scalar test function cos(2 pi xi . x / period + phase)."""

    def __init__(self, xi, phase=0.0, period=1.0):
        self.xi = tuple(int(v) for v in xi)
        self.phase = float(phase)
        self.period = float(period)

    def value(self, pts):
        k = TWO_PI / self.period
        arg = k * (np.atleast_2d(pts) @ np.asarray(self.xi, dtype=float)) + self.phase
        return np.cos(arg)

    def grad(self, pts):
        k = TWO_PI / self.period
        xi = np.asarray(self.xi, dtype=float)
        arg = k * (np.atleast_2d(pts) @ xi) + self.phase
        return -np.sin(arg)[:, None] * (k * xi)[None, :]


def battery_psis(period=1.0):
    """The fixed divergence test battery: three frequencies, four phases."""
    freqs = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    phases = [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4]
    return [PlaneWave(xi, ph, period) for xi in freqs for ph in phases]


@dataclass
class TruncationContext:
    w: TrigSymField
    lam: float
    lam_eff: float
    n: int
    abs_grid: ScalarGrid
    maximal_grid: ScalarGrid
    bad: OpenSetMask
    cover: object            # WhitneyCover or None when the bad set is empty
    pou: object              # PartitionOfUnity or None
    rule: object
    triples: np.ndarray      # (nt, 3) int32, sorted rows
    tri_verts: np.ndarray    # (nt, 3, 3) centers unwrapped into a per-triple frame
    tri_B: np.ndarray        # (nt, 3)
    tri_G: np.ndarray        # (nt, 3, 3)
    moment_index: dict
    _caches: dict = dfield(default_factory=dict)

    @property
    def period(self):
        return self.w.period

    def in_bad_set(self, x):
        h = self.period / self.n
        idx = tuple(int(np.floor((float(v) % self.period) / h)) % self.n for v in np.asarray(x).ravel())
        return bool(self.bad.mask[idx])

    def moment(self, i, j, k):
        """Signed (B, row) data for the ordered triple; None when it vanishes."""
        if i == j or j == k or i == k:
            return None
        key = tuple(sorted((i, j, k)))
        row = self.moment_index.get(key)
        if row is None:
            raise KeyError(f"triple {key} missing from the moment cache")
        return row, permutation_sign((i, j, k))

    def frame_point(self, row, y):
        """Unwrap ``y`` into the frame of cached triangle ``row``."""
        anchor = self.tri_verts[row, 0]
        p = self.period
        return anchor + ((np.asarray(y, dtype=float) - anchor + p / 2) % p - p / 2)


def lambda_for_fraction(w, n, fraction):
    """Threshold whose effective superlevel set flags about ``fraction`` of cells."""
    m = maximal_function(sample_abs(w, n))
    return float(np.quantile(m.values, 1.0 - fraction)) / LAMBDA_EFF_FACTOR


def build_context(w: TrigSymField, lam: float, n: int, degree: int = 10) -> TruncationContext:
    """Run the full pipeline and cache triangle moments for all cube triples."""
    assert_div_free(w, what="build_context input")
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    g = sample_abs(w, n)
    m = maximal_function(g)
    lam_eff = LAMBDA_EFF_FACTOR * lam
    mask = bad_set(m, lam_eff * (1.0 - BAD_MARGIN)) if m.values.max() > 0 else bad_set(m, lam_eff)
    if mask.is_full():
        raise PreconditionError("bad set covers the whole torus; raise lambda")

    rule = rule_for_degree(degree)
    if mask.is_empty():
        return TruncationContext(
            w=w, lam=lam, lam_eff=lam_eff, n=n, abs_grid=g, maximal_grid=m, bad=mask,
            cover=None, pou=None, rule=rule,
            triples=np.zeros((0, 3), dtype=np.int32),
            tri_verts=np.zeros((0, 3, 3)), tri_B=np.zeros((0, 3)), tri_G=np.zeros((0, 3, 3)),
            moment_index={},
        )

    cover = whitney_decompose(mask)
    pou = build_partition(cover)
    adj = cover.neighbor_pairs()
    triples = []
    for i in range(len(cover)):
        for j in sorted(adj[i]):
            if j <= i:
                continue
            for k in sorted(adj[i] & adj[j]):
                if k > j:
                    triples.append((i, j, k))
    triples = np.array(triples, dtype=np.int32).reshape(-1, 3)

    nt = len(triples)
    tri_verts = np.zeros((nt, 3, 3))
    if nt:
        anchors = cover.centers[triples[:, 0]]
        tri_verts[:, 0] = anchors
        for v in (1, 2):
            tri_verts[:, v] = anchors + cover.wrap(cover.centers[triples[:, v]] - anchors)
    tri_B, tri_G = _batched_moments(w, tri_verts, rule)
    moment_index = {tuple(int(v) for v in t): r for r, t in enumerate(triples)}

    return TruncationContext(
        w=w, lam=lam, lam_eff=lam_eff, n=n, abs_grid=g, maximal_grid=m, bad=mask,
        cover=cover, pou=pou, rule=rule, triples=triples, tri_verts=tri_verts,
        tri_B=tri_B, tri_G=tri_G, moment_index=moment_index,
    )


def _batched_moments(w, tri_verts, rule):
    """Flux vectors and first moments for all cached triangles at once."""
    nt = tri_verts.shape[0]
    tri_b = np.zeros((nt, 3))
    tri_g = np.zeros((nt, 3, 3))
    if nt == 0:
        return tri_b, tri_g
    nu = 0.5 * np.cross(tri_verts[:, 0] - tri_verts[:, 1], tri_verts[:, 2] - tri_verts[:, 1])
    edges = np.stack([
        np.linalg.norm(tri_verts[:, 0] - tri_verts[:, 1], axis=1),
        np.linalg.norm(tri_verts[:, 2] - tri_verts[:, 1], axis=1),
        np.linalg.norm(tri_verts[:, 0] - tri_verts[:, 2], axis=1),
    ]).max(axis=0)
    degenerate = np.linalg.norm(nu, axis=1) < 1e-12 * edges**2
    nu[degenerate] = 0.0

    q = len(rule.weights)
    pts = np.einsum("qk,tkd->tqd", rule.points, tri_verts).reshape(nt * q, 3)
    nmodes = max(1, len(w.coeffs))
    chunk = max(1, int(4.0e6 / nmodes))
    vals = np.empty((nt * q, 3, 3))
    for start in range(0, nt * q, chunk):
        vals[start:start + chunk] = w.eval_many(pts[start:start + chunk])
    vals = vals.reshape(nt, q, 3, 3)
    flux = np.einsum("tqab,tb->tqa", vals, nu)
    tri_b = np.einsum("q,tqa->ta", rule.weights, flux)
    tri_g = np.einsum("q,tqb,tqa->tab", rule.weights, pts.reshape(nt, q, 3), flux)
    return tri_b, tri_g


# ---------------------------------------------------------------------------
# pointwise reference evaluation


def _phi_packs(ctx, y):
    """Value, gradient and Hessian of each active phi at ``y`` via pou_eval.

    Active cubes hold ``y`` more than ``SUPPORT_MARGIN`` inside their
    support, as ``neighbor_pairs`` demands, so all their triples are cached.
    """
    cover = ctx.cover
    active = [c for c in cover.cubes_at(y)
              if (np.abs(cover.wrap(y - cover.centers[c])) < cover.sides[c] / 2.0 - SUPPORT_MARGIN).all()]
    packs = {}
    for c in active:
        val = pou_eval(ctx.pou, c, y)
        d1 = np.array([pou_eval(ctx.pou, c, y, o) for o in _FIRST])
        d2 = np.zeros((3, 3))
        for (a, b), o in _SECOND.items():
            d2[a, b] = pou_eval(ctx.pou, c, y, o)
            d2[b, a] = d2[a, b]
        packs[c] = (val, d1, d2)
    return active, packs


def _accumulate_local(ctx, k, y, packs, active, weight=1.0):
    """Contribution phi-weighted local field of cube k at y (packed sym6)."""
    out = np.zeros(6)
    for i in active:
        for j in active:
            mom = ctx.moment(i, j, k)
            if mom is None:
                continue
            row, sign = mom
            b = sign * ctx.tri_B[row]
            yf = ctx.frame_point(row, y)
            amat = np.zeros((3, 3))
            for a in range(3):
                for bb in range(a + 1, 3):
                    val = sign * (yf[bb] * ctx.tri_B[row, a] - ctx.tri_G[row, a, bb]
                                  - yf[a] * ctx.tri_B[row, bb] + ctx.tri_G[row, bb, a])
                    amat[a, bb] = val
                    amat[bb, a] = -val
            _, dj, d2j = packs[j]
            _, di, _ = packs[i]
            for al, be, ga in CYCLES:
                nd = 3.0 * (dj[ga] * di[al] * b[al] + dj[be] * di[ga] * b[be])
                nd += (d2j[be, ga] * di[ga] - d2j[ga, ga] * di[be]) * amat[be, ga]
                nd += (d2j[al, ga] * di[ga] - d2j[ga, ga] * di[al]) * amat[ga, al]
                nd += (d2j[al, ga] * di[be] + d2j[be, ga] * di[al]
                       - 2.0 * d2j[al, be] * di[ga]) * amat[al, be]
                out[_COMP6[(al, be)]] += weight * nd

                dd = 6.0 * dj[be] * di[ga] * b[al]
                dd += 2.0 * (d2j[ga, ga] * di[be] - d2j[be, ga] * di[ga]) * amat[ga, al]
                dd += 2.0 * (d2j[be, be] * di[ga] - d2j[be, ga] * di[be]) * amat[al, be]
                out[al] += weight * dd
    return out


def local_field(ctx: TruncationContext, k: int, y) -> np.ndarray:
    """The local reconstruction wtilde^(k) at ``y`` (must lie in cube k)."""
    y = np.asarray(y, dtype=float)
    if ctx.cover is None:
        raise PreconditionError("context has an empty cover")
    active, packs = _phi_packs(ctx, y)
    if k not in active:
        raise PreconditionError(f"point {y} is outside cube {k}")
    return sym6_to_mat(_accumulate_local(ctx, k, y, packs, active))


class TruncationEvaluator:
    """Pure pointwise evaluator of the truncated field."""

    def __init__(self, ctx: TruncationContext):
        self.ctx = ctx

    def __call__(self, x):
        ctx = self.ctx
        x = np.asarray(x, dtype=float)
        if ctx.cover is None or not ctx.in_bad_set(x):
            return ctx.w(x)
        active, packs = _phi_packs(ctx, x)
        acc = np.zeros(6)
        for k in active:
            acc += _accumulate_local(ctx, k, x, packs, active, weight=packs[k][0])
        return sym6_to_mat(acc)


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
    mask_m = np.repeat(np.repeat(np.repeat(mask, r, 0), r, 1), r, 2)
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
        spacks = np.zeros((npts, 10))
        _kernels.accumulate_spacks(ctx.cover.centers, ctx.cover.sides, m, ctx.period,
                                   bad_index, spacks)
        _kernels.accumulate_truncation(ctx.triples, ctx.tri_B, ctx.tri_G, ctx.tri_verts,
                                       ctx.cover.sides, m, ctx.period, bad_index,
                                       spacks, tvals)
    ctx._caches[key] = (bad_index, mask_m, tvals)
    return ctx._caches[key]


def _bad_points(ctx, m):
    key = ("badpts", m)
    if key in ctx._caches:
        return ctx._caches[key]
    _, mask_m, _ = sample_bad_truncation(ctx, m)
    hm = ctx.period / m
    pts = (np.argwhere(mask_m) + 0.5) * hm
    ctx._caches[key] = pts
    return pts


def _w_comp_on_grid(ctx, m, a, b):
    key = ("wcomp", m, a, b)
    if key in ctx._caches:
        return ctx._caches[key]
    vals = ctx.w.grid_components(m, [(a, b)])[..., 0]
    ctx._caches[key] = vals
    return vals


def sample_truncation_norm(ctx: TruncationContext, m: int) -> ScalarGrid:
    """Frobenius norm of the truncated field on the m-grid."""
    bad_index, mask_m, tvals = sample_bad_truncation(ctx, m)
    sq = np.zeros((m, m, m))
    for q, (a, b) in enumerate(SYM6):
        comp = _w_comp_on_grid(ctx, m, a, b)
        mult = 1.0 if a == b else 2.0
        csq = mult * comp**2
        csq[mask_m] = mult * tvals[:, q] ** 2
        sq += csq
    return ScalarGrid(n=m, period=ctx.period, values=np.sqrt(sq))


# ---------------------------------------------------------------------------
# weak divergence defects


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


def weak_divergence_defect(ctx: TruncationContext, alpha: int, psi, m: int | None = None) -> float:
    """Midpoint quadrature of integral (T w)_alpha . grad(psi) at resolution m.

    Splits into the trig part (exact by discrete orthogonality for plane
    waves) plus the flagged-point correction (T - w) . grad(psi).
    """
    m = 2 * ctx.n if m is None else m
    _, mask_m, tvals = sample_bad_truncation(ctx, m)
    h3 = (ctx.period / m) ** 3

    if isinstance(psi, PlaneWave):
        term1 = _plane_wave_pairing(ctx.w, psi, alpha)
    else:
        term1 = 0.0
        grid = None
        for d in range(3):
            comp = _w_comp_on_grid(ctx, m, alpha, d)
            if grid is None:
                hm = ctx.period / m
                ax = (np.arange(m) + 0.5) * hm
                grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
            term1 += float(comp.ravel() @ psi.grad(grid)[:, d]) * h3

    if not mask_m.any():
        return term1

    pts = _bad_points(ctx, m)
    g = psi.grad(pts)
    t_row = np.stack([tvals[:, _COMP6[(alpha, d)]] for d in range(3)], axis=1)
    w_row = np.stack([_w_comp_on_grid(ctx, m, alpha, d)[mask_m] for d in range(3)], axis=1)
    term2 = float(((t_row - w_row) * g).sum()) * h3
    return term1 + term2


def divergence_battery(ctx: TruncationContext, m: int | None = None, psis=None) -> np.ndarray:
    """Defects |integral (T w)_alpha . grad psi| for the whole battery; (npsi, 3)."""
    psis = battery_psis(ctx.period) if psis is None else psis
    out = np.zeros((len(psis), 3))
    for p, psi in enumerate(psis):
        for alpha in range(3):
            out[p, alpha] = abs(weak_divergence_defect(ctx, alpha, psi, m))
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


# ---------------------------------------------------------------------------
# identity checks and the verification report


def summation_vanish_check(ctx: TruncationContext, a, b, c, mode, samples):
    """Max over samples of the triple partition-derivative sums against B or A.

    ``mode`` is ``("B", alpha)`` or ``("A", alpha, beta)``; ``a`` weights
    phi_k, ``b`` weights phi_j, ``c`` weights phi_i.  Samples outside the
    bad set are skipped (counted in the returned report).
    """
    if ctx.cover is None:
        return {"max_abs": 0.0, "used": 0, "skipped": len(list(samples))}
    worst = 0.0
    used = skipped = 0
    for y in samples:
        y = np.asarray(y, dtype=float)
        if not ctx.in_bad_set(y):
            skipped += 1
            continue
        used += 1
        active = ctx.cover.cubes_at(y)
        da = {l: pou_eval(ctx.pou, l, y, a) for l in active}
        db = {l: pou_eval(ctx.pou, l, y, b) for l in active}
        dc = {l: pou_eval(ctx.pou, l, y, c) for l in active}
        total = 0.0
        for k in active:
            for j in active:
                for i in active:
                    mom = ctx.moment(i, j, k)
                    if mom is None:
                        continue
                    row, sign = mom
                    if mode[0] == "B":
                        val = sign * ctx.tri_B[row, mode[1]]
                    else:
                        al, be = mode[1], mode[2]
                        yf = ctx.frame_point(row, y)
                        val = sign * (yf[be] * ctx.tri_B[row, al] - ctx.tri_G[row, al, be]
                                      - yf[al] * ctx.tri_B[row, be] + ctx.tri_G[row, be, al])
                    total += da[k] * db[j] * dc[i] * val
        worst = max(worst, abs(total))
    return {"max_abs": worst, "used": used, "skipped": skipped}


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
        return {
            "lambda": self.lam,
            "lambda_effective": self.lam_eff,
            "grid_n": self.n,
            "eval_m": self.m,
            "linf_ratio": self.linf_ratio,
            "l1_distance": self.l1_distance,
            "tail_integral": self.tail_integral,
            "stability_ratio": self.stability_ratio,
            "changed_measure": self.changed_measure,
            "small_change_ratio": self.small_change_ratio,
            "div_defects": list(self.div_defects),
            "spiked_defect": self.spiked_defect,
            "cover_size": self.cover_size,
            "triple_count": self.triple_count,
            "overlap": self.overlap,
        }


def verify(ctx: TruncationContext, m: int | None = None, psis=None) -> VerificationReport:
    """Measure every quantity of the truncation theorem on the m-grid."""
    m = 2 * ctx.n if m is None else m
    bad_index, mask_m, tvals = sample_bad_truncation(ctx, m)
    h3 = (ctx.period / m) ** 3

    norm_w_sq = np.zeros((m, m, m))
    diff_sq = np.zeros(tvals.shape[0])
    t_sq = np.zeros(tvals.shape[0])
    for q, (a, b) in enumerate(SYM6):
        comp = _w_comp_on_grid(ctx, m, a, b)
        mult = 1.0 if a == b else 2.0
        norm_w_sq += mult * comp**2
        diff_sq += mult * (tvals[:, q] - comp[mask_m]) ** 2
        t_sq += mult * tvals[:, q] ** 2

    norm_w = np.sqrt(norm_w_sq)
    linf_t = np.sqrt(t_sq).max() if tvals.shape[0] else 0.0
    linf_off = norm_w[~mask_m].max() if (~mask_m).any() else 0.0
    linf_ratio = max(linf_t, linf_off) / ctx.lam

    l1_distance = float(np.sqrt(diff_sq).sum()) * h3
    tail = float(norm_w[norm_w > ctx.lam / 2].sum()) * h3
    changed = ctx.bad.measure()

    if tail > 0:
        stability_ratio = l1_distance / tail
        small_change_ratio = ctx.lam * changed / tail
    else:
        stability_ratio = 0.0 if l1_distance == 0 else np.inf
        small_change_ratio = 0.0 if changed == 0 else np.inf

    psis = battery_psis(ctx.period) if psis is None else psis
    defects = divergence_battery(ctx, m, psis).max(axis=1)
    spiked = float(spiked_battery(ctx, psis).max())

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
