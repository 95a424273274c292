"""Potential-route truncation: clamp the second-order potential, then re-apply it.

The competitor to the geometric truncation.  The field is written as
``u = curl curl^T v`` via the mode-wise pseudoinverse, the potential is
truncated in the second-order uniform norm by replacing it with local
affine approximations on Whitney cubes of the superlevel set of
``M(v) + M(grad v) + M(grad^2 v)``, and the operator is applied back
patchwise.  This keeps the field bounded and weakly solenoidal away from
patch boundaries, but is only weakly stable: a high-frequency field far
below the threshold can still be modified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .fields import (PreconditionError, TrigSymField, assert_div_free,
                     potential_inverse)
from .maximal import OpenSetMask, ScalarGrid, bad_set, maximal_function
from .truncation import SYM6, LAMBDA_EFF_FACTOR, _bad_grid_index, build_context, sym6_to_mat
from .whitney import WhitneyCube, build_partition, pou_eval, whitney_decompose

_GAUSS4 = np.polynomial.legendre.leggauss(4)


@dataclass
class PolyPatch:
    """Affine approximation of a field over one cube, in centered coordinates."""

    center: np.ndarray      # (3,)
    value: np.ndarray       # (3, 3) value at the center
    grad: np.ndarray        # (3, 3, 3) constant gradient, last axis = direction

    def __call__(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return self.value + self.grad @ d


def _cube_quadrature(cube: WhitneyCube, period):
    """Tensor Gauss nodes/weights over the (dilated) cube, weights averaging."""
    nodes, weights = _GAUSS4
    half = cube.side / 2.0
    ax = [cube.center[d] + half * nodes for d in range(3)]
    pts = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
    ww = (weights[:, None, None] * weights[None, :, None] * weights[None, None, :]).ravel()
    return pts, ww / ww.sum()


def averaged_taylor(v: TrigSymField, cube: WhitneyCube, degree: int = 1) -> PolyPatch:
    """L2 projection of each component onto polynomials of total degree <= degree.

    The affine basis {1, t1, t2, t3} is orthogonal on the cube under the
    symmetric tensor quadrature, so the projection reduces to moment
    ratios and reproduces polynomials of that degree exactly.
    """
    if degree not in (0, 1):
        raise PreconditionError("only degrees 0 and 1 are supported")
    pts, ww = _cube_quadrature(cube, v.period)
    vals = v.eval_many(pts)                       # (q, 3, 3)
    t = (pts - cube.center) / cube.side           # centered, orthogonal to 1
    mean = np.einsum("q,qab->ab", ww, vals)
    grad = np.zeros((3, 3, 3))
    if degree == 1:
        tsq = np.einsum("q,qd->d", ww, t * t)
        for d in range(3):
            grad[:, :, d] = np.einsum("q,qab->ab", ww * t[:, d], vals) / tsq[d] / cube.side
    return PolyPatch(center=cube.center.copy(), value=mean, grad=grad)


@dataclass
class PotentialTruncation:
    """Case-split evaluator of the potential-space truncation v_lambda."""

    v: TrigSymField
    lam: float
    n: int
    level_grid: ScalarGrid   # sum of the three maximal functions
    bad: OpenSetMask
    cover: object
    pou: object
    patches: list

    @property
    def period(self):
        return self.v.period

    def in_bad_set(self, x):
        h = self.period / self.n
        idx = tuple(int(np.floor((float(q) % self.period) / h)) % self.n for q in np.asarray(x).ravel())
        return bool(self.bad.mask[idx])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.cover is None or not self.in_bad_set(x):
            return self.v(x)
        acc = np.zeros((3, 3))
        for j in self.cover.cubes_at(x):
            xf = self.cover.centers[j] + self.cover.wrap(x - self.cover.centers[j])
            acc += pou_eval(self.pou, j, x) * self.patches[j](xf)
        return acc


def _derivative_magnitude_grids(v: TrigSymField, n: int):
    """Frobenius norms of v, grad v, grad^2 v at the cell centers."""
    lvl0 = np.zeros((n, n, n))
    lvl1 = np.zeros((n, n, n))
    lvl2 = np.zeros((n, n, n))
    orders1 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for q, (a, b) in enumerate(SYM6):
        mult = 1.0 if a == b else 2.0
        lvl0 += mult * v.grid_components(n, [(a, b)])[..., 0] ** 2
        for o1 in orders1:
            lvl1 += mult * v.grid_components(n, [(a, b)], order=o1)[..., 0] ** 2
        for d in range(3):
            for e in range(3):
                o2 = tuple(np.add(orders1[d], orders1[e]))
                lvl2 += mult * v.grid_components(n, [(a, b)], order=o2)[..., 0] ** 2
    return np.sqrt(lvl0), np.sqrt(lvl1), np.sqrt(lvl2)


def w_m_inf_truncate(v: TrigSymField, lam: float, n: int) -> PotentialTruncation:
    """Second-order uniform truncation of the potential by affine patches.

    The bad set is the superlevel set of the sum of the centered maximal
    functions of |v|, |grad v| and |grad^2 v| at level ``lam``.
    """
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    g0, g1, g2 = _derivative_magnitude_grids(v, n)
    total = np.zeros_like(g0)
    for g in (g0, g1, g2):
        total += maximal_function(ScalarGrid(n=n, period=v.period, values=g)).values
    level = ScalarGrid(n=n, period=v.period, values=total)
    mask = bad_set(level, lam)
    if mask.is_full():
        raise PreconditionError("potential bad set covers the whole torus; raise lambda")
    if mask.is_empty():
        return PotentialTruncation(v=v, lam=lam, n=n, level_grid=level, bad=mask,
                                   cover=None, pou=None, patches=[])
    cover = whitney_decompose(mask)
    pou = build_partition(cover)
    patches = [averaged_taylor(v, cube) for cube in cover.cubes]
    return PotentialTruncation(v=v, lam=lam, n=n, level_grid=level, bad=mask,
                               cover=cover, pou=pou, patches=patches)


@dataclass
class PotentialFieldTruncation:
    """The field-level truncation u_lambda = curl curl^T applied to v_lambda."""

    u: TrigSymField
    vtrunc: PotentialTruncation
    _samples: dict = field(default_factory=dict, repr=False)  # sample_bad results by m

    @property
    def period(self):
        return self.u.period

    def changed_measure(self):
        return self.vtrunc.bad.measure()

    def sample_bad(self, m: int):
        """Packed values of u_lambda at flagged m-grid points: (bad_index, mask, vals)."""
        if m in self._samples:
            return self._samples[m]
        vt = self.vtrunc
        idx, mask_m = _bad_grid_index(vt.bad.mask, m)
        npts = int(mask_m.sum())
        out = np.zeros((npts, 6))
        if vt.cover is not None:
            spacks = np.zeros((npts, 10))
            _kernels.accumulate_spacks(vt.cover.centers, vt.cover.sides, m, vt.period, idx, spacks)
            patch_c0 = np.stack([p.value for p in vt.patches])
            patch_grad = np.stack([p.grad for p in vt.patches])
            _kernels.accumulate_patch_curl(vt.cover.centers, vt.cover.sides, patch_c0,
                                           patch_grad, m, vt.period, idx, spacks, out)
        self._samples[m] = (idx, mask_m, out)
        return self._samples[m]

    def grid_norm(self, m: int) -> ScalarGrid:
        _, mask_m, vals = self.sample_bad(m)
        sq = np.zeros((m, m, m))
        for q, (a, b) in enumerate(SYM6):
            comp = self.u.grid_components(m, [(a, b)])[..., 0]
            mult = 1.0 if a == b else 2.0
            csq = mult * comp**2
            if mask_m.any():
                csq[mask_m] = mult * vals[:, q] ** 2
            sq += csq
        return ScalarGrid(n=m, period=self.period, values=np.sqrt(sq))

    def __call__(self, x):
        """Pointwise evaluation (reference path; patch curl via finite cubes)."""
        vt = self.vtrunc
        x = np.asarray(x, dtype=float)
        if vt.cover is None or not vt.in_bad_set(x):
            return self.u(x)
        m = 2 * vt.n
        idx, mask_m, vals = self.sample_bad(m)
        hm = self.period / m
        cell = tuple(int(np.floor((float(q) % self.period) / hm)) % m for q in x)
        p = idx[cell]
        if p < 0:
            return self.u(x)
        return sym6_to_mat(vals[p])


def afree_potential_truncate(u: TrigSymField, lam: float, n: int) -> PotentialFieldTruncation:
    """Potential truncation of a mean-zero divergence-free field."""
    assert_div_free(u, what="afree_potential_truncate input")
    v = potential_inverse(u)
    vtrunc = w_m_inf_truncate(v, lam, n)
    return PotentialFieldTruncation(u=u, vtrunc=vtrunc)


def stability_comparison(u: TrigSymField, lam: float, n: int = 32) -> dict:
    """Changed-set measures of the geometric and the potential truncations.

    A field bounded by the threshold leaves the geometric truncation
    inactive, while the potential route can still flag a positive-measure
    set when the potential's second derivatives are large.
    """
    assert_div_free(u, what="stability_comparison input")
    ctx = build_context(u, lam, n)
    geometric_changed = ctx.bad.measure()
    pot = afree_potential_truncate(u, lam, n)
    vals = u.grid_values(n)
    umax = float(np.sqrt(np.einsum("...ab,...ab->...", vals, vals)).max())
    return {
        "lambda": lam,
        "grid_n": n,
        "linf_u": umax,
        "linf_of_u_over_lambda": umax / lam,
        "geometric": {"changed_measure": float(geometric_changed),
                      "bad_fraction": float(ctx.bad.mask.mean())},
        "potential": {"changed_measure": float(pot.changed_measure()),
                      "bad_fraction": float(pot.vtrunc.bad.mask.mean())},
    }


def strong_stability_witness(lam: float, margin: float = 1.0, period: float = 1.0) -> TrigSymField:
    """A field whose tail integral above ``lam`` vanishes yet the potential route flags it.

    Two modes along e1 share a norm-flat polarization pair (orthogonal
    equal-norm matrices as real and imaginary parts), so |u(x)| is exactly
    the two-mode beat envelope with sup ``margin * lam``.  For margin <= 1
    the set {|u| > lam} is empty and so is the geometric bad set, while the
    maximal sum over the potential's derivative levels exceeds ``lam`` on a
    fixed positive fraction of the torus: the potential truncation modifies
    a field that strong stability says must be left alone.

    The margin cannot drop much below 1 here: the potential's second
    derivative is a pointwise isometry of the field mode-by-mode, so the
    level sum tops out near (1 + 1/(2 pi) + 1/(4 pi^2)) times the sup norm
    on this frequency band.
    """
    if margin <= 0 or margin > 1.0 + 1e-12:
        raise PreconditionError("witness margin must lie in (0, 1]")
    s = 1.0 / np.sqrt(2.0)
    a_mat = np.array([[0.0, 0, 0], [0, s, 0], [0, 0, -s]])
    b_mat = np.array([[0.0, 0, 0], [0, 0, s], [0, s, 0]])
    pair = 0.5 * (a_mat + 1j * b_mat)
    a1, a2 = 1.0, 0.55
    scale = margin * lam / (a1 + a2)
    return TrigSymField({(1, 0, 0): scale * a1 * pair, (2, 0, 0): scale * a2 * pair},
                        period=period)
