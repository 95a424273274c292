"""Potential-route truncation: clamp the second-order potential, then re-apply it.

The competitor to the geometric truncation.  The field is written as
``u = curl curl^T v`` via the mode-wise pseudoinverse, the potential is
truncated in the second-order uniform norm by replacing it with local
affine approximations on Whitney cubes of the superlevel set of
``M(v) + M(grad v) + M(grad^2 v)``, and the operator is applied back
patchwise.  This keeps the field bounded and weakly solenoidal away from
patch boundaries, but is only weakly stable: a high-frequency field far
below the threshold can still be modified.

``stability_comparison`` reads only the potential's bad set
(``potential_bad_set``), the set where the truncation changes the field;
``w_m_inf_truncate`` goes on to the cover and patches that the pointwise
and grid evaluators need.

Patches come from tensor-Gauss moments over each cube.  All cubes of one
side share the same 64 node offsets from their centre, so one level is one
shape of ``flux._lattice_moments``: one transfer table per level, one
phase row per cube centre, and every patch from one contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .fields import SYM6, PreconditionError, TrigSymField, _sym6_sq, potential_inverse
from .flux import _lattice_moments
from .maximal import OpenSetMask, ScalarGrid, _cell_of, bad_set, maximal_function
from .truncation import _bad_grid_index, _spliced_norm, flag_bad_set, sym6_to_mat
from .whitney import WhitneyCube, _phi_at, whitney_decompose

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


def _cube_patches(v: TrigSymField, centers, sides, degree: int = 1):
    """Patch values (nc, 3, 3) and gradients (nc, 3, 3, 3) of cubes ``centers``, ``sides``.

    Each component is L2-projected onto polynomials of total degree <= degree
    under the 4^3 tensor-Gauss rule on the cube.  The affine basis
    {1, t1, t2, t3} is orthogonal under that symmetric rule, so the
    projection reduces to moment ratios and reproduces polynomials of that
    degree exactly.
    """
    if degree not in (0, 1):
        raise PreconditionError("only degrees 0 and 1 are supported")
    nodes, weights = _GAUSS4
    unit = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 3)
    ww = np.einsum("i,j,k->ijk", weights, weights, weights).ravel()
    ww = ww / ww.sum()
    level_sides, level_of = np.unique(sides, return_inverse=True)
    offsets = level_sides[:, None, None] / 2.0 * unit                 # (levels, 64, 3)
    value, first = _lattice_moments(v, centers, offsets, ww, np.arange(len(sides)), level_of)
    grad = np.zeros((len(sides), 3, 3, 3))
    if degree == 1:
        second = np.einsum("q,lqd->ld", ww, offsets**2)[level_of]   # sum_q ww delta_d^2
        grad = (first / second[:, :, None, None]).transpose(0, 2, 3, 1)
    return value, grad


def averaged_taylor(v: TrigSymField, cube: WhitneyCube, degree: int = 1) -> PolyPatch:
    """The affine patch of ``v`` on one cube: ``_cube_patches`` for a batch of one."""
    center = np.array(cube.center, dtype=float)
    value, grad = _cube_patches(v, center[None], np.array([cube.side]), degree)
    return PolyPatch(center=center, value=value[0], grad=grad[0])


@dataclass
class PotentialTruncation:
    """Case-split evaluator of the potential-space truncation v_lambda."""

    v: TrigSymField
    lam: float
    n: int
    level_grid: ScalarGrid   # sum of the three maximal functions
    bad: OpenSetMask
    cover: object            # WhitneyCover or None; phi is whitney._phi_at
    patch_values: np.ndarray  # (nc, 3, 3) patch value at each cube centre
    patch_grads: np.ndarray   # (nc, 3, 3, 3) constant gradient, last axis = direction

    @property
    def period(self):
        return self.v.period

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.cover is None or not self.bad.contains(x):
            return self.v(x)
        active, off, packs = _phi_at(self.cover, x)
        local = self.patch_values[active] + np.einsum("jabd,jd->jab", self.patch_grads[active], off)
        return np.einsum("j,jab->ab", packs[0], local)


def _derivative_magnitude_grids(v: TrigSymField, n: int):
    """Frobenius norms of v, grad v, grad^2 v at the cell centers.

    One batched transform per distinct derivative multi-index; level l sums
    over the ordered index tuples (d_1, ..., d_l), so mixed second
    derivatives count twice.
    """
    eye = np.eye(3, dtype=np.int64)
    levels = [[(0, 0, 0)], [tuple(eye[d]) for d in range(3)],
              [tuple(eye[d] + eye[e]) for d in range(3) for e in range(3)]]
    grids = {o: v.grid_components(n, SYM6, order=o) for orders in levels for o in orders}
    return tuple(np.sqrt(sum(_sym6_sq(grids[o]) for o in orders)) for orders in levels)


def potential_bad_set(v: TrigSymField, lam: float, n: int):
    """The potential's flagging stage: the level grid and its superlevel mask at ``lam``.

    The level is the sum of the centered maximal functions of |v|, |grad v|
    and |grad^2 v| on the n-grid; the potential twin of
    ``truncation.flag_bad_set``.
    """
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    total = sum(maximal_function(ScalarGrid(n=n, period=v.period, values=g)).values
                for g in _derivative_magnitude_grids(v, n))
    level = ScalarGrid(n=n, period=v.period, values=total)
    mask = bad_set(level, lam)
    if mask.is_full():
        raise PreconditionError("potential bad set covers the whole torus; raise lambda")
    return level, mask


def w_m_inf_truncate(v: TrigSymField, lam: float, n: int) -> PotentialTruncation:
    """Second-order uniform truncation of the potential by affine patches.

    The bad set is ``potential_bad_set``'s; its Whitney cubes carry the patches.
    """
    level, mask = potential_bad_set(v, lam, n)
    cover = whitney_decompose(mask)
    values, grads = _cube_patches(v, cover.centers, cover.sides)
    return PotentialTruncation(v=v, lam=lam, n=n, level_grid=level, bad=mask, cover=cover or None,
                               patch_values=values, patch_grads=grads)


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
            _kernels.accumulate_patch_curl(vt.cover.centers, vt.cover.sides, vt.patch_values,
                                           vt.patch_grads, m, vt.period, idx, out)
        self._samples[m] = (idx, mask_m, out)
        return self._samples[m]

    def grid_norm(self, m: int) -> ScalarGrid:
        _, mask_m, vals = self.sample_bad(m)
        return ScalarGrid(n=m, period=self.period,
                          values=_spliced_norm(self.u.grid_components(m, SYM6), mask_m, vals))

    def __call__(self, x):
        """Pointwise value: the ``sample_bad(2n)`` value of the m = 2n cell holding ``x``.

        Off the flagged cells (and in an unflagged 2n-cell) it is ``u(x)``.
        """
        vt = self.vtrunc
        x = np.asarray(x, dtype=float)
        if vt.cover is None or not vt.bad.contains(x):
            return self.u(x)
        m = 2 * vt.n
        idx, mask_m, vals = self.sample_bad(m)
        p = idx[_cell_of(x, self.period, m)]
        if p < 0:
            return self.u(x)
        return sym6_to_mat(vals[p])


def afree_potential_truncate(u: TrigSymField, lam: float, n: int) -> PotentialFieldTruncation:
    """Potential truncation of a mean-zero divergence-free field."""
    v = potential_inverse(u, what="afree_potential_truncate input")
    return PotentialFieldTruncation(u=u, vtrunc=w_m_inf_truncate(v, lam, n))


def stability_comparison(u: TrigSymField, lam: float, n: int = 32) -> dict:
    """Changed-set measures of the geometric and the potential truncations.

    A field bounded by the threshold leaves the geometric truncation
    inactive, while the potential route can still flag a positive-measure
    set when the potential's second derivatives are large.  A truncation
    changes the field on its bad set only, so the comparison reads the two
    masks (``flag_bad_set`` and ``potential_bad_set``) and builds no cover,
    moments or patches.
    """
    v = potential_inverse(u, what="stability_comparison input")
    g, _, _, geometric = flag_bad_set(u, lam, n)
    _, potential = potential_bad_set(v, lam, n)
    umax = float(g.values.max())
    return {
        "lambda": lam,
        "grid_n": n,
        "linf_u": umax,
        "linf_of_u_over_lambda": umax / lam,
        "geometric": {"changed_measure": float(geometric.measure()),
                      "bad_fraction": float(geometric.mask.mean())},
        "potential": {"changed_measure": float(potential.measure()),
                      "bad_fraction": float(potential.mask.mean())},
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
