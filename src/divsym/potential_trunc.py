"""Potential-route truncation: clamp the second-order potential, then re-apply it.

The competitor to the geometric truncation.  The field is written as
``u = curl curl^T v`` via the mode-wise pseudoinverse, the potential is
truncated in the second-order uniform norm on the superlevel set of
``M(v) + M(grad v) + M(grad^2 v)``, and the operator is applied back.
This keeps the field bounded, but is only weakly stable: a
high-frequency field far below the threshold can still be modified.

A truncation changes the field on its bad set only, so the route stops
there: ``potential_bad_set`` is its flagging stage, and
``stability_comparison`` reads that mask against the geometric one.
"""

from __future__ import annotations

import numpy as np

from .fields import PreconditionError, TrigSymField, _sym6_sq, potential_inverse
from .maximal import ScalarGrid, _check_lambda, _maximal, bad_set
from .truncation import flag_bad_set


def _derivative_magnitude_grids(v: TrigSymField, n: int):
    """Frobenius norms of v, grad v, grad^2 v at the cell centers.

    One band transform samples all 10 distinct derivative multi-indices,
    and each one's squared norm is taken once; level l sums over the
    ordered index tuples (d_1, ..., d_l), so mixed second derivatives
    count twice.
    """
    eye = np.eye(3, dtype=np.int64)
    levels = [[(0, 0, 0)], [tuple(eye[d]) for d in range(3)],
              [tuple(eye[d] + eye[e]) for d in range(3) for e in range(3)]]
    orders = sorted(set().union(*levels))
    sq = dict(zip(orders, map(_sym6_sq, v._grid_stack(n, orders))))
    return tuple(np.sqrt(sum(sq[o] for o in level)) for level in levels)


def potential_bad_set(v: TrigSymField, lam: float, n: int):
    """The potential's flagging stage: the level grid and its superlevel mask at ``lam``.

    The level is the sum of the centered maximal functions of |v|, |grad v|
    and |grad^2 v| on the n-grid, taken in one stacked pass; the potential
    twin of ``truncation.flag_bad_set``.
    """
    _check_lambda(lam, PreconditionError)
    total = sum(_maximal(np.stack(_derivative_magnitude_grids(v, n))))
    level = ScalarGrid(n=n, period=v.period, values=total)
    mask = bad_set(level, lam)
    if mask.is_full():
        raise PreconditionError("potential bad set covers the whole torus; raise lambda")
    return level, mask


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

