"""Triangle fluxes and moments of a divergence-free field, as closed-form edge circulations.

Every row of a divergence-free trigonometric field w = sum c(xi) e^{ik xi.x},
k = 2 pi / L, is a curl off its zero mode: w_alpha = curl psi_alpha with

    psi_alpha^(xi) = i xi x c_alpha(xi) / (k |xi|^2),

because xi . c_alpha(xi) = 0.  The triangle (v0, v1, v2) carries the
area-weighted normal nu = (v0 - v1) x (v2 - v1) / 2, and its flux is
B_alpha = integral of w_alpha . nu/|nu| dA.  By Stokes it is three edge
circulations, B = -(e01 + e12 - e02), where e_ij is the integral of
psi_alpha along the segment v_i -> v_j.

The kernel reads the first moments G_ab = integral of x_b w_a . nu/|nu| dA
only through G_ab - G_ba.  Since w is symmetric,
x_b w_a - x_a w_b = curl(x_b psi_a - x_a psi_b - rho_ab) with

    rho_ab^(xi) = i xi x R_ab(xi) / (k |xi|^2),  R_ab = e_b x psi_a^ - e_a x psi_b^,

R_ab being divergence-free mode by mode.  So G_ab - G_ba = -(f01 + f12 - f02),
f_ij the circulation of x_b psi_a - x_a psi_b - rho_ab.  On the segment
x0 -> x0 + d, with theta = k xi.d, E0 = integral of e^{i theta s} ds =
(e^{i theta} - 1) / (i theta) and E1 = integral of s e^{i theta s} ds over
[0, 1], and with x measured from x0:

    e_a  = Re sum e^{ik xi.x0} E0 psi_a^.d,
    f_ab = Re sum e^{ik xi.x0} [E1 (d_b psi_a^ - d_a psi_b^).d - E0 rho_ab^.d].

Measuring x from p instead adds (x0 - p)_b e_a - (x0 - p)_a e_b to f.
The zero mode c0 is no curl of a periodic field, but about a point it has
the potentials c0_a x x / 2 and, c0 being symmetric,
(x_b c0_a x x - x_a c0_b x x) / 3, whose curls are c0_a and
x_b c0_a - x_a c0_b; ``_zero_mode_moments`` gives their circulations.
G - G^T is kept as its three entries (a, b) of ``PAIRS``.  ``CENTROID``,
the one-node centroid rule, is read only by the benchmark's tracer.

``_edge_moments`` takes the segments offset by offset (the offsets are
integer multiples of a unit): for each offset the folded coefficients of
its modes make one real (2 modes x 6) matrix, and one GEMM with the
phase rows cos, sin of k xi.x0 of its start points gives e and f.  No
field value is evaluated at any point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TWO_PI

# the entries (alpha, beta) of G - G^T that the moments keep, in column order
PAIRS = ((0, 1), (0, 2), (1, 2))
_AL, _BE = np.array(PAIRS).T


@dataclass
class QuadratureRule:
    """Barycentric nodes and averaging weights (summing to 1) on the triangle."""

    points: np.ndarray   # (q, 3) barycentric
    weights: np.ndarray  # (q,), sum 1

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")


# the one-node centroid rule
CENTROID = QuadratureRule(points=np.full((1, 3), 1.0 / 3.0), weights=np.ones(1))


def _segment_integrals(theta):
    """E0 and E1 of the phase swings ``theta``: the integrals of e^{i theta s} and s e^{i theta s} on [0, 1].

    With x = theta / 2 they are e^{ix} sin(x)/x and e^{ix} (sin(x)/(2x) + i j(x)),
    j(x) = (sin x - x cos x) / (2 x^2), taken from its series below |x| = 0.1,
    where the closed form cancels.
    """
    x = 0.5 * np.asarray(theta, dtype=float)
    s0 = np.sinc(x / np.pi)
    small = np.abs(x) < 0.1
    xs = np.where(small, 1.0, x)
    x2 = x * x
    j = np.where(small, x * (1 / 6 - x2 * (1 / 60 - x2 * (1 / 1680 - x2 / 90720))),
                 (np.sin(xs) - xs * np.cos(xs)) / (2.0 * xs * xs))
    turn = np.exp(1j * x)
    return turn * s0, turn * (0.5 * s0 + 1j * j)


def _edge_moments(w, starts, start_of, offsets, unit):
    """Circulations (ne, 6) of segments under the non-zero modes: e in columns 0-2, f (``PAIRS`` order) in 3-5.

    Segment s runs from ``starts[start_of[s]]`` to that point plus
    ``unit * offsets[s]``, ``offsets`` being integer (ne, 3); its f is
    taken about its start.
    """
    xis, cs = w.mode_arrays()
    # the modes xi and -xi give one real part: keep one of each pair, doubled; drop the zero mode
    key = xis @ (2 * np.abs(xis).max(initial=0) + 1) ** np.arange(2, -1, -1)
    xis, cs = xis[key > 0], 2.0 * cs[key > 0]
    out = np.zeros((len(start_of), 6))
    if not len(xis) or not len(start_of):
        return out
    k = TWO_PI / w.period
    inv = 1j / (k * (xis * xis).sum(axis=1))[:, None, None]
    psi = np.cross(xis[:, None], cs) * inv                              # (modes, alpha, 3)
    eye = np.eye(3)
    r = np.cross(eye[_BE], psi[:, _AL]) - np.cross(eye[_AL], psi[:, _BE])  # R_ab, divergence-free
    rho = np.cross(xis[:, None], r) * inv                                 # (modes, pair, 3)
    used, start_row = np.unique(start_of, return_inverse=True)
    phase = 1j * k * (starts[used] @ xis.T)
    phase = np.exp(phase, out=phase).view(float)                        # (starts, modes x [cos, sin])
    low = offsets.min(initial=0)
    span = int(offsets.max(initial=0) - low) + 1
    _, group = np.unique((offsets - low) @ span ** np.arange(2, -1, -1), return_inverse=True)
    for rows in np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group))[:-1]):
        d = offsets[rows[0]] * unit
        e0, e1 = (v[:, None] for v in _segment_integrals(k * unit * (xis @ offsets[rows[0]])))
        pd = psi @ d                                                     # (modes, alpha)
        coeff = np.concatenate([e0 * pd, e1 * (d[_BE] * pd[:, _AL] - d[_AL] * pd[:, _BE]) - e0 * (rho @ d)], axis=1)
        out[rows] = phase[start_row[rows]] @ np.stack([coeff.real, -coeff.imag], axis=1).reshape(-1, 6)
    return out


def _zero_mode_moments(c0, x0, x1):
    """The zero mode's e and f (``PAIRS`` order), (ne, 3) each, along the segments ``x0`` -> ``x1`` (ne, 3).

    ``c0`` is the symmetric zero mode and x is measured from the origin:
    on the segment c0_a . (x x d) = c0_a . (x0 x x1) is constant, so
    e_a = c0_a . (x0 x x1) / 2 and f_ab = 2/3 (m_b e_a - m_a e_b), m the midpoint.
    """
    e = 0.5 * np.cross(x0, x1) @ c0.real
    mid = 0.5 * (x0 + x1)
    return e, (2.0 / 3.0) * (mid[:, _BE] * e[:, _AL] - mid[:, _AL] * e[:, _BE])


def _moment_functions(b, g, y):
    """A(alpha, beta)(y) = y_beta B_alpha - y_alpha B_beta - (G - G^T)_(alpha, beta), one column per triangle.

    A 3x3 nested list with a zero diagonal.  ``b`` is (3, triangles), ``g``
    (triangles, 3) in ``PAIRS`` order and ``y`` (3, triangles), each in its
    triangle's frame.
    """
    amat = [[0.0] * 3 for _ in range(3)]
    for p, (a, c) in enumerate(PAIRS):
        val = y[c] * b[a] - y[a] * b[c] - g[:, p]
        amat[a][c] = val
        amat[c][a] = -val
    return amat
