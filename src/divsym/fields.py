"""Symmetric matrix fields on the 3-torus as trigonometric polynomials.

A field is stored as two arrays sorted by frequency: the integer modes
``xis`` (m, 3) and their complex symmetric 3x3 coefficients ``cs``, with
the Hermitian pair ``coeff(-xi) == conj(coeff(xi))`` kept explicitly so
every field is real valued.  The constructor checks and closes all modes
in one stacked pass (frequency keys, shape, finiteness, symmetry,
Hermitian partners).  Derivatives, the divergence-free projection
(``_projectors``) and curl curl^T (``_curl_curl_symbols``) act on all modes
at once through their Fourier symbols, exact up to rounding.  Grids are
sampled by a separable DFT restricted to the band of the modes
(``_band_dft``): three small matmuls, no FFT.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

TWO_PI = 2.0 * np.pi


def _slot_table(order):
    """``table[a, b]``: the slot of entry (a, b) in ``order``; packed[table] is the 3x3 matrix."""
    table = np.zeros((3, 3), dtype=np.int64)
    r, c = np.array(order).T
    table[r, c] = table[c, r] = np.arange(len(order))
    return table


# order of the 6 independent entries of a symmetric matrix (row-major upper
# triangle) in the JSON field format and on the command line
UPPER_TRI = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
UPPER_TRI_SLOT = _slot_table(UPPER_TRI)
_ur, _uc = np.array(UPPER_TRI).T

# packed order [11, 22, 33, 23, 13, 12] of the computed symmetric fields
SYM6 = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
SYM6_SLOT = _slot_table(SYM6)
_r, _c = np.array(SYM6).T


class UnsupportedOrderError(ValueError):
    """Derivative order outside the supported range (total order <= 3)."""


class PreconditionError(ValueError):
    """An operation was called on inputs violating its stated preconditions."""


def _as_freq(xi):
    """``xi`` as a tuple of three ints; a wrong length or a non-integral entry raises ``ValueError``."""
    try:
        freq = tuple(int(v) for v in xi)
    except OverflowError:  # int() of an infinite entry
        freq = None
    if freq is None or len(freq) != 3 or freq != tuple(xi):
        raise ValueError(f"frequency must be three integers, got {list(xi)}")
    return freq


def _neg(xi):
    return (-xi[0], -xi[1], -xi[2])


def _check_order(order):
    order = tuple(int(o) for o in order)
    if len(order) != 3 or any(o < 0 for o in order):
        raise UnsupportedOrderError(f"bad derivative multi-index {order}")
    if sum(order) > 3:
        raise UnsupportedOrderError(f"derivative order {order} exceeds 3")
    return order


class TrigSymField:
    """Real, symmetric-matrix-valued trigonometric polynomial on the torus."""

    def __init__(self, coeffs, period=1.0, tol=1e-10):
        if not (np.isfinite(period) and period > 0):
            raise ValueError(f"period must be positive and finite, not {period}")
        self.period = float(period)
        self._xis, self._cs = _hermitian_closure(*_checked_modes(coeffs, tol), tol)

    @functools.cached_property
    def coeffs(self):  # {frequency tuple: its row of the coefficient array}, sorted
        return dict(zip(map(tuple, self._xis.tolist()), self._cs))

    def coeff(self, xi):
        """Coefficient at frequency ``xi`` (zero if the mode is absent)."""
        return self.coeffs.get(_as_freq(xi), np.zeros((3, 3), dtype=complex)).copy()

    def max_coeff_norm(self):
        return np.linalg.norm(self._cs, axis=(1, 2)).max(initial=0.0)

    def mode_arrays(self):
        """All modes as ``(xis (m,3) int64, coeffs (m,3,3) complex)``, sorted by frequency."""
        return self._xis, self._cs

    def _order_factor(self, order):
        """Per-mode symbol ``prod_d (i k xi_d)^order_d`` of the derivative ``order``."""
        xis, k = self._xis, TWO_PI / self.period
        factor = np.ones(len(xis), dtype=complex)
        for d in range(3):
            if order[d]:
                factor = factor * (1j * k * xis[:, d]) ** order[d]
        return factor

    def __call__(self, x, order=(0, 0, 0)):
        return self.eval_many(np.asarray(x, dtype=float).reshape(1, 3), order)[0]

    def eval_many(self, pts, order=(0, 0, 0)):
        """Evaluate the field (or a derivative) at an ``(m,3)`` array of points."""
        order = _check_order(order)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        phases = np.exp(1j * (TWO_PI / self.period) * (pts @ self._xis.T))  # (p, m)
        weighted = self._cs * self._order_factor(order)[:, None, None]
        return np.tensordot(phases, weighted, axes=(1, 0)).real

    def grid_components(self, n, order=(0, 0, 0)):
        """The ``SYM6`` components at the n^3 cell centers; returns (n, n, n, 6).

        The one-order case of ``_grid_stack``; the result is a view over a
        component-major buffer.
        """
        return self._grid_stack(n, [order])[0]

    def _grid_stack(self, n, orders):
        """The ``SYM6`` components of each derivative in ``orders``: a list of (n, n, n, 6) grids.

        The values are Re sum w c e^{i xi x} over the field's half band (its
        modes with xi_z >= 0, weight w = 2 off the plane xi_z = 0).  Each
        axis frequency f folds to f - m n in [-n//2, n - 1 - n//2], since
        e^{i m n x} = (-1)^m at the cell centres; a mode folded below the
        plane is swapped for its mirror, which keeps the real part, and
        coinciding modes add up.  The separable band DFT of the folded modes,
        of max-norm <= n//2, is then exact at every n, aliased n included.
        The modes are folded once, and one band DFT samples the 6 columns of
        every order side by side; each grid is a view over one
        component-major buffer.
        """
        orders = [_check_order(o) for o in orders]
        half = self._xis[:, 2] >= 0
        xis, weight = self._xis[half], np.where(self._xis[half, 2] > 0, 2.0, 1.0)
        factors = np.stack([self._order_factor(o)[half] for o in orders], axis=1)
        vals = self._cs[half][:, None, _r, _c] * factors[:, :, None]  # (m, orders, 6)
        folded = (xis + n // 2) % n - n // 2
        weight *= (-1.0) ** ((xis - folded) // n).sum(axis=1)
        below = folded[:, 2] < 0
        folded[below], vals[below] = -folded[below], vals[below].conj()
        vals *= (weight * np.where(folded[:, 2] > 0, 0.5, 1.0))[:, None, None]  # _band_grid adds the mirrors
        max_freq = int(np.abs(folded).max(initial=0))
        rows, slot = np.unique(_band_rows(folded, max_freq), return_inverse=True)
        coeffs = np.zeros((len(rows), len(orders) * len(SYM6)), dtype=complex)
        np.add.at(coeffs, slot.ravel(), vals.reshape(len(vals), coeffs.shape[1]))
        grids = _band_grid(coeffs, _band_dft(max_freq, n), rows)
        return [grids[..., k:k + len(SYM6)] for k in range(0, grids.shape[-1], len(SYM6))]


# bench/tracing.py wraps TrigSymField.eval_many and .grid_components through this name
_ModeField = TrigSymField


def _checked_modes(coeffs, tol):
    """The modes of ``coeffs`` in input order: (xis (m,3) int64, symmetrised cs (m,3,3) complex).

    Each check runs on all modes at once; the first offending mode in input
    order raises the error of its first failed check: key, shape (keys or
    values that do not stack convert one by one), finiteness, symmetry.
    """
    keys, values = list(coeffs), list(coeffs.values())
    try:
        xis, cs = np.array(keys), np.asarray(values, dtype=complex)
    except (ValueError, TypeError, OverflowError):
        xis = cs = None
    if xis is None or xis.dtype != np.int64 or xis.shape != (len(keys), 3) or cs.shape != (len(keys), 3, 3):
        converted = {}
        for xi, c in zip(keys, values):
            try:
                xi, c = _as_freq(xi), np.asarray(c, dtype=complex)
                if c.shape != (3, 3):
                    raise ValueError(f"coefficient for {xi} has shape {c.shape}")
            except (ValueError, TypeError):
                _checked_modes(converted, tol)  # an earlier mode's value error comes first
                raise
            converted[xi] = c
        xis = np.array(list(converted), dtype=np.int64).reshape(-1, 3)
        cs = np.array(list(converted.values()), dtype=complex).reshape(-1, 3, 3)
    with np.errstate(invalid="ignore"):  # inf - inf in a mode refused as not finite
        finite = np.isfinite(cs).all(axis=(1, 2))
        asym = np.abs(cs - cs.transpose(0, 2, 1)).max(axis=(1, 2))
        bad = np.flatnonzero(~finite | (asym > tol * np.maximum(1.0, np.abs(cs).max(axis=(1, 2)))))
    if len(bad):
        i, xi = bad[0], tuple(xis[bad[0]].tolist())
        if not finite[i]:
            raise ValueError(f"coefficient for {xi} is not finite")
        raise ValueError(f"coefficient at {xi} is not symmetric (defect {asym[i]:.2e})")
    return xis, 0.5 * (cs + cs.transpose(0, 2, 1))


def _hermitian_closure(xis, cs, tol):
    """The modes closed under xi -> -xi with coeff(-xi) = conj(coeff(xi)), sorted lexicographically.

    A pair given twice must agree to ``tol`` times max(1, the largest entry),
    or its first member in input order is named; its lexicographically
    smaller member keeps its value.  The zero mode is made real.
    """
    both = np.concatenate([xis, -xis])
    order = np.lexsort(both.T[::-1])
    ranked = both[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    slot = (np.cumsum(first) - 1)[np.argsort(order)][:len(xis)]  # the sorted row of each input mode
    keys = ranked[first]
    # negation reverses the order of the closed set: the mirror of row j is row -1 - j
    given = np.full(len(keys), -1)
    given[slot] = np.arange(len(xis))
    mirror = given[::-1]
    paired = np.flatnonzero(mirror[slot] >= 0)
    defect = np.abs(cs[mirror[slot][paired]] - cs[paired].conj()).max(axis=(1, 2))
    bad = paired[defect > tol * max(1.0, np.abs(cs).max(initial=0.0))]
    if len(bad):
        xi = tuple(xis[bad[0]].tolist())
        raise ValueError(f"coefficients at {xi}/{_neg(xi)} are not Hermitian partners")
    own = (given >= 0) & ((mirror < 0) | (np.arange(len(keys)) < (len(keys) + 1) // 2))
    vals = cs[np.where(own, given, mirror)]
    out = np.where(own[:, None, None], vals, vals.conj())
    if len(keys) % 2:
        out[len(keys) // 2] = out[len(keys) // 2].real
    return keys, out


def _band_dft(max_freq, n):
    """The separable DFT of the half band of max-norm <= F = max_freq on the n-grid.

    For ``f = -F..F``, the waves ``e^{-i f x} / n`` and ``e^{i f x}`` at the
    n cell centres of an axis, each (2F+1, n); for the real ends of the z
    axis (``f = 0..F``), the rows [cos; -sin] / n and [w cos; -w sin], where
    w = 2 for f > 0 adds each mode's mirror.
    """
    freqs = np.arange(-max_freq, max_freq + 1)
    angle = np.pi / n * (np.outer(freqs, 2 * np.arange(n) + 1) % (2 * n))  # f x at the cell centres
    waves = np.exp(1j * angle)
    cos, sin = np.cos(angle[max_freq:]), np.sin(angle[max_freq:])
    weight = np.where(freqs[max_freq:] > 0, 2.0, 1.0)[:, None]
    return (waves.conj() / n, waves, np.concatenate([cos, -sin]) / n,
            np.concatenate([weight * cos, -weight * sin]))


def _band_rows(xis, max_freq):
    """Rows of the half-band modes ``xis`` (m, 3) in the flattened (2F+1, 2F+1, F+1) spectrum."""
    width = 2 * max_freq + 1
    return np.ravel_multi_index((xis + [max_freq, max_freq, 0]).T, (width, width, max_freq + 1))


def _band_modes(values, dft, rows):
    """Half-band coefficients ``(m, c)`` of real cell-centre values ``(n, n, n, c)`` in any layout.

    Each of the three matmuls contracts the last grid axis and puts its
    frequency axis first: (c, x, y, z) -> (fz, c, x, y) -> (fy, fz, c, x)
    -> (fx, fy, fz, c).  A component-major grid is read in place.
    """
    forward, _, forward_z, _ = dft
    if np.iscomplexobj(values):
        raise TypeError("the band transform takes real grid values")
    n, half = forward.shape[1], len(forward_z) // 2
    sums = forward_z @ np.moveaxis(values, -1, 0).reshape(-1, n).T
    spec = np.empty((half, sums.shape[1]), dtype=complex)
    spec.real, spec.imag = sums[:half], sums[half:]
    for _ in range(2):
        spec = forward @ spec.reshape(-1, n).T
    return spec.reshape(-1, values.shape[-1])[rows]


def _band_grid(coeffs, dft, rows):
    """Real values ``(n, n, n, c)`` at the cell centres of half-band coefficients ``(m, c)``.

    The stages of ``_band_modes`` in reverse, the z axis last.  The result
    is a view over a component-major ``(c, n, n, n)`` buffer.
    """
    _, inverse, _, inverse_z = dft
    (width, n), c = inverse.shape, coeffs.shape[1]
    half = len(inverse_z) // 2
    spec = np.zeros((width * width * half, c), dtype=complex)
    spec[rows] = coeffs
    for _ in range(2):
        spec = spec.reshape(width, -1).T @ inverse
    spec = spec.reshape(half, -1)
    values = np.concatenate([spec.real, spec.imag]).T @ inverse_z
    return np.moveaxis(values.reshape(c, n, n, n), 0, -1)


def _sym6_sq(v):
    """Squared Frobenius norms of symmetric matrices packed in ``SYM6`` order on the last axis.

    The slot terms are added in order, in place; an off-diagonal slot counts twice.
    """
    sq = v[..., 0] ** 2  # SYM6 opens with a diagonal slot
    for q, (a, b) in enumerate(SYM6[1:], 1):
        term = v[..., q] ** 2
        if a != b:
            term *= 2.0
        sq += term
    return sq


# ---------------------------------------------------------------------------
# operations


def _modes(max_freq):
    """All modes of max-norm <= max_freq, sorted; the zero mode sits in the middle."""
    span = np.arange(-max_freq, max_freq + 1)
    return np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)


def _projectors(xis):
    """Q = I - xi^ xi^T (m, 3, 3), xi^ = xi / |xi|, of non-zero modes (m, 3): c -> Q c Q projects onto M xi = 0.

    The projection is Frobenius-orthogonal on symmetric c and kills the divergence symbol exactly.
    """
    unit = xis / np.linalg.norm(xis, axis=1, keepdims=True)
    return np.eye(3) - unit[:, :, None] * unit[:, None, :]


# Mandel weights of the SYM6 slots: the packed entries times these are an isometry
_MANDEL = np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])


def _sym_to_mandel(m):
    """Isometric 6-vectors [11, 22, 33, r 23, r 13, r 12], r = sqrt 2, of symmetric matrices.

    The component axis replaces the last two; batch axes keep their order.
    """
    return np.asarray(m)[..., _r, _c] * _MANDEL


def _mandel_to_sym(v):
    """Inverse of ``_sym_to_mandel`` over the last axis."""
    return np.asarray(v)[..., SYM6_SLOT] * (1.0 / _MANDEL)[SYM6_SLOT]


# entry (r, s) of curl curl^T is d_a d_c M_bd + d_b d_d M_ac - d_a d_d M_bc - d_b d_c M_ad,
# where (a, b) and (c, d) are the rows r and s of this table
_CURL_PAIRS = np.array([(1, 2), (2, 0), (0, 1)])

PINV_RCOND = 1e-10  # relative singular-value cutoff of the curl curl^T pseudo-inverse


def _curl_curl_symbols(xis, period):
    """The (m, 6, 6) Mandel matrices of the curl curl^T symbol at the modes ``xis`` (m, 3).

    Column j is the image of the j-th Mandel basis matrix, in Mandel form.
    """
    d = 1j * (TWO_PI / period) * np.asarray(xis, dtype=float)
    basis = _mandel_to_sym(np.eye(6)).astype(complex).transpose(1, 2, 0)   # (3, 3, column)
    (a, b), (c, e) = _CURL_PAIRS[_r].T, _CURL_PAIRS[_c].T                   # per SYM6 slot (r, s)
    w = ((d[:, a] * d[:, c])[..., None] * basis[b, e] + (d[:, b] * d[:, e])[..., None] * basis[a, c]
         - (d[:, a] * d[:, e])[..., None] * basis[b, c] - (d[:, b] * d[:, c])[..., None] * basis[a, e])
    return w.real * _MANDEL[:, None]


def _apply_symbols(symbols, xis, coeffs, period):
    """The field with the coefficients ``symbols @ coeffs`` (in Mandel form) at the modes ``xis``."""
    out = _mandel_to_sym((symbols @ _sym_to_mandel(coeffs)[..., None])[..., 0])
    return TrigSymField(dict(zip(map(tuple, xis.tolist()), out)), period=period)


def _div_defect(f: TrigSymField):
    """The largest norm of a row-wise divergence coefficient ``i (2pi/L) M(xi) xi``."""
    xis, cs = f.mode_arrays()
    return TWO_PI / f.period * np.linalg.norm(cs @ xis[:, :, None], axis=(1, 2)).max(initial=0.0)


def assert_div_free(f: TrigSymField, tol=1e-10, what="field"):
    """Raise ``PreconditionError`` unless every divergence coefficient is below ``tol``."""
    worst = _div_defect(f)
    if worst > tol * max(1.0, f.max_coeff_norm()):
        raise PreconditionError(f"{what} is not divergence-free (defect {worst:.3e})")


def potential_inverse(u: TrigSymField, what="potential_inverse input") -> TrigSymField:
    """Mode-wise pseudoinverse of curl curl^T on a mean-zero divergence-free field.

    Singular values below ``PINV_RCOND`` times each mode's largest are treated as
    zero; exactness of the symbol sequence guarantees the solution lies in
    the row space, so applying the curl curl^T symbols back returns u per
    mode.  The kept modes are sorted and closed under negation,
    so row -1 - j is the mirror of row j, whose symbol (quadratic in xi) is
    the same bit for bit: the symbols of the first half come from one array
    pass and are inverted by one stacked ``pinv``, and the second half
    mirrors them.  ``what`` names the input in the divergence error, which
    is checked before the mean.
    """
    assert_div_free(u, tol=1e-10, what=what)
    scale = max(1.0, u.max_coeff_norm())
    mean = u.coeffs.get((0, 0, 0))
    if mean is not None and np.abs(mean).max() > 1e-12 * scale:
        raise PreconditionError("potential_inverse requires a mean-zero field")
    xis, cs = u.mode_arrays()
    keep = xis.any(axis=1)
    xis, cs = xis[keep], cs[keep]
    inverse = np.linalg.pinv(_curl_curl_symbols(xis[:(len(xis) + 1) // 2], u.period), rcond=PINV_RCOND)
    inverse = np.concatenate([inverse, inverse[:len(xis) // 2][::-1]])
    return _apply_symbols(inverse, xis, cs, u.period)


def random_field(seed, max_freq, amplitude, divfree=False, period=1.0) -> TrigSymField:
    """Reproducible random field with modes on ``max-norm(xi) <= max_freq``.

    Each Hermitian pair, in sorted order of its larger mode xi (the zero
    mode first, kept real), draws two 3x3 normals re, im: c = amplitude
    (m + m^T) / 2, m = re + i im.  With ``divfree`` the zero mode is dropped and -xi gets Q c* Q.
    """
    if max_freq < 1:
        raise ValueError("max_freq must be >= 1")
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if amplitude == 0.0:
        return TrigSymField({}, period=period)
    xis = _modes(max_freq)
    xis = xis[len(xis) // 2:]  # xi >= -xi: one mode per Hermitian pair, the zero mode first
    re, im = np.random.default_rng(seed).standard_normal((len(xis), 2, 3, 3)).swapaxes(0, 1)
    m = re + 1j * im
    m[0] = re[0] + 0.0 * im[0]  # the zero mode draws an imaginary part and drops it
    cs = amplitude * 0.5 * (m + m.swapaxes(1, 2))
    if divfree:
        xis = -xis[1:]
        q = _projectors(xis)
        cs = q @ cs[1:].conj() @ q
    return TrigSymField(dict(zip(map(tuple, xis.tolist()), cs)), period=period)


# ---------------------------------------------------------------------------
# serialization: one representative per Hermitian pair, upper triangle only


def field_to_dict(f: TrigSymField) -> dict:
    xis, cs = f.mode_arrays()
    upper = slice(len(xis) // 2, None)  # xi >= -xi: the upper half of the sorted modes
    packed = cs[upper][:, _ur, _uc]
    return {"period": f.period, "modes": [{"xi": xi, "re": c.real.tolist(), "im": c.imag.tolist()}
                                          for xi, c in zip(xis[upper].tolist(), packed)]}


def _json_rows(modes, part):
    """``mode[part]`` of every mode as one (m, 6) array; rows of any other length raise ``IndexError``."""
    try:
        rows = np.asarray([mode[part] for mode in modes])
    except ValueError as exc:
        raise IndexError(f"the modes' {part!r} rows differ in length") from exc
    if rows.shape != (len(modes), 6):
        raise IndexError(f"the modes' {part!r} rows are not rows of six entries")
    return rows


def field_from_dict(data: dict) -> TrigSymField:
    """The field of ``field_to_dict``'s layout, all modes converted at once; a frequency listed twice is refused.

    A period that is not a real number (a string, a bool) raises ``TypeError``.
    """
    modes = data["modes"]
    with np.errstate(invalid="ignore"):  # 1j * inf warns; the constructor refuses what it makes
        cs = (_json_rows(modes, "re") + 1j * _json_rows(modes, "im"))[:, UPPER_TRI_SLOT] if modes else []
    xis = [tuple(mode["xi"]) for mode in modes]
    coeffs = dict(zip(xis, cs))
    if len(coeffs) < len(xis):
        repeated = next(xi for i, xi in enumerate(xis) if xi in xis[:i])
        raise ValueError(f"frequency {list(repeated)} is listed twice in the field")
    period = data["period"]
    if isinstance(period, bool) or not isinstance(period, numbers.Real):
        raise TypeError(f"the period is a {type(period).__name__}, not a number")
    return TrigSymField(coeffs, period=float(period))
