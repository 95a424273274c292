"""Symmetric matrix fields on the 3-torus as trigonometric polynomials.

Fields are stored mode-wise: a map from integer frequencies to complex 3x3
matrices, with the Hermitian pair ``coeff(-xi) == conj(coeff(xi))`` kept
explicitly so every field is real valued.  All differential operators act
mode-by-mode through their Fourier symbols, which makes derivatives,
divergence-free projection and the second-order potential operator exact
up to rounding.  Grids are sampled by a separable DFT restricted to the
band of the modes (``_band_dft``): three small matmuls, no FFT.
"""

from __future__ import annotations

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


class _ModeField:
    """Shared machinery for mode-indexed fields (matrix or vector valued)."""

    _shape: tuple  # value shape per mode, set by subclass

    def __init__(self, coeffs, period=1.0, tol=1e-10):
        if not (np.isfinite(period) and period > 0):
            raise ValueError(f"period must be positive and finite, not {period}")
        self.period = float(period)
        cleaned = {}
        for xi, c in coeffs.items():
            xi = _as_freq(xi)
            c = np.asarray(c, dtype=complex)
            if c.shape != self._shape:
                raise ValueError(f"coefficient for {xi} has shape {c.shape}")
            if not np.isfinite(c).all():
                raise ValueError(f"coefficient for {xi} is not finite")
            cleaned[xi] = self._validate(xi, c, tol)
        # enforce closure under negation: coeff(-xi) = conj(coeff(xi))
        scale = max((np.abs(c).max() for c in cleaned.values()), default=0.0)
        for xi in list(cleaned):
            mirror = _neg(xi)
            if mirror in cleaned:
                if np.abs(cleaned[mirror] - cleaned[xi].conj()).max() > tol * max(1.0, scale):
                    raise ValueError(f"coefficients at {xi}/{mirror} are not Hermitian partners")
                cleaned[mirror] = cleaned[xi].conj() if xi <= mirror else cleaned[mirror]
            else:
                cleaned[mirror] = cleaned[xi].conj()
        if (0, 0, 0) in cleaned:
            cleaned[(0, 0, 0)] = cleaned[(0, 0, 0)].real.astype(complex)
        self.coeffs = {xi: cleaned[xi] for xi in sorted(cleaned)}
        self._arrays = None

    def _validate(self, xi, c, tol):
        return c

    def coeff(self, xi):
        """Coefficient at frequency ``xi`` (zero if the mode is absent)."""
        return self.coeffs.get(_as_freq(xi), np.zeros(self._shape, dtype=complex)).copy()

    @property
    def frequencies(self):
        return list(self.coeffs)

    def max_coeff_norm(self):
        return max((np.linalg.norm(c) for c in self.coeffs.values()), default=0.0)

    def mode_arrays(self):
        """All modes as ``(xis (m,3) int64, coeffs (m,)+shape complex)``."""
        if self._arrays is None:
            if self.coeffs:
                xis = np.array(list(self.coeffs), dtype=np.int64)
                cs = np.stack([self.coeffs[tuple(x)] for x in xis])
            else:
                xis = np.zeros((0, 3), dtype=np.int64)
                cs = np.zeros((0,) + self._shape, dtype=complex)
            self._arrays = (xis, cs)
        return self._arrays

    def _order_factor(self, order):
        """Per-mode symbol ``prod_d (i k xi_d)^order_d`` of the derivative ``order``."""
        xis, k = self.mode_arrays()[0], TWO_PI / self.period
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
        xis, cs = self.mode_arrays()
        out_shape = (len(pts),) + self._shape
        if len(xis) == 0:
            return np.zeros(out_shape)
        k = TWO_PI / self.period
        factor = self._order_factor(order)
        phases = np.exp(1j * k * (pts @ xis.T))  # (p, m)
        weighted = cs * factor.reshape((-1,) + (1,) * len(self._shape))
        vals = np.tensordot(phases, weighted, axes=(1, 0))
        return vals.real

    def grid_components(self, n, comps, order=(0, 0, 0)):
        """Selected components at the n^3 cell centers; returns (n, n, n, len(comps)).

        ``comps`` is a list of index tuples into the per-mode value shape.
        The values are Re sum w c e^{i xi x} over the field's half band (its
        modes with xi_z >= 0, weight w = 2 off the plane xi_z = 0).  Each
        axis frequency f folds to f - m n in [-n//2, n - 1 - n//2], since
        e^{i m n x} = (-1)^m at the cell centres; a mode folded below the
        plane is swapped for its mirror, which keeps the real part, and
        coinciding modes add up.  The separable band DFT of the folded modes,
        of max-norm <= n//2, is then exact at every n, aliased n included.
        The result is a view over a component-major buffer.
        """
        order = _check_order(order)
        xis, cs = self.mode_arrays()
        half = xis[:, 2] >= 0
        xis, weight = xis[half], np.where(xis[half, 2] > 0, 2.0, 1.0)
        vals = np.stack([cs[(half,) + tuple(c)] for c in comps], axis=-1) * self._order_factor(order)[half, None]
        folded = (xis + n // 2) % n - n // 2
        weight *= (-1.0) ** ((xis - folded) // n).sum(axis=1)
        below = folded[:, 2] < 0
        folded[below], vals[below] = -folded[below], vals[below].conj()
        vals *= (weight * np.where(folded[:, 2] > 0, 0.5, 1.0))[:, None]  # _band_grid adds the mirrors
        max_freq = int(np.abs(folded).max(initial=0))
        rows, slot = np.unique(_band_rows(folded, max_freq), return_inverse=True)
        coeffs = np.zeros((len(rows), len(comps)), dtype=complex)
        np.add.at(coeffs, slot.ravel(), vals)
        return _band_grid(coeffs, _band_dft(max_freq, n), rows)


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


def _cell_centers(n, period):
    ax = (np.arange(n) + 0.5) * (period / n)
    return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)


def _sym6_sq(v):
    """Squared Frobenius norms of symmetric matrices packed in ``SYM6`` order on the last axis."""
    sq = 0.0
    for q, (a, b) in enumerate(SYM6):
        sq = sq + (1.0 if a == b else 2.0) * v[..., q] ** 2
    return sq


class TrigSymField(_ModeField):
    """Real, symmetric-matrix-valued trigonometric polynomial on the torus."""

    _shape = (3, 3)

    def _validate(self, xi, c, tol):
        asym = np.abs(c - c.T).max()
        if asym > tol * max(1.0, np.abs(c).max()):
            raise ValueError(f"coefficient at {xi} is not symmetric (defect {asym:.2e})")
        return 0.5 * (c + c.T)


class TrigVecField(_ModeField):
    """Real vector-valued trigonometric polynomial on the torus."""

    _shape = (3,)


# ---------------------------------------------------------------------------
# operations


def divergence(f: TrigSymField) -> TrigVecField:
    """Row-wise divergence, computed mode-by-mode: ``i (2pi/L) M(xi) xi``."""
    k = TWO_PI / f.period
    out = {xi: 1j * k * (c @ np.asarray(xi, dtype=float)) for xi, c in f.coeffs.items()}
    return TrigVecField(out, period=f.period)


def project_div_free(f: TrigSymField) -> TrigSymField:
    """Frobenius-orthogonal projection of every mode onto ``{M sym : M xi = 0}``.

    The zero mode is kept: constants are divergence-free.  The projector is
    ``M -> Q M Q`` with ``Q = I - n n^T``, which is idempotent and kills the
    divergence symbol exactly.
    """
    out = {xi: c.copy() if xi == (0, 0, 0) else _project_mode(xi, c) for xi, c in f.coeffs.items()}
    return TrigSymField(out, period=f.period)


def _project_mode(xi, c):
    """``Q c Q`` with ``Q = I - n n^T``, n = xi / |xi|, for a non-zero frequency ``xi``."""
    nvec = np.asarray(xi, dtype=float)
    nvec = nvec / np.linalg.norm(nvec)
    q = np.eye(3) - np.outer(nvec, nvec)
    return q @ c @ q


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


def curl_curl_T(v: TrigSymField) -> TrigSymField:
    """Second-order operator ``curl curl^T`` applied mode-by-mode.

    Its image is divergence-free for every input; on mean-zero fields it is
    the potential operator whose kernel is the image of the symmetric
    gradient.
    """
    xis, cs = v.mode_arrays()
    return _apply_symbols(_curl_curl_symbols(xis, v.period), xis, cs, v.period)


def div_symbol_matrix(xi, period=1.0):
    """The 3x6 divergence symbol (Mandel basis, without the factor ``i 2pi/L``)."""
    return np.stack([_mandel_to_sym(e) @ np.asarray(xi, dtype=float) for e in np.eye(6)], axis=1)


def sym_grad_symbol_matrix(xi, period=1.0):
    """The 6x3 symmetric-gradient symbol (Mandel basis, without ``i 2pi/L``)."""
    x = np.asarray(xi, dtype=float)
    return np.stack([_sym_to_mandel(0.5 * (np.outer(u, x) + np.outer(x, u))) for u in np.eye(3)], axis=1)


def assert_div_free(f: TrigSymField, tol=1e-10, what="field"):
    """Raise ``PreconditionError`` unless every divergence coefficient is below ``tol``."""
    xis, cs = f.mode_arrays()
    worst = TWO_PI / f.period * np.linalg.norm(cs @ xis[:, :, None], axis=(1, 2)).max(initial=0.0)
    if worst > tol * max(1.0, np.linalg.norm(cs, axis=(1, 2)).max(initial=0.0)):
        raise PreconditionError(f"{what} is not divergence-free (defect {worst:.3e})")


def potential_inverse(u: TrigSymField, what="potential_inverse input") -> TrigSymField:
    """Mode-wise pseudoinverse of curl curl^T on a mean-zero divergence-free field.

    Singular values below ``PINV_RCOND`` times each mode's largest are treated as
    zero; exactness of the symbol sequence guarantees the solution lies in
    the row space, so the round trip ``curl_curl_T(potential_inverse(u)) == u``
    holds per mode.  The symbols of all non-zero modes come from one array
    pass and are inverted by one stacked ``pinv``.  ``what`` names the input
    in the divergence error, which is checked before the mean.
    """
    assert_div_free(u, tol=1e-10, what=what)
    scale = max(1.0, u.max_coeff_norm())
    mean = u.coeffs.get((0, 0, 0))
    if mean is not None and np.abs(mean).max() > 1e-12 * scale:
        raise PreconditionError("potential_inverse requires a mean-zero field")
    xis, cs = u.mode_arrays()
    keep = xis.any(axis=1)
    symbols = _curl_curl_symbols(xis[keep], u.period)
    return _apply_symbols(np.linalg.pinv(symbols, rcond=PINV_RCOND), xis[keep], cs[keep], u.period)


def random_field(seed, max_freq, amplitude, divfree=False, period=1.0) -> TrigSymField:
    """Reproducible random field with modes on ``max-norm(xi) <= max_freq``.

    With ``divfree`` each mode is projected as it is drawn and the zero mode
    dropped: the coefficients of ``project_div_free``, bit for bit.
    """
    if max_freq < 1:
        raise ValueError("max_freq must be >= 1")
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if amplitude == 0.0:
        return TrigSymField({}, period=period)
    rng = np.random.default_rng(seed)
    coeffs = {}
    rng_span = range(-max_freq, max_freq + 1)
    for xi in sorted((a, b, c) for a in rng_span for b in rng_span for c in rng_span):
        if xi < _neg(xi):
            continue  # one draw per Hermitian pair
        m = rng.standard_normal((3, 3)) + (0.0 if xi == (0, 0, 0) else 1j) * rng.standard_normal((3, 3))
        c = amplitude * 0.5 * (m + m.T)
        if not divfree:
            coeffs[xi] = c
        elif xi != (0, 0, 0):  # the field projected keeps the partner's projection and mirrors it
            coeffs[_neg(xi)] = _project_mode(_neg(xi), c.conj())
    return TrigSymField(coeffs, period=period)


# ---------------------------------------------------------------------------
# serialization: one representative per Hermitian pair, upper triangle only


def _canonical(xi):
    """True for the stored representative of the pair {xi, -xi}."""
    return xi >= _neg(xi)


def field_to_dict(f: TrigSymField) -> dict:
    modes = []
    for xi, c in f.coeffs.items():
        if not _canonical(xi):
            continue
        re = [float(c[a, b].real) for a, b in UPPER_TRI]
        im = [float(c[a, b].imag) for a, b in UPPER_TRI]
        modes.append({"xi": list(xi), "re": re, "im": im})
    return {"period": f.period, "modes": modes}


def field_from_dict(data: dict) -> TrigSymField:
    coeffs = {}
    for mode in data["modes"]:
        with np.errstate(invalid="ignore"):  # 1j * inf warns; the constructor refuses what it makes
            coeffs[_as_freq(mode["xi"])] = (np.asarray(mode["re"]) + 1j * np.asarray(mode["im"]))[UPPER_TRI_SLOT]
    return TrigSymField(coeffs, period=float(data["period"]))
