"""Symmetric matrix fields on the 3-torus as trigonometric polynomials.

Fields are stored mode-wise: a map from integer frequencies to complex 3x3
matrices, with the Hermitian pair ``coeff(-xi) == conj(coeff(xi))`` kept
explicitly so every field is real valued.  All differential operators act
mode-by-mode through their Fourier symbols, which makes derivatives,
divergence-free projection and the second-order potential operator exact
up to rounding.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# order of the 6 independent entries of a symmetric matrix (row-major upper triangle)
UPPER_TRI = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


class UnsupportedOrderError(ValueError):
    """Derivative order outside the supported range (total order <= 3)."""


class PreconditionError(ValueError):
    """An operation was called on inputs violating its stated preconditions."""


def _as_freq(xi):
    xi = tuple(int(v) for v in xi)
    if len(xi) != 3:
        raise ValueError(f"frequency must be a 3-vector, got {xi}")
    return xi


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
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = float(period)
        cleaned = {}
        for xi, c in coeffs.items():
            xi = _as_freq(xi)
            c = np.asarray(c, dtype=complex)
            if c.shape != self._shape:
                raise ValueError(f"coefficient for {xi} has shape {c.shape}")
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

    @property
    def max_freq(self):
        return max((max(abs(v) for v in xi) for xi in self.coeffs), default=0)

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

    def eval_many(self, pts, order=(0, 0, 0)):
        """Evaluate the field (or a derivative) at an ``(m,3)`` array of points."""
        order = _check_order(order)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        xis, cs = self.mode_arrays()
        out_shape = (len(pts),) + self._shape
        if len(xis) == 0:
            return np.zeros(out_shape)
        k = TWO_PI / self.period
        factor = np.ones(len(xis), dtype=complex)
        for d in range(3):
            if order[d]:
                factor = factor * (1j * k * xis[:, d]) ** order[d]
        phases = np.exp(1j * k * (pts @ xis.T))  # (p, m)
        weighted = cs * factor.reshape((-1,) + (1,) * len(self._shape))
        vals = np.tensordot(phases, weighted, axes=(1, 0))
        return vals.real

    def grid_components(self, n, comps, order=(0, 0, 0)):
        """Selected components at the n^3 cell centers; returns (n, n, n, len(comps)).

        ``comps`` is a list of index tuples into the per-mode value shape.
        Uses an inverse FFT (exact for trig polynomials) when the grid
        resolves every stored mode, otherwise the direct mode sum.
        """
        order = _check_order(order)
        xis, cs = self.mode_arrays()
        if len(xis) == 0:
            return np.zeros((n, n, n, len(comps)))
        if 2 * self.max_freq >= n:
            grid = _cell_centers(n, self.period)
            full = self.eval_many(grid.reshape(-1, 3), order).reshape((n, n, n) + self._shape)
            return np.stack([full[(...,) + tuple(c)] for c in comps], axis=-1)
        k = TWO_PI / self.period
        factor = np.ones(len(xis), dtype=complex)
        for d in range(3):
            if order[d]:
                factor = factor * (1j * k * xis[:, d]) ** order[d]
        sel = np.stack([cs[(slice(None),) + tuple(c)] for c in comps], axis=-1)
        return _modes_to_grid(sel * factor[:, None], _fft_index(xis, n), n)

    def grid_values(self, n, order=(0, 0, 0)):
        """Values at the n^3 cell centers ``x = (idx + 1/2) * period / n``."""
        comps = [np.unravel_index(i, self._shape) for i in range(int(np.prod(self._shape)))]
        flat = self.grid_components(n, comps, order)
        return flat.reshape((n, n, n) + self._shape)


def _fft_index(xis, n):
    """FFT index ``xi mod n`` of modes ``(m, 3)`` and the phase of the half-cell shift."""
    return tuple((xis % n).T), np.exp(1j * np.pi * xis.sum(axis=1) / n)


def _modes_to_grid(coeffs, index, n):
    """Real values ``(n, n, n, ...)`` at the cell centres ``(idx + 1/2) h`` of modes ``(m, ...)``.

    Exact for Hermitian-paired modes with every ``|xi_d| < n / 2``.
    """
    from scipy import fft  # faster than numpy.fft here; imported on first use, not with the package

    idx, phase = index
    spec = np.zeros((n, n, n) + coeffs.shape[1:], dtype=complex)
    spec[idx] = (coeffs.T * phase).T
    return fft.ifftn(spec, axes=(0, 1, 2)).real * n**3


def _grid_to_modes(values, index):
    """Coefficients ``(m, ...)`` of cell-centre values ``(n, n, n, ...)``; inverts ``_modes_to_grid``."""
    from scipy import fft

    idx, phase = index
    n = values.shape[0]
    return (fft.fftn(values, axes=(0, 1, 2))[idx].T * (phase.conj() / n**3)).T


def _cell_centers(n, period):
    ax = (np.arange(n) + 0.5) * (period / n)
    g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    return g


class TrigSymField(_ModeField):
    """Real, symmetric-matrix-valued trigonometric polynomial on the torus."""

    _shape = (3, 3)

    def _validate(self, xi, c, tol):
        asym = np.abs(c - c.T).max()
        if asym > tol * max(1.0, np.abs(c).max()):
            raise ValueError(f"coefficient at {xi} is not symmetric (defect {asym:.2e})")
        return 0.5 * (c + c.T)

    def __call__(self, x, order=(0, 0, 0)):
        return self.eval_many(np.asarray(x, dtype=float).reshape(1, 3), order)[0]


class TrigVecField(_ModeField):
    """Real vector-valued trigonometric polynomial on the torus."""

    _shape = (3,)

    def __call__(self, x, order=(0, 0, 0)):
        return self.eval_many(np.asarray(x, dtype=float).reshape(1, 3), order)[0]


# ---------------------------------------------------------------------------
# operations


def eval_field(f, x, order=(0, 0, 0)):
    """Evaluate ``f`` (or the partial derivative ``order``, total order <= 3) at ``x``."""
    return f(x, order)


def divergence(f: TrigSymField) -> TrigVecField:
    """Row-wise divergence, computed mode-by-mode: ``i (2pi/L) M(xi) xi``."""
    k = TWO_PI / f.period
    out = {}
    for xi, c in f.coeffs.items():
        out[xi] = 1j * k * (c @ np.asarray(xi, dtype=float))
    return TrigVecField(out, period=f.period)


def project_div_free(f: TrigSymField) -> TrigSymField:
    """Frobenius-orthogonal projection of every mode onto ``{M sym : M xi = 0}``.

    The zero mode is kept: constants are divergence-free.  The projector is
    ``M -> Q M Q`` with ``Q = I - n n^T``, which is idempotent and kills the
    divergence symbol exactly.
    """
    out = {}
    eye = np.eye(3)
    for xi, c in f.coeffs.items():
        if xi == (0, 0, 0):
            out[xi] = c.copy()
            continue
        nvec = np.asarray(xi, dtype=float)
        nvec = nvec / np.linalg.norm(nvec)
        q = eye - np.outer(nvec, nvec)
        out[xi] = q @ c @ q
    return TrigSymField(out, period=f.period)


def _curl_curl_coeff(c, xi, period):
    d = 1j * (TWO_PI / period) * np.asarray(xi, dtype=float)

    def w(a, b, cc, dd):
        return d[a] * d[cc] * c[b, dd] + d[b] * d[dd] * c[a, cc] \
            - d[a] * d[dd] * c[b, cc] - d[b] * d[cc] * c[a, dd]

    # entry (r, s) of curl curl^T from the component table (0-based indices)
    return np.array([
        [w(1, 2, 1, 2), w(1, 2, 2, 0), w(1, 2, 0, 1)],
        [w(2, 0, 1, 2), w(2, 0, 2, 0), w(2, 0, 0, 1)],
        [w(0, 1, 1, 2), w(0, 1, 2, 0), w(0, 1, 0, 1)],
    ])


def curl_curl_T(v: TrigSymField) -> TrigSymField:
    """Second-order operator ``curl curl^T`` applied mode-by-mode.

    Its image is divergence-free for every input; on mean-zero fields it is
    the potential operator whose kernel is the image of the symmetric
    gradient.
    """
    out = {}
    for xi, c in v.coeffs.items():
        out[xi] = _curl_curl_coeff(c, xi, v.period)
    return TrigSymField(out, period=v.period)


def _sym_to_mandel(m):
    s = np.sqrt(2.0)
    return np.array([m[0, 0], m[1, 1], m[2, 2], s * m[1, 2], s * m[0, 2], s * m[0, 1]])


def _mandel_to_sym(v):
    s = 1.0 / np.sqrt(2.0)
    return np.array([
        [v[0], s * v[5], s * v[4]],
        [s * v[5], v[1], s * v[3]],
        [s * v[4], s * v[3], v[2]],
    ])


def curl_curl_symbol_matrix(xi, period=1.0):
    """The 6x6 matrix of the curl curl^T symbol in the orthonormal Mandel basis."""
    cols = []
    for j in range(6):
        e = np.zeros(6)
        e[j] = 1.0
        cols.append(_sym_to_mandel(_curl_curl_coeff(_mandel_to_sym(e).astype(complex), xi, period).real))
    return np.stack(cols, axis=1)


def div_symbol_matrix(xi, period=1.0):
    """The 3x6 divergence symbol (Mandel basis, without the factor ``i 2pi/L``)."""
    cols = []
    for j in range(6):
        e = np.zeros(6)
        e[j] = 1.0
        cols.append(_mandel_to_sym(e) @ np.asarray(xi, dtype=float))
    return np.stack(cols, axis=1)


def sym_grad_symbol_matrix(xi, period=1.0):
    """The 6x3 symmetric-gradient symbol (Mandel basis, without ``i 2pi/L``)."""
    cols = []
    x = np.asarray(xi, dtype=float)
    for j in range(3):
        u = np.zeros(3)
        u[j] = 1.0
        cols.append(_sym_to_mandel(0.5 * (np.outer(u, x) + np.outer(x, u))))
    return np.stack(cols, axis=1)


def assert_div_free(f: TrigSymField, tol=1e-10, what="field"):
    """Raise ``PreconditionError`` unless every divergence coefficient is below ``tol``."""
    dv = divergence(f)
    scale = max(1.0, f.max_coeff_norm())
    worst = dv.max_coeff_norm()
    if worst > tol * scale:
        raise PreconditionError(f"{what} is not divergence-free (defect {worst:.3e})")


def potential_inverse(u: TrigSymField, rcond=1e-10) -> TrigSymField:
    """Mode-wise pseudoinverse of curl curl^T on a mean-zero divergence-free field.

    Singular values below ``rcond`` times the largest are treated as zero;
    exactness of the symbol sequence guarantees the solution lies in the row
    space, so the round trip ``curl_curl_T(potential_inverse(u)) == u`` holds
    per mode.
    """
    scale = max(1.0, u.max_coeff_norm())
    mean = u.coeffs.get((0, 0, 0))
    if mean is not None and np.abs(mean).max() > 1e-12 * scale:
        raise PreconditionError("potential_inverse requires a mean-zero field")
    assert_div_free(u, tol=1e-10, what="potential_inverse input")
    out = {}
    for xi, c in u.coeffs.items():
        if xi == (0, 0, 0):
            continue
        s = curl_curl_symbol_matrix(xi, u.period)
        pinv = np.linalg.pinv(s, rcond=rcond)
        out[xi] = _mandel_to_sym(pinv @ _sym_to_mandel(c))
    return TrigSymField(out, period=u.period)


def random_field(seed, max_freq, amplitude, divfree=False, period=1.0) -> TrigSymField:
    """Reproducible random field with modes on ``max-norm(xi) <= max_freq``."""
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
        coeffs[xi] = amplitude * 0.5 * (m + m.T)
    f = TrigSymField(coeffs, period=period)
    if divfree:
        f = project_div_free(f)
        f.coeffs.pop((0, 0, 0), None)
        f = TrigSymField(f.coeffs, period=period)
    return f


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
        xi = _as_freq(mode["xi"])
        c = np.zeros((3, 3), dtype=complex)
        for (a, b), re, im in zip(UPPER_TRI, mode["re"], mode["im"]):
            c[a, b] = re + 1j * im
            c[b, a] = re + 1j * im
        coeffs[xi] = c
    return TrigSymField(coeffs, period=float(data.get("period", 1.0)))
