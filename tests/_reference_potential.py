"""Per-mode reference for the batched curl curl^T symbols, the potential inverse and its grids.

``_curl_curl_coeff`` builds one mode's curl curl^T image entry by entry,
``curl_curl_symbol_matrix`` one mode's 6x6 Mandel symbol from it, and
``potential_inverse`` the loop of one symbol build and one ``pinv`` per
mode that ``fields._curl_curl_symbols`` and the stacked ``pinv`` replaced,
kept as the oracles they are tested against.  ``stacked_potential_inverse``
inverts the symbols of every non-zero mode in one stacked ``pinv``, the
route the half-band inversion mirrors, and ``derivative_magnitude_grids``
samples each derivative order by its own band transform and takes one
squared norm per index tuple, the route of the one stacked transform.
"""

import numpy as np

from divsym.fields import (
    PINV_RCOND,
    TWO_PI,
    PreconditionError,
    TrigSymField,
    _apply_symbols,
    _curl_curl_symbols,
    _mandel_to_sym,
    _sym6_sq,
    _sym_to_mandel,
    assert_div_free,
)


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


def curl_curl_T(v):
    out = {xi: _curl_curl_coeff(c, xi, v.period) for xi, c in v.coeffs.items()}
    return TrigSymField(out, period=v.period)


def curl_curl_symbol_matrix(xi, period=1.0):
    return np.stack([_sym_to_mandel(_curl_curl_coeff(_mandel_to_sym(e).astype(complex), xi, period).real)
                     for e in np.eye(6)], axis=1)


def potential_inverse(u, rcond=1e-10):
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


def stacked_potential_inverse(u):
    """``fields.potential_inverse`` of a valid input with every non-zero mode's symbol in one ``pinv``."""
    xis, cs = u.mode_arrays()
    keep = xis.any(axis=1)
    symbols = _curl_curl_symbols(xis[keep], u.period)
    return _apply_symbols(np.linalg.pinv(symbols, rcond=PINV_RCOND), xis[keep], cs[keep], u.period)


def derivative_magnitude_grids(v, n):
    """|v|, |grad v|, |grad^2 v| at the cell centres: one ``grid_components`` per order."""
    eye = np.eye(3, dtype=np.int64)
    levels = [[(0, 0, 0)], [tuple(eye[d]) for d in range(3)],
              [tuple(eye[d] + eye[e]) for d in range(3) for e in range(3)]]
    grids = {o: v.grid_components(n, order=o) for o in set().union(*levels)}
    return tuple(np.sqrt(sum(_sym6_sq(grids[o]) for o in orders)) for orders in levels)
