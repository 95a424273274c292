"""Per-mode reference for the batched curl curl^T symbols and the potential inverse.

``_curl_curl_coeff`` builds one mode's curl curl^T image entry by entry,
``curl_curl_symbol_matrix`` one mode's 6x6 Mandel symbol from it, and
``potential_inverse`` the loop of one symbol build and one ``pinv`` per
mode that ``fields._curl_curl_symbols`` and the stacked ``pinv`` replaced,
kept as the oracles they are tested against.
"""

import numpy as np

from divsym.fields import (
    TWO_PI,
    PreconditionError,
    TrigSymField,
    _mandel_to_sym,
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
