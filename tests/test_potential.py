import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_potential as ref
from divsym import fields
from divsym.fields import PreconditionError, TrigSymField, _sym6_sq, potential_inverse, random_field
from divsym.maximal import ScalarGrid, _maximal, bad_set, maximal_function
from divsym.potential_trunc import _derivative_magnitude_grids, potential_bad_set, stability_comparison
from divsym.truncation import flag_bad_set, lambda_for_fraction


def div_free(seed, max_freq=2, amplitude=1.0):
    return random_field(seed, max_freq, amplitude, divfree=True)


@pytest.fixture
def witness():
    """A field with sup |u| = 1 that the potential route flags at lambda = 1.

    Two modes along e1 share a norm-flat polarization pair, so |u(x)| is exactly their beat envelope.
    """
    s = 1.0 / np.sqrt(2.0)
    pair = 0.5 * (np.array([[0.0, 0, 0], [0, s, 0], [0, 0, -s]]) + 1j * np.array([[0.0, 0, 0], [0, 0, s], [0, s, 0]]))
    scale = 1.0 / (1.0 + 0.55)
    return TrigSymField({(1, 0, 0): scale * 1.0 * pair, (2, 0, 0): scale * 0.55 * pair})


def vt_level(v, n=16):
    """The potential truncation's level grid: the sum of the three maximal functions."""
    return sum(maximal_function(ScalarGrid(n=n, period=1.0, values=g)).values
               for g in _derivative_magnitude_grids(v, n))


class TestWmInfTruncate:
    """The potential truncation's flagging stage: the route changes v on this bad set only."""

    def test_empty_bad_set_identity(self):
        # an empty bad set: the truncation leaves the potential as it is
        v = div_free(4, max_freq=1, amplitude=0.01)
        _, mask = potential_bad_set(v, 1e9, 16)
        assert mask.is_empty()

    def test_zero_field(self):
        level, mask = potential_bad_set(TrigSymField({}), 1.0, 16)
        assert not level.values.any() and mask.is_empty()

    def test_full_bad_set_rejected(self):
        v = div_free(5, amplitude=50.0)
        with pytest.raises(PreconditionError, match="whole torus"):
            potential_bad_set(v, 1e-6, 16)

    def test_bad_set_preconditions(self):
        v = div_free(5)
        for lam in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(PreconditionError, match="lambda must be positive and finite"):
                potential_bad_set(v, lam, 16)

    def test_bad_set_is_the_truncation_mask(self):
        v = potential_inverse(div_free(6))
        level, mask = potential_bad_set(v, 40.0, 16)
        want = bad_set(ScalarGrid(n=16, period=1.0, values=vt_level(v)), 40.0)
        assert 0 < mask.mask.mean() < 1
        np.testing.assert_array_equal(level.values, vt_level(v))
        np.testing.assert_array_equal(mask.mask, want.mask)


def test_comparison_computes_no_distance(monkeypatch):
    # the comparison reads two masks and builds no cover, so no distance transform runs
    from divsym import whitney

    def refuse(mask):
        raise AssertionError("distance transform called")

    monkeypatch.setattr(whitney, "_cell_distance", refuse)
    w = div_free(6)
    rep = stability_comparison(w, lambda_for_fraction(w, 16, 0.08), 16)
    assert 0 < rep["geometric"]["bad_fraction"] < rep["potential"]["bad_fraction"] < 1
    with pytest.raises(AssertionError, match="distance transform"):
        whitney.whitney_decompose(flag_bad_set(w, lambda_for_fraction(w, 16, 0.08), 16)[3])


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**16), st.integers(8, 40), st.sampled_from([1.0, 1.7, 2 * np.pi]), st.integers(1, 3))
def test_one_band_transform_is_the_per_order_route(seed, n, period, max_freq):
    # all derivative orders from one band transform: bitwise the grids of one transform per order
    v = potential_inverse(random_field(seed, max_freq, 1.0, divfree=True, period=period))
    got, want = _derivative_magnitude_grids(v, n), ref.derivative_magnitude_grids(v, n)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**16), st.integers(8, 40), st.sampled_from([1.0, 1.7, 2 * np.pi]))
def test_stacked_maximal_is_the_per_grid_pass(seed, n, period):
    # bitwise below n = 32; from n = 32 on, a lone grid's product runs with its operands
    # swapped (numpy reuses the temporary), which moves the rounding only
    grids = np.random.default_rng(seed).random((3, n, n, n)) ** 8
    got = _maximal(grids)
    for g, m in zip(grids, got):
        want = maximal_function(ScalarGrid(n=n, period=period, values=g)).values
        if n < 32:
            assert m.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(m, want, rtol=0, atol=4e-16 * want.max())


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1.0, 1.7, 2 * np.pi]), st.integers(1, 3))
def test_half_band_inverse_is_the_stacked_inverse(seed, period, max_freq):
    # row -1 - j mirrors row j with the same symbol: half the inversions, the same bits
    u = random_field(seed, max_freq, 1.0, divfree=True, period=period)
    got, want = potential_inverse(u).mode_arrays(), ref.stacked_potential_inverse(u).mode_arrays()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_comparison_does_each_piece_of_work_once(monkeypatch):
    # at n = 16: one rfftn per grid stack and radius kernel (4 radii, 2 stacks), one band
    # DFT per flagging stage, and one symbol inversion per Hermitian pair of the 124 modes
    calls = {"rfftn": 0, "band_dft": 0, "pinv": 0}

    def counted(name, func, size=lambda *args: 1):
        def wrapper(*args, **kwargs):
            calls[name] += size(*args)
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "rfftn", counted("rfftn", np.fft.rfftn))
    monkeypatch.setattr(fields, "_band_dft", counted("band_dft", fields._band_dft))
    monkeypatch.setattr(np.linalg, "pinv", counted("pinv", np.linalg.pinv, lambda a, *_: len(a)))
    w = random_field(3, 2, 1.0, divfree=True)
    lam = lambda_for_fraction(w, 16, 0.08)
    calls.update(rfftn=0, band_dft=0)
    stability_comparison(w, lam, 16)
    assert calls["rfftn"] <= 10 and calls["band_dft"] <= 2 and calls["pinv"] == 62


class TestAfreeTruncate:
    """The A-free route truncates u through its potential v = potential_inverse(u)."""

    def test_empty_identity(self):
        # an empty potential bad set: the route leaves v, hence u = curl curl^T v, as it is
        u = div_free(6, max_freq=1, amplitude=0.01)
        v = potential_inverse(u)
        _, mask = potential_bad_set(v, 1e9, 16)
        assert mask.is_empty()
        x = np.array([0.4, 0.2, 0.9])
        np.testing.assert_allclose(ref.curl_curl_T(v)(x), u(x), rtol=0, atol=1e-12)

    def test_zero(self):
        v = potential_inverse(TrigSymField({}))
        level, mask = potential_bad_set(v, 1.0, 16)
        assert not level.values.any() and mask.is_empty()
        assert not ref.curl_curl_T(v)(np.array([0.1, 0.1, 0.1])).any()

    def test_non_divfree_rejected(self):
        with pytest.raises(PreconditionError, match="stability_comparison input"):
            stability_comparison(random_field(7, 1, 1.0), 1.0, 16)


class TestStabilityComparison:
    def test_low_frequency_both_unchanged(self):
        u = div_free(8, max_freq=1, amplitude=0.01)
        rep = stability_comparison(u, 1e6, 16)
        assert rep["geometric"]["changed_measure"] == 0.0
        assert rep["potential"]["changed_measure"] == 0.0

    def test_zero_field(self):
        rep = stability_comparison(TrigSymField({}), 1.0, 16)
        assert rep["geometric"]["changed_measure"] == 0.0
        assert rep["potential"]["changed_measure"] == 0.0

    def test_witness_modifies_potential_only(self, witness):
        lam = 1.0
        rep = stability_comparison(witness, lam, 32)
        # sup|u| <= lam: the tail integral over {|u| > lam} is exactly zero
        assert rep["linf_of_u_over_lambda"] <= 1.0 + 1e-12
        assert rep["geometric"]["changed_measure"] == 0.0
        assert rep["potential"]["changed_measure"] > 0.05


def comparison_from_masks(u, lam, n):
    """The comparison dict read off the geometric mask and the potential level grid's superlevel set."""
    geometric = flag_bad_set(u, lam, n)[3]
    potential = bad_set(ScalarGrid(n=n, period=1.0, values=vt_level(potential_inverse(u), n)), lam)
    if potential.is_full():
        raise PreconditionError("potential bad set covers the whole torus; raise lambda")
    umax = float(np.sqrt(_sym6_sq(u.grid_components(n))).max())
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


def outcome(call, *args):
    """The result of ``call(*args)``, or the message of the ``PreconditionError`` it raises."""
    try:
        return call(*args)
    except PreconditionError as err:
        return str(err)


# at 16 % of geometric cells the potential's bad set covers the whole torus on
# these seeds: both routes must then raise the same error
@pytest.mark.parametrize("fraction", [0.04, 0.08, 0.16])
@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_comparison_equals_the_truncation_masks(seed, n, fraction):
    u = random_field(seed, 2, 1.0, divfree=True)
    lam = lambda_for_fraction(u, n, fraction)
    want = outcome(comparison_from_masks, u, lam, n)
    if fraction < 0.1:
        assert 0 < want["potential"]["bad_fraction"] < 1
    assert outcome(stability_comparison, u, lam, n) == want
