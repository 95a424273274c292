import numpy as np
import pytest

from _reference_pointwise import build_partition, cubes_at, pou_eval
from divsym.fields import (
    SYM6,
    PreconditionError,
    TrigSymField,
    _sym6_sq,
    curl_curl_T,
    potential_inverse,
    project_div_free,
    random_field,
)
from divsym.maximal import ScalarGrid, bad_set, maximal_function
from divsym.potential_trunc import (
    _derivative_magnitude_grids,
    afree_potential_truncate,
    averaged_taylor,
    potential_bad_set,
    stability_comparison,
    w_m_inf_truncate,
)
from divsym.truncation import flag_bad_set, lambda_for_fraction
from divsym.whitney import WhitneyCube, whitney_decompose


def div_free(seed, max_freq=2, amplitude=1.0):
    f = project_div_free(random_field(seed, max_freq, amplitude))
    f.coeffs.pop((0, 0, 0), None)
    return TrigSymField(f.coeffs)


def affine_field(m0, grad, period=1e8):
    """A trig field equal to ``m0 + grad . x`` to rounding on the unit cube.

    Each coordinate is ``x_d = (P / 2 pi) sin(2 pi x_d / P) + O((2 pi / P)^2 |x_d|^3 / 6)``,
    under 1e-15 for P = 1e8, so the patches see an affine field through their mode path.
    """
    coeffs = {(0, 0, 0): m0.astype(complex)}
    for d in range(3):
        coeffs[tuple(np.eye(3, dtype=int)[d])] = -0.5j * period / (2 * np.pi) * grad[:, :, d]
    return TrigSymField(coeffs, period=period)


class TestAveragedTaylor:
    def cube(self):
        return WhitneyCube(center=np.array([0.4, 0.5, 0.6]), side=0.25, level=1)

    def test_affine_reproduced(self):
        rng = np.random.default_rng(0)
        m0 = rng.standard_normal((3, 3))
        m0 = (m0 + m0.T) / 2
        grad = rng.standard_normal((3, 3, 3))
        grad = (grad + grad.transpose(1, 0, 2)) / 2
        patch = averaged_taylor(affine_field(m0, grad), self.cube(), degree=1)
        x = np.array([0.45, 0.48, 0.66])
        expected = m0 + grad @ x
        np.testing.assert_allclose(patch(x), expected, atol=1e-12)

    def test_zero_field(self):
        patch = averaged_taylor(TrigSymField({}), self.cube())
        assert not patch.value.any() and not patch.grad.any()

    def test_degree_zero_is_mean(self):
        v = div_free(1)
        patch = averaged_taylor(v, self.cube(), degree=0)
        assert not patch.grad.any()

    def test_bad_degree(self):
        with pytest.raises(PreconditionError):
            averaged_taylor(div_free(1), self.cube(), degree=2)

    def test_poincare_ratio_bounded(self):
        # |v - pi|_L1(Q) <= C ell^2 |grad^2 v|_L1(Q) across random cubes
        v = div_free(2)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            side = float(rng.uniform(0.05, 0.2))
            cube = WhitneyCube(center=rng.random(3), side=side, level=0)
            patch = averaged_taylor(v, cube)
            nodes = cube.center + (rng.random((200, 3)) - 0.5) * side
            diff = v.eval_many(nodes) - np.stack([patch(x) for x in nodes])
            l1 = np.linalg.norm(diff, axis=(1, 2)).mean()
            hess = 0.0
            for o in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
                hess += np.linalg.norm(v.eval_many(nodes, o), axis=(1, 2)).mean() ** 2
            hess = np.sqrt(hess)
            if hess > 0:
                worst = max(worst, l1 / (side**2 * hess))
        assert worst < 1.0  # recorded constant for this cube family


def vt_level(v, n=16):
    """The potential truncation's level grid: the sum of the three maximal functions."""
    return sum(maximal_function(ScalarGrid(n=n, period=1.0, values=g)).values
               for g in _derivative_magnitude_grids(v, n))


class TestWmInfTruncate:
    def test_empty_bad_set_identity(self):
        v = div_free(4, max_freq=1, amplitude=0.01)
        vt = w_m_inf_truncate(v, 1e9, 16)
        assert vt.cover is None
        x = np.array([0.3, 0.8, 0.1])
        np.testing.assert_array_equal(vt(x), v(x))

    def test_zero_field(self):
        vt = w_m_inf_truncate(TrigSymField({}), 1.0, 16)
        assert not vt(np.array([0.2, 0.2, 0.2])).any()

    def test_full_bad_set_rejected(self):
        v = div_free(5, amplitude=50.0)
        with pytest.raises(PreconditionError):
            w_m_inf_truncate(v, 1e-6, 16)

    def test_bad_set_preconditions(self):
        v = div_free(5)
        for lam in (0.0, -1.0):
            with pytest.raises(PreconditionError, match="positive"):
                potential_bad_set(v, lam, 16)
        with pytest.raises(PreconditionError, match="whole torus"):
            potential_bad_set(div_free(5, amplitude=50.0), 1e-6, 16)

    def test_bad_set_is_the_truncation_mask(self):
        v = potential_inverse(div_free(6))
        level, mask = potential_bad_set(v, 40.0, 16)
        vt = w_m_inf_truncate(v, 40.0, 16)
        assert 0 < mask.mask.mean() < 1
        np.testing.assert_array_equal(level.values, vt.level_grid.values)
        np.testing.assert_array_equal(mask.mask, vt.bad.mask)
        np.testing.assert_array_equal(mask.distance, vt.bad.distance)

    def test_call_matches_reference_partition(self):
        # v_lambda = sum_j phi_j * patch_j, with phi from the pou_eval reference,
        # at random flagged points and at mask-cell centres (support edges)
        v = div_free(2)
        vt = w_m_inf_truncate(v, float(np.quantile(vt_level(v), 0.9)), 16)
        pou = build_partition(vt.cover)
        rng = np.random.default_rng(4)
        cells = np.argwhere(vt.bad.mask)
        chosen = cells[rng.integers(0, len(cells), size=12)]
        for x in np.concatenate([chosen[:6] + rng.random((6, 3)), chosen[6:] + 0.5]) / 16:
            centers = vt.cover.centers
            ref = sum(pou_eval(pou, j, x) * (vt.patch_values[j] + vt.patch_grads[j] @ vt.cover.wrap(x - centers[j]))
                      for j in cubes_at(vt.cover, x))
            np.testing.assert_allclose(vt(x), ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    def test_second_derivative_bounded(self):
        # measured sup |grad^2 v_lambda| / lambda across seeds, finite differences
        # inside cube interiors
        ratios = []
        for seed in (1, 2, 3):
            v = div_free(seed)
            lam = float(np.quantile(vt_level(v), 0.9))
            vt = w_m_inf_truncate(v, lam, 16)
            if vt.cover is None:
                continue
            hfd = 1e-4
            rng = np.random.default_rng(seed)
            worst = 0.0
            cells = np.argwhere(vt.bad.mask)
            for cell in cells[rng.choice(len(cells), size=min(6, len(cells)), replace=False)]:
                x = (cell + 0.5) / 16
                for d in range(3):
                    e = np.zeros(3)
                    e[d] = hfd
                    second = (vt(x + e) - 2 * vt(x) + vt(x - e)) / hfd**2
                    worst = max(worst, np.abs(second).max())
            ratios.append(worst / lam)
        assert ratios and max(ratios) < 3e3  # recorded constant


class TestAfreeTruncate:
    def test_empty_identity(self):
        u = div_free(6, max_freq=1, amplitude=0.01)
        ut = afree_potential_truncate(u, 1e9, 16)
        x = np.array([0.4, 0.2, 0.9])
        np.testing.assert_array_equal(ut(x), u(x))

    def test_zero(self):
        ut = afree_potential_truncate(TrigSymField({}), 1.0, 16)
        assert not ut(np.array([0.1, 0.1, 0.1])).any()

    def test_linf_bound_across_seeds(self):
        ratios = []
        for seed in range(4):
            u = div_free(seed, max_freq=2)
            v = potential_inverse(u)
            from divsym.potential_trunc import _derivative_magnitude_grids
            from divsym.maximal import maximal_function

            g0, g1, g2 = _derivative_magnitude_grids(v, 16)
            tot = sum(maximal_function(ScalarGrid(n=16, period=1.0, values=g)).values
                      for g in (g0, g1, g2))
            lam = float(np.quantile(tot, 0.85))
            ut = afree_potential_truncate(u, lam, 16)
            g = ut.grid_norm(32)
            ratios.append(g.values.max() / lam)
        assert max(ratios) < 1e3  # recorded constant across the sweep

    def test_non_divfree_rejected(self):
        with pytest.raises(PreconditionError):
            afree_potential_truncate(random_field(7, 1, 1.0), 1.0, 16)

    def test_pointwise_calls_sample_once(self, monkeypatch):
        from divsym import _kernels
        from divsym.potential_trunc import strong_stability_witness

        calls = []
        kernel = _kernels.accumulate_patch_curl

        def counted(*args):
            calls.append(args[4])
            kernel(*args)

        monkeypatch.setattr(_kernels, "accumulate_patch_curl", counted)
        ut = afree_potential_truncate(strong_stability_witness(1.0), 1.0, 16)
        first, second = (np.argwhere(ut.vtrunc.bad.mask)[:2] + 0.5) / 16
        np.testing.assert_array_equal(ut(first), ut(first))
        ut(second)
        assert calls == [32]


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

    def test_witness_modifies_potential_only(self):
        from divsym.potential_trunc import strong_stability_witness

        lam = 1.0
        u = strong_stability_witness(lam)
        rep = stability_comparison(u, lam, 32)
        # sup|u| <= lam: the tail integral over {|u| > lam} is exactly zero
        assert rep["linf_of_u_over_lambda"] <= 1.0 + 1e-12
        assert rep["geometric"]["changed_measure"] == 0.0
        assert rep["potential"]["changed_measure"] > 0.05

    def test_witness_margin_validation(self):
        from divsym.potential_trunc import strong_stability_witness

        with pytest.raises(PreconditionError):
            strong_stability_witness(1.0, margin=1.5)


def comparison_from_truncation(u, lam, n):
    """The comparison dict read off the full potential truncation's mask."""
    geometric = flag_bad_set(u, lam, n)[3]
    potential = afree_potential_truncate(u, lam, n).vtrunc.bad
    umax = float(np.sqrt(_sym6_sq(u.grid_components(n, SYM6))).max())
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
    want = outcome(comparison_from_truncation, u, lam, n)
    if fraction < 0.1:
        assert 0 < want["potential"]["bad_fraction"] < 1
    assert outcome(stability_comparison, u, lam, n) == want
