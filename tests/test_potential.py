import numpy as np
import pytest

from divsym.fields import PreconditionError, TrigSymField, curl_curl_T, potential_inverse, random_field, project_div_free
from divsym.maximal import ScalarGrid, bad_set
from divsym.potential_trunc import (
    afree_potential_truncate,
    averaged_taylor,
    stability_comparison,
    w_m_inf_truncate,
)
from divsym.whitney import WhitneyCube, whitney_decompose


def div_free(seed, max_freq=2, amplitude=1.0):
    f = project_div_free(random_field(seed, max_freq, amplitude))
    f.coeffs.pop((0, 0, 0), None)
    return TrigSymField(f.coeffs)


def affine_field(m0, grad):
    """Not a trig field; small helper class quacking like one for projections."""

    class Affine:
        period = 1.0

        def eval_many(self, pts, order=(0, 0, 0)):
            pts = np.atleast_2d(pts)
            if order == (0, 0, 0):
                return m0[None] + np.einsum("abd,pd->pab", grad, pts)
            raise NotImplementedError

    return Affine()


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

    def test_second_derivative_bounded(self):
        # measured sup |grad^2 v_lambda| / lambda across seeds, finite differences
        # inside cube interiors
        ratios = []
        for seed in (1, 2, 3):
            v = div_free(seed)
            from divsym.potential_trunc import _derivative_magnitude_grids
            from divsym.maximal import maximal_function

            g0, g1, g2 = _derivative_magnitude_grids(v, 16)
            tot = sum(maximal_function(ScalarGrid(n=16, period=1.0, values=g)).values
                      for g in (g0, g1, g2))
            lam = float(np.quantile(tot, 0.9))
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
