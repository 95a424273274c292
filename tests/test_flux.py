import numpy as np
import pytest

from _reference_moments import (_collapsed_rule, _normals, _triangle_moments, antisym, gauss_green_defect_A,
                                gauss_green_defect_B, triangle_rule)
from _reference_pointwise import permutation_sign
from divsym.fields import PreconditionError, TrigSymField, random_field
from divsym.flux import _moment_functions, _segment_integrals


def div_free(seed, max_freq=2, amplitude=1.0):
    return random_field(seed, max_freq, amplitude, divfree=True)


def normal(x_i, x_j, x_k):
    return _normals(np.array([[x_i, x_j, x_k]], dtype=float))[0]


def moments(w, tri, rule=None):
    """Normal, flux B and first moments G of one triangle, its vertices taken verbatim.

    The rule defaults to ``triangle_rule``'s for the field and the triangle.
    """
    tri = np.asarray(tri, dtype=float)
    rule = triangle_rule(w, tri) if rule is None else rule
    nu, b, g = _triangle_moments(w, tri[:1], (tri - tri[0])[None], rule, [0], [0])
    return nu[0], b[0], g[0]


def moment_function(b, g, y, alpha, beta):
    """A(alpha, beta)(y) of one triangle's B and G."""
    y = np.asarray(y, dtype=float)
    return float(np.squeeze(_moment_functions(b[:, None], antisym(g[None]), y[:, None])[alpha][beta]))


def random_tetra(rng, scale=0.12):
    """Well-shaped tetrahedron at cube-center scale (the cache's regime)."""
    while True:
        center = rng.random(3)
        pts = center + scale * (rng.random((4, 3)) - 0.5)
        vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
        if vol > 0.01 * scale**3:
            return pts


def mode_averages(tri, rule, xi):
    """Averages of e^{2 pi i xi.x} and of (x - x_0) e^{2 pi i xi.x} / diameter over a triangle."""
    pts = rule.points @ tri
    wave = rule.weights * np.exp(2j * np.pi * (pts @ xi))
    diameter = max(np.linalg.norm(tri[i] - tri[j]) for i in range(3) for j in range(i))
    return np.append(wave.sum(), wave @ (pts - tri[0]) / diameter)


class TestSegmentIntegrals:
    def test_match_gauss_legendre(self):
        # E0 and E1 on both sides of the series switch at theta = 0.2, at 0 and up to
        # 60, against a 64-node Gauss-Legendre rule on [0, 1], whose sums of 64
        # rounded terms are good to about 1e-15
        x, wx = np.polynomial.legendre.leggauss(64)
        s, ws = (x + 1.0) / 2.0, wx / 2.0
        theta = np.concatenate([[0.0, 1e-9, 0.0123, 0.19999, 0.2, 0.20001, 0.5, 1.0, 3.0, 10.0, 60.0],
                                -np.geomspace(1e-6, 40.0, 9)])
        e0, e1 = _segment_integrals(theta)
        wave = np.exp(1j * np.outer(theta, s)) * ws
        np.testing.assert_allclose(e0, wave.sum(axis=1), rtol=0, atol=2e-15)
        np.testing.assert_allclose(e1, wave @ s, rtol=0, atol=2e-15)
        assert e0[0] == 1.0 and e1[0] == 0.5


class TestQuadrature:
    def test_exactness(self):
        # the collapsed k x k rule integrates every monomial of total degree <= 2k - 2
        from math import factorial

        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        for k in (1, 2, 3, 6, 8):
            rule = _collapsed_rule(k)
            deg = 2 * k - 2
            pts = rule.points @ verts
            for a in range(deg + 1):
                for b in range(deg + 1 - a):
                    approx = (rule.weights * pts[:, 0] ** a * pts[:, 1] ** b).sum()
                    exact = 2 * factorial(a) * factorial(b) / factorial(a + b + 2)
                    assert abs(approx - exact) < 5e-14

    def test_weights_sum_to_one(self):
        # k * k positive weights at interior barycentric nodes
        for k in (1, 4, 8, 40):
            rule = _collapsed_rule(k)
            assert abs(rule.weights.sum() - 1.0) < 1e-12
            assert len(rule.weights) == k * k and (rule.weights > 0).all() and (rule.points > 0).all()
            np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_nodes_grow_with_theta(self):
        # theta = (2 pi / period) max|xi| diameter: a longer triangle or a higher mode takes
        # more nodes, and at every theta the mode averages on random triangles stay within
        # 1e-14 of a 40 x 40 reference (the averages are at most 1 in modulus)
        xi = np.array([1, 2, 2])  # |xi| = 3
        w = TrigSymField({tuple(xi): np.eye(3, dtype=complex)})
        rng = np.random.default_rng(12)
        counts = []
        for theta in (0.5, 1, 2, 2.5, 3, 4, 5, 6, 8, 10, 15):
            for _ in range(8):
                tri = rng.standard_normal((3, 3))
                diameter = max(np.linalg.norm(tri[i] - tri[j]) for i in range(3) for j in range(i))
                tri = rng.random(3) + tri * theta / (2 * np.pi * 3 * diameter)
                rule = triangle_rule(w, tri)
                counts.append(len(rule.weights))
                err = np.abs(mode_averages(tri, rule, xi) - mode_averages(tri, _collapsed_rule(40), xi))
                assert err.max() <= 1e-14, theta
        assert counts == sorted(counts) and counts[0] < counts[-1]
        assert len(triangle_rule(TrigSymField({}), np.eye(3)).weights) == 36
        assert len(triangle_rule(w, np.zeros((3, 3))).weights) == 36


class TestNormal:
    def test_collinear(self):
        assert not normal([0, 0, 0], [1, 1, 1], [2, 2, 2]).any()

    def test_unit_triangle(self):
        nu = normal([1, 0, 0], [0, 0, 0], [0, 1, 0])
        np.testing.assert_allclose(nu, [0, 0, 0.5])

    def test_swap_negates(self):
        rng = np.random.default_rng(0)
        a, b, c = rng.random((3, 3))
        np.testing.assert_allclose(normal(a, b, c), -normal(b, a, c), atol=1e-15)


class TestMoments:
    def test_constant_field_exact(self):
        c = np.diag([2.0, -1.0, 3.0])
        w = TrigSymField({(0, 0, 0): c.astype(complex)})
        tri = np.array([[0.1, 0.2, 0.0], [0.6, 0.1, 0.3], [0.2, 0.8, 0.5]])
        nu, b, _ = moments(w, tri)
        np.testing.assert_allclose(b, c @ nu, atol=1e-14)

    def test_degenerate_zero(self):
        w = div_free(1)
        nu, b, g = moments(w, [[0, 0, 0], [0.3, 0.3, 0.3], [0.6, 0.6, 0.6]])
        assert not nu.any()
        assert not b.any() and not g.any()

    def test_single_mode_vs_refined_subdivision(self):
        # oracle: uniform subdivision of the triangle, refined until stable
        c = np.zeros((3, 3), dtype=complex)
        c[0, 1] = c[1, 0] = 0.3
        c[2, 2] = -0.4j
        w = TrigSymField({(2, 1, 0): c})
        # cube-center scale triangle: the regime the cache actually works in
        tri = np.array([[0.05, 0.1, 0.2], [0.17, 0.13, 0.23], [0.1, 0.21, 0.17]])
        _, b, _ = moments(w, tri)

        def subdivided_flux(depth):
            tris = [tri]
            for _ in range(depth):
                nxt = []
                for t in tris:
                    mid = np.array([(t[0] + t[1]) / 2, (t[1] + t[2]) / 2, (t[0] + t[2]) / 2])
                    nxt += [np.array([t[0], mid[0], mid[2]]), np.array([mid[0], t[1], mid[1]]),
                            np.array([mid[2], mid[1], t[2]]), mid]
                tris = nxt
            # with the area-weighted normal, B is the plain flux integral, so
            # coplanar sub-triangle fluxes add up to the parent flux
            total = np.zeros(3)
            for t in tris:
                total += moments(w, t)[1]
            return total

        oracle = subdivided_flux(4)
        np.testing.assert_allclose(b, oracle, atol=1e-10 * max(1.0, np.abs(oracle).max()))

    def test_eval_A_diagonal_vanishes(self):
        w = div_free(2)
        tri = np.random.default_rng(1).random((3, 3))
        _, b, g = moments(w, tri)
        for alpha in range(3):
            assert moment_function(b, g, [0.2, 0.7, 0.4], alpha, alpha) == 0.0

    def test_eval_A_zero_field(self):
        w = TrigSymField({})
        _, b, g = moments(w, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert moment_function(b, g, [0.5, 0.5, 0.5], 0, 1) == 0.0

    def test_eval_A_matches_direct_quadrature(self):
        w = div_free(3)
        rng = np.random.default_rng(5)
        tri = rng.random((3, 3))
        y = rng.random(3)
        rule = triangle_rule(w, tri)
        nu, b, g = moments(w, tri, rule)
        for alpha, beta in ((0, 1), (1, 2), (2, 0)):
            pts = rule.points @ tri
            vals = w.eval_many(pts)
            flux_a = np.einsum("qb,b->q", vals[:, alpha, :], nu)
            flux_b = np.einsum("qb,b->q", vals[:, beta, :], nu)
            integrand = (y[beta] - pts[:, beta]) * flux_a - (y[alpha] - pts[:, alpha]) * flux_b
            oracle = float(rule.weights @ integrand)
            assert abs(moment_function(b, g, y, alpha, beta) - oracle) < 1e-12 * max(1.0, abs(oracle))


class TestAntisymmetry:
    def test_B_and_A_all_permutations(self):
        w = div_free(4)
        rng = np.random.default_rng(9)
        for _ in range(50):
            tri = rng.random((3, 3))
            y = rng.random(3)
            _, b0, g0 = moments(w, tri)
            scale = max(1.0, np.abs(b0).max())
            for perm in ((0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0), (0, 2, 1), (2, 0, 1)):
                _, b, g = moments(w, tri[list(perm)])
                sign = permutation_sign(perm)
                np.testing.assert_allclose(b, sign * b0, atol=1e-13 * scale)
                a_got = moment_function(b, g, y, 0, 1)
                a_ref = sign * moment_function(b0, g0, y, 0, 1)
                assert abs(a_got - a_ref) < 1e-13 * max(1.0, abs(a_ref))

    def test_derivative_identities_exact(self):
        # the affine form makes dA/dy_beta = B_alpha and dA/dy_alpha = -B_beta
        # coefficient identities, not numerical derivatives
        w = div_free(6)
        tri = np.random.default_rng(11).random((3, 3))
        _, b, g = moments(w, tri)
        y = np.array([0.3, 0.6, 0.2])
        for alpha, beta in ((0, 1), (1, 2), (2, 0)):
            e_b = np.zeros(3)
            e_b[beta] = 1.0
            lhs = moment_function(b, g, y + e_b, alpha, beta) - moment_function(b, g, y, alpha, beta)
            assert lhs == pytest.approx(b[alpha], rel=1e-12, abs=1e-13)
            e_a = np.zeros(3)
            e_a[alpha] = 1.0
            lhs = moment_function(b, g, y + e_a, alpha, beta) - moment_function(b, g, y, alpha, beta)
            assert lhs == pytest.approx(-b[beta], rel=1e-12, abs=1e-13)


class TestGaussGreen:
    def test_constant_closed_surface(self):
        c = np.diag([1.0, 2.0, -3.0]).astype(complex)
        w = TrigSymField({(0, 0, 0): c})
        rng = np.random.default_rng(3)
        tet = rng.random((4, 3))
        for alpha in range(3):
            d = gauss_green_defect_B(w, *tet, alpha)
            assert abs(d) < 1e-12

    def test_all_points_equal(self):
        w = div_free(7)
        p = np.array([0.3, 0.3, 0.3])
        assert gauss_green_defect_B(w, p, p, p, p, 0) == 0.0
        assert gauss_green_defect_A(w, p, p, p, p, [0, 0, 0], 0, 1) == 0.0

    def test_non_divfree_rejected(self):
        w = random_field(8, 1, 1.0)
        tet = np.random.default_rng(0).random((4, 3))
        with pytest.raises(PreconditionError):
            gauss_green_defect_B(w, *tet, 0)

    def test_random_refinement_convergence(self):
        w = div_free(9)
        rng = np.random.default_rng(21)
        scale = w.max_coeff_norm()
        for _ in range(5):
            tet = random_tetra(rng)
            edge = max(np.linalg.norm(tet[i] - tet[j]) for i in range(4) for j in range(i))
            d = abs(gauss_green_defect_B(w, *tet, 1))
            assert d < 1e-13 * scale * edge**2

    def test_A_alpha_equals_beta_zero(self):
        w = div_free(10)
        tet = np.random.default_rng(1).random((4, 3))
        assert gauss_green_defect_A(w, *tet, [0.5, 0.5, 0.5], 1, 1) == 0.0
