import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divsym import envelope
from divsym.envelope import (
    DEFAULT_BUDGET,
    CompactSetDescriptor,
    DistanceObjective,
    hull_membership,
    minimize_over_test_fields,
    qsdqc_estimate,
)
from divsym.fields import PreconditionError, _div_defect, _mandel_to_sym, _sym_to_mandel

BUDGET = {"max_freq": 1, "restarts": 4, "iterations": 30}

# a rank-one pair and its midpoint, as in the benchmark's laminate query
LAMINATE = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])]
LAMINATE_XI = np.diag([0.5, 0.5, 0.0])


def ball(radius=1.0, center=None):
    return CompactSetDescriptor(kind="ball", center=np.zeros((3, 3)) if center is None else center,
                                radius=radius)


def rand_sym(rng, scale=1.0):
    m = rng.standard_normal((3, 3))
    return scale * (m + m.T) / 2


def dist_p(k, xi, p):
    """dist(xi, K)^p: the objective on the Mandel row of the matrix ``xi``."""
    vals, _ = DistanceObjective(k, p)(_sym_to_mandel(np.asarray(xi, dtype=float))[None])
    return float(vals[0])


class TestDistP:
    def test_inside_ball(self):
        assert dist_p(ball(2.0), 0.5 * np.eye(3), 2) == 0.0

    def test_radial_distance(self):
        k = ball(1.0)
        direction = np.eye(3) / np.sqrt(3.0)
        assert dist_p(k, 2.0 * direction, 3) == pytest.approx(1.0, rel=1e-12)

    def test_point_set(self):
        pts = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])]
        k = CompactSetDescriptor(kind="points", points=pts)
        assert dist_p(k, np.diag([1.0, 0, 0]), 2) == 0.0
        got = dist_p(k, np.zeros((3, 3)), 2)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_polytope_matches_brute_force(self):
        # oracle: exact enumeration of every face (KKT solve per vertex subset)
        # plus a dense random-combination sample as an upper-bound sanity check
        import itertools

        from divsym.fields import _sym_to_mandel

        rng = np.random.default_rng(0)
        verts = [rand_sym(rng) for _ in range(5)]
        k = CompactSetDescriptor(kind="polytope", points=verts)
        xi = rand_sym(rng, 2.0)
        got = dist_p(k, xi, 1)

        v6 = np.stack([_sym_to_mandel(v) for v in verts])
        y6 = _sym_to_mandel(xi)
        oracle = np.inf
        for r in range(1, 6):
            for sub in itertools.combinations(range(5), r):
                vs = v6[list(sub)]
                kkt = np.zeros((r + 1, r + 1))
                kkt[:r, :r] = 2 * vs @ vs.T
                kkt[:r, -1] = 1
                kkt[-1, :r] = 1
                rhs = np.concatenate([2 * vs @ y6, [1.0]])
                try:
                    lam = np.linalg.solve(kkt, rhs)[:r]
                except np.linalg.LinAlgError:
                    continue
                if (lam >= -1e-12).all():
                    oracle = min(oracle, np.linalg.norm(vs.T @ lam - y6))
        assert got == pytest.approx(oracle, abs=1e-6)

        sampled = np.linalg.norm(rng.dirichlet(np.ones(5), size=20000) @ v6 - y6, axis=1).min()
        assert got <= sampled + 1e-12

    def test_polytope_interior(self):
        verts = [np.diag([2.0, 0, 0]), np.diag([-2.0, 0, 0]),
                 np.diag([0, 2.0, 0]), np.diag([0, -2.0, 0]), np.eye(3), -np.eye(3)]
        k = CompactSetDescriptor(kind="polytope", points=verts)
        assert dist_p(k, np.zeros((3, 3)), 2) < 1e-20

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            dist_p(ball(), np.eye(3), 0.5)

    @pytest.mark.parametrize("p", [np.nan, np.inf])
    def test_non_finite_p_rejected(self, p):
        with pytest.raises(ValueError):
            dist_p(ball(), np.eye(3), p)


@pytest.mark.parametrize("kind", ["ball", "points", "polytope"])
def test_objective_keeps_batch_axes(kind):
    # a grid of Mandel rows and the same rows flattened give the same values and gradients
    rng = np.random.default_rng(1)
    pts = [rand_sym(rng) for _ in range(3)]
    k = ball(0.5, pts[0]) if kind == "ball" else CompactSetDescriptor(kind=kind, points=pts)
    objective = DistanceObjective(k, 2)
    grid = rng.standard_normal((4, 4, 4, 3, 3))
    grid = _sym_to_mandel(grid + grid.swapaxes(-1, -2))
    vals, grads = objective(grid)
    flat_vals, flat_grads = objective(grid.reshape(-1, 6))
    assert vals.shape == (4, 4, 4) and grads.shape == (4, 4, 4, 6)
    np.testing.assert_array_equal(vals, flat_vals.reshape(4, 4, 4))
    np.testing.assert_array_equal(grads, flat_grads.reshape(4, 4, 4, 6))


@pytest.fixture
def counted(monkeypatch):
    """The names of the objective calls and band projections made, in order."""
    calls = []
    call, project = DistanceObjective.__call__, envelope._band_project

    def counted_call(self, values):
        calls.append("objective")
        return call(self, values)

    def counted_project(values, band):
        calls.append("project")
        return project(values, band)

    monkeypatch.setattr(DistanceObjective, "__call__", counted_call)
    monkeypatch.setattr(envelope, "_band_project", counted_project)
    return calls


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def nearest_point_reference(rows, p, ys):
    """dist^p to the point set ``rows`` and its gradient at the rows ``ys``, nearest by ``np.argmax``."""
    y = np.ascontiguousarray(ys.T)
    scores = rows @ y
    scores -= 0.5 * np.einsum("ij,ij->i", rows, rows)[:, None]
    delta = y - np.take(rows.T, np.argmax(scores, axis=0), axis=1)
    norm = np.sqrt(np.einsum("ij,ij->j", delta, delta))
    dist = np.maximum(norm - 0.0, 0.0)
    slope = p * dist ** (p - 1.0) / np.where(dist > 0, norm, np.inf)
    return dist**p, (delta * slope).T


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**16), st.sampled_from([1, 2, 4]), st.booleans())
def test_nearest_point_matches_argmax(k, seed, p, diagonal):
    # small integer points (diagonal ones make every score exact), some of them
    # repeated; y at midpoints of pairs and at the points ties two scores or more,
    # and the first largest must win as it does under argmax, bit for bit
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2, 3, size=(k, 6)).astype(float)
    if diagonal:
        rows[:, 3:] = 0.0
    rows[rng.integers(k, size=k // 2)] = rows[rng.integers(k, size=k // 2)]
    i, j = rng.integers(k, size=(2, 64))
    ys = np.concatenate([0.5 * (rows[i] + rows[j]), rows, 0.5 * rng.integers(-4, 5, size=(32, 6)),
                         rng.standard_normal((32, 6))])
    objective = DistanceObjective(CompactSetDescriptor(kind="points", points=list(_mandel_to_sym(rows))), p)
    vals, grads = objective(ys)
    want_vals, want_grads = nearest_point_reference(objective.k.rows, p, ys)
    assert_bitwise(vals, want_vals)
    assert_bitwise(grads, want_grads)


class TestEstimate:
    def test_member_zero(self):
        value, _, _ = qsdqc_estimate(ball(1.0), 0.3 * np.eye(3) / np.sqrt(3), 2, BUDGET, seed=1)
        assert value == 0.0

    def test_convex_no_descent(self):
        # convex integrand: Jensen forbids improvement by mean-zero fields
        rng = np.random.default_rng(2)
        for _ in range(3):
            xi = rand_sym(rng)
            xi *= 2.0 / max(np.linalg.norm(xi), 1e-9)
            direct = dist_p(ball(1.0), xi, 2)
            value, _, _ = qsdqc_estimate(ball(1.0), xi, 2, BUDGET, seed=3)
            assert value == pytest.approx(direct, rel=1e-3)

    def test_feasibility_of_best_field(self):
        rng = np.random.default_rng(4)
        xi = rand_sym(rng, 2.0)
        _, f, _ = qsdqc_estimate(ball(0.5), xi, 2, BUDGET, seed=5)
        if f.coeffs:
            assert _div_defect(f) < 1e-12 * max(1.0, f.max_coeff_norm())
            assert (0, 0, 0) not in f.coeffs or np.abs(f.coeff((0, 0, 0))).max() < 1e-12

    def test_tartar_quadratic_no_negative_direction(self):
        # 2|xi|^2 - tr(xi)^2 is div-quasiconvex: per divergence-free mode the
        # quadratic form is a sum of squares, so no admissible field descends.
        # On Mandel rows y it reads 2|y|^2 - (y0 + y1 + y2)^2.
        class Tartar:
            def __call__(self, values):
                tr = values[..., :3].sum(axis=-1)
                vals = 2.0 * (values**2).sum(axis=-1) - tr**2
                grads = 4.0 * values - 2.0 * tr[..., None] * np.array([1.0, 1, 1, 0, 0, 0])
                return vals, grads

        val, best, trace = minimize_over_test_fields(Tartar(), max_freq=1, restarts=6,
                                                     iterations=40, seed=7, init_amplitude=0.5)
        assert val >= -1e-3 * 0.5**2

    @pytest.mark.parametrize("xi, restarts", [(np.zeros((3, 3)), 4), (2.0 * np.eye(3) / np.sqrt(3), 1)])
    def test_restart_zero_best_field_has_no_modes(self, xi, restarts):
        # restart 0 is the zero field; at the ball's centre no value is below 0,
        # and outside it the gradient is constant, so its projection vanishes:
        # no step is accepted and the best field is restart 0's, with no modes
        value, best, trace = qsdqc_estimate(ball(1.0), xi, 2, dict(BUDGET, restarts=restarts), seed=1)
        assert value == trace[0] == dist_p(ball(1.0), xi, 2)
        assert best.coeffs == {}

    def test_restart_zero_is_one_evaluation(self, counted):
        # the zero field's gradient is constant, so its band projection vanishes:
        # restart 0 is one objective call on xi as a single row and projects
        # nothing, and its value is dist^p(xi, K) exactly (at p=1 the grid mean
        # of the 16^3 equal values reads 0.7071067811865478, 2 ulp above it)
        k = CompactSetDescriptor(kind="points", points=LAMINATE)
        for p in (1, 4):
            counted.clear()
            val, best, trace = minimize_over_test_fields(DistanceObjective(k, p), 2, 1, 60, 3,
                                                         xi_offset=_sym_to_mandel(LAMINATE_XI))
            assert counted == ["objective"] and best.coeffs == {}
            assert val == trace[0] == dist_p(k, LAMINATE_XI, p)

    def test_budget_validation(self):
        with pytest.raises(Exception):
            qsdqc_estimate(ball(), np.eye(3), 2, {"max_freq": 0, "restarts": 0, "iterations": 0})

    @pytest.mark.parametrize("budget, seed, message", [({"max_freq": 65}, 0, "exceeds 64"),
                                                       ({"max_freq": 1}, -1, "negative")])
    def test_unseeded_queries_refused_before_the_band(self, budget, seed, message, monkeypatch):
        # stream keys are mode + 64 >= 0 and seeds are SeedSequence words: refused up front
        def refuse(*args):
            raise AssertionError("band built")

        monkeypatch.setattr(envelope, "_band", refuse)
        with pytest.raises(PreconditionError, match=message):
            qsdqc_estimate(ball(), np.eye(3), 2, budget, seed=seed)


@pytest.mark.parametrize("seed, p, score", [(3, 1, 0.20890286296248578), (3, 4, 0.006565673053474353),
                                            (7, 1, 0.2106603811936268), (7, 4, 0.016261850653250764)])
def test_laminate_hull_scores_pinned(seed, p, score, counted):
    # the laminate query at the CLI's budget: restart 0 is one evaluation and
    # each of the nine seeded restarts tries every step, 1 + 9 * (1 + 60) calls
    rep = hull_membership(CompactSetDescriptor(kind="points", points=LAMINATE), LAMINATE_XI, p, DEFAULT_BUDGET,
                          seed=seed)
    assert rep["score"] == pytest.approx(score, rel=1e-12, abs=0)
    assert counted.count("objective") == 550


# K = {10 e1 e1, 10 e2 e2}: every point has trace 10 and xi + phi has mean trace 0, so the
# envelope at xi = 0 is at least (10 / sqrt 3)^p, while dist(0, K)^p = 10^p
BIG_PAIR = CompactSetDescriptor(kind="points", points=[np.diag([10.0, 0, 0]), np.diag([0, 10.0, 0])])


@pytest.mark.filterwarnings("error")
def test_large_p_tolerance_scales_with_the_score(counted):
    # the tolerance is (1e-4 diam)^p: the same as 1e-4 diam at p = 1, and no longer
    # 4e283 at p = 250, where no score of a non-member can fall below it
    assert hull_membership(BIG_PAIR, np.zeros((3, 3)), 1, BUDGET)["tolerance"] == 1e-4 * BIG_PAIR.diameter()
    counted.clear()
    rep = hull_membership(BIG_PAIR, np.zeros((3, 3)), 250, DEFAULT_BUDGET)
    assert rep["member"] is False and rep["score"] >= (10 / np.sqrt(3)) ** 250
    assert rep["tolerance"] == (1e-4 * BIG_PAIR.diameter()) ** 250
    # every seeded start has grid points where dist^p overflows: each restart ends at its
    # start, one evaluation and no projection, and warns of nothing
    assert counted == ["objective"] * DEFAULT_BUDGET["restarts"]


@pytest.mark.filterwarnings("error")
def test_overflowing_query_refused(counted):
    # dist(0, K)^400 = 1e400 is not a float: refused from restart 0's one evaluation
    with pytest.raises(PreconditionError, match="not finite at p = 400"):
        hull_membership(BIG_PAIR, np.zeros((3, 3)), 400, BUDGET)
    assert counted == ["objective"]
    with pytest.raises(PreconditionError, match="tolerance"):
        hull_membership(ball(1e6), np.zeros((3, 3)), 200, BUDGET)


@pytest.mark.filterwarnings("error")
def test_underflowing_query_refused_and_points_of_k_kept():
    # xi = 0.1 I is not in the laminate's hull: every point of K has trace 1 and xi + phi
    # has mean trace 0.3, so by Jensen the envelope is at least (0.7 / sqrt 3)^p > 0; but
    # dist(xi, K)^p = 0.83^(p / 2) reads 0 at p = 1e308, and so would every score
    k = CompactSetDescriptor(kind="points", points=LAMINATE)
    with pytest.raises(PreconditionError, match="underflows to 0 at p = 1e"):
        hull_membership(k, 0.1 * np.eye(3), 1e308, DEFAULT_BUDGET)
    for p in (1, 1e308):  # a point of K is a member at any p
        rep = hull_membership(k, LAMINATE[0], p, BUDGET)
        assert rep["member"] is True and rep["score"] == 0.0


class TestMembership:
    def test_center_member(self):
        rep = hull_membership(ball(1.0), np.zeros((3, 3)), 2, BUDGET, seed=1)
        assert rep["member"] and rep["score"] <= rep["tolerance"]

    def test_outside_convex_non_member(self):
        xi = 2.0 * np.eye(3) / np.sqrt(3)
        rep = hull_membership(ball(1.0), xi, 2, BUDGET, seed=2)
        assert not rep["member"]
        assert rep["score"] == pytest.approx(1.0, rel=1e-3)

    def test_two_point_probe_recorded(self):
        a = np.diag([1.0, 1.0, -2.0])
        k = CompactSetDescriptor(kind="points", points=[a, -a])
        rep = hull_membership(k, np.zeros((3, 3)), 2, BUDGET, seed=3)
        # A - (-A) = 2 diag(1, 1, -2) is nonsingular: no divergence-free
        # laminate joins the two points, so 0 is not in the hull; the score
        # never exceeds the zero field's value dist(0, K)^2 = |A|^2 = 6
        bound = dist_p(k, np.zeros((3, 3)), 2)
        assert bound == pytest.approx(6.0)
        assert rep["member"] is False
        assert 0.0 <= rep["score"] <= bound

    def test_frequency_nesting(self):
        rng = np.random.default_rng(6)
        xi = rand_sym(rng, 1.5)
        vals = []
        for mf in (1, 2):
            budget = dict(BUDGET, max_freq=mf)
            vals.append(qsdqc_estimate(ball(1.0), xi, 2, budget, seed=9)[0])
        assert vals[0] >= vals[1] - 1e-6

    def test_hull_antimonotonicity_on_battery(self):
        rng = np.random.default_rng(8)
        for _ in range(2):
            xi = rand_sym(rng, 0.8)
            member_q = hull_membership(ball(1.0), xi, 2, BUDGET, seed=4)["member"]
            member_p = hull_membership(ball(1.0), xi, 1, BUDGET, seed=4)["member"]
            if member_q:
                assert member_p


class TestDescriptor:
    def test_json_round_trip(self):
        k = ball(1.5, center=np.eye(3))
        back = CompactSetDescriptor.from_json(k.to_json())
        assert back.kind == "ball" and back.radius == 1.5
        k2 = CompactSetDescriptor(kind="points", points=[np.eye(3)])
        back2 = CompactSetDescriptor.from_json(k2.to_json())
        np.testing.assert_array_equal(back2.points[0], np.eye(3))

    def test_diameter(self):
        assert ball(2.0).diameter() == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompactSetDescriptor(kind="points", points=[])

    def test_nearest_point_tie_deterministic(self):
        # at a tie the first point is the nearest one: the gradient points away from it
        pts = [np.diag([1.0, 0, 0]), np.diag([-1.0, 0, 0])]
        k = CompactSetDescriptor(kind="points", points=pts)
        _, grad = DistanceObjective(k, 2)(np.zeros(6))
        np.testing.assert_array_equal(grad, -2.0 * _sym_to_mandel(pts[0]))

    @pytest.mark.parametrize("kind", ["points", "polytope", "ball"])
    def test_asymmetric_matrix_refused(self, kind):
        # the lower triangle is read too: asymmetry above 1e-10 * max(1, largest entry) is refused
        skew = np.zeros((3, 3))
        skew[0, 1] = 5.0
        near = np.diag([1e6, 0.0, 0.0])
        near[0, 1], near[1, 0] = 1.0, 1.0 + 5e-5  # 5e-5 below 1e-10 * 1e6: accepted
        make = (lambda m: ball(1.0, center=m)) if kind == "ball" else (
            lambda m: CompactSetDescriptor(kind=kind, points=[np.eye(3), m]))
        with pytest.raises(ValueError, match="not symmetric"):
            make(skew)
        make(near)
