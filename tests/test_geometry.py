import math
import os

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from hessianlab import candidates, fields, functionals, geometry, pipeline, polar
from hessianlab.calibration import get_constants
from hessianlab.errors import (
    DegenerateDomainError,
    NonConvergenceError,
    PreconditionError,
    UnboundedSublevelError,
)


@pytest.fixture(scope="module")
def disk_quad():
    return candidates.quadratic(np.eye(2), name="quad:iso")


def test_extract_disk_geometry(disk_quad):
    body = geometry.extract_body(disk_quad, 1.0)
    assert np.allclose(np.linalg.norm(body.vertices, axis=1), math.sqrt(2.0), atol=1e-9)
    assert body.volume() == pytest.approx(2.0 * math.pi, abs=1e-4)
    assert body.surface() == pytest.approx(2.0 * math.pi * math.sqrt(2.0), rel=1e-4)
    assert body.vertices_extreme()


def test_extract_ellipse_semiaxes():
    c = candidates.quadratic(np.diag([4.0, 1.0]), name="quad:diag(4,1)")
    body = geometry.extract_body(c, 2.0)
    assert np.max(np.abs(body.vertices[:, 0])) == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(body.vertices[:, 1])) == pytest.approx(2.0, abs=1e-8)


def test_extract_aniso_extents(aniso24):
    body = geometry.extract_body(aniso24, 16.0)
    assert np.max(np.abs(body.vertices[:, 0])) == pytest.approx(4.0, abs=1e-6)
    assert np.max(np.abs(body.vertices[:, 1])) == pytest.approx(2.0, abs=1e-6)


def test_extract_rejects_bad_levels(disk_quad):
    with pytest.raises(PreconditionError):
        geometry.extract_body(disk_quad, -1.0)


@pytest.mark.parametrize(
    "measure",
    [
        lambda f: geometry.extract_body(f, 0.5),
        lambda f: geometry.level_profile(f, [0.25, 0.5]),
        lambda f: functionals.iso_ratio(f, 0.5),
        lambda f: functionals.pogorelov_normalize(f, 2.0),
        pipeline.quadratic_test,
    ],
    ids=["extract_body", "level_profile", "iso_ratio", "pogorelov_normalize", "quadratic_test"],
)
def test_sublevel_measurements_reject_sampled_fields(disk_quad, measure):
    f = fields.sample_candidate(disk_quad, fields.grid_for_candidate(disk_quad, 1.0, 1 / 16), 1.0)
    with pytest.raises(PreconditionError, match="source must be an analytic candidate"):
        measure(f)


def test_extract_unbounded_detection():
    # a tilted plane has unbounded sub-level sets in one direction; emulate
    # with a nearly flat direction via a degenerate-ish quadratic: the probe
    # range guard must trip for genuinely linear growth only, so use a
    # custom candidate built from a linear-in-one-direction function
    from hessianlab.candidates import AnalyticCandidate

    def val(X):
        return X[:, 0] ** 2  # flat along x2: sub-level sets are strips

    def grad(X):
        G = np.zeros_like(X)
        G[:, 0] = 2 * X[:, 0]
        return G

    def hess(X):
        H = np.zeros((X.shape[0], 2, 2))
        H[:, 0, 0] = 2.0
        return H

    strip = AnalyticCandidate("strip", 2, [], val, grad, hess)
    with pytest.raises(UnboundedSublevelError):
        geometry.extract_body(strip, 1.0)
    assert not strip._crossings  # a bisection that raised leaves no memo entry


def test_extract_body_3d_ball():
    c = candidates.quadratic(np.eye(3), name="quad:iso3")
    body = geometry.extract_body(c, 0.5, m_dirs=2562)  # icosphere level 4
    vol = 4.0 / 3.0 * math.pi
    assert body.volume() == pytest.approx(vol, rel=5e-3)
    assert body.surface() == pytest.approx(4.0 * math.pi, rel=5e-3)


TILTED2 = np.array([[1.5, 0.4], [0.4, 0.8]])
TILTED3 = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.2], [0.0, 0.2, 0.5]])


def test_ball_fit_worked_shapes():
    # ball: ratio one
    c = candidates.quadratic(np.eye(2), name="quad:iso")
    fit = geometry.ball_fit(geometry.extract_body(c, 0.5))
    assert fit.gamma == pytest.approx(1.0, abs=1e-3)
    assert np.allclose(fit.center, 0.0, atol=1e-3)
    # ellipse semi-axes (1, 4)
    e = candidates.quadratic(np.diag([2.0, 2.0 / 16.0]), name="quad:e14")
    fit = geometry.ball_fit(geometry.extract_body(e, 1.0))
    assert fit.gamma == pytest.approx(2.0, abs=2e-3)
    # square of side 2
    square = geometry.ConvexBody(
        n=2, vertices=np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    )
    fit = geometry.ball_fit(square)
    assert fit.gamma == pytest.approx(2.0 ** 0.25, abs=1e-6)
    assert fit.verify(square)


def test_ball_fit_containment_certificates():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.normal(size=(30, 2)) @ np.diag(rng.uniform(0.5, 2.0, 2))
        from scipy.spatial import ConvexHull

        hull = ConvexHull(pts)
        body = geometry.ConvexBody(n=2, vertices=pts[hull.vertices])
        fit = geometry.ball_fit(body)
        assert fit.verify(body)


def _random_hulls_and_a_triangle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = rng.normal(size=(40, 3)) @ np.diag(rng.uniform(0.5, 2.0, 3))
        yield geometry.ConvexBody(n=3, vertices=pts)
    yield geometry.ConvexBody(n=2, vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 1.0]]))


def _slsqp_ball_fit_gamma(body):
    """gamma of the Charnes-Cooper program solved by SLSQP with analytic
    Jacobians (ball_fit's former solver), measured at its center."""
    from scipy.optimize import minimize

    n = body.n
    A, b = body.equations[:, :-1], body.equations[:, -1]
    c = body.centroid()
    rho = body.boundary_distance(c)
    V = (body.vertices[body.hull_vertices] - c) / rho
    b = (b + A @ c) / rho
    lin_jac = np.column_stack([-A, -b, np.zeros(b.size)])
    e_z = np.zeros(n + 2)
    e_z[-1] = 1.0

    def gaps(w):
        D = w[n] * V - w[:n]
        lin = -(A @ w[:n] + b * w[n]) - 1.0
        return np.concatenate([lin, w[-1] - np.einsum("ij,ij->i", D, D)])

    def gaps_jac(w):
        D = w[n] * V - w[:n]
        quad_jac = np.column_stack(
            [2.0 * D, -2.0 * np.einsum("ij,ij->i", D, V), np.ones(V.shape[0])]
        )
        return np.vstack([lin_jac, quad_jac])

    w0 = np.concatenate([np.zeros(n), [1.0, np.max(np.einsum("ij,ij->i", V, V))]])
    res = minimize(
        lambda w: w[-1], w0, jac=lambda w: e_z, method="SLSQP",
        constraints=[{"type": "ineq", "fun": gaps, "jac": gaps_jac}],
        options={"ftol": 1e-12},
    )
    x0 = c + rho * res.x[:n] / res.x[n]
    return math.sqrt(body.max_vertex_distance(x0) / body.boundary_distance(x0))


def test_ball_fit_no_worse_than_slsqp():
    rng = np.random.default_rng(0)
    planar = [
        geometry.ConvexBody(n=2, vertices=rng.normal(size=(30, 2)) * rng.uniform(0.5, 2.0, 2))
        for _ in range(20)
    ]
    aniso = candidates.candidate_from_spec("aniso:c=1,1;p=2,4")
    levels = [
        geometry.extract_body(aniso, float(t), m_dirs=360) for t in np.geomspace(1e2, 1e6, 9)
    ]
    for i, body in enumerate(list(_random_hulls_and_a_triangle()) + planar + levels):
        fit = geometry.ball_fit(body)
        assert fit.verify(body), i
        assert fit.gamma <= _slsqp_ball_fit_gamma(body) * (1.0 + 1e-12), i


def test_ball_fit_is_locally_optimal():
    # no step of 1e-6 * diameter along the axes or diagonals lowers the ratio
    import itertools

    for i, body in enumerate(_random_hulls_and_a_triangle()):
        fit = geometry.ball_fit(body)
        assert fit.verify(body), i
        ratio = fit.gamma**2
        step = 1e-6 * body.diameter()
        for d in itertools.product((-1.0, 0.0, 1.0), repeat=body.n):
            if any(d):
                x = fit.center + step * np.asarray(d) / np.linalg.norm(d)
                moved = body.max_vertex_distance(x) / body.boundary_distance(x)
                assert moved >= ratio * (1.0 - 1e-9), (i, d)


def test_convex_body_rejects_flat_clouds():
    rng = np.random.default_rng(6)
    flat = np.column_stack([rng.normal(size=(30, 2)), np.zeros(30)])
    with pytest.raises(DegenerateDomainError):
        geometry.ConvexBody(n=3, vertices=flat)
    with pytest.raises(DegenerateDomainError):
        geometry.ConvexBody(n=2, vertices=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    # area 5e-14, below 1e-12 times the squared bounding-box diagonal
    with pytest.raises(DegenerateDomainError):
        geometry.ConvexBody(n=2, vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-13]]))


def _planar_clouds():
    rng = np.random.default_rng(11)
    for m in (3, 4, 10, 50, 400):
        yield f"gauss-{m}", rng.normal(size=(m, 2)) @ np.diag(rng.uniform(0.3, 3.0, 2))
    P = rng.normal(size=(60, 2))
    yield "duplicates", np.vstack([P, P[::3], P[:5]])
    # runs of collinear points: every integer point on the boundary of a
    # square, and points inside it
    k = np.arange(6.0)
    edges = [
        np.column_stack(xy) for xy in ((k, 0 * k), (5 + 0 * k, k), (k, 5 + 0 * k), (0 * k, k))
    ]
    yield "collinear", np.vstack(edges + [rng.uniform(0.5, 4.5, size=(20, 2))])
    ellipse = candidates.quadratic(np.diag([4.0, 0.25]), name="quad:diag(4,0.25)")
    yield "ray-shot", geometry.extract_body(ellipse, 1.0, m_dirs=720).vertices


PLANAR_CLOUDS = dict(_planar_clouds())


@pytest.mark.parametrize("label", list(PLANAR_CLOUDS))
def test_planar_hull_matches_qhull(label):
    from scipy.spatial import ConvexHull

    P = PLANAR_CLOUDS[label]
    body = geometry.ConvexBody(n=2, vertices=P)
    ref = ConvexHull(P)
    assert {tuple(p) for p in P[body.hull_vertices]} == {tuple(p) for p in P[ref.vertices]}
    assert body.volume() == pytest.approx(ref.volume, rel=1e-13, abs=0)
    assert body.surface() == pytest.approx(ref.area, rel=1e-13, abs=0)
    # one unit outward normal per edge, each edge through two hull vertices
    A, b = body.equations[:, :-1], body.equations[:, -1]
    assert len(b) == len(body.hull_vertices)
    assert np.allclose(np.linalg.norm(A, axis=1), 1.0, rtol=0, atol=1e-15)
    side = P @ A.T + b
    assert np.max(side) <= 1e-13 * body.diameter()
    assert np.all(np.sum(np.abs(side) <= 1e-13 * body.diameter(), axis=0) >= 2)


def test_john_fit_ball_and_ellipse():
    c = candidates.quadratic(0.25 * np.eye(2), name="quad:wide")  # radius sqrt(8)
    body = geometry.extract_body(c, 1.0)
    ell = geometry.john_fit(body.vertices)
    R = math.sqrt(8.0)
    assert np.allclose(ell.mu, 1.0, atol=1e-3)
    assert ell.R == pytest.approx(R, rel=1e-3)
    # ellipse with semi-axes (a, 1/a): map eigenvalues are (1/a, a)
    a = 2.0
    e = candidates.quadratic(np.diag([2.0 / a**2, 2.0 * a**2]), name="quad:a")
    ell = geometry.john_fit(geometry.extract_body(e, 1.0).vertices)
    assert ell.mu[0] == pytest.approx(1.0 / a, rel=1e-3)
    assert ell.mu[1] == pytest.approx(a, rel=1e-3)
    assert abs(np.linalg.det(ell.A) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "spec, t, m_dirs",
    [("aniso:c=1,1;p=2,4", 1e4, 4000), ("aniso:c=1,1,1;p=2,2,4", 100.0, None)],
    ids=["2d-4000", "3d-10242"],
)
def test_john_fit_contains_every_point(spec, t, m_dirs):
    # clouds larger than any subsample the fit could take
    V = geometry.extract_body(candidates.candidate_from_spec(spec), t, m_dirs=m_dirs).vertices
    assert V.shape[0] >= 4000
    ell = geometry.john_fit(V)
    Y = (V - ell.center) @ ell.axes / ell.semi
    assert np.max(np.sum(Y**2, axis=1)) <= 1.0 + 1e-12


def test_john_fit_certificate_and_optimality():
    rng = np.random.default_rng(1)
    from scipy.spatial import ConvexHull

    for _ in range(10):
        pts = rng.normal(size=(25, 2)) @ np.diag(rng.uniform(0.5, 3.0, 2))
        hull = ConvexHull(pts)
        body = geometry.ConvexBody(n=2, vertices=pts[hull.vertices])
        ell = geometry.john_fit(body.vertices)
        assert ell.verify(body)
        # shrinking the enclosing ellipsoid must expose at least one vertex
        Y = (body.vertices - ell.center) @ ell.A.T
        r = np.linalg.norm(Y, axis=1)
        assert np.max(r) > ell.R * (1.0 - 1e-4)


def _mvee_reference(points, tol, max_iters=200_000):
    """Khachiyan's barycentric ascent with away steps and a fresh inverse of
    the moment matrix at every step, stopped at a gap of tol."""
    P = np.asarray(points, dtype=float)
    N, d = P.shape
    Q = np.column_stack([P, np.ones(N)])
    u = np.full(N, 1.0 / N)
    dp1 = d + 1
    for _ in range(max_iters):
        V = Q.T @ (Q * u[:, None])
        Vinv = np.linalg.inv(V)
        M = np.einsum("ij,jk,ik->i", Q, Vinv, Q)
        j_add = int(np.argmax(M))
        gap = M[j_add] / dp1 - 1.0
        if gap <= tol:
            break
        sup = u > 1e-12
        j_away = int(np.argmin(np.where(sup, M, np.inf)))
        kappa_add = (M[j_add] - dp1) / (dp1 * (M[j_add] - 1.0))
        kappa_away = min(
            (dp1 - M[j_away]) / (dp1 * (M[j_away] - 1.0))
            if M[j_away] > 1.0 + 1e-14
            else np.inf,
            u[j_away] / (1.0 - u[j_away]) if u[j_away] < 1.0 else np.inf,
        )
        if kappa_add * (M[j_add] - dp1) >= kappa_away * (dp1 - M[j_away]):
            u *= 1.0 - kappa_add
            u[j_add] += kappa_add
        else:
            u *= 1.0 + kappa_away
            u[j_away] -= kappa_away
        u = np.maximum(u, 0.0)
        u /= u.sum()
    else:
        raise AssertionError("reference ascent did not converge")
    c = u @ P
    S = P.T @ (P * u[:, None]) - np.outer(c, c)
    E = np.linalg.inv(S) / d
    return 0.5 * (E + E.T), c


def _mvee_clouds():
    # the nine bodies analyze fits for aniso:c=1,1;p=2,4 at CLI defaults,
    # and seeded 3D Gaussian clouds
    aniso = candidates.candidate_from_spec("aniso:c=1,1;p=2,4")
    for t in np.geomspace(1e2, 1e6, 9):
        yield f"aniso-t{t:g}", geometry.extract_body(aniso, float(t), m_dirs=360).vertices
    for seed in range(5):
        rng = np.random.default_rng(seed)
        yield f"gauss3d-{seed}", rng.normal(size=(300, 3)) @ np.diag(rng.uniform(0.5, 3.0, 3))


def _fresh_gap(P, E, c):
    """Optimality gap max_i M_i / (d+1) - 1 of a returned fit, with the
    leverages recomputed from scratch: q_i' V^-1 q_i = d (x_i - c)' E (x_i - c) + 1."""
    d = P.shape[1]
    Y = P - c
    M = d * np.einsum("ij,jk,ik->i", Y, E, Y) + 1.0
    return np.max(M) / (d + 1) - 1.0


def test_mvee_matches_full_inverse_reference():
    for label, P in _mvee_clouds():
        E, c = geometry.mvee(P)
        E_ref, _ = _mvee_reference(P, tol=1e-11)
        # the reference stops at a gap of 1e-11, so E agrees at that scale
        assert np.linalg.norm(E - E_ref) <= 1e-8 * np.linalg.norm(E_ref), label
        assert abs(np.linalg.slogdet(E)[1] - np.linalg.slogdet(E_ref)[1]) <= 1e-12, label
        assert _fresh_gap(P, E, c) <= 1e-12, label


def test_mvee_converges_on_near_round_polygons():
    # five 120-gons of the recentred pownorm:c=1,p=1.5,n=2 that
    # recenter_invariance fits at t_points=12, m_dirs=120, gamma_points=3,
    # t_max=1e5; Khachiyan's ascent stalled on them at gaps of 4.8e-6 to 9.5e-6
    clouds = np.load(os.path.join(os.path.dirname(__file__), "data", "mvee_stall_clouds.npz"))
    for i, P in enumerate(clouds["clouds"]):
        E, c = geometry.mvee(P)
        assert _fresh_gap(P, E, c) <= 1e-12, i


def test_mvee_rejects_a_flat_cloud():
    with pytest.raises(NonConvergenceError):
        geometry.mvee(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))


def test_radial_crossings_memo_is_read_only_and_repeatable():
    c = candidates.aniso_sum([1.0, 1.0], [2.0, 4.0])
    dirs = polar.directions_2d(64)
    first = polar.radial_crossings(c, 10.0, dirs)
    again = polar.radial_crossings(c, 10.0, dirs.copy())
    assert not first.flags.writeable and not again.flags.writeable
    assert again.tobytes() == first.tobytes()
    with pytest.raises(ValueError):
        first[0] = 0.0
    uncached = candidates.aniso_sum([1.0, 1.0], [2.0, 4.0])
    assert polar.radial_crossings(uncached, 10.0, dirs).tobytes() == first.tobytes()
    # one entry per exact level and direction set
    polar.radial_crossings(c, np.nextafter(10.0, 11.0), dirs)
    polar.radial_crossings(c, 10.0, dirs[:32])
    assert np.array_equal(polar.radial_crossings(c, 10.0, dirs[::-1]), first[::-1])
    assert sum(len(levels) for levels in c._crossings.values()) == 4
    q, wq = polar._gl_nodes()
    assert polar._gl_nodes()[0] is q and not q.flags.writeable and not wq.flags.writeable
    V = polar.sphere_mesh(2)
    assert polar.sphere_mesh(2) is V and not V.flags.writeable and V.shape == (162, 3)


def _bisect_90(below, hi):
    """polar.bisect without its early exit: all 90 halvings."""
    lo = np.zeros_like(hi)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        ok = below(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return 0.5 * (lo + hi)


def test_bisect_early_exit_matches_every_halving():
    rng = np.random.default_rng(3)
    hi = rng.uniform(0.5, 4.0, 500)
    # crossings in (0, hi), some at hi itself and at a value on the bracket grid
    root = np.concatenate([hi[:400] * rng.uniform(0.0, 1.0, 400), hi[400:450], 0.5 * hi[450:]])
    calls = []

    def below(r):
        calls.append(1)
        return r < root

    got = polar.bisect(below, hi)
    assert got.tobytes() == _bisect_90(lambda r: r < root, hi).tobytes()
    assert len(calls) < 90


def test_radial_crossings_memo_not_shared_with_derived_candidates():
    base = candidates.aniso_sum([1.0, 1.0], [2.0, 4.0])
    dirs = polar.directions_2d(64)
    radii = polar.radial_crossings(base, 4.0, dirs)
    for derived in (candidates.rescaled(base, 9.0), candidates.shifted(base, [0.3, -0.2])):
        assert not derived._crossings
        assert not np.array_equal(polar.radial_crossings(derived, 4.0, dirs), radii)
        assert [len(levels) for levels in derived._crossings.values()] == [1]
    assert [len(levels) for levels in base._crossings.values()] == [1]


def test_john_vs_ball_cross_validation():
    rng = np.random.default_rng(2)
    from scipy.spatial import ConvexHull

    C = get_constants()["john_gamma_cross_C"]["2"]
    for _ in range(100):
        m = rng.integers(5, 14)
        pts = rng.normal(size=(m, 2)) @ np.diag(rng.uniform(0.4, 3.0, 2))
        try:
            hull = ConvexHull(pts)
        except Exception:
            continue
        body = geometry.ConvexBody(n=2, vertices=pts[hull.vertices])
        g = geometry.ball_fit(body).gamma
        asp = geometry.john_fit(body.vertices).aspect()
        assert g <= C * asp
        assert asp <= C * g


def test_level_profile_disk(disk_quad):
    levels = np.linspace(0.05, 1.0, 20)
    prof = geometry.level_profile(disk_quad, levels)
    assert np.allclose(prof.mu, 2.0 * math.pi * levels, rtol=1e-3)
    assert np.allclose(prof.nu, 2.0 * math.pi * np.sqrt(2.0 * levels), rtol=1e-3)


def test_profile_cone_bound_and_scaling(disk_quad, aniso24, pow32):
    for cand in (disk_quad, aniso24, pow32):
        levels = np.linspace(0.1, 2.0, 16)
        prof = geometry.level_profile(cand, levels, m_dirs=240)
        for s in (0.2, 0.5, 1.0, 1.7):
            ok, slack = geometry.cone_lower_bound(prof, s, 2.0, tol=1e-3)
            assert ok
    # quadratic sub-level sets are homothetic: mu scales exactly like the
    # (n/2)-power of the level
    prof = geometry.level_profile(disk_quad, np.linspace(0.25, 1.0, 7))
    ratio = prof.mu_at(0.5) / prof.mu_at(1.0)
    assert ratio == pytest.approx(0.5 ** (2 / 2), rel=1e-3)
    ok, _ = geometry.cone_lower_bound(prof, 0.5, 1.0)
    assert ok


def test_mean_value_level_contracts():
    # constant boundary measure ties to the midpoint
    prof = geometry.LevelProfile(
        levels=np.linspace(0.0, 1.0, 11), mu=np.linspace(0.1, 1.0, 11),
        nu=np.full(11, 3.3),
    )
    assert geometry.mean_value_level(prof, 1 / 3, 1 / 2) == pytest.approx(5 / 12)
    # linear boundary measure crosses its average at the interval midpoint
    prof = geometry.LevelProfile(
        levels=np.linspace(0.0, 1.0, 201), mu=np.linspace(0.1, 1.0, 201),
        nu=np.linspace(0.0, 1.0, 201),
    )
    s = geometry.mean_value_level(prof, 1 / 3, 1 / 2)
    assert s == pytest.approx(5 / 12, abs=1e-6)


def _random_profile():
    rng = np.random.default_rng(3)
    levels = np.sort(rng.uniform(0.0, 1.0, 40))
    nu = rng.uniform(1.0, 2.0, 40)
    return geometry.LevelProfile(levels=levels, mu=np.cumsum(nu), nu=nu)


def _knot_trapezoid(prof, a, b):
    inner = [s for s in prof.levels if a < s < b]
    s = [a, *inner, b]
    f = [prof.nu_at(x) for x in s]
    return sum((s[i + 1] - s[i]) * (f[i] + f[i + 1]) / 2 for i in range(len(s) - 1))


def test_integrate_nu_is_the_exact_knot_trapezoid():
    prof = _random_profile()
    for a, b in [(0.3, 0.7), (1 / 3, 1 / 2), (prof.levels[2], prof.levels[30])]:
        assert prof.integrate_nu(a, b) == pytest.approx(_knot_trapezoid(prof, a, b), rel=1e-14)


def test_mean_value_level_is_exact_on_a_random_profile():
    prof = _random_profile()
    a, b = 0.3, 0.7
    s = geometry.mean_value_level(prof, a, b)
    assert a <= s <= b
    assert prof.nu_at(s) * (b - a) == pytest.approx(_knot_trapezoid(prof, a, b), rel=1e-14)


def test_mean_value_level_defining_identity(disk_quad):
    levels = np.linspace(0.01, 1.0, 60)
    prof = geometry.level_profile(disk_quad, levels, m_dirs=240)
    a, b = 1 / 3, 1 / 2
    s = geometry.mean_value_level(prof, a, b)
    lhs = prof.nu_at(s) * (b - a)
    rhs = prof.integrate_nu(a, b)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_coarea_cross_check_corpus():
    corpus = candidates.default_corpus(2)
    for cand in corpus:
        t = 1.0
        import hessianlab.polar as polar

        num = polar.integrate_sublevel(
            cand, t, lambda X: np.linalg.norm(cand.grad(X), axis=1), m_dirs=360
        )
        levels = np.linspace(t / 400.0, t, 120)
        prof = geometry.level_profile(cand, levels, m_dirs=360)
        via_profile = np.trapezoid(prof.nu, prof.levels) + prof.nu[0] * prof.levels[0] * 2 / 3
        assert num == pytest.approx(via_profile, rel=1e-2)


def test_layer_cake_volume_identity_corpus():
    corpus = candidates.default_corpus(2)
    n = 2
    for cand in corpus:
        import hessianlab.polar as polar

        lhs = polar.integrate_sublevel(
            cand, 1.0, lambda X: np.abs(1.0 - cand.value(X)) ** (n / (n - 1.0)),
            m_dirs=360,
        )
        levels = np.linspace(1e-3, 1.0, 160)
        prof = geometry.level_profile(cand, levels, m_dirs=360)
        integ = np.trapezoid((1.0 - prof.levels) ** (1.0 / (n - 1.0)) * prof.mu, prof.levels)
        rhs = n / (n - 1.0) * integ
        assert lhs == pytest.approx(rhs, rel=1e-2)


def test_ellipsoid_surface_two_sided_bound():
    # exact ellipse perimeter via the complete elliptic integral oracle
    C = get_constants()["ellipsoid_surface_bound_C"]["2"]
    rng = np.random.default_rng(3)
    for _ in range(40):
        mu = np.sort(rng.uniform(0.3, 3.0, 2))
        mu = mu / math.sqrt(mu[0] * mu[1])  # det-one map
        R = rng.uniform(0.5, 4.0)
        a, b = R / mu[0], R / mu[1]  # semi-axes of the mapped-back ball
        a, b = max(a, b), min(a, b)
        ecc2 = 1.0 - (b / a) ** 2
        perimeter = 4.0 * a * scipy.special.ellipe(ecc2)
        s1 = (1.0 / mu[0] + 1.0 / mu[1]) * R
        assert perimeter <= C * s1
        assert perimeter >= s1 / C


def test_normal_map_identity_disk():
    c = candidates.quadratic(np.eye(2), name="quad:iso")
    g = fields.grid_for_candidate(c, level=1.0, h=1 / 64)
    f = fields.sample_candidate(c, g, 1.0)
    nm = geometry.normal_map_area(f)
    fw = geometry.forward_image_area(f)
    assert nm == pytest.approx(2.0 * math.pi, rel=1e-2)
    assert fw == pytest.approx(2.0 * math.pi, rel=1e-2)
    assert nm == pytest.approx(fw, rel=1e-2)


def test_normal_map_linear_gradient_map():
    A = np.diag([2.0, 0.5])
    c = candidates.quadratic(A, name="quad:diag(2,0.5)")
    g = fields.grid_for_candidate(c, level=1.0, h=1 / 64)
    f = fields.sample_candidate(c, g, 1.0)
    area = f.mask.stencils().weights.sum()
    nm = geometry.normal_map_area(f)
    fw = geometry.forward_image_area(f)
    assert nm == pytest.approx(np.linalg.det(A) * area, rel=1e-2)
    assert fw == pytest.approx(nm, rel=1e-2)


def test_forward_image_area_builds_one_hessian_stack(iso_quad, hessian_stack_calls):
    # the convexity check and the cut extrapolations read one stack
    g = fields.grid_for_candidate(iso_quad, level=1.0, h=1 / 24)
    f = fields.sample_candidate(iso_quad, g, 1.0)
    assert geometry.forward_image_area(f) == pytest.approx(2.0 * math.pi, rel=1e-2)
    assert len(hessian_stack_calls) == 1


def test_normal_map_rejects_affine():
    c = candidates.quadratic(np.eye(2), name="quad:iso")
    g = fields.grid_for_candidate(c, level=1.0, h=1 / 24)
    f = fields.sample_candidate(c, g, 1.0)
    X = f.mask.inside_coords()
    from hessianlab.errors import AdmissibilityError

    aff = fields.ScalarField(f.mask, 0.1 * X[:, 0] + 0.05, f.level)
    with pytest.raises(AdmissibilityError):
        geometry.normal_map_area(aff)


def test_icosphere_level_from_direction_count():
    # level s has 10 * 4**s + 2 vertices; the default and the cap are 5
    counts = [len(polar.directions(3, m)) for m in (1, 12, 13, 162, 163, 360)]
    assert counts == [12, 12, 42, 162, 642, 642]
    assert len(polar.directions(3, 2562)) == 2562
    assert len(polar.directions(3, 10**6)) == len(polar.directions(3)) == 10242
    assert polar.directions(2).shape == (720, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: candidates.aniso_sum([1.0] * 4, [2.0] * 4),
        lambda: candidates.power_norm(1.0, 1.5, 4),
        lambda: candidates.quadratic(np.eye(1)),
    ],
    ids=["aniso-n4", "pownorm-n4", "quad-n1"],
)
def test_candidates_reject_dimensions_other_than_2_and_3(build):
    # polar probing and the hull geometry work in the plane and in space only
    with pytest.raises(PreconditionError, match="not 2 or 3"):
        build()


def test_quad_matrix_spec_matches_diag_spec():
    # the README's two spellings of one quadratic
    full = candidates.candidate_from_spec("quad:[[2,0],[0,0.5]]")
    diag = candidates.candidate_from_spec("quad:diag(2,0.5)")
    X = np.random.default_rng(2).uniform(-2, 2, size=(40, 2))
    assert np.array_equal(full.value(X), diag.value(X))
    assert np.array_equal(full.grad(X), diag.grad(X))
    assert np.array_equal(full.hess(X), diag.hess(X))


def test_rescaled_hessian_is_the_base_hessian_at_the_scaled_point(aniso24):
    # the Hessian of u(sqrt(t0) x)/t0 is D2u(sqrt(t0) x)
    t0, eps = 9.0, 1e-5
    scaled = candidates.rescaled(aniso24, t0)
    X = np.random.default_rng(3).uniform(-1, 1, size=(20, 2))
    H = scaled.hess(X)
    assert np.array_equal(H, aniso24.hess(math.sqrt(t0) * X))
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd = (scaled.grad(X + e) - scaled.grad(X - e)) / (2.0 * eps)
        assert np.max(np.abs(H[:, :, j] - fd)) <= 1e-6 * np.max(np.abs(H))
