import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import ndimage
import scipy.sparse.linalg as spla

from hessianlab import candidates, cli, fields, geometry, solver
from hessianlab.errors import NumericError, PreconditionError
from hessianlab.symm import esym_table

from conftest import ma_exact, quotient_exact


def test_poisson_disk_error_bound(poisson_disk_64):
    rep = poisson_disk_64
    assert rep.converged
    assert rep.residual_max <= 1e-9
    X = rep.problem.mask.inside_coords()
    exact = (np.sum(X**2, axis=1) - 1.0) / 4.0 + 1.0
    err = np.max(np.abs(rep.field.values - exact))
    assert err <= 1.2 * rep.problem.mask.grid.h ** 2


def test_ma_ellipse_exactness(ma_ellipse_64):
    rep = ma_ellipse_64
    assert rep.converged
    assert rep.residual_max <= 1e-8
    assert rep.admissibility_margin > 0
    X = rep.problem.mask.inside_coords()
    err = np.max(np.abs(rep.field.values - ma_exact(2.0, X)))
    assert err <= 5e-3


def test_quotient_ellipse_exactness(quotient_ellipse_64):
    rep = quotient_ellipse_64
    assert rep.converged
    assert rep.residual_max <= 1e-8
    lam = np.array([5.0, 1.25])
    X = rep.problem.mask.inside_coords()
    err = np.max(np.abs(rep.field.values - quotient_exact(lam, X)))
    assert err <= 5e-3


def test_quadratic_reproduction_order():
    errs = {}
    for h in (1 / 24, 1 / 48):
        mask = fields.mask_from_ellipse([1.0, 2.0], h=h)
        rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
        assert rep.converged and rep.residual_max <= 1e-8
        X = mask.inside_coords()
        errs[h] = np.max(np.abs(rep.field.values - ma_exact(2.0, X)))
    order = math.log2(errs[1 / 24] / errs[1 / 48])
    assert 1.8 <= order <= 2.2


def test_residual_history_monotone_after_acceptance(ma_ellipse_64):
    hist = ma_ellipse_64.residual_history
    # damped acceptance: the norm the solver controls never increases by
    # more than the line-search slack between accepted iterates
    assert hist[-1] <= 1e-9
    assert hist[-1] <= hist[0]


def test_solver_resolution_precondition():
    mask = fields.mask_from_ellipse([1.0, 1.0], h=1 / 8)
    with pytest.raises(PreconditionError, match="fewer than 33 nodes"):
        solver.DirichletProblem(mask=mask, k=1, l=0)


def test_solver_nonconvergence_report():
    mask = fields.mask_from_ellipse([1.0, 2.0], h=1 / 40)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0, max_iters=1))
    assert not rep.converged
    assert rep.newton_iters == 1


def test_poisson_solve_builds_one_hessian_stack(hessian_stack_calls):
    # k = 1: the trace start is the discrete solution, so the solve takes no
    # Newton step, and the start's blend test, its residual and the report
    # read one Hessian stack
    mask = fields.mask_from_ellipse([1.0, 1.0], h=1 / 24)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=1, l=0))
    assert rep.converged and rep.newton_iters == 0
    assert len(hessian_stack_calls) == 1


def test_newton_solve_builds_one_hessian_stack_per_iterate(hessian_stack_calls):
    # 4 full Newton steps from an admissible trace start: one stack for the
    # start and one per accepted trial; the Jacobian reads the stack of the
    # iterate it linearizes at
    mask = fields.mask_from_ellipse([1.0, 2.0], h=1 / 32)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
    assert rep.converged and rep.newton_iters == 4
    assert len(hessian_stack_calls) == 5


def _central_difference_jacobian(residual, u, step=1e-7):
    """dF/du column by column from central differences of the residual."""
    cols = []
    for j in range(u.size):
        e = np.zeros_like(u)
        e[j] = step
        cols.append((residual(u + e)[0] - residual(u - e)[0]) / (2.0 * step))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize(
    "n,k,l,h",
    [(2, 2, 0, 1 / 10), (2, 2, 1, 1 / 10), (3, 3, 1, 1 / 5)],
    ids=["ma2d", "quotient2d", "quotient3d"],
)
def test_jacobian_matches_central_differences(n, k, l, h):
    # q = x'Ax/2 with off-diagonal A (so the mixed terms count), sampled on
    # {q < 1}; u = q + (q - 1)^2 / 5 keeps the Dirichlet data and is convex
    # with a Hessian that varies from node to node, and S_k / S_l of it
    # ranges well away from 1 (so the log form counts)
    A = np.full((n, n), 0.6) + np.diag(np.arange(n, 0, -1) + 0.5)
    c = candidates.quadratic(A)
    f = fields.sample_candidate(c, fields.grid_for_candidate(c, 1.0, h), 1.0)
    st = f.mask.stencils()
    q = f.values
    u = q + 0.2 * (q - 1.0) ** 2
    residual, jacobian = solver._equations(st, k, l, 2.0)
    # an admissible iterate: S_1..S_k positive on every equation row
    _, T, H = residual(u)
    assert np.min(T[~st.is_closure, 1 : k + 1]) > 0
    J = jacobian(H).toarray()
    J_fd = _central_difference_jacobian(residual, u)
    assert np.max(np.abs(J - J_fd)) <= 1e-6 * np.max(np.abs(J))


def test_barrier_construction_worked():
    # isotropic: Hessian is the identity over the normalizer
    b = solver.EllipsoidBarrier(center=np.zeros(2), mu=[1.0, 1.0], R=1.0, sign="upper", k=2)
    assert np.allclose(b.hessian, np.eye(2), atol=1e-12)
    # n=3, k=2 isotropic: Hessian 1/sqrt(3) I, S_2 = 1
    b3 = solver.EllipsoidBarrier(
        center=np.zeros(3), mu=[1.0, 1.0, 1.0], R=1.0, sign="upper", k=2
    )
    assert np.allclose(b3.hessian, np.eye(3) / math.sqrt(3.0), atol=1e-12)
    T = esym_table(np.linalg.eigvalsh(b3.hessian))
    assert T[2] == pytest.approx(1.0, abs=1e-12)


def test_barrier_quotient_normalization():
    b = solver.EllipsoidBarrier(
        center=np.zeros(2), mu=[2.0, 0.5], R=1.5, sign="lower", k=2, l=1
    )
    lam = np.linalg.eigvalsh(b.hessian)
    T = esym_table(lam)
    assert T[2] / T[1] == pytest.approx(1.0, abs=1e-12)


def test_comparison_check_disk_equalities(poisson_disk_64):
    rep = poisson_disk_64
    upper, lower = solver.barrier_pair_for_report(rep)
    h = rep.problem.mask.grid.h
    cu = solver.comparison_check(rep, upper)
    cl = solver.comparison_check(rep, lower)
    assert cu["max_violation"] <= 5.0 * h**2
    assert cl["max_violation"] <= 5.0 * h**2
    # the disk is the equality case of the radius sandwich
    assert abs(cu["scalar_slack"]) <= 20.0 * h**2
    assert abs(cl["scalar_slack"]) <= 20.0 * h**2


def test_comparison_check_exact_quadratic(ma_ellipse_64):
    rep = ma_ellipse_64
    upper, lower = solver.barrier_pair_for_report(rep)
    h = rep.problem.mask.grid.h
    for b in (upper, lower):
        chk = solver.comparison_check(rep, b)
        assert chk["max_violation"] <= 5.0 * h**2
        assert chk["scalar_slack"] >= -20.0 * h**2


def test_comparison_violation_refines():
    viols = []
    for h in (1 / 24, 1 / 48):
        mask = fields.mask_from_ellipse([1.0, 2.0], h=h)
        rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
        up, _ = solver.barrier_pair_for_report(rep)
        viols.append(solver.comparison_check(rep, up)["max_violation"])
    assert viols[1] <= viols[0] / 2.5  # roughly second order


def test_barrier_pair_reuses_the_solve_fit(monkeypatch):
    calls = []
    john_fit = geometry.john_fit

    def counted(points):
        calls.append(points)
        return john_fit(points)

    monkeypatch.setattr(geometry, "john_fit", counted)
    mask = fields.mask_from_ellipse([1.0, 1.5], h=1 / 24)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
    solver.barrier_pair_for_report(rep)
    assert len(calls) == 1


def test_radius_estimate_disk(poisson_disk_64):
    body = geometry.body_from_mask(poisson_disk_64.problem.mask)
    fit = geometry.ball_fit(body)
    chk = solver.radius_estimate_check(poisson_disk_64, fit)
    assert chk["coeff"] == pytest.approx(2.0)
    assert chk["passed"] and chk["passed_normalized"]
    assert chk["R_observed"] == pytest.approx(1.0, abs=1e-3)
    # normalized radius saturates the bound on the disk
    assert chk["R_normalized"] == pytest.approx(chk["bound"], rel=2e-2)


def test_radius_estimate_ma(ma_ellipse_64):
    body = geometry.body_from_mask(ma_ellipse_64.problem.mask)
    fit = geometry.ball_fit(body)
    chk = solver.radius_estimate_check(ma_ellipse_64, fit)
    assert chk["coeff"] == pytest.approx(math.sqrt(2.0))
    assert chk["passed"] and chk["passed_normalized"]


def test_admissibility_margins_reported(ma_ellipse_64):
    # one margin per node class; the full and collar rows solve the
    # equation, so their spectra lie in the cone, while the closure rows
    # interpolate the boundary data and need not
    rep = ma_ellipse_64
    st = rep.problem.mask.stencils()
    T = esym_table(np.linalg.eigvalsh(st.hessian_stack(rep.field.values)))
    for margin, rows in [
        (rep.admissibility_margin, st.is_full),
        (rep.collar_margin, st.is_collar),
        (rep.closure_margin, st.is_closure),
    ]:
        assert margin == np.min(T[rows, 1:3])
    assert rep.admissibility_margin > 0
    assert rep.collar_margin > 0


def test_converged_quotient_keeps_every_equation_row_in_the_cone():
    # S2/S1 = 1 on the (0.5, 2) ellipse at h = 1/32: a solve that kept only
    # the complete-stencil rows in the cone reported convergence here with
    # collar rows where S1 and S2 are both negative (collar_margin -9.58),
    # whose log-floored residual reads 0
    mask = fields.mask_from_ellipse([0.5, 2.0], h=1 / 32)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=1))
    assert rep.converged
    assert rep.admissibility_margin > 0
    assert rep.collar_margin > 0


def test_problem_spec_roundtrip():
    spec = {
        "n": 2, "k": 2, "l": 0, "h": 1 / 24,
        "boundary_value": 1.0, "rhs": 1.0, "tol": 1e-9,
        "domain": {"type": "ellipse", "params": {"semiaxes": [1.0, 2.0]}},
    }
    problem = cli.problem_from_spec(spec)
    assert problem.k == 2 and problem.l == 0
    assert problem.tol == 1e-9 and problem.max_iters == 100
    # the resolution floor is a property of the problem
    assert problem.min_resolution == 33
    assert cli.problem_from_spec(dict(spec, min_resolution=16)).min_resolution == 16
    bad = dict(spec, k=1, l=1)
    with pytest.raises(PreconditionError):
        cli.problem_from_spec(bad)


def test_problem_spec_candidate_domain():
    spec = {
        "n": 2, "k": 1, "l": 0, "h": 1 / 16,
        "domain": {
            "type": "candidate_level",
            "params": {"candidate": "quad:diag(1,1)", "level": 1.0},
        },
    }
    problem = cli.problem_from_spec(spec)
    assert problem.mask.inside_count() > 100


def test_solve_polygon_domain():
    # regular octagon: curved-corner-free convex domain
    ang = np.pi / 8 + np.linspace(0, 2 * np.pi, 8, endpoint=False)
    verts = 1.2 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    mask = fields.mask_from_polygon(verts, h=1 / 28)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=1, l=0, min_resolution=30))
    assert rep.converged
    assert rep.u_min > 0.5  # shallow bowl on a small domain


def test_quotient_3d_ball():
    # S_3/S_1 = 1 on a ball: the radial quadratic with curvature sqrt(3)
    c = math.sqrt(3.0)
    radius = math.sqrt(2.0 / c)
    mask = fields.mask_from_ellipse([radius] * 3, h=radius / 8.5)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=3, l=1, min_resolution=15))
    assert rep.converged
    X = mask.inside_coords()
    exact = 0.5 * c * np.sum(X**2, axis=1)
    err = np.max(np.abs(rep.field.values - exact))
    assert err <= 30.0 * mask.grid.h ** 2


def test_sigma2_3d_ellipsoids_converge():
    for semi in ([1.0, 1.0, 1.0], [0.9, 1.0, 1.2]):
        mask = fields.mask_from_ellipse(semi, h=1 / 9)
        rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0, min_resolution=15))
        assert rep.converged


def _direct_step(J, F, lu):
    """The Newton step from a direct sparse solve, the reference for GMRES's."""
    return spla.spsolve(J.tocsc(), -F), 0


@pytest.mark.parametrize("case", ["quotient3d", "ma2d"])
def test_krylov_steps_match_direct_steps(case, monkeypatch):
    if case == "quotient3d":
        lam = np.array([1.7, 1.8, 3.5 / (1.7 * 1.8 - 1.0)])   # S3/S1 = 1, near the ball
        mask = fields.mask_from_ellipse(np.sqrt(2.0 / lam), h=1 / 11)
        problem = solver.DirichletProblem(mask=mask, k=3, l=1, min_resolution=16)
    else:
        mask = fields.mask_from_ellipse([1.0, 2.0], h=1 / 32)
        problem = solver.DirichletProblem(mask=mask, k=2, l=0)
    rep = solver.solve(problem)
    assert rep.converged
    assert len(rep.linear_iters) == rep.newton_iters
    assert all(isinstance(i, int) and i > 0 for i in rep.linear_iters)
    monkeypatch.setattr(solver, "_krylov_step", _direct_step)
    rep_direct = solver.solve(problem)
    assert rep_direct.newton_iters == rep.newton_iters
    assert rep_direct.converged == rep.converged
    du = np.max(np.abs(rep.field.values - rep_direct.field.values))
    assert du <= problem.tol


def test_krylov_steps_meet_the_linear_tolerance(monkeypatch):
    rel = []
    step = solver._krylov_step

    def recorded(J, F, lu):
        delta, inner = step(J, F, lu)
        rel.append(np.linalg.norm(J @ delta + F) / np.linalg.norm(F))
        return delta, inner

    monkeypatch.setattr(solver, "_krylov_step", recorded)
    mask = fields.mask_from_ellipse([1.0, 2.0], h=1 / 24)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
    assert rep.converged and len(rel) == rep.newton_iters
    assert max(rel) <= 1e-10


def test_step_is_taken_when_gmres_reports_a_shortfall(monkeypatch):
    # GMRES's iterate is the step whatever its info says; the line search
    # alone decides whether the step helps
    mask = fields.mask_from_ellipse([1.0, 2.0], h=1 / 24)
    problem = solver.DirichletProblem(mask=mask, k=2, l=0)
    rep = solver.solve(problem)
    gmres = solver.spla.gmres

    def short(*args, **kwargs):
        y, _ = gmres(*args, **kwargs)
        return y, 1

    monkeypatch.setattr(solver.spla, "gmres", short)
    rep_short = solver.solve(problem)
    assert rep_short.converged and rep_short.newton_iters == rep.newton_iters >= 1
    assert rep_short.linear_iters == rep.linear_iters
    assert np.array_equal(rep_short.field.values, rep.field.values)


def _write_solve_config(tmp_path, semiaxes, h):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"command": "solve", "params": {"problem": {
        "n": 2, "k": 2, "l": 0, "h": h,
        "domain": {"type": "ellipse", "params": {"semiaxes": semiaxes}},
    }}}))
    return str(cfg)


def test_unfactorable_trace_system_raises(monkeypatch, tmp_path):
    def spilu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver.spla, "spilu", spilu)
    mask = fields.mask_from_ellipse([1.0, 1.5], h=1 / 24)
    with pytest.raises(NumericError, match="trace system"):
        solver.solve(solver.DirichletProblem(mask=mask, k=1, l=0))
    cfg = _write_solve_config(tmp_path, [1.0, 1.5], 1 / 24)
    assert cli.main(["--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert not (tmp_path / "x" / "report.json").exists()


def test_no_admissible_step_returns_a_report(monkeypatch, tmp_path):
    # a steeply concave step leaves the admissibility cone at every damping
    semiaxes, h = [1.0, 1.5], 1 / 24
    mask = fields.mask_from_ellipse(semiaxes, h=h)
    X = mask.inside_coords()

    def concave_step(J, F, lu):
        return -1e15 * np.sum(X**2, axis=1), 0

    monkeypatch.setattr(solver, "_krylov_step", concave_step)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
    assert not rep.converged and rep.newton_iters == 1
    assert rep.residual_history[1] == rep.residual_history[0] > 0
    cfg = _write_solve_config(tmp_path, semiaxes, h)
    assert cli.main(["--config", cfg, "--out", str(tmp_path / "x")]) == 3
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    assert report["converged"] is False and report["newton_iters"] == 1
    assert (tmp_path / "x" / "solution.hsf1").exists()


@pytest.mark.xfail(
    strict=True,
    reason="the barrier start alone ends in a damping collapse (19 steps, residual 1e-3)",
)
def test_barrier_start_converges(monkeypatch):
    # with no blend weight to try, the solve starts from the ellipsoid barrier
    monkeypatch.setattr(solver, "_START_BLENDS", ())
    mask = fields.mask_from_ellipse([1.0, 1.5], h=1 / 24)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
    assert rep.converged


@pytest.mark.parametrize("cells", [16, 24])
def test_quotient_3d_ball_fine_without_warnings(cells):
    # S_3/S_1 = 1 on a ball at h = radius/16 and radius/24 (17k and 58k
    # unknowns). The Jacobian takes spectra on equation rows only, so the
    # closure nodes whose S_k vanishes in late Newton steps raise no
    # divide-by-zero warnings.
    c = math.sqrt(3.0)
    radius = math.sqrt(2.0 / c)
    mask = fields.mask_from_ellipse([radius] * 3, h=radius / cells)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = solver.solve(solver.DirichletProblem(mask=mask, k=3, l=1, min_resolution=15))
    assert rep.converged
    X = mask.inside_coords()
    exact = 0.5 * c * np.sum(X**2, axis=1)
    err = np.max(np.abs(rep.field.values - exact))
    assert err <= 30.0 * mask.grid.h ** 2
    # every step met its tolerance inside one GMRES cycle
    assert all(i < solver._GMRES_RESTART for i in rep.linear_iters)


@pytest.mark.parametrize(
    "semiaxes,h",
    [([1.0, 1.5], 1 / 24), ([0.9, 1.0, 1.2], 1 / 9)],
    ids=["ellipse", "ellipsoid"],
)
def test_factored_trace_matrix_is_row_aligned(semiaxes, h, monkeypatch):
    # the matrix handed to the incomplete factor, which pivots on its
    # diagonal: every row's diagonal is nonzero and no larger off-diagonal
    factored = []
    spilu = solver.spla.spilu

    def recorded(A, **kwargs):
        factored.append(A)
        return spilu(A, **kwargs)

    monkeypatch.setattr(solver.spla, "spilu", recorded)
    mask = fields.mask_from_ellipse(semiaxes, h=h)
    solver._trace_factor(mask.stencils())
    (A,) = factored
    assert A.shape == (mask.inside_count(),) * 2
    diag = np.abs(A.diagonal())
    off = abs(A - sp.diags(A.diagonal())).max(axis=1).toarray().ravel()
    assert np.all(diag > 0)
    assert np.all(off <= diag)


@pytest.mark.parametrize("ratio,converges", [(4.0, True), (5.0, False), (5.5, False), (6.0, False)])
def test_aspect_limit_at_h_1_24(ratio, converges):
    # det D2u = 1 on the unit-determinant ellipse with this semi-axis ratio:
    # the h = 1/24 cells of the README's known-limit paragraph, where a
    # stall returns a nonconverged report rather than raising
    semiaxes = [math.sqrt(2.0 / ratio), math.sqrt(2.0 * ratio)]
    mask = fields.mask_from_ellipse(semiaxes, h=1 / 24)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
    assert rep.converged is converges


def _inscribed_polygon(m, phase):
    """The regular m-gon inscribed in the unit circle, counterclockwise, with
    a vertex at angle phase."""
    ang = phase + np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


_ROTATION = np.array([[np.cos(0.1), np.sin(0.1)], [-np.sin(0.1), np.cos(0.1)]])


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="no start blend is admissible on the collar rows: a nonconverged report after 1 step",
)
@pytest.mark.parametrize(
    "vertices",
    [
        np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]) @ _ROTATION,
        _inscribed_polygon(3, np.pi / 2),
        _inscribed_polygon(6, 0.0),
    ],
    ids=["square-rotated-0.1", "triangle", "hexagon"],
)
def test_k2_polygon_limit(vertices):
    # det D2u = 1 on polygons that are not axis-aligned rectangles: the
    # README's known limit (the axis-aligned square converges in 14 steps)
    mask = fields.mask_from_polygon(vertices, h=1 / 32)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
    assert rep.converged


def test_solved_hessian_has_a_boundary_layer():
    # det D2u = 1 on the (1, 1.5) ellipse, whose solution is the quadratic
    # with Hessian diag(3/2, 2/3). A closure row interpolates linearly, so it
    # is O(h^2) off on that quadratic, and the second differences beside it
    # are O(1) off: the README's boundary-layer table. A change to the
    # closure rows moves these bounds.
    mask = fields.mask_from_ellipse([1.0, 1.5], h=1 / 48)
    rep = solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))
    assert rep.converged
    st = mask.stencils()
    err = np.abs(rep.field.hessian_stack() - np.diag([1.5, 2.0 / 3.0])).max(axis=(1, 2))
    # distance to the nearest closure node, in units of h
    off_closure = np.ones(mask.grid.dims, dtype=bool)
    off_closure[tuple(mask.inside_idx[st.closure_nodes].T)] = False
    dist = ndimage.distance_transform_edt(off_closure)[tuple(mask.inside_idx.T)]
    assert np.max(err[st.is_full & (dist <= 1.5)]) >= 0.3
    assert np.max(err[st.is_full & (dist > 8.5)]) <= 0.01


def test_poisson_trace_start_is_the_discrete_solution(poisson_disk_64):
    # for k = 1 the trace system is the discrete problem: no Newton step
    assert poisson_disk_64.newton_iters == 0
