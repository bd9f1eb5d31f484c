"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Expensive solved instances come from session fixtures.
"""

import json
import math
import time

import numpy as np
import scipy.integrate

from hessianlab import (
    candidates,
    fields,
    functionals,
    geometry,
    pipeline,
    solver,
    symm,
)
from hessianlab.functionals import Condition
from hessianlab.symm import esym_table

from conftest import ma_exact, quotient_exact

ISO_RATIO_DISK = 4.093306831785954


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_01_symmetric_function_suite():
    t0 = time.time()
    rng = np.random.default_rng(100)
    worst_mono = 0.0
    nest_ok = True
    for n in range(2, 9):
        lam = rng.uniform(0.01, 10.0, size=(10_000, n))
        T = esym_table(lam)
        prev = None
        for k in range(1, n + 1):
            r = (T[:, k] / symm.binomial(n, k)) ** (1.0 / k)
            if prev is not None:
                worst_mono = max(worst_mono, float(np.max(r - prev * (1 + 1e-12))))
            prev = r
        mixed = rng.normal(scale=2.0, size=(10_000, n))
        Tm = esym_table(mixed)
        in_top = np.all(Tm[:, 1:] > 0.0, axis=1)
        pos_all = np.all(Tm[:, 1:] > 0.0, axis=1)  # member of the top cone
        # nesting: top-cone members are members of every lower cone
        for k in range(1, n):
            nest_ok &= bool(np.all(Tm[in_top][:, 1 : k + 1] > 0.0))
    grad_ok = True
    rng2 = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng2.integers(2, 5))
        B = rng2.normal(size=(n, n))
        M = B @ B.T + 0.2 * np.eye(n)
        k = int(rng2.integers(1, n + 1))
        G = symm.operator_gradient(M, k).array
        step = 1e-5 * max(np.linalg.norm(M), 1.0)
        F = np.zeros((n, n))
        for p in range(n):
            for q in range(p, n):
                E = np.zeros((n, n))
                E[p, q] = E[q, p] = 1.0
                d = (
                    symm.hessian_operator(M + step * E, k)
                    - symm.hessian_operator(M - step * E, k)
                ) / (2.0 * step)
                F[p, q] = F[q, p] = d / (2.0 if p != q else 1.0)
        scale = max(float(np.max(np.abs(F))), 1e-12)
        if float(np.max(np.abs(G - F))) > 1e-6 * scale:
            grad_ok = False
    elapsed = time.time() - t0
    ok = worst_mono <= 0.0 and nest_ok and grad_ok and elapsed < 10.0
    _report(
        "criterion-01 symmetric functions", ok,
        f"(mono slack {worst_mono:.1e}, nesting {nest_ok}, gradients {grad_ok}, {elapsed:.1f}s)",
    )


def test_criterion_02a_poisson_disk_convergence():
    t0 = time.time()
    errs = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        mask = fields.mask_from_ellipse([1.0, 1.0], h=h)
        rep = solver.solve(solver.DirichletProblem(mask=mask, k=1, l=0))
        X = mask.inside_coords()
        exact = (np.sum(X**2, axis=1) - 1.0) / 4.0 + 1.0
        errs.append(float(np.max(np.abs(rep.field.values - exact))))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    elapsed = time.time() - t0
    ok = 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8 and elapsed < 120.0
    _report(
        "criterion-02a poisson convergence", ok,
        f"(ratios {r1:.2f}, {r2:.2f}; {elapsed:.0f}s)",
    )


def test_criterion_02b_ma_ellipse(ma_ellipse_64):
    rep = ma_ellipse_64
    X = rep.problem.mask.inside_coords()
    err = float(np.max(np.abs(rep.field.values - ma_exact(2.0, X))))
    ok = rep.converged and err <= 5e-3
    _report("criterion-02b determinant-equation ellipse", ok, f"(max err {err:.2e})")


def test_criterion_02c_quotient(quotient_ellipse_64):
    rep = quotient_ellipse_64
    lam = np.array([5.0, 1.25])
    X = rep.problem.mask.inside_coords()
    err = float(np.max(np.abs(rep.field.values - quotient_exact(lam, X))))
    ok = rep.converged and err <= 5e-3
    _report("criterion-02c quotient ellipse", ok, f"(max err {err:.2e})")


def test_criterion_03_barriers_and_sandwich(
    poisson_disk_64, ma_ellipse_64, quotient_ellipse_64
):
    ok = True
    detail = []
    for rep in (poisson_disk_64, ma_ellipse_64, quotient_ellipse_64):
        h = rep.problem.mask.grid.h
        upper, lower = solver.barrier_pair_for_report(rep)
        for b in (upper, lower):
            chk = solver.comparison_check(rep, b)
            ok &= chk["max_violation"] <= 5.0 * h**2
            detail.append(f"{chk['max_violation']:.1e}")
    domains = [
        (f"aspect{a:g}", solver.DirichletProblem(mask=fields.mask_from_ellipse(
            [math.sqrt(2.0 / a), math.sqrt(2.0 * a)], h=1 / 48), k=2, l=0))
        for a in (1.0, 2.0, 4.0)
    ]
    reports = pipeline.volume_to_roundness_experiment(domains)
    for repc in reports:
        ok &= repc.meta.get("converged", False)
        for ln in repc.links:
            if "sandwich" in ln.check_id or "barrier" in ln.check_id:
                ok &= ln.passed
    _report("criterion-03 barrier comparisons", ok, f"(violations {', '.join(detail)})")


def test_criterion_04_radius_estimate(
    poisson_disk_64, ma_ellipse_64, quotient_ellipse_64
):
    ok = abs(symm.radius_bound_coeff(2, 1) - 2.0) < 1e-14
    details = []
    for rep in (poisson_disk_64, ma_ellipse_64, quotient_ellipse_64):
        fit = geometry.ball_fit(geometry.body_from_mask(rep.problem.mask))
        chk = solver.radius_estimate_check(rep, fit, k=max(rep.problem.k, 1))
        ok &= chk["passed"]
        details.append(f"R={chk['R_observed']:.3f}<=C*gamma={chk['bound']:.3f}")
    _report("criterion-04 radius estimate", ok, "(" + "; ".join(details) + ")")


def test_criterion_05_geometry_identities():
    corpus = candidates.default_corpus(2)
    ok = True
    worst = 0.0
    import hessianlab.polar as polar

    for cand in corpus:
        t = 1.0
        num = polar.integrate_sublevel(
            cand, t, lambda X: np.linalg.norm(cand.grad(X), axis=1), m_dirs=360
        )
        levels = np.linspace(t / 400.0, t, 120)
        prof = geometry.level_profile(cand, levels, m_dirs=360)
        coarea = np.trapezoid(prof.nu, prof.levels) + prof.nu[0] * prof.levels[0] * 2 / 3
        rel1 = abs(num - coarea) / num
        lhs = polar.integrate_sublevel(
            cand, t, lambda X: np.abs(t - cand.value(X)) ** 2.0, m_dirs=360
        )
        layer = 2.0 * np.trapezoid((1.0 - prof.levels) * prof.mu, prof.levels)
        rel2 = abs(lhs - layer) / lhs
        worst = max(worst, rel1, rel2)
        ok &= rel1 <= 1e-2 and rel2 <= 1e-2
        for s in (0.25, 0.5, 0.75):
            passed, _ = geometry.cone_lower_bound(prof, s, t, tol=1e-3)
            ok &= passed
    # gradient-image identity on strictly convex sampled fields
    for A in (np.eye(2), np.diag([2.0, 0.5])):
        c = candidates.quadratic(A, name="quad:id-check")
        g = fields.grid_for_candidate(c, level=1.0, h=1 / 64)
        f = fields.sample_candidate(c, g, 1.0)
        nm = geometry.normal_map_area(f)
        fw = geometry.forward_image_area(f)
        rel = abs(nm - fw) / nm
        worst = max(worst, rel)
        ok &= rel <= 1e-2
    _report("criterion-05 geometry identities", ok, f"(worst rel dev {worst:.2e})")


def test_criterion_06_functional_behavior():
    t0 = time.time()
    # frozen constant, confirmed by an independent quadrature oracle
    num = scipy.integrate.quad(lambda r: 2.0 * math.pi * r * r, 0, math.sqrt(2.0))[0]
    den = scipy.integrate.quad(
        lambda r: (1 - r * r / 2.0) ** 2 * 2.0 * math.pi * r, 0, math.sqrt(2.0)
    )[0]
    oracle = num / math.sqrt(den)
    ok = abs(oracle - ISO_RATIO_DISK) <= 1e-9
    disk = candidates.quadratic(np.eye(2), name="quad:iso")
    vals = [functionals.iso_ratio(disk, t).ratio for t in (1.0, 1e2, 1e4, 1e6)]
    ok &= max(abs(v - ISO_RATIO_DISK) for v in vals) <= 1e-3 * ISO_RATIO_DISK
    grid = np.geomspace(1e2, 1e6, 13)
    aniso = candidates.aniso_sum([1.0, 1.0], [2.0, 4.0])
    v_iso = functionals.condition_sweep(aniso, Condition.REVERSE_ISO, grid, m_dirs=360)
    ok &= abs(v_iso.fitted_exponent - 0.125) <= 0.03
    rep = pipeline.analyze(aniso, pipeline.AnalyzeConfig(m_dirs=240, gamma_points=9))
    ok &= abs(rep.gamma_slope - 0.125) <= 0.03
    pw = candidates.power_norm(1.0, 1.5, 2)
    v_pw = functionals.condition_sweep(pw, Condition.VOLUME_GROWTH, grid, m_dirs=360)
    ok &= abs(v_pw.fitted_exponent - 1.0 / 3.0) <= 0.05
    elapsed = time.time() - t0
    ok &= elapsed < 180.0
    _report(
        "criterion-06 functional behavior", ok,
        f"(ratio dev {max(abs(v - ISO_RATIO_DISK) for v in vals):.1e}, "
        f"slopes {v_iso.fitted_exponent:.3f}/{rep.gamma_slope:.3f}/{v_pw.fitted_exponent:.3f}, "
        f"{elapsed:.0f}s)",
    )


def test_criterion_07_roundness_chain():
    rng = np.random.default_rng(500)
    xs, ys = [], []
    all_pass = True
    for i in range(10):
        rho = 10 ** (2.0 + 2.0 * i / 9.0)  # eigenvalue ratio up to 1e4
        lam = np.array([math.sqrt(rho), 1.0 / math.sqrt(rho)])
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        A = Q @ np.diag(lam) @ Q.T
        q = candidates.quadratic(0.5 * (A + A.T))
        gamma = pipeline.measured_iso_claim(q, 25.0, m_dirs=240)
        rep = pipeline.iso_to_roundness_chain(q, 25.0, gamma, m_dirs=240)
        all_pass &= rep.all_passed()
        xs.append(math.log(gamma))
        ys.append(math.log(rep.link("roundness-bound").lhs))
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = all_pass and slope <= 2.0 / 2.0 + 0.1
    _report("criterion-07 roundness chain", ok, f"(links {all_pass}, exponent {slope:.3f})")


def test_criterion_08_legendre_roundtrip(quotient_ellipse_64):
    A = np.diag([2.0, 0.5])
    c = candidates.quadratic(A, name="q")
    g = fields.grid_for_candidate(c, level=1.0, h=1 / 48)
    f = fields.sample_candidate(c, g, 1.0)
    h = f.grid.h
    v = functionals.legendre_transform(f)
    Y = v.mask.inside_coords()
    exact = 0.5 * np.einsum("ki,ij,kj->k", Y, np.linalg.inv(A), Y)
    conj_err = float(np.max(np.abs(v.values - exact)))
    st = v.mask.stencils()
    Hv = v.hessian_stack()[st.is_full]
    prod_err = float(np.max(np.abs(Hv @ A - np.eye(2))))
    vq = functionals.legendre_transform(quotient_ellipse_64.field)
    stq = vq.mask.stencils()
    lamq = np.linalg.eigvalsh(vq.hessian_stack()[stq.is_full])
    res = float(np.max(np.abs(esym_table(lamq)[:, 1] - 1.0)))
    hq = quotient_ellipse_64.problem.mask.grid.h
    ok = conj_err <= h**2 and prod_err <= 5.0 * h and res <= 10.0 * hq
    _report(
        "criterion-08 conjugate roundtrip", ok,
        f"(conj {conj_err:.1e} <= h^2, product {prod_err:.1e} <= 5h, residual {res:.1e} <= 10h)",
    )


def test_criterion_09_invariance_suite():
    A = np.array([[1.5, 0.4], [0.4, 0.8]])
    q = candidates.quadratic(A, name="quad:tilted")
    rng = np.random.default_rng(7)
    X = rng.uniform(-3, 3, size=(60, 2))
    fixed = True
    for t0 in (10.0, 1e3):
        qn = functionals.pogorelov_normalize(q, t0)
        fixed &= bool(np.max(np.abs(qn.value(X) - q.value(X))) <= 1e-12)
    cfg = pipeline.AnalyzeConfig(t_points=12, m_dirs=120, gamma_points=3, t_max=1e5)
    recenter_ok = True
    for cand in candidates.default_corpus(2):
        recenter_ok &= pipeline.recenter_invariance(cand, n_centers=5, config=cfg)
    ok = fixed and recenter_ok
    _report(
        "criterion-09 invariance suite", ok,
        f"(normalization fixed-point {fixed}, recenter verdicts {recenter_ok})",
    )


def test_criterion_10_cli_determinism(tmp_path):
    from hessianlab import cli

    cfg = {
        "command": "solve",
        "seed": 42,
        "params": {
            "problem": {
                "n": 2, "k": 2, "l": 0, "h": 1 / 32,
                "domain": {"type": "ellipse", "params": {"semiaxes": [1.0, 2.0]}},
            }
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for out in ("r1", "r2"):
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / out)])
        assert code == 0
    same = all(
        (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        for name in ("report.json", "solution.hsf1")
    )
    _report("criterion-10 deterministic artifacts", same, "(bitwise identical)")
