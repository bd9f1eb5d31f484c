import math

import numpy as np
import pytest

from hessianlab import candidates, fields, functionals, geometry, pipeline, solver
from hessianlab.errors import NonConvergenceError
from hessianlab.symm import esym_table


@pytest.fixture(scope="module")
def quick_cfg():
    return pipeline.AnalyzeConfig(t_points=12, m_dirs=240, gamma_points=7)


def test_quadratic_test_scores():
    q = candidates.quadratic(np.array([[1.5, 0.4], [0.4, 0.8]]), name="quad:tilted")
    score, third = pipeline.quadratic_test(q)
    assert score <= 1e-10
    assert third <= 1e-8
    nq = candidates.aniso_sum([1.0, 1.0], [4.0, 2.0])
    score_nq, _ = pipeline.quadratic_test(nq)
    assert score_nq >= 1.0  # the quartic Hessian swings by 12 over the probes


def test_analyze_3d_quadratic_finishes_bounded():
    # m_dirs is a direction count in 3D too: 162 rays is icosphere level 2
    q = candidates.candidate_from_spec("quad:diag(1,2,0.5)")
    rep = pipeline.analyze(q, pipeline.AnalyzeConfig(t_points=12, m_dirs=162))
    assert rep.verdicts["reverse_iso"].verdict == "bounded"
    assert rep.verdicts["volume_growth"].verdict == "bounded"


def test_analyze_quadratic_all_bounded(quick_cfg):
    q = candidates.quadratic(np.diag([2.0, 0.5]), name="quad:diag(2,0.5)")
    rep = pipeline.analyze(q, quick_cfg)
    assert rep.errors == {}
    for key, v in rep.verdicts.items():
        assert v.verdict == "bounded", key
    assert rep.agreement
    assert rep.quadratic_score <= 1e-6
    gammas = [g for _, g in rep.gamma_samples]
    assert max(gammas) - min(gammas) <= 1e-3 * max(gammas)


def test_analyze_aniso_slopes(quick_cfg):
    rep = pipeline.analyze(candidates.aniso_sum([1.0, 1.0], [2.0, 4.0]), quick_cfg)
    v = rep.verdicts["reverse_iso"]
    assert v.verdict == "unbounded"
    assert v.fitted_exponent == pytest.approx(0.125, abs=0.03)
    assert rep.gamma_slope == pytest.approx(0.125, abs=0.03)
    assert not rep.agreement  # volume growth stays bounded for this one


def test_analyze_power_radial(quick_cfg):
    rep = pipeline.analyze(candidates.power_norm(1.0, 1.5, 2), quick_cfg)
    assert rep.verdicts["volume_growth"].verdict == "unbounded"
    assert rep.verdicts["volume_growth"].fitted_exponent == pytest.approx(1 / 3, abs=0.05)
    # radially symmetric: every sub-level set is a ball
    for _, g in rep.gamma_samples:
        assert g == pytest.approx(1.0, abs=1e-3)


def test_analyze_roundness_continues_past_a_failed_fit(monkeypatch):
    cfg = pipeline.AnalyzeConfig(t_points=12, m_dirs=120, gamma_points=3)
    levels = [float(t) for t in np.geomspace(cfg.t_min, cfg.t_max, 3)]
    real_fit = geometry.john_fit
    calls = []

    def fit_failing_at_the_middle_level(points):
        calls.append(points)
        if len(calls) == 2:
            raise NonConvergenceError("stub failure")
        return real_fit(points)

    monkeypatch.setattr(geometry, "john_fit", fit_failing_at_the_middle_level)
    rep = pipeline.analyze(candidates.aniso_sum([1.0, 1.0], [2.0, 4.0]), cfg)
    assert len(calls) == 3
    assert rep.errors == {f"roundness@t={levels[1]:g}": "stub failure"}
    assert [t for t, _ in rep.gamma_samples] == [levels[0], levels[2]]
    assert [t for t, _ in rep.john_aspect_samples] == [levels[0], levels[2]]


def test_recentred_pownorm_analyses_fit_every_level(monkeypatch):
    # the analyses of criterion-09's recenter_invariance run on the power norm
    cfg = pipeline.AnalyzeConfig(t_points=12, m_dirs=120, gamma_points=3, t_max=1e5)
    real_analyze = pipeline.analyze
    reports = []

    def recording_analyze(cand, config):
        reports.append(real_analyze(cand, config))
        return reports[-1]

    monkeypatch.setattr(pipeline, "analyze", recording_analyze)
    assert pipeline.recenter_invariance(
        candidates.power_norm(1.0, 1.5, 2), n_centers=5, config=cfg
    )
    assert len(reports) == 6
    for rep in reports:
        assert rep.errors == {}
        assert len(rep.gamma_samples) == 3
        assert len(rep.john_aspect_samples) == 3


def test_corpus_consistency(quick_cfg):
    """Exact entire solutions in the corpus (the unit-determinant
    quadratics) are bounded in every condition with vanishing quadratic
    score; candidates violating a condition with a solid slope are not
    solutions of the matching unit-Hessian equation."""
    sols = [
        candidates.quadratic(np.eye(2), name="quad:iso"),
        candidates.quadratic(np.diag([2.0, 0.5]), name="quad:diag(2,0.5)"),
    ]
    for cand in sols:
        rep = pipeline.analyze(cand, quick_cfg)
        assert all(v.verdict == "bounded" for v in rep.verdicts.values())
        assert rep.quadratic_score <= 1e-6
    for cand, cond in (
        (candidates.aniso_sum([1.0, 1.0], [2.0, 4.0]), "reverse_iso"),
        (candidates.power_norm(1.0, 1.5, 2), "volume_growth"),
    ):
        rep = pipeline.analyze(cand, quick_cfg)
        v = rep.verdicts[cond]
        assert v.verdict == "unbounded" and v.fitted_exponent >= 0.05
        pts = pipeline._probe_points(cand, 1.0)
        lam = np.linalg.eigvalsh(cand.hess(pts))
        det_res = np.abs(esym_table(lam)[:, 2] - 1.0)
        assert np.max(det_res) > 0.1  # fails the unit-determinant equation


def test_chain_on_random_quadratics():
    rng = np.random.default_rng(11)
    for _ in range(4):
        rho = 10 ** rng.uniform(0, 2)
        q = candidates.quadratic(np.diag([math.sqrt(rho), 1 / math.sqrt(rho)]))
        gamma = pipeline.measured_iso_claim(q, 50.0, m_dirs=240)
        rep = pipeline.iso_to_roundness_chain(q, 50.0, gamma, m_dirs=240)
        assert rep.all_passed(), [ln.check_id for ln in rep.links if not ln.passed]
        for ln in rep.links:
            if ln.check_id != "mean-value-level":
                assert ln.slack >= -1e-9 * max(abs(ln.rhs), 1.0)


@pytest.mark.parametrize("t", [1.0, 100.0])
@pytest.mark.parametrize("spec", ["quad:diag(1,1,1)", "quad:diag(2,1,0.5)", "pownorm:c=1,p=1.5,n=3"])
def test_chain_passes_every_link_in_3d(spec, t):
    # the profile-integral link needs the (1-s)^(1/2) end point of its
    # weight resolved and the 3D start term 2/(n+1) s0 nu(s0)
    cand = candidates.candidate_from_spec(spec)
    rep = pipeline.iso_to_roundness_chain(cand, t, pipeline.measured_iso_claim(cand, t))
    assert rep.all_passed(), [ln.check_id for ln in rep.links if not ln.passed]


def test_chain_slack_monotone_in_gamma():
    q = candidates.quadratic(np.diag([2.0, 0.5]))
    t = 50.0
    base_gamma = pipeline.measured_iso_claim(q, t, m_dirs=240)
    slacks = []
    for fac in (1.0, 2.0, 5.0):
        rep = pipeline.iso_to_roundness_chain(q, t, base_gamma * fac, m_dirs=240)
        assert rep.all_passed()
        slacks.append(
            {ln.check_id: ln.slack for ln in rep.links if ln.check_id != "mean-value-level"}
        )
    for a, b in zip(slacks, slacks[1:]):
        for key in a:
            assert b[key] >= a[key] - 1e-12


def test_chain_premise_violation_reported():
    q = candidates.quadratic(np.eye(2))
    rep = pipeline.iso_to_roundness_chain(q, 10.0, gamma_claim=1e-3, m_dirs=240)
    assert not rep.all_passed()
    assert rep.meta.get("violated") == "premise"
    assert len(rep.links) == 1


def test_chain_link_decides_its_verdict():
    # a link passes when lhs <= rhs * (1 + rel); the report carries no rel
    assert pipeline.ChainLink("a", 1.0, 1.0).passed
    assert not pipeline.ChainLink("a", 1.0005, 1.0).passed
    assert not pipeline.ChainLink("a", math.nan, 1.0).passed
    link = pipeline.ChainLink("a", np.float64(1.0005), 1, rel=1e-3)
    assert link.passed
    assert link.to_json_dict() == {
        "check_id": "a", "lhs": 1.0005, "rhs": 1.0, "slack": 1.0 - 1.0005,
        "passed": True, "params": {},
    }
    with pytest.raises(AttributeError):
        link.passed = False


def test_chain_interval_validation():
    q = candidates.quadratic(np.eye(2))
    with pytest.raises(Exception):
        pipeline.iso_to_roundness_chain(q, 10.0, 10.0, interval=(0.5, 0.5))


def test_chain_gamma_exponent_fit():
    # sample the asymptotic decades of the family (eigenvalue ratio between
    # 1e2 and 1e4); the isotropic end carries a constant-drift transient
    # that is not part of the power law
    rng = np.random.default_rng(5)
    xs, ys = [], []
    for i in range(10):
        rho = 10 ** (2.0 + 2.0 * i / 9.0)
        lam = np.array([math.sqrt(rho), 1.0 / math.sqrt(rho)])
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        A = Q @ np.diag(lam) @ Q.T
        q = candidates.quadratic(0.5 * (A + A.T))
        gamma = pipeline.measured_iso_claim(q, 25.0, m_dirs=240)
        rep = pipeline.iso_to_roundness_chain(q, 25.0, gamma, m_dirs=240)
        assert rep.all_passed()
        xs.append(math.log(gamma))
        ys.append(math.log(rep.link("roundness-bound").lhs))
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope <= 2.0 / 2.0 + 0.1  # n/2 + 0.1 for n = 2


def test_volume_experiment_ellipse_family():
    domains = []
    for a in (1.0, 2.0, 4.0):
        semi = [math.sqrt(2.0 / a), math.sqrt(2.0 * a)]
        mask = fields.mask_from_ellipse(semi, h=1 / 48)
        domains.append((f"aspect{a:g}", solver.DirichletProblem(mask=mask, k=2)))
    reports = pipeline.volume_to_roundness_experiment(domains)
    assert len(reports) == 3
    for rep in reports:
        assert rep.meta.get("converged"), rep.label
        assert rep.all_passed(), [ln.check_id for ln in rep.links if not ln.passed]


def test_volume_experiment_quotient_instance():
    lam = np.array([5.0, 1.25])
    mask = fields.mask_from_ellipse(np.sqrt(2.0 / lam), h=1 / 48)
    domains = [("quot", solver.DirichletProblem(mask=mask, k=2, l=1))]
    reports = pipeline.volume_to_roundness_experiment(domains)
    rep = reports[0]
    assert rep.meta.get("converged")
    for ln in rep.links:
        if "barrier" in ln.check_id or "sandwich" in ln.check_id:
            assert ln.passed, ln.check_id


def test_volume_experiment_records_nonconvergence():
    mask = fields.mask_from_ellipse([1.0, 1.0], h=1 / 40)
    domains = [("disk", solver.DirichletProblem(mask=mask, k=2, max_iters=1))]
    reports = pipeline.volume_to_roundness_experiment(domains)
    assert reports[0].meta.get("converged") is False


def test_recenter_invariance_small():
    cfg = pipeline.AnalyzeConfig(t_points=12, m_dirs=120, gamma_points=3, t_max=1e5)
    q = candidates.quadratic(np.diag([2.0, 0.5]), name="quad:diag(2,0.5)")
    assert pipeline.recenter_invariance(q, n_centers=2, config=cfg)


def test_report_json_schema(tmp_path):
    q = candidates.quadratic(np.eye(2), name="quad:iso")
    cfg = pipeline.AnalyzeConfig(t_points=12, m_dirs=120, gamma_points=3)
    rep = pipeline.analyze(q, cfg)
    path = tmp_path / "report.json"
    pipeline.write_report_json(rep, path)
    import json

    payload = json.loads(path.read_text())
    assert payload["schema_version"] == pipeline.REPORT_SCHEMA_VERSION
    assert payload["calibration"]
    assert "verdicts" in payload and "quadratic_score" in payload
