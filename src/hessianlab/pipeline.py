"""End-to-end verification experiments over the candidate corpus.

Three drivers: `analyze` evaluates all growth conditions, roundness
samples and the quadraticity score for one candidate; `iso_to_roundness_chain`
walks the inequality chain from a level-wise gradient-integral bound to a
certified roundness of an intermediate sub-level set; and
`volume_to_roundness_experiment` solves the Dirichlet problem on a domain
family and checks the barrier comparisons plus the volume-to-roundness
bound. Every chain link carries a stable check id, its two sides and the
signed slack, and reports embed the calibration hash for reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import functionals, geometry, polar
from .calibration import (
    calibration_hash,
    get_constants,
    level_perimeter_bound,
    profile_integral_bound,
)
from .candidates import AnalyticCandidate, require_candidate, shifted
from .errors import HessianLabError, PreconditionError
from .fields import write_json
from .functionals import Condition

REPORT_SCHEMA_VERSION = 1
_CLAIM_HEADROOM = 1.01            # a measured premise ratio, padded into a valid claim


@dataclass
class AnalyzeConfig:
    t_min: float = 1e2
    t_max: float = 1e6
    t_points: int = 13
    p_list: tuple = (-0.5, 1.0, 2.0)
    m_dirs: int = 360
    gamma_points: int = 9

    def t_grid(self):
        return np.geomspace(self.t_min, self.t_max, self.t_points)


@dataclass
class ConditionReport:
    candidate: str
    verdicts: dict                    # key -> GrowthVerdict
    gamma_samples: list               # (t, gamma)
    john_aspect_samples: list         # (t, sqrt(mu_n/mu_1))
    gamma_slope: float
    quadratic_score: float
    third_order_score: float
    agreement: bool
    errors: dict
    calibration: str

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "candidate": self.candidate,
            "verdicts": {k: v.to_json_dict() for k, v in self.verdicts.items()},
            "gamma_samples": [[float(a), float(b)] for a, b in self.gamma_samples],
            "john_aspect_samples": [
                [float(a), float(b)] for a, b in self.john_aspect_samples
            ],
            # a NaN score is undefined; strict JSON has no NaN, so it is null
            **{key: None if math.isnan(value) else value for key, value in (
                ("gamma_slope", self.gamma_slope), ("quadratic_score", self.quadratic_score),
                ("third_order_score", self.third_order_score))},
            "agreement": self.agreement,
            "errors": self.errors,
            "calibration": self.calibration,
        }


@dataclass
class ChainLink:
    """One inequality of a chain: it passes when lhs <= rhs * (1 + rel),
    where rel is a quadrature tolerance that the report does not carry."""
    check_id: str
    lhs: float
    rhs: float
    params: dict = dc_field(default_factory=dict)
    rel: float = 0.0

    def __post_init__(self):
        self.lhs, self.rhs = float(self.lhs), float(self.rhs)

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + self.rel)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
            "params": self.params,
        }


@dataclass
class ChainReport:
    label: str
    links: list
    meta: dict

    def all_passed(self) -> bool:
        return all(link.passed for link in self.links)

    def link(self, check_id: str) -> ChainLink:
        for ln in self.links:
            if ln.check_id == check_id:
                return ln
        raise KeyError(check_id)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "label": self.label,
            "links": [ln.to_json_dict() for ln in self.links],
            "meta": self.meta,
            "all_passed": self.all_passed(),
        }


# ---------------------------------------------------------------------------
# per-candidate analysis


def quadratic_test(source) -> tuple:
    """(hessian variation score, third-derivative contraction score).

    Both vanish exactly when the function is a quadratic: the first is the
    largest normalized Hessian difference over probe pairs, the second the
    largest entry of (D2u)^-1 contracted with the third-derivative tensor.
    The candidate is probed inside its sub-level set at level 1.
    """
    require_candidate(source)
    pts = _probe_points(source, 1.0)
    H = source.hess(pts)
    scale = 1e-4 * max(float(np.max(np.linalg.norm(pts, axis=1))), 1.0)
    T3 = _third_order_fd(source, pts, scale)
    diff = 0.0
    nrm = np.linalg.norm(H, axis=(1, 2))
    for i in range(H.shape[0]):
        d = np.linalg.norm(H - H[i], axis=(1, 2)) / (1.0 + nrm[i])
        diff = max(diff, float(np.max(d)))
    return diff, T3


def _probe_points(cand, level) -> np.ndarray:
    dirs = polar.directions(cand.n, 16)
    rho = polar.radial_crossings(cand, level, dirs)
    radii = np.array([0.25, 0.5, 0.75, 0.9])
    pts = (
        cand.anchor[None, None, :]
        + (rho[:, None] * radii[None, :])[..., None] * dirs[:, None, :]
    )
    return pts.reshape(-1, cand.n)


def _third_order_fd(cand, pts, step) -> float:
    """Largest entry of inv(D2u) contracted with the spatial derivative of
    inv(D2u); identically zero exactly for quadratics. Probes with a
    near-singular Hessian are skipped (degenerate directions carry no
    usable contraction)."""
    H0 = cand.hess(pts)
    w = np.linalg.eigvalsh(H0)
    keep = w[:, 0] > 1e-8 * np.maximum(w[:, -1], 1e-30)
    if not keep.any():
        return math.nan
    pts = pts[keep]
    H0 = H0[keep]
    inv = np.linalg.inv(H0)
    n = cand.n
    T = np.zeros((pts.shape[0], n, n, n))
    for l in range(n):
        e = np.zeros(n)
        e[l] = step
        dH = (cand.hess(pts + e) - cand.hess(pts - e)) / (2.0 * step)
        dinv = -inv @ dH @ inv
        T += inv[:, :, l, None, None] * dinv[:, None, :, :]
    return float(np.max(np.abs(T)))


def analyze(cand: AnalyticCandidate, config: AnalyzeConfig | None = None) -> ConditionReport:
    config = config or AnalyzeConfig()
    t_grid = config.t_grid()
    verdicts = {}
    errors = {}
    # (key, condition, p): p = 1.0, the sweep's default, where the condition has no p
    sweeps = [(c.value, c, 1.0) for c in (Condition.REVERSE_ISO, Condition.VOLUME_GROWTH)]
    sweeps += [(f"lp:{p:g}", Condition.LP_INTEGRABILITY, p) for p in config.p_list]
    for key, cond, p in sweeps:
        try:
            verdicts[key] = functionals.condition_sweep(
                cand, cond, t_grid, p=p, m_dirs=config.m_dirs
            )
        except HessianLabError as exc:
            errors[key] = str(exc)

    gamma_samples, aspect_samples = [], []
    for t in np.geomspace(config.t_min, config.t_max, config.gamma_points):
        try:
            body = geometry.extract_body(cand, float(t), m_dirs=config.m_dirs)
            gamma = geometry.ball_fit(body).gamma
            aspect = geometry.john_fit(body.vertices).aspect()
        except HessianLabError as exc:
            errors[f"roundness@t={t:g}"] = str(exc)
            continue
        gamma_samples.append((float(t), gamma))
        aspect_samples.append((float(t), aspect))
    if len(gamma_samples) >= 3:
        ts = np.log([a for a, _ in gamma_samples])
        gs = np.log([b for _, b in gamma_samples])
        gamma_slope = functionals._ols_slope(ts, gs)[0]
    else:
        gamma_slope = math.nan

    try:
        qscore, tscore = quadratic_test(cand)
    except HessianLabError as exc:
        errors["quadratic_test"] = str(exc)
        qscore = tscore = math.nan

    decided = [v.verdict for v in verdicts.values()]
    agreement = len(set(decided)) == 1 if decided else False
    return ConditionReport(
        candidate=cand.name,
        verdicts=verdicts,
        gamma_samples=gamma_samples,
        john_aspect_samples=aspect_samples,
        gamma_slope=float(gamma_slope),
        quadratic_score=float(qscore),
        third_order_score=float(tscore),
        agreement=agreement,
        errors=errors,
        calibration=calibration_hash(),
    )


# ---------------------------------------------------------------------------
# chain: level-wise gradient-integral bound to roundness


def iso_to_roundness_chain(
    cand: AnalyticCandidate,
    t: float,
    gamma_claim: float | None = None,
    interval: tuple = (1.0 / 3.0, 0.5),
    m_dirs: int = 360,
) -> ChainReport:
    """Walk the chain: premise at level t, first normalization, profile
    bound over 30 levels, mean-value level, perimeter bound there,
    enclosing-ellipsoid aspect bound, and the roundness of the
    intermediate sub-level set. Without gamma_claim the claim is the
    premise's measured ratio, padded by 1 %."""
    calib = get_constants()
    n = cand.n
    a, b = interval
    if not 0 < a < b <= 1:
        raise PreconditionError("interval must satisfy 0 < a < b <= 1")
    links = []

    norm, m_eff, sample = _premise_sample(cand, t, m_dirs)
    if gamma_claim is None:
        gamma_claim = float(sample.ratio * _CLAIM_HEADROOM)
    links.append(ChainLink(
        "premise-gradient-integral-bound", sample.numerator, gamma_claim * sample.denominator,
        params={"t": t, "gamma": gamma_claim},
    ))
    if not links[-1].passed:
        return ChainReport(
            label=cand.name, links=links,
            meta=_chain_meta(t, gamma_claim, interval, violated="premise"),
        )

    # Chebyshev-spaced levels crowd both ends: the bottom, where nu grows
    # like s^((n-1)/2), and the top, where the weight (1-s)^(1/(n-1)) below
    # has its square-root (n = 3) end point
    levels = 0.5 - 0.5 * np.cos(np.pi * np.linspace(0.0, 1.0, 31)[1:])
    profile = geometry.level_profile(norm, levels, m_dirs=m_eff)

    # profile form of the premise: integral of nu against the weighted
    # volume integral, with the exact dimensional factor; below the first
    # level nu ~ s^((n-1)/2) integrates to 2/(n+1) s0 nu(s0)
    lhs_p = np.trapezoid(profile.nu, profile.levels) + profile.nu[0] * profile.levels[0] * (2.0 / (n + 1.0))
    wint = np.trapezoid((1.0 - profile.levels) ** (1.0 / (n - 1.0)) * profile.mu, profile.levels)
    rhs_p = profile_integral_bound(n) * gamma_claim * wint ** ((n - 1.0) / n)
    links.append(ChainLink("profile-integral-bound", lhs_p, rhs_p, rel=1e-3))

    s_star = geometry.mean_value_level(profile, a, b)
    resid = abs(
        profile.nu_at(s_star) * (b - a) - profile.integrate_nu(a, b)
    ) / max(profile.integrate_nu(a, b), 1e-300)
    links.append(ChainLink(
        "mean-value-level", resid, 1e-6, params={"s_star": s_star, "a": a, "b": b}
    ))

    C_peri = level_perimeter_bound(n, a, b)
    lhs_nu = profile.nu_at(s_star)
    rhs_nu = C_peri * gamma_claim * profile.mu_at(s_star) ** ((n - 1.0) / n)
    links.append(ChainLink("level-perimeter-bound", lhs_nu, rhs_nu, rel=1e-3))

    body = geometry.extract_body(norm, s_star, m_dirs=m_eff)
    ell = geometry.john_fit(body.vertices)
    C_asp = calib["john_aspect_bound_C"][str(n)]
    links.append(ChainLink(
        "ellipsoid-aspect-bound", ell.mu[-1], C_asp * gamma_claim**n * float(ell.mu[0]),
        params={"aspect": ell.aspect()},
    ))

    fit = geometry.ball_fit(body)
    Cp = calib["ball_ratio_bound_Cp"][str(n)]
    links.append(ChainLink(
        "roundness-bound", fit.gamma, Cp * gamma_claim ** (n / 2.0), params={"s_star": s_star}
    ))
    return ChainReport(
        label=cand.name, links=links, meta=_chain_meta(t, gamma_claim, interval)
    )


def _premise_sample(cand, t: float, m_dirs: int) -> tuple:
    """(normalized candidate, direction count, iso_ratio sample) at level t.
    Normalize first: the premise is invariant, and the body aspect sets the
    angular resolution every quadrature of the chain needs (polygonal
    errors grow with the square of the aspect)."""
    norm = functionals.pogorelov_normalize(cand, t)
    fit = geometry.ball_fit(geometry.extract_body(norm, 1.0, m_dirs=m_dirs))
    m_eff = int(min(8192, m_dirs * max(1.0, fit.gamma**2 / 6.0)))
    return norm, m_eff, functionals.iso_ratio(norm, 1.0, m_dirs=m_eff)


def measured_iso_claim(cand, t: float, m_dirs: int = 360) -> float:
    """Aspect-adaptive measurement of the gradient-integral ratio at one
    level, padded by 1 % so it is a valid premise constant."""
    return _premise_sample(cand, t, m_dirs)[2].ratio * _CLAIM_HEADROOM


def _chain_meta(t, gamma_claim, interval, violated=None) -> dict:
    meta = {
        "t": t,
        "gamma_claim": gamma_claim,
        "interval": list(interval),
        "calibration": calibration_hash(),
    }
    if violated:
        meta["violated"] = violated
    return meta


# ---------------------------------------------------------------------------
# solver-backed experiment: volume controls roundness


def volume_to_roundness_experiment(domains: list) -> list:
    """For each (label, DirichletProblem): solve, compare against both
    ellipsoid barriers, check the radius sandwich and the volume-to-roundness
    bound. The problems are built, and so checked, by the caller."""
    from . import solver

    calib = get_constants()
    reports = []
    for label, problem in domains:
        mask = problem.mask
        n = mask.n
        h = mask.grid.h
        links = []
        meta = {"label": label, "calibration": calibration_hash(), "h": h}
        try:
            rep = solver.solve(problem)
        except HessianLabError as exc:
            reports.append(
                ChainReport(label=label, links=[], meta={**meta, "error": str(exc)})
            )
            continue
        meta["converged"] = rep.converged
        meta["residual_max"] = rep.residual_max
        upper, lower = solver.barrier_pair_for_report(rep)
        tol_b = 5.0 * h**2
        for bar in (upper, lower):
            chk = solver.comparison_check(rep, bar)
            links.append(ChainLink(f"{bar.sign}-barrier-violation", chk["max_violation"], tol_b))
            links.append(ChainLink(
                f"{bar.sign}-radius-sandwich",
                -chk["scalar_slack"], 20.0 * h**2 * max(chk["R"], 1.0) ** 2,
                params={"normalizer": chk["normalizer"], "R": chk["R"]},
            ))
        body = geometry.body_from_mask(mask)
        fit = geometry.ball_fit(body)
        C_vol = calib["volume_gamma_bound_C"][str(n)]
        links.append(ChainLink(
            "volume-roundness-bound", fit.gamma, C_vol * body.volume() ** ((n - 1.0) / 2.0),
            params={"volume": body.volume()},
        ))
        rc = solver.radius_estimate_check(rep, fit)
        links.append(ChainLink(
            "radius-estimate", rc["R_observed"], rc["limit"],
            params={"gamma": rc["gamma"], "coeff": rc["coeff"]},
        ))
        reports.append(ChainReport(label=label, links=links, meta=meta))
    return reports


# ---------------------------------------------------------------------------
# invariance drivers


def recenter_invariance(
    cand: AnalyticCandidate, n_centers: int = 5, config: AnalyzeConfig | None = None
) -> bool:
    """Boundedness verdicts survive subtracting tangent planes at points
    drawn (seed 7) from the cube [-1, 1]^n; returns True when every verdict
    matches the base run."""
    config = config or AnalyzeConfig(t_points=12, m_dirs=180)
    rng = np.random.default_rng(7)
    base = analyze(cand, config)
    base_verdicts = {k: v.verdict for k, v in base.verdicts.items()}
    for _ in range(n_centers):
        x0 = rng.uniform(-1.0, 1.0, size=cand.n)
        moved = shifted(cand, x0)
        rep = analyze(moved, config)
        for key, v in rep.verdicts.items():
            if base_verdicts.get(key) != v.verdict:
                return False
    return True


def write_report_json(report, path):
    write_json(path, report.to_json_dict())
