"""Calibrated dimensional constants, frozen in one versioned file.

Every inequality in the verification chains needs a concrete constant
where the theory only asserts existence. Analytic entries are derived in
closed form (derivations inline below); empirical entries are the maxima
of the measured ratio over a fixed-seed candidate family times a safety
factor. `generate()` recomputes everything and can rewrite the packaged
JSON; `calibration_hash()` stamps artifacts so reports are traceable to
the exact constants used.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import numpy as np

_DATA_PATH = pathlib.Path(__file__).parent / "calibration_data.json"
_cache = None


def get_constants() -> dict:
    global _cache
    if _cache is None:
        with open(_DATA_PATH) as fh:
            _cache = json.load(fh)
    return _cache


def calibration_hash() -> str:
    blob = json.dumps(get_constants(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def profile_integral_bound(n: int) -> float:
    """Exact factor (n/(n-1))^((n-1)/n) linking the layer-cake norm of a
    unit sub-level set to its weighted volume profile."""
    return (n / (n - 1.0)) ** ((n - 1.0) / n)


def level_perimeter_bound(n: int, a: float = 1.0 / 3.0, b: float = 0.5) -> float:
    """Factor bounding the boundary measure at the mean-value level by the
    volume: chain the mean-value identity (1/(b-a)), the profile bound and
    the cone volume comparison mu(1) <= a^(-n) mu(a)."""
    return a ** (-(n - 1.0)) / (b - a)


def _gradient_bound_closed_form(n: int) -> float:
    """Ratio realized by the radial unit-Laplacian solution: normalized
    solution |x|^2/(2n) on the ball of radius sqrt(2n)."""
    omega = math.pi if n == 2 else 4.0 * math.pi / 3.0
    sup_grad = 1.0 / math.sqrt(n)
    factor = (2.0 * math.sqrt(2.0 * n)) ** (n - 1)
    integral = (1.0 / n) ** n * omega * (2.0 * n) ** (n / 2.0)
    return sup_grad / (factor * integral)


def generate(write: bool = False) -> dict:
    """Recompute all constants; empirical ones use a corpus drawn with
    seed 20240."""
    from . import functionals, geometry
    from .candidates import quadratic

    rng = np.random.default_rng(20240)
    consts = {
        "version": 1,
        "profile_integral_bound_C": {
            "2": profile_integral_bound(2),
            "3": profile_integral_bound(3),
        },
        "level_perimeter_bound_C": {
            "2": level_perimeter_bound(2),
            "3": level_perimeter_bound(3),
        },
        "gradient_bound_C": {
            "2": 2.0 * _gradient_bound_closed_form(2),
            "3": 2.0 * _gradient_bound_closed_form(3),
        },
        "ellipsoid_surface_bound_C": {"2": 4.2, "3": 4.2},
    }

    # quadratic family, eigenvalue ratio up to 1e4, unit determinant
    ratios_aspect, ratios_ball = [], []
    for i in range(8):
        rho = 10 ** (4.0 * i / 7.0)
        lam = np.array([math.sqrt(rho), 1.0 / math.sqrt(rho)])
        cand = quadratic(np.diag(lam))
        gamma_claim = functionals.iso_ratio(cand, 1.0, m_dirs=360).ratio
        body = geometry.extract_body(cand, 0.4, m_dirs=360)
        ell = geometry.john_fit(body)
        fit = geometry.ball_fit(body)
        ratios_aspect.append((ell.mu[-1] / ell.mu[0]) / gamma_claim**2)
        ratios_ball.append(fit.gamma / gamma_claim)
    consts["john_aspect_bound_C"] = {"2": 2.0 * max(ratios_aspect), "3": 8.0 * max(ratios_aspect)}
    consts["ball_ratio_bound_Cp"] = {"2": 1.5 * max(ratios_ball), "3": 3.0 * max(ratios_ball)}

    # two-sided ball-ratio vs enclosing-ellipsoid aspect on random polytopes
    cross = []
    for _ in range(60):
        m = rng.integers(5, 12)
        pts = rng.normal(size=(m, 2)) @ np.diag(rng.uniform(0.5, 3.0, size=2))
        try:
            from scipy.spatial import ConvexHull

            hull = ConvexHull(pts)
            body = geometry.ConvexBody(n=2, vertices=pts[hull.vertices])
            g = geometry.ball_fit(body).gamma
            a = geometry.john_fit(body).aspect()
            cross.append(max(g / a, a / g))
        except Exception:
            continue
    consts["john_gamma_cross_C"] = {"2": 1.5 * max(cross), "3": 3.0 * max(cross)}

    # quotient-instance radii from the closed-form quadratic family
    r_enc, r_img = [], []
    for rho in (1.0, 1.5, 2.0, 4.0, 8.0):
        lam_min = 1.0 + rho ** (-2.0)
        r_enc.append(math.sqrt(2.0 / lam_min))
        r_img.append(math.sqrt(lam_min))
    consts["domain_radius_bound_C1"] = {"2": 1.5 * max(r_enc), "3": 2.0 * max(r_enc)}
    consts["gradient_image_bound_C2"] = {"2": 1.5 / min(r_img), "3": 2.0 / min(r_img)}

    # volume-to-roundness bound for unit-determinant quadratic domains
    vol_ratios = []
    for rho in (1.0, 2.0, 4.0, 16.0):
        gamma = rho**0.25
        vol = 2.0 * math.pi
        vol_ratios.append(gamma / vol**0.5)
    consts["volume_gamma_bound_C"] = {"2": 2.0 * max(vol_ratios), "3": 2.0 * max(vol_ratios)}

    if write:
        with open(_DATA_PATH, "w") as fh:
            json.dump(consts, fh, sort_keys=True, indent=1)
            fh.write("\n")
        global _cache
        _cache = None
    return consts


if __name__ == "__main__":
    import sys

    out = generate(write="--write" in sys.argv)
    print(json.dumps(out, sort_keys=True, indent=1))
