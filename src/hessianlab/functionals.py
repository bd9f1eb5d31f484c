"""Growth functionals of analytic convex candidates, and the convex
conjugate of sampled fields.

The ratio of the gradient integral to the layer-cake norm on sub-level
sets, and the volume-growth and weighted-integrability scalars with log-log
slope fits, come from polar quadrature of a candidate; the first
(Pogorelov-style) normalization rescales one. The convex conjugate works on
grid fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import polar
from .candidates import AnalyticCandidate, require_candidate, rescaled
from .errors import AdmissibilityError, PreconditionError
from .fields import Grid, ScalarField, write_text
from .geometry import ConvexBody


class Condition(str, Enum):
    REVERSE_ISO = "reverse_iso"
    VOLUME_GROWTH = "volume_growth"
    LP_INTEGRABILITY = "lp_integrability"


@dataclass
class IsoperimetricSample:
    """One level's gradient integral over the layer-cake norm."""

    t: float
    numerator: float
    denominator: float

    @property
    def ratio(self) -> float:
        return self.numerator / self.denominator


@dataclass
class GrowthVerdict:
    condition: Condition
    p: float | None
    samples: list                      # (t, value)
    fitted_exponent: float
    ci_halfwidth: float
    verdict: str                       # bounded | unbounded | inconclusive
    running_min: float

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition.value,
            "p": self.p,
            "slope": self.fitted_exponent,
            "ci": self.ci_halfwidth,
            "verdict": self.verdict,
            "running_min": self.running_min,
            "samples": [[float(t), float(v)] for t, v in self.samples],
        }

    def export_csv(self, path):
        lines = ["t value running_min\n"]
        rmin = math.inf
        for t, v in self.samples:
            rmin = min(rmin, v)
            lines.append(f"{t:.17g} {v:.17g} {rmin:.17g}\n")
        write_text(path, "".join(lines))


EPS_SLOPE = 0.02                   # fitted slopes up to this count as bounded


def iso_ratio(source, t: float, m_dirs: int = 720) -> IsoperimetricSample:
    """Gradient integral over the layer-cake norm at one level."""
    if t <= 0:
        raise PreconditionError("level must be positive")
    require_candidate(source)
    n = source.n
    num = polar.integrate_sublevel(
        source, t, lambda X: np.linalg.norm(source.grad(X), axis=1), m_dirs=m_dirs
    )
    den_raw = polar.integrate_sublevel(
        source, t, lambda X: np.abs(t - source.value(X)) ** (n / (n - 1.0)),
        m_dirs=m_dirs,
    )
    den = den_raw ** ((n - 1.0) / n)
    if num <= 0 or den <= 0:
        raise PreconditionError("degenerate integrals at this level")
    return IsoperimetricSample(t=t, numerator=num, denominator=den)


def _ols_slope(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    dof = max(x.size - 2, 1)
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return slope, 1.96 * se


def condition_sweep(
    cand: AnalyticCandidate,
    condition: Condition | str,
    t_grid,
    p: float = 1.0,
    m_dirs: int = 720,
) -> GrowthVerdict:
    """Evaluate one growth condition over a geometric level grid and fit
    the log-log slope; the running minimum proxies the limit inferior."""
    condition = Condition(condition)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 12:
        raise PreconditionError("need at least 12 levels for a slope fit")
    if np.any(np.diff(t_grid) <= 0):
        raise PreconditionError("level grid must be increasing")
    n = cand.n
    vals = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        if condition is Condition.REVERSE_ISO:
            vals[i] = iso_ratio(cand, float(t), m_dirs=m_dirs).ratio
        elif condition is Condition.VOLUME_GROWTH:
            vals[i] = t ** (-n / 2.0) * polar.sublevel_volume(cand, float(t), m_dirs)
        else:
            integral = polar.integrate_sublevel(
                cand, float(t), lambda X: (cand.value(X) + 1.0) ** p, m_dirs=m_dirs
            )
            vals[i] = t ** (-p - n / 2.0) * integral
    slope, ci = _ols_slope(np.log(t_grid), np.log(vals))
    if slope <= EPS_SLOPE:
        verdict = "bounded"
    elif slope - ci > 0.0:
        verdict = "unbounded"
    else:
        verdict = "inconclusive"
    return GrowthVerdict(
        condition=condition,
        p=p if condition is Condition.LP_INTEGRABILITY else None,
        samples=list(zip(t_grid.tolist(), vals.tolist())),
        fitted_exponent=slope,
        ci_halfwidth=ci,
        verdict=verdict,
        running_min=float(np.min(vals)),
    )


# ---------------------------------------------------------------------------
# normalizations


def pogorelov_normalize(source, t0: float):
    """First normalization u(sqrt(t0) x) / t0: level t0 becomes level 1."""
    require_candidate(source)
    return rescaled(source, t0)


# ---------------------------------------------------------------------------
# convex conjugate on grids


def legendre_transform(f: ScalarField, region_level: float | None = None) -> ScalarField:
    """Grid conjugate sup_x (x . y - u(x)) over a sub-level region.

    Brute-force supremum over sample points followed by one projected
    gradient refinement per target; the output lives on a fresh grid
    covering the gradient image, masked by its convex hull, and is pinned
    to value zero at the origin.
    """
    mask = f.mask
    st = mask.stencils()
    n = mask.n
    u_all = f.values
    lvl = f.level if math.isfinite(f.level) else float(np.max(u_all))
    region_level = lvl / 2.0 if region_level is None else region_level
    sel = u_all < region_level
    if sel.sum() < 3**n:
        raise PreconditionError("region too small for the transform")
    H_nodes = f.hessian_stack()[sel]
    lam_nodes = np.linalg.eigvalsh(H_nodes)
    lam = lam_nodes[st.is_full[sel]]
    if lam.size and np.min(lam) <= 0:
        raise AdmissibilityError("transform input not strictly convex on the region")

    X = mask.inside_coords()[sel]
    U = u_all[sel]
    G = f.gradient_stack()[sel]
    model_ok = (st.is_full | st.is_collar)[sel] & (lam_nodes[:, 0] > 0)

    eqs = ConvexBody(n=n, vertices=G).equations
    lo, hi = G.min(axis=0), G.max(axis=0)
    span = float(np.max(hi - lo))
    dims0 = max(int(np.median(mask.extents())), 33)
    h_out = span / (dims0 - 1)
    margin = 2.0 * h_out

    def phi(Y):
        return np.max(Y @ eqs[:, :-1].T + eqs[:, -1], axis=-1) + margin

    def sup_at(Y):
        out = np.empty(Y.shape[0])
        arg = np.empty(Y.shape[0], dtype=int)
        # blocks of about 2.5e5 entries (2 MB); each entry is a dot product
        # of length n, the same whatever the block
        chunk = max(1, int(2.5e5 / max(X.shape[0], 1)))
        for i0 in range(0, Y.shape[0], chunk):
            block = Y[i0 : i0 + chunk] @ X.T - U[None, :]
            arg[i0 : i0 + chunk] = np.argmax(block, axis=1)
            out[i0 : i0 + chunk] = block[
                np.arange(block.shape[0]), arg[i0 : i0 + chunk]
            ]
        return out, arg

    def refined(Y):
        """Supremum sharpened by the local quadratic model at the argmax
        node: exact for quadratic data and O(h^3)-consistent otherwise,
        keeping the transform smooth enough to difference twice."""
        Y = np.atleast_2d(Y)
        v, arg = sup_at(Y)
        usable = model_ok[arg]
        if usable.any():
            ia = arg[usable]
            rhs = Y[usable] - G[ia]
            d = np.linalg.solve(H_nodes[ia], rhs[..., None])[..., 0]
            step_ok = np.linalg.norm(d, axis=1) <= 2.5 * mask.grid.h * math.sqrt(n)
            v_model = (
                np.einsum("ij,ij->i", X[ia], Y[usable])
                - U[ia]
                + 0.5 * np.einsum("ij,ij->i", rhs, d)
            )
            upd = np.where(step_ok, v_model, v[usable])
            v[usable] = upd
        return v

    dims = tuple(
        max(int(math.ceil((hi[d] - lo[d] + 6 * h_out) / h_out)) + 1, 7)
        for d in range(n)
    )
    origin = lo - 3 * h_out
    grid = Grid(n=n, dims=dims, origin=origin, h=h_out)

    from .fields import rasterize

    v0 = refined(np.zeros((1, n)))[0]
    out_mask = rasterize(phi, grid, boundary_value=lambda pts: refined(pts) - v0)
    return ScalarField(mask=out_mask, values=refined(out_mask.inside_coords()) - v0, level=math.nan)
