"""Damped-Newton Dirichlet solver for S_k(D2u) = rhs and quotient
S_k/S_l (D2u) = rhs on masked convex domains.

The discrete system couples three row families: the equation at nodes with
complete second-difference stencils, the equation with one-sided mixed
stencils at nodes that only miss diagonal corners, and a linear boundary
interpolation row at nodes owning a cut arm. The last family is the
second-order Dirichlet transfer; the equation rows are exact on
quadratics, so constant-Hessian solutions are reproduced up to the
boundary interpolation error.

Quotient problems iterate on log S_k - log S_l (concave, better
conditioned); the line search keeps the discrete Hessian of every
equation row (complete-stencil and collar nodes) inside the
admissibility cone, and a solve converges only with all of them inside.
The Newton Jacobian and the linear trace system come from one operator
builder: sum_{p<=q} c_pq diag(W_pq) D_pq over the second-difference
stencils D_pq, with W the
spectral gradient in the Hessian's eigenframe for the Jacobian and W = I
for the trace system. One incomplete LU (ILU) of the trace system per
solve (SuperLU's spilu, drop tolerance 1e-4, fill factor 10,
MMD_AT_PLUS_A ordering, no pivoting) right-preconditions every GMRES
solve; there is no direct factor. Before the factor the system's
rows are put in node order (each equation row on its own node, each
closure row on the node that owns it), so every row has a nonzero
diagonal that no off-diagonal entry exceeds, and scaled to a unit
diagonal. The warm start is a GMRES solve of the trace system to a
relative residual of 1e-13. The Newton steps are inexact Newton steps
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 1982): every GMRES
solve runs one restart cycle, its last iterate is taken, and the line
search decides whether the step helps. Every stop, converged or not,
returns a report. The John ellipsoid of the mask's cut cloud is fitted
once per solve: it shapes the barrier of the warm start, and the report
keeps it for the barrier comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import geometry
from .errors import NumericError, PreconditionError
from .fields import DomainMask, ScalarField
from .symm import check_orders, esym_table, radius_bound_coeff, spectral_gradient

_LOG_FLOOR = 1e-300
_MAX_HALVINGS = 30                # line-search step halvings per Newton step
_GMRES_RTOL = 1e-10               # relative true residual of each Newton step
_START_RTOL = 1e-13               # relative true residual of the trace start
_GMRES_RESTART = 100              # GMRES iterations per solve: one cycle, no restart
_ILU_DROP_TOL = 1e-4              # the trace preconditioner's incomplete LU
_ILU_FILL_FACTOR = 10
_START_BLENDS = (0.0, 0.1, 0.25, 0.5, 0.75)   # barrier weights tried on the trace start


@dataclass
class DirichletProblem:
    """S_k/S_l (D2u) = rhs inside the mask, u = boundary_value on the cuts;
    the mask must span min_resolution nodes along some axis. The Newton
    iteration stops once the largest residual is at most tol, or after
    max_iters steps."""

    mask: DomainMask
    k: int
    l: int = 0
    boundary_value: float = 1.0
    rhs: float = 1.0
    min_resolution: int = 33
    tol: float = 1e-9
    max_iters: int = 100

    def __post_init__(self):
        check_orders(self.mask.n, self.k, self.l)
        if self.rhs <= 0:
            raise PreconditionError("right-hand side must be positive")
        if int(self.mask.extents().max()) < self.min_resolution:
            raise PreconditionError(
                f"domain spans fewer than {self.min_resolution} nodes across"
            )


@dataclass
class SolveReport:
    field: ScalarField
    residual_max: float
    newton_iters: int
    admissibility_margin: float
    converged: bool
    residual_history: list
    problem: DirichletProblem
    u_min: float = math.nan
    collar_margin: float = math.nan
    closure_margin: float = math.nan
    linear_iters: list = dc_field(default_factory=list)   # GMRES count per step
    domain_fit: geometry.EllipsoidFit = None   # John fit of the cut cloud; not serialized

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "newton_iters": self.newton_iters,
            "residual_max": self.residual_max,
            "admissibility_margin": self.admissibility_margin,
            "collar_margin": self.collar_margin,
            "closure_margin": self.closure_margin,
            "u_min": self.u_min,
            "residual_history": list(map(float, self.residual_history)),
            "linear_iters": list(self.linear_iters),
            "k": self.problem.k,
            "l": self.problem.l,
            "n": self.problem.mask.n,
            "boundary_value": self.problem.boundary_value,
            "rhs": self.problem.rhs,
            "h": self.problem.mask.grid.h,
            "inside_nodes": int(self.problem.mask.inside_count()),
        }


# ---------------------------------------------------------------------------
# barriers


@dataclass
class EllipsoidBarrier:
    """Quadratic with constant Hessian diag(1/mu_i^2)/N in the ellipsoid
    frame, normalized so the operator value is exactly the target."""

    center: np.ndarray
    mu: np.ndarray
    R: float
    sign: str                      # "upper" | "lower" (usage tag)
    k: int
    l: int = 0
    rhs: float = 1.0
    boundary_value: float = 1.0
    axes: np.ndarray = None        # orthonormal frame columns; identity default

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        n = self.mu.size
        if np.any(self.mu <= 0) or self.R <= 0:
            raise PreconditionError("barrier needs positive axes and radius")
        if self.sign not in ("upper", "lower"):
            raise PreconditionError("sign must be 'upper' or 'lower'")
        if self.axes is None:
            self.axes = np.eye(n)
        nu = 1.0 / self.mu**2
        T = esym_table(nu)
        ratio = T[self.k] / T[self.l]
        self.norm = (ratio / self.rhs) ** (1.0 / (self.k - self.l))
        H = self.axes @ np.diag(nu / self.norm) @ self.axes.T
        self.hessian = 0.5 * (H + H.T)
        Th = esym_table(np.linalg.eigvalsh(self.hessian))
        achieved = Th[self.k] / Th[self.l]
        if abs(achieved - self.rhs) > 1e-10 * self.rhs:
            raise NumericError("barrier normalization failed to hit the target")

    def quadratic_form(self, X) -> np.ndarray:
        Y = (np.atleast_2d(X) - self.center) @ self.axes
        return np.sum((Y / self.mu) ** 2, axis=1)

    def evaluate(self, X) -> np.ndarray:
        q = self.quadratic_form(X)
        return (q - self.R**2) / (2.0 * self.norm) + self.boundary_value


# ---------------------------------------------------------------------------
# the Newton solve


def solve(problem: DirichletProblem) -> SolveReport:
    mask = problem.mask
    st = mask.stencils()
    k, l = problem.k, problem.l
    enforce = ~st.is_closure                      # every equation row stays in the cone
    residual, jacobian = _equations(st, k, l, problem.rhs)

    def admissible(T):
        return not enforce.any() or _cone_margin(T[enforce], k) > 0.0

    # initial iterate: the linear trace problem with the same boundary rows
    # (exactly consistent with the Dirichlet data, admissible on convex
    # domains in practice, and the discrete solution when k = 1), blended
    # with the ellipsoid barrier if it is not admissible
    ell = geometry.john_fit(st.cut_points)
    b0 = _fit_barrier(ell, problem, "upper", ell.R)
    u_bar = b0.evaluate(mask.inside_coords())
    # one incomplete factor of the trace system preconditions the warm start
    # and every Newton step
    M, lu, trace_const = _trace_factor(st)
    alpha = float(np.trace(b0.hessian))
    u_lin, _ = _gmres(M, np.concatenate([alpha - trace_const, st.closure_rhs]), lu, _START_RTOL)
    # smallest barrier blend that clears the admissibility cone keeps the
    # boundary mismatch (and with it the damping) minimal
    for w in _START_BLENDS:
        u = (1.0 - w) * u_lin + w * u_bar
        F, T, H = residual(u)
        if admissible(T):
            break
    else:                                         # no blend is admissible
        u = u_bar
        F, T, H = residual(u)
    history = [float(np.max(np.abs(F)))]
    linear_iters = []
    iters = 0
    while history[-1] > problem.tol and iters < problem.max_iters:
        iters += 1
        delta, inner = _krylov_step(jacobian(H), F, lu)
        if not np.all(np.isfinite(delta)):
            raise NumericError(f"Newton step {iters} is not finite")
        linear_iters.append(inner)
        base = float(np.linalg.norm(F))
        s = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            u_try = u + s * delta
            F_try, T_try, H_try = residual(u_try)
            if admissible(T_try) and float(np.linalg.norm(F_try)) <= (1.0 - 1e-4 * s) * base:
                break
            s *= 0.5
        else:
            # no admissible step decreases the residual
            history.append(history[-1])
            break
        u, F, T, H = u_try, F_try, T_try, H_try
        history.append(float(np.max(np.abs(F))))
        # damping collapse: heavily damped steps that barely move the
        # residual will not recover; report honestly instead of burning
        # the iteration cap
        if len(history) > 8 and history[-1] > 0.98 * history[-9]:
            break

    # the rows the line search keeps in the cone must be in it at the end
    converged = history[-1] <= problem.tol and admissible(T)
    return _make_report(problem, st, ell, u, F, T, history, linear_iters, iters, converged)


def _equations(st, k: int, l: int, rhs: float):
    """The discrete system of S_k/S_l (D2u) = rhs on one stencil set:
    residual(u) -> (F, the table S_0..S_n of the discrete Hessian's
    spectrum at every inside node, the Hessian stack H of u), F with the
    equation rows first, then the closure rows; jacobian(H) -> dF/du at
    the iterate whose stack is H, as a CSR matrix. The solved form follows
    l, as in spectral_gradient: S_k = rhs for l = 0, and
    log S_k - log S_l = log rhs for quotients."""
    eq_rows = ~st.is_closure                      # equation rows
    rows = _operator_rows(st)

    def residual(u):
        H = st.hessian_stack(u)
        T = esym_table(np.linalg.eigvalsh(H))
        if l > 0:
            G = np.log(np.maximum(T[:, k], _LOG_FLOOR)) - np.log(
                np.maximum(T[:, l], _LOG_FLOOR)
            ) - math.log(rhs)
        else:
            G = T[:, k] - rhs
        F_cl = st.closure_matrix @ u - st.closure_rhs
        return np.concatenate([G[eq_rows], F_cl]), T, H

    def jacobian(H):
        # spectra on the equation rows only: closure rows are linear, and
        # their S_k may vanish
        lam, Q = np.linalg.eigh(H[eq_rows])
        g = spectral_gradient(lam, k, l)
        return _linear_operator(rows, np.einsum("nij,nj,nkj->nik", Q, g, Q))

    return residual, jacobian


def _operator_rows(st):
    """The stencil rows that the linear operator combines, as scipy CSR
    matrices over the stencil set's arrays: each second-difference family
    D_pq on the equation rows (the rows of nodes that are not closure
    nodes), and the closure rows."""
    def csr(rows):
        return sp.csr_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape, copy=False)

    eq_rows = ~st.is_closure
    return {key: csr(A)[eq_rows] for key, (A, _) in st.hess.items()}, csr(st.closure_matrix)


def _linear_operator(rows, W):
    """sum_{p<=q} c_pq diag(W[:, p, q]) D_pq on the equation rows, stacked
    over the closure rows, as a CSR matrix: rows is _operator_rows of the
    stencil set, c_pq is 1 on the diagonal and 2 off it, and W holds one
    symmetric weight matrix per equation row. A term whose weights are all
    zero is left out. The Newton Jacobian is this operator at
    W = Q diag(g) Q^T, g the spectral gradient; the trace system is it at
    W = I."""
    hess, closure = rows
    A = None
    for (p, q), D in hess.items():
        w = W[:, p, q]
        if not w.any():
            continue
        term = sp.diags((1.0 if p == q else 2.0) * w) @ D
        A = term if A is None else A + term
    return sp.vstack([A, closure]).tocsr()


def _cone_margin(T, k: int) -> float:
    """min S_1..S_k over the esym table T, one spectrum per row: positive
    exactly when every spectrum lies in the admissibility cone; nan for no
    rows."""
    if T.shape[0] == 0:
        return math.nan
    return float(np.min(T[:, 1 : k + 1]))


def _trace_factor(st):
    """The linear trace(D2u) system M, the linear operator at W = I (the
    summed pure second differences on the equation rows, stacked over the
    closure rows), its preconditioner v -> M^-1 v from an incomplete LU,
    and the Dirichlet constants of its trace rows. The factor is taken of M
    with its rows in node order, which gives every row a nonzero diagonal
    that no off-diagonal entry exceeds, and scaled to a unit diagonal."""
    eq_rows = ~st.is_closure
    n = max(p for p, _ in st.hess) + 1
    identity = np.broadcast_to(np.eye(n), (int(np.sum(eq_rows)), n, n))
    # sorted columns: GMRES sums each row of M @ v in stored order
    M = _linear_operator(_operator_rows(st), identity).sorted_indices()
    const = sum(st.hess[(d, d)][1] for d in range(n))[eq_rows]
    # the stacked row on each inside node: an equation row on its own node,
    # a closure row on its closure node
    row_of_node = np.argsort(np.concatenate([np.nonzero(eq_rows)[0], st.closure_nodes]))
    aligned = M[row_of_node]
    # unit diagonal: the drop rule then weighs equation rows (entries of
    # order 1/h^2) and closure rows (order 1) alike
    scale = 1.0 / np.abs(aligned.diagonal())
    try:
        ilu = spla.spilu(
            (sp.diags(scale) @ aligned).tocsc(), drop_tol=_ILU_DROP_TOL,
            fill_factor=_ILU_FILL_FACTOR, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
        )
    except RuntimeError as exc:
        raise NumericError(f"trace system factor failed: {exc}") from exc
    return M, lambda v: ilu.solve(scale * v[row_of_node]), const


def _gmres(A, b, lu, rtol):
    """GMRES on (A M^-1) y = b, x = M^-1 y, with lu(v) = M^-1 v. Preconditioning
    on the right keeps GMRES's stopping test on the true residual of A x = b.
    The last iterate of one restart cycle is taken, whether or not it met
    rtol. Returns x and the inner iteration count."""
    residuals = []                 # one per inner iteration
    op = spla.LinearOperator(A.shape, matvec=lambda v: A @ lu(v), dtype=float)
    y, _ = spla.gmres(
        op, b, rtol=rtol, atol=0.0, restart=_GMRES_RESTART, maxiter=1,
        callback=residuals.append, callback_type="pr_norm",
    )
    return lu(y), len(residuals)


def _krylov_step(J, F, lu):
    """Inexact Newton step delta from GMRES on J delta = -F, right-
    preconditioned by the trace preconditioner lu. Returns the step and its
    inner iteration count."""
    return _gmres(J, -F, lu, _GMRES_RTOL)


def _make_report(problem, st, fit, u, F, T, history, linear_iters, iters, converged):
    eq_rows = ~st.is_closure
    # residual over complete-stencil equation rows
    F_eq = F[: int(np.sum(eq_rows))]
    full_in_eq = st.is_full[eq_rows]
    res_full = float(np.max(np.abs(F_eq[full_in_eq]))) if st.is_full.any() else math.nan
    return SolveReport(
        field=ScalarField(mask=problem.mask, values=u, level=problem.boundary_value),
        residual_max=res_full,
        newton_iters=iters,
        admissibility_margin=_cone_margin(T[st.is_full], problem.k),
        converged=bool(converged),
        residual_history=history,
        problem=problem,
        linear_iters=linear_iters,
        u_min=float(np.min(u)),
        collar_margin=_cone_margin(T[st.is_collar], problem.k),
        closure_margin=_cone_margin(T[st.is_closure], problem.k),
        domain_fit=fit,
    )


# ---------------------------------------------------------------------------
# comparison checks


def comparison_check(report: SolveReport, b: EllipsoidBarrier) -> dict:
    """Maximum-principle violation of the solved field against a barrier.

    Upper barriers are compared on the nodes inside their own ellipsoid
    (where the barrier boundary data dominates the solution's); lower
    barriers everywhere. Also evaluates the scalar radius sandwich implied
    by evaluating each barrier at its center against the solution minimum:
    R_in^2 <= 2 N (bv - u_min) <= R_out^2 with N the barrier normalizer.
    """
    f = report.field
    X = f.mask.inside_coords()
    u = f.values
    v = b.evaluate(X)
    q = b.quadratic_form(X)
    if b.sign == "upper":
        inside = q <= b.R**2 * (1.0 + 1e-12)
        viol = np.maximum(u[inside] - v[inside], 0.0)
    else:
        viol = np.maximum(v - u, 0.0)
    max_violation = float(viol.max()) if viol.size else 0.0
    drop = b.boundary_value - report.u_min
    if b.sign == "upper":
        scalar_slack = 2.0 * b.norm * drop - b.R**2
    else:
        scalar_slack = b.R**2 - 2.0 * b.norm * drop
    return {
        "sign": b.sign,
        "max_violation": max_violation,
        "scalar_slack": float(scalar_slack),
        "normalizer": float(b.norm),
        "R": float(b.R),
    }


def barrier_pair_for_report(report: SolveReport):
    """Inscribed and circumscribed ellipsoid barriers fitted to the domain.

    Both share the shape of the solve's enclosing ellipsoid; the inner copy
    is the largest concentric scaling certified inside the domain via the
    cut cloud.
    """
    ell, p = report.domain_fit, report.problem
    mu = ell.semi / ell.R  # det-1 ellipsoid shape: semi-axes mu_i * R
    Y = (p.mask.stencils().cut_points - ell.center) @ ell.axes
    qvals = np.sqrt(np.sum((Y / (mu * ell.R)) ** 2, axis=1))
    upper = _fit_barrier(ell, p, "upper", ell.R * float(np.min(qvals)))
    lower = _fit_barrier(ell, p, "lower", ell.R * float(np.max(qvals)))
    return upper, lower


def _fit_barrier(fit, problem, sign: str, R: float) -> EllipsoidBarrier:
    """The barrier of problem on the shape of the ellipsoid fit, at radius R."""
    return EllipsoidBarrier(
        center=fit.center, mu=fit.semi / fit.R, R=R, sign=sign, k=problem.k, l=problem.l,
        rhs=problem.rhs, boundary_value=problem.boundary_value, axes=fit.axes,
    )


def radius_estimate_check(report: SolveReport, fit, k: int | None = None) -> dict:
    """Observed roundness radius against the universal bound coeff * gamma.

    Valid for solved problems with unit boundary data and the anchored
    normalization; the bound is evaluated both for the raw fitted radius
    and for the sharp value after renormalizing the solution minimum to
    zero (the scale-invariant form).
    """
    p = report.problem
    k = k if k is not None else p.k
    if abs(p.boundary_value - 1.0) > 1e-12:
        raise PreconditionError("radius estimate assumes unit boundary data")
    coeff = radius_bound_coeff(p.mask.n, k)
    bound = coeff * fit.gamma
    drop = 1.0 - max(report.u_min, 0.0)
    r_norm = fit.R / math.sqrt(max(drop, 1e-300))
    limit = float(bound * (1.0 + 4.0 * p.mask.grid.h))    # a grid slack of 4h
    return {
        "R_observed": float(fit.R),
        "R_normalized": float(r_norm),
        "bound": float(bound),
        "limit": limit,
        "coeff": float(coeff),
        "gamma": float(fit.gamma),
        "passed": bool(fit.R <= limit),
        "passed_normalized": bool(r_norm <= limit),
    }
