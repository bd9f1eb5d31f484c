"""Convex-body measurements of sub-level sets.

Bodies come from ray-shooting analytic candidates (spectrally accurate in
the radial direction) or from the boundary cut cloud of a domain mask. On
top of them sit the concentric two-ball roundness fit, the minimum-volume
enclosing ellipsoid of a point cloud, level profiles (volume and boundary
measure per level), and the gradient-image area identities for convex
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .candidates import require_candidate
from .errors import (
    AdmissibilityError,
    DegenerateDomainError,
    NonConvergenceError,
    PreconditionError,
)
from .fields import ScalarField
from .polar import directions, radial_crossings


@dataclass
class ConvexBody:
    """Convex hull of a vertex cloud in R^n (n = 2 or 3).

    One Qhull hull gives the outward facet equations a.x + b <= 0 (unit
    normals a), the volume and the boundary measure (length for n=2, area
    for n=3). A cloud with no interior raises DegenerateDomainError.
    """

    n: int
    vertices: np.ndarray

    def __post_init__(self):
        from scipy.spatial import ConvexHull, QhullError

        self.vertices = np.asarray(self.vertices, dtype=float)
        try:
            self._hull = ConvexHull(self.vertices)
        except (QhullError, ValueError) as exc:  # ValueError: no points
            raise DegenerateDomainError("body has no interior") from exc

    # -- measures ---------------------------------------------------------

    def volume(self) -> float:
        return float(self._hull.volume)

    def surface(self) -> float:
        """Boundary length (n=2) or area (n=3)."""
        return float(self._hull.area)

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def diameter(self) -> float:
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    # -- support machinery --------------------------------------------------

    def boundary_distance(self, x) -> float:
        """Distance from an interior point to the boundary (min over facet
        planes, exact for interior points of a convex polytope)."""
        x = np.asarray(x, dtype=float)
        A, b = self._hull.equations[:, :-1], self._hull.equations[:, -1]
        return float(np.min(-(A @ x + b)))

    def max_vertex_distance(self, x) -> float:
        return float(np.max(np.linalg.norm(self.vertices - np.asarray(x), axis=1)))

    def vertices_extreme(self) -> bool:
        """Every vertex within 1e-9 * diameter of the hull boundary."""
        A, b = self._hull.equations[:, :-1], self._hull.equations[:, -1]
        viol = np.max(self.vertices @ A.T + b, axis=1)
        return bool(np.max(np.abs(np.minimum(viol, 0.0))) <= 1e-9 * self.diameter())


# ---------------------------------------------------------------------------
# extraction


def extract_body(source, t: float, m_dirs: int | None = None) -> ConvexBody:
    """Boundary of the open sub-level set at level t.

    The candidate is ray-shot from its anchor (unique crossing by
    monotonicity of the radial derivative) along the `polar.directions`
    for m_dirs.
    """
    if t <= 0:
        raise PreconditionError("level must be positive")
    require_candidate(source)
    dirs = directions(source.n, m_dirs)
    rho = radial_crossings(source, t, dirs)
    return ConvexBody(n=source.n, vertices=source.anchor + rho[:, None] * dirs)


def body_from_mask(mask) -> ConvexBody:
    """Body whose boundary is the mask's own Dirichlet cut cloud."""
    return ConvexBody(n=mask.n, vertices=mask.stencils().cut_points)


# ---------------------------------------------------------------------------
# roundness fits


@dataclass
class BallFit:
    """Concentric two-ball sandwich: B_{R/gamma}(x0) inside, B_{gamma R}(x0) outside."""

    center: np.ndarray
    R: float
    gamma: float

    def verify(self, body: ConvexBody) -> bool:
        """Certify both balls, each to a relative slack of 1e-6."""
        r_in = body.boundary_distance(self.center)
        r_out = body.max_vertex_distance(self.center)
        ok_in = self.R / self.gamma <= r_in * (1.0 + 1e-6) + 1e-300
        ok_out = r_out <= self.gamma * self.R * (1.0 + 1e-6)
        return bool(ok_in and ok_out)


def ball_fit(body: ConvexBody) -> BallFit:
    """Concentric ball pair of least radius ratio, by one convex solve.

    The ratio r_out(x) / r_in(x) of the farthest-vertex distance (convex)
    to the boundary distance (concave, positive inside) is quasiconvex in
    the center x. With x = y / s (Charnes-Cooper) the square of its least
    value is the optimum of the convex program

        min z  subject to  -(A y + b s) >= 1,  z >= |s v_i - y|^2,

    over the facet equations [A, b] (the first constraint is
    s r_in(x) >= 1) and the hull vertices v_i. The body is moved to its
    centroid c and scaled by r_in(c), so the start y = 0, s = 1 lies on the
    linear constraint. One SLSQP solve with analytic Jacobians follows, and
    its last iterate is taken whatever the exit status: SLSQP may report a
    failed line search at the optimum. Both radii are measured at that
    center, so the containment is certified; a center outside the body
    raises NonConvergenceError.
    """
    from scipy.optimize import minimize

    n = body.n
    A, b = body._hull.equations[:, :-1], body._hull.equations[:, -1]
    c = body.centroid()
    rho = body.boundary_distance(c)
    V = (body.vertices[body._hull.vertices] - c) / rho
    b = (b + A @ c) / rho
    lin_jac = np.column_stack([-A, -b, np.zeros(b.size)])
    e_z = np.zeros(n + 2)
    e_z[-1] = 1.0

    def gaps(w):
        y, s, z = w[:n], w[n], w[-1]
        D = s * V - y
        return np.concatenate([-(A @ y + b * s) - 1.0, z - np.einsum("ij,ij->i", D, D)])

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
    r_in = body.boundary_distance(x0)
    if not r_in > 0:
        raise NonConvergenceError("ball fit center left the body")
    r_out = body.max_vertex_distance(x0)
    return BallFit(center=x0, R=math.sqrt(r_out * r_in), gamma=math.sqrt(r_out / r_in))


@dataclass
class EllipsoidFit:
    """Enclosing ellipsoid: center, orthonormal axes (columns) and semi-axes.

    R is the geometric mean of the semi-axes; the volume-preserving map A
    (det 1) with eigenvalues mu = R / semi sends the ellipsoid to the ball of
    radius R about the center.
    """

    center: np.ndarray
    axes: np.ndarray
    semi: np.ndarray

    @property
    def R(self) -> float:
        return float(np.prod(self.semi) ** (1.0 / self.semi.size))

    @property
    def mu(self) -> np.ndarray:
        """Eigenvalues of A, ascending."""
        return np.sort(self.R / self.semi)

    @property
    def A(self) -> np.ndarray:
        return (self.axes * (self.R / self.semi)) @ self.axes.T

    def aspect(self) -> float:
        return float(math.sqrt(self.mu[-1] / self.mu[0]))

    def verify(self, body: "ConvexBody") -> bool:
        """Certify the mapped body sits between balls whose radius ratio is
        within the dimensional sandwich factor n, to a relative slack of 1e-4."""
        Y = (body.vertices - self.center) @ self.A.T
        r_out = float(np.max(np.linalg.norm(Y, axis=1)))
        r_in = ConvexBody(n=body.n, vertices=Y).boundary_distance(np.zeros(body.n))
        ok_R = r_out <= self.R * (1.0 + 1e-4)
        ok_ratio = r_out <= body.n * r_in * (1.0 + 1e-4)
        return bool(ok_R and ok_ratio and r_in > 0)


def _leverages(Q, u):
    """Inverse moment matrix V^-1 of weights u and the leverages q_i' V^-1 q_i."""
    try:
        Vinv = np.linalg.inv(Q.T @ (Q * u[:, None]))
    except np.linalg.LinAlgError:
        raise NonConvergenceError("ellipsoid fit hit a singular moment matrix")
    return Vinv, np.einsum("ij,jk,ik->i", Q, Vinv, Q)


def _core_set(P) -> list:
    """Kumar-Yildirim core set: the two extreme points along x_1, then along
    each direction orthogonal to the differences of the pairs already taken;
    full-dimensional whenever the cloud is."""
    d = P.shape[1]
    S, W = [], np.zeros((d, 0))
    for _ in range(d):
        # eigenvectors of W W' for its least eigenvalue, 0, are orthogonal
        # to the columns of W; with no column yet the first is x_1
        y = P @ np.linalg.eigh(W @ W.T)[1][:, 0]
        i, j = int(y.argmax()), int(y.argmin())
        S += [i, j]
        W = np.column_stack([W, P[i] - P[j]])
    return S


def _restricted_dual(Q, gap: float) -> np.ndarray:
    """Weights u on the simplex maximizing log det V(u) over the rows q_i of
    Q, until the leverages M_i = q_i' V^-1 q_i satisfy
    max_i M_i <= (d+1)(1 + gap).

    Primal-dual Newton with Mehrotra's predictor-corrector on the KKT system
    M(u) + z - lam = 0, u_i z_i = sigma mu, sum u = 1, in the scaled step
    du = u dv, for which the Newton matrix is U (K o K) U + diag(u z) with
    K = Q V^-1 Q'.
    """
    m, dp1 = Q.shape
    u = np.full(m, 1.0 / m)
    Vinv, M = _leverages(Q, u)
    lam = float(M.max()) + 1.0
    z = lam - M
    for _ in range(50):
        if M.max() <= dp1 * (1.0 + gap):
            return u
        K = Q @ Vinv @ Q.T
        B = (K * K) * np.outer(u, u)
        B[np.diag_indices(m)] += u * z
        try:
            Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            raise NonConvergenceError("ellipsoid fit hit a singular Newton matrix")
        y = Binv @ u
        r = u * (M + z - lam)
        mu = float(u @ z) / m

        def step(rc):
            # solve B dv + dlam u = r + rc with u'dv = 0, then go 99 % of
            # the way to the boundary of u > 0, z > 0 at most
            x = Binv @ (r + rc)
            dlam = float(u @ x) / float(u @ y)
            dv = x - dlam * y
            dz = rc / u - z * dv
            a = min(1.0, 0.99 / max(-dv.min(), 1e-300), 0.99 / max(-(dz / z).min(), 1e-300))
            return dv, dz, dlam, a

        dv, dz, _, a = step(-u * z)
        sigma = (float((u + a * u * dv) @ (z + a * dz)) / (m * mu)) ** 3
        dv, dz, dlam, a = step(sigma * mu - u * z - u * dv * dz)
        u = u + a * u * dv
        u /= u.sum()
        z = z + a * dz
        lam += a * dlam
        Vinv, M = _leverages(Q, u)
    raise NonConvergenceError("ellipsoid fit exceeded its Newton steps")


def mvee(points):
    """Minimum-volume enclosing ellipsoid (x-c)' E (x-c) <= 1.

    Active-set solve of the dual, max log det V(u) over weights u on the
    simplex (Todd, Minimum-Volume Ellipsoids, SIAM 2016, ch. 3-4). The
    support S starts as the Kumar-Yildirim core set. Each round solves the
    dual restricted to S by primal-dual Newton, recomputes the leverages
    M_j of all points from scratch, and stops when the optimality gap
    max_j M_j / (d+1) - 1 is at most 1e-12. Otherwise the most violated
    points join S, as many as a support can hold ((d+1)(d+2)/2), and points
    whose weight fell below 1e-9 leave it. At most 50 rounds of at most 50
    Newton steps each; past that, on a flat cloud or on a singular moment
    matrix, the fit raises NonConvergenceError.
    """
    P = np.asarray(points, dtype=float)
    N, d = P.shape
    if N < d + 1:
        raise PreconditionError("need at least d+1 points for an ellipsoid")
    # the fit is affine-equivariant: solve it for the whitened cloud
    shift = P.mean(axis=0)
    try:
        L = np.linalg.cholesky(np.cov(P, rowvar=False, bias=True))
    except np.linalg.LinAlgError:
        raise NonConvergenceError("ellipsoid fit got a flat point cloud")
    P = np.linalg.solve(L, (P - shift).T).T
    Q = np.column_stack([P, np.ones(N)])
    dp1 = d + 1
    active = np.zeros(N, dtype=bool)
    active[_core_set(P)] = True
    for _ in range(50):
        S = np.flatnonzero(active)
        # S is solved below the certified gap, so only points outside S
        # can fail the certificate
        u = np.zeros(N)
        u[S] = _restricted_dual(Q[S], 1e-13)
        _, M = _leverages(Q, u)
        if M.max() <= dp1 * (1.0 + 1e-12):
            break
        add = np.argsort(-M)[: dp1 * (d + 2) // 2]
        active &= u > 1e-9
        active[add[M[add] > dp1 * (1.0 + 1e-12)]] = True
    else:
        raise NonConvergenceError("ellipsoid fit exceeded its rounds")
    c = u @ P
    cov = P.T @ (P * u[:, None]) - np.outer(c, c)
    E = np.linalg.inv(L @ cov @ L.T) / d
    E = 0.5 * (E + E.T)
    return E, shift + L @ c


def john_fit(points) -> EllipsoidFit:
    """Minimum-volume enclosing ellipsoid of every point of the cloud."""
    E, c = mvee(points)
    w, axes = np.linalg.eigh(E)
    if np.any(w <= 0):
        raise NonConvergenceError("enclosing ellipsoid not positive definite")
    return EllipsoidFit(center=c, axes=axes, semi=1.0 / np.sqrt(w))


# ---------------------------------------------------------------------------
# level profiles


@dataclass
class LevelProfile:
    """Volumes and boundary measures of sub-level sets over a level grid."""

    levels: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    ndim: int = 2

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        self.nu = np.asarray(self.nu, dtype=float)
        if self.levels.size and np.any(np.diff(self.levels) <= 0):
            raise PreconditionError("levels must be strictly increasing")
        if self.levels.size and np.any(np.diff(self.mu) < -1e-12 * self.mu.max()):
            raise PreconditionError("volume profile must be increasing")

    def mu_at(self, s: float) -> float:
        return float(np.interp(s, self.levels, self.mu))

    def nu_at(self, s: float) -> float:
        return float(np.interp(s, self.levels, self.nu))

    def _knots(self, a: float, b: float):
        """a, the levels strictly inside (a, b), and b, with nu there."""
        inner = self.levels[(self.levels > a) & (self.levels < b)]
        s = np.concatenate([[a], inner, [b]])
        return s, np.interp(s, self.levels, self.nu)

    def integrate_nu(self, a: float, b: float) -> float:
        """Exact integral of the piecewise-linear nu over [a, b]."""
        s, nu = self._knots(a, b)
        return float(np.trapezoid(nu, s))


def level_profile(source, levels, m_dirs: int | None = None) -> LevelProfile:
    require_candidate(source)
    levels = np.asarray(levels, dtype=float)
    mu = np.empty(levels.size)
    nu = np.empty(levels.size)
    for i, t in enumerate(levels):
        body = extract_body(source, float(t), m_dirs=m_dirs)
        mu[i] = body.volume()
        nu[i] = body.surface()
    return LevelProfile(levels=levels, mu=mu, nu=nu, ndim=source.n)


def cone_lower_bound(profile: LevelProfile, s: float, t: float, tol: float = 1e-9):
    """Check mu(s) >= (s/t)^n mu(t) - tol; returns (passed, slack).

    The dimension is the body dimension stored in `profile.ndim`.
    """
    if not 0 < s <= t:
        raise PreconditionError("need 0 < s <= t")
    n = profile.ndim
    lhs = profile.mu_at(s)
    rhs = (s / t) ** n * profile.mu_at(t)
    slack = lhs - rhs
    return bool(slack >= -tol * max(rhs, 1.0)), float(slack)


def mean_value_level(profile: LevelProfile, a: float, b: float) -> float:
    """Level s* in [a, b] where nu(s*) equals its average over [a, b].

    Solved exactly on the first linear piece of the interpolant where nu
    minus its average changes sign; a flat profile ties to the midpoint.
    """
    if not (profile.levels[0] <= a < b <= profile.levels[-1]):
        raise PreconditionError("interval outside the profile range")
    avg = profile.integrate_nu(a, b) / (b - a)
    s, nu = profile._knots(a, b)
    g = nu - avg
    if np.max(np.abs(g)) <= 1e-12 * max(abs(avg), 1.0):
        return 0.5 * (a + b)
    # g integrates to zero over [a, b], so some piece changes sign
    i = int(np.flatnonzero(g[:-1] * g[1:] <= 0)[0])
    if g[i] == 0:
        return float(s[i])
    return float(s[i] + (s[i + 1] - s[i]) * g[i] / (g[i] - g[i + 1]))


# ---------------------------------------------------------------------------
# normal mapping


def _convex_spectra(f: ScalarField):
    """The stencil set of f, its Hessian stack and their spectra; raises
    unless every complete-stencil node's Hessian is positive definite."""
    st = f.mask.stencils()
    H = f.hessian_stack()
    lam = np.linalg.eigvalsh(H)
    if np.min(lam[st.is_full]) <= 0:
        raise AdmissibilityError("field is not strictly convex on the mask")
    return st, H, lam


def normal_map_area(f: ScalarField) -> float:
    """Quadrature of det D2u over the mask with cut-cell weights."""
    st, _, lam = _convex_spectra(f)
    return float(np.sum(np.prod(lam, axis=1) * st.weights))


def forward_image_area(f: ScalarField) -> float:
    """Volume of the convex hull of the discrete gradient image: the
    gradients at inside nodes plus their second-order extrapolations to
    the cuts."""
    from scipy.spatial import ConvexHull

    st, H, _ = _convex_spectra(f)
    G = f.gradient_stack()
    r = st.cut_node
    ext = G[r] + st.cut_theta[:, None] * f.grid.h * st.cut_dir[:, None] * H[r, :, st.cut_axis]
    return float(ConvexHull(np.vstack([G, ext])).volume)
