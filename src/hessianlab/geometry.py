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
    NumericError,
    PreconditionError,
)
from .fields import ScalarField
from .polar import directions, radial_crossings


@dataclass
class ConvexBody:
    """Convex hull of a vertex cloud in R^n (n = 2 or 3).

    The hull gives the outward facet equations a.x + b <= 0 (unit normals
    a), the indices of the hull vertices, the volume and the boundary
    measure (length for n=2, area for n=3). In 2D it is Andrew's monotone
    chain (Inf. Process. Lett. 9, 1979): vertices in counterclockwise
    order, one edge per facet, points on an edge dropped, shoelace area. In
    3D it is Qhull. A cloud with no interior raises DegenerateDomainError;
    in 2D that is a hull whose area is at most 1e-12 times the square of
    the cloud's bounding-box diagonal.
    """

    n: int
    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.n == 2:
            self._chain_2d()
        else:
            self._qhull()

    def _chain_2d(self):
        P = self.vertices
        order = np.lexsort((P[:, 1], P[:, 0]))
        pts = P[order].tolist()

        def half(idx):
            # keep left turns only: a collinear or repeated point leaves
            chain = []
            for i in idx:
                x, y = pts[i]
                while len(chain) >= 2:
                    (ox, oy), (ax, ay) = pts[chain[-2]], pts[chain[-1]]
                    if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
                        break
                    chain.pop()
                chain.append(i)
            return chain[:-1]

        ring = half(range(len(pts))) + half(range(len(pts) - 1, -1, -1))
        self.hull_vertices = order[ring]
        W = P[self.hull_vertices]
        E = np.roll(W, -1, axis=0) - W
        length = np.hypot(E[:, 0], E[:, 1])
        self._volume = 0.5 * float(np.sum(W[:, 0] * E[:, 1] - W[:, 1] * E[:, 0]))
        self._surface = float(np.sum(length))
        if len(ring) < 3 or not self._volume > 1e-12 * self.diameter() ** 2:
            raise DegenerateDomainError("body has no interior")
        A = np.column_stack([E[:, 1], -E[:, 0]]) / length[:, None]
        self.equations = np.column_stack([A, -np.einsum("ij,ij->i", A, W)])

    def _qhull(self):
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(self.vertices)
        except (QhullError, ValueError) as exc:  # ValueError: no points
            raise DegenerateDomainError("body has no interior") from exc
        self.hull_vertices = hull.vertices
        self.equations = hull.equations
        self._volume, self._surface = float(hull.volume), float(hull.area)

    # -- measures ---------------------------------------------------------

    def volume(self) -> float:
        return self._volume

    def surface(self) -> float:
        """Boundary length (n=2) or area (n=3)."""
        return self._surface

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
        A, b = self.equations[:, :-1], self.equations[:, -1]
        return float(np.min(-(A @ x + b)))

    def max_vertex_distance(self, x) -> float:
        return float(np.max(np.linalg.norm(self.vertices - np.asarray(x), axis=1)))

    def vertices_extreme(self) -> bool:
        """Every vertex within 1e-9 * diameter of the hull boundary."""
        A, b = self.equations[:, :-1], self.equations[:, -1]
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
    linear constraint; `_charnes_cooper` solves the program. Both radii are
    measured at the returned center, so the containment is certified; a
    center outside the body raises NonConvergenceError.
    """
    n = body.n
    A, b = body.equations[:, :-1], body.equations[:, -1]
    c = body.centroid()
    rho = body.boundary_distance(c)
    V = (body.vertices[body.hull_vertices] - c) / rho
    y, s = _charnes_cooper(A, (b + A @ c) / rho, V)
    x0 = c + rho * y / s
    r_in = body.boundary_distance(x0)
    if not r_in > 0:
        raise NonConvergenceError("ball fit center left the body")
    r_out = body.max_vertex_distance(x0)
    return BallFit(center=x0, R=math.sqrt(r_out * r_in), gamma=math.sqrt(r_out / r_in))


def _charnes_cooper(A, b, V) -> tuple:
    """(y, s) of min z subject to c(w) >= 0 over w = (y, s, z), where c
    holds the linear rows -(A y + b s) - 1 and the quadratic rows
    z - |s v_i - y|^2.

    Primal-dual interior point with Mehrotra's predictor-corrector, as in
    `_restricted_dual`, on c(w) = t with slacks t > 0, multipliers lam > 0
    and the Lagrangian's gradient e_z - J' lam = 0 (J the Jacobian of c).
    The slacks keep the iteration exact where a row is nearly active: c
    itself is computed there to roundoff only. Each step solves the reduced
    Newton system (J' diag(lam / t) J + L) dw = rhs, where L = 2 sum_i lam_i
    G_i' G_i, G_i = [I, -v_i, 0], is the curvature of the quadratic rows,
    and moves t and lam separately a fraction eta of the way to the
    boundary of t > 0 and lam > 0; eta = 1 - gap / z, clipped to
    [0.99, 1 - 1e-6], so the last steps converge fast. Where the least
    ratio is reached along a segment of centers (a vertex whose adjacent
    facets are the nearest), the system becomes singular as the gap closes:
    it is solved from its eigenpairs above 1e-13 of the largest, after a
    unit-diagonal scaling. The start is y = 0, s = 1, z = max |v_i|^2, and
    t = max(c(w), 0.1) with t lam = 0.1, so the nearly active rows start
    centred. Stops when the total complementarity gap and the largest
    primal residual are at most 1e-13 z; past 50 steps, or once a step is
    not finite, raises NonConvergenceError.
    """
    m, n = A.shape
    p = V.shape[0]
    N = m + p
    VV = np.einsum("ij,ij->i", V, V)
    # J on the first N rows, then the rows of the G_i, so that one product
    # weighted by lam / t and 2 lam_i gives the Newton matrix
    JG = np.zeros((N + n * p, n + 2))
    J = JG[:N]
    J[:m, :n], J[:m, n], J[m:, -1] = -A, -b, 1.0
    JG[N:, :n] = np.tile(np.eye(n), (p, 1))
    JG[N:, n] = -V.ravel()
    w = np.concatenate([np.zeros(n), [1.0, VV.max()]])

    def rows(w):
        """c(w); writes the quadratic rows of J at w."""
        y, s = w[:n], w[n]
        Vy = V @ y
        J[m:, :n] = 2.0 * (s * V - y)
        J[m:, n] = 2.0 * (Vy - s * VV)
        return np.concatenate(
            [J[:m] @ w - 1.0, w[-1] - (s * s) * VV + (2.0 * s) * Vy - float(y @ y)]
        )

    c = rows(w)
    t = np.maximum(c, 0.1)
    lam = 0.1 / t
    diag = np.diag_indices(n + 2)
    for _ in range(50):
        r_p = c - t
        gap = float(t @ lam)
        if not math.isfinite(gap):
            raise NonConvergenceError("ball fit took a step that is not finite")
        if gap <= 1e-13 * w[-1] and np.abs(r_p).max() <= 1e-13 * w[-1]:
            return w[:n], w[n]
        d = lam / t
        K = JG.T @ (JG * np.concatenate([d, np.repeat(2.0 * lam[m:], n)])[:, None])
        scale = 1.0 / np.sqrt(K[diag])
        ev, Q = np.linalg.eigh(K * scale * scale[:, None])
        keep = ev > 1e-13 * ev[-1]
        Q = Q[:, keep] * scale[:, None]
        K_inv = (Q / ev[keep]) @ Q.T
        v = d * r_p

        def direction(target):
            # target: the complementarity target over t; the right-hand
            # side is J' (target - lam - d r_p) - (e_z - J' lam)
            dw = K_inv @ (J.T @ (target - v)) - K_inv[:, -1]
            dt = J @ dw + r_p
            return dw, dt, target - lam - d * dt

        def steps(dt, dl):
            return (
                1.0 / max(1.0, -float((dt / t).min())),
                1.0 / max(1.0, -float((dl / lam).min())),
            )

        dw, dt, dl = direction(0.0)
        a_p, a_d = steps(dt, dl)
        sigma = (float((t + a_p * dt) @ (lam + a_d * dl)) / gap) ** 3
        dw, dt, dl = direction((sigma * gap / N - dt * dl) / t)
        a_p, a_d = steps(dt, dl)
        eta = 1.0 - min(0.01, max(1e-6, gap / w[-1]))
        w = w + eta * a_p * dw
        t = t + eta * a_p * dt
        lam = lam + eta * a_d * dl
        c = rows(w)
    raise NonConvergenceError("ball fit exceeded its Newton steps")


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
    Raises NumericError if rounding puts the interpolated level outside
    [a, b].
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
    s_star = float(s[i] + (s[i + 1] - s[i]) * g[i] / (g[i] - g[i + 1]))
    if not a <= s_star <= b:
        raise NumericError(f"mean-value level {s_star!r} lies outside [{a!r}, {b!r}]")
    return s_star


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
    st, H, _ = _convex_spectra(f)
    G = f.gradient_stack()
    r = st.cut_node
    ext = G[r] + st.cut_theta[:, None] * f.grid.h * st.cut_dir[:, None] * H[r, :, st.cut_axis]
    return ConvexBody(n=f.mask.n, vertices=np.vstack([G, ext])).volume()
