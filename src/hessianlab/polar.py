"""Radial probing and polar quadrature over convex sub-level sets.

All routines exploit that a normalized convex function is strictly
increasing along rays from its anchor, so each ray crosses a level exactly
once and bracketing plus bisection is safe. `bisect` is the one crossing
search of the package: rays here, grid arms in `fields.rasterize`.
`directions` is the one probe-direction rule (uniform angles in 2D,
icosphere vertices in 3D); the quadrature rule `_polar_rule` is separate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import PreconditionError, UnboundedSublevelError

R_CAP = 1e12


def directions_2d(m: int) -> np.ndarray:
    """m unit directions at uniform angles."""
    th = 2.0 * np.pi * np.arange(m) / m
    return np.stack([np.cos(th), np.sin(th)], axis=1)


@functools.lru_cache(maxsize=None)
def sphere_mesh(subdiv: int):
    """Icosphere directions: the unit vertices of the icosahedron with each
    face split into four subdiv times (10 * 4**subdiv + 2 of them), built
    once per level and read-only (shared)."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    cache = {tuple(np.round(v, 12)): i for i, v in enumerate(verts)}

    def midpoint(i, j):
        p = (np.asarray(verts[i]) + np.asarray(verts[j])) / 2.0
        p = p / np.linalg.norm(p)
        key = tuple(np.round(p, 12))
        if key not in cache:
            cache[key] = len(verts)
            verts.append(tuple(p))
        return cache[key]

    for _ in range(subdiv):
        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    V = np.asarray(verts, dtype=float)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    V.flags.writeable = False
    return V


def directions(n: int, m_dirs: int | None = None) -> np.ndarray:
    """Probe directions: m_dirs uniform angles in 2D (720 by default); in 3D
    the vertices of the coarsest icosphere with at least m_dirs of them
    (10 * 4**s + 2 at subdivision s, capped at s = 5, the default)."""
    if n == 2:
        return directions_2d(m_dirs or 720)
    level = 0
    while level < 5 and (m_dirs is None or 10 * 4**level + 2 < m_dirs):
        level += 1
    return sphere_mesh(level)


def bisect(below, hi: np.ndarray) -> np.ndarray:
    """Crossing in (0, hi) per entry: 90 halvings of [0, hi] that keep the
    half where below(mid) holds at the low end, then the last midpoint.
    below is a vectorized predicate, true before the crossing. A halving
    that moves no bracket end leaves the loop: every later one would
    repeat it, so the result is the same."""
    lo = np.zeros_like(hi)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        ok = below(mid)
        new_lo = np.where(ok, mid, lo)
        new_hi = np.where(ok, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def radial_crossings(cand, t: float, dirs: np.ndarray) -> np.ndarray:
    """Radius where the candidate reaches level t along each direction.

    Results are memoized on the candidate (`AnalyticCandidate._crossings`),
    keyed on the direction set, then on the exact level, and returned
    read-only: every growth functional and body extraction of one analysis
    probes the same sub-level sets, and each is bisected once.
    """
    if t <= 0:
        raise PreconditionError("level must be positive")
    dirs = np.asarray(dirs, dtype=float)
    rays = (dirs.shape, dirs.tobytes())
    level = float(t)
    levels = cand._crossings.get(rays, {})
    if level in levels:
        return levels[level]
    a = cand.anchor[None, :]

    def val(r):
        return cand.value(a + r[:, None] * dirs)

    hi = np.ones(dirs.shape[0])
    for _ in range(200):
        below = val(hi) < t
        if not below.any():
            break
        hi = np.where(below, hi * 2.0, hi)
        if np.any(hi > R_CAP):
            raise UnboundedSublevelError("sub-level set escaped the probe range")
    rho = bisect(lambda r: val(r) < t, hi)
    rho.flags.writeable = False
    cand._crossings.setdefault(rays, {})[level] = rho
    return rho


@functools.lru_cache(maxsize=None)
def _gl_nodes():
    """The 48 Gauss-Legendre nodes and weights mapped to [0, 1], read-only
    (shared)."""
    x, w = np.polynomial.legendre.leggauss(48)
    q, wq = 0.5 * (x + 1.0), 0.5 * w
    q.flags.writeable = False
    wq.flags.writeable = False
    return q, wq


def _polar_rule(n: int, m_dirs: int):
    """Directions and angular weights of the polar rule: uniform angles
    (trapezoid) on the circle for n=2; for n=3, Gauss-Legendre in the polar
    angle's cosine times a uniform azimuth (candidates have n = 2 or 3)."""
    if n == 2:
        return directions_2d(m_dirs), np.full(m_dirs, 2.0 * np.pi / m_dirs)
    n_z = max(int(math.sqrt(m_dirs / 2)), 8)
    n_phi = 2 * n_z
    z, wz = np.polynomial.legendre.leggauss(n_z)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    s = np.sqrt(1.0 - zz**2)
    dirs = np.stack([s * np.cos(pp), s * np.sin(pp), zz], axis=-1).reshape(-1, 3)
    wdir = (np.tile(wz[:, None], (1, n_phi)) * (2.0 * np.pi / n_phi)).ravel()
    return dirs, wdir


def integrate_sublevel(cand, t: float, integrand, m_dirs: int = 720) -> float:
    """Integral of integrand(points) over the open sub-level set at t.

    Polar rule (`_polar_rule`) over directions, 48-point Gauss-Legendre
    radially. Relative accuracy is far below 1e-4 for smooth data.
    """
    n = cand.n
    dirs, wdir = _polar_rule(n, m_dirs)
    rho = radial_crossings(cand, t, dirs)
    q, wq = _gl_nodes()
    R = rho[:, None] * q[None, :]                       # (M, 48)
    pts = cand.anchor[None, None, :] + R[..., None] * dirs[:, None, :]
    f = integrand(pts.reshape(-1, n)).reshape(R.shape)
    radial = np.sum(f * R ** (n - 1) * wq[None, :], axis=1) * rho
    return float(np.sum(radial * wdir))


def sublevel_volume(cand, t: float, m_dirs: int = 720) -> float:
    """Volume of the sub-level set via the radial formula (rho^n / n)."""
    dirs, wdir = _polar_rule(cand.n, m_dirs)
    rho = radial_crossings(cand, t, dirs)
    return float(np.sum(rho**cand.n / cand.n * wdir))
