"""Sampled scalar fields on masked rectangular grids.

A convex domain is rasterized onto a uniform grid with Shortley-Weller
cut data: every inside node stores, per axis direction, the fractional
distance theta in (0,1] to the true boundary together with the Dirichlet
value at that cut, as (n, 2, N_in) arrays over the inside nodes. The cut
arms of a mask are enumerated once (`_cut_arms`) and bisected together by
`polar.bisect`; rasterization demotes sliver nodes until none is left.
Difference stencils (gradients, pure and mixed second derivatives) are
built once per mask and cached; both the pointwise measurement operators
and the global Newton assembly read from the same stencil set. The build
is array arithmetic over all inside nodes at once: neighbor lookups give
every arm's column or cut, each row family (gradient, pure and mixed
second difference, closure row) is weighted for every node in one
expression and becomes one set of canonical CSR arrays (`StencilRows`).
This module is numpy only: a stencil product sums each row in the order
of a CSR matrix product, so a field's derivatives agree bit for bit with
the solver, which wraps the same arrays as sparse matrices.

Fields carry one value per inside node, in the mask's `inside_idx` (C)
order, the layout of its cut data; each derivative is one stencil product
on that array. Fields are read and written in the HSF1 text format, the
only place where their values sit on the dense grid. Every text artifact
of the package is written here, by temp-and-rename.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import polar
from .errors import ClippingError, DegenerateDomainError, PreconditionError

MAX_NODES = 8_000_000
THETA_MIN = 1e-6


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular node lattice."""

    n: int
    dims: tuple
    origin: np.ndarray
    h: float

    def __post_init__(self):
        if self.n not in (2, 3):
            raise PreconditionError("grids support dimension 2 or 3")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != self.n or any(d < 5 for d in dims):
            raise PreconditionError("need at least 5 nodes per axis")
        if self.h <= 0:
            raise PreconditionError("spacing must be positive")
        if int(np.prod(dims)) > MAX_NODES:
            raise PreconditionError(f"grid exceeds the {MAX_NODES}-node cap")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))

    def coords(self, idx) -> np.ndarray:
        """Node coordinates for an integer multi-index array (..., n)."""
        return self.origin + np.asarray(idx, dtype=float) * self.h

    def all_indices(self) -> np.ndarray:
        grids = np.meshgrid(*[np.arange(d) for d in self.dims], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def _component_count(ins: np.ndarray) -> int:
    """Number of face-connected components of the True entries: the graph
    joins every pair of True neighbours along each axis.

    Every node starts as its own label. Each round hooks the larger label of
    every edge whose ends still differ onto the smaller one, then jumps
    pointers (lab = lab[lab]) until each node holds its tree's root; the
    components are the roots left when no edge joins two labels. An edge
    whose ends share a root keeps it, so each round drops those edges.
    """
    size = int(np.count_nonzero(ins))
    index = np.full(ins.shape, -1)
    index[ins] = np.arange(size)
    src, dst = [], []
    for d in range(ins.ndim):
        a = np.moveaxis(index, d, 0)
        both = (a[:-1] >= 0) & (a[1:] >= 0)
        src.append(a[:-1][both])
        dst.append(a[1:][both])
    src, dst = np.concatenate(src), np.concatenate(dst)
    lab = np.arange(size)
    while True:
        a, b = lab[src], lab[dst]
        split = a != b
        if not split.any():
            return int(np.count_nonzero(lab == np.arange(size)))
        src, dst, a, b = src[split], dst[split], a[split], b[split]
        # every label is a root here, so this hooks trees, never cycles
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up


@dataclass
class DomainMask:
    """Inside/outside flags plus Shortley-Weller cut data for one grid."""

    grid: Grid
    inside: np.ndarray               # bool, shape dims
    theta: np.ndarray                # (n, 2, N_in); theta[d, s]: arm toward -/+, 1 uncut
    bval: np.ndarray                 # (n, 2, N_in); Dirichlet value at the cut, NaN uncut

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)
        if self.inside.shape != self.grid.dims:
            raise PreconditionError("mask shape mismatch")
        if not self.inside.any():
            raise DegenerateDomainError("empty mask")
        idx = np.argwhere(self.inside)
        cut_shape = (self.grid.n, 2, idx.shape[0])
        if np.shape(self.theta) != cut_shape or np.shape(self.bval) != cut_shape:
            raise PreconditionError("theta and bval must have shape (n, 2, N_in)")
        self._validate()
        self._stencils = None
        self.inside_idx = idx                              # (N_in, n)
        self.unknown = -np.ones(self.grid.dims, dtype=int)
        self.unknown[tuple(idx.T)] = np.arange(idx.shape[0])

    # -- validation ------------------------------------------------------

    def _validate(self):
        ins = self.inside
        # inside nodes must stay off the grid shell
        for d in range(self.grid.n):
            shell = [slice(None)] * self.grid.n
            for end in (0, -1):
                shell[d] = end
                if ins[tuple(shell)].any():
                    raise ClippingError("inside region touches the grid box")
        # discrete convexity: along every grid line the inside run is contiguous
        for d in range(self.grid.n):
            arr = np.moveaxis(ins, d, -1)
            flat = arr.reshape(-1, arr.shape[-1])
            has = flat.any(axis=1)
            first = flat.argmax(axis=1)
            last = flat.shape[1] - 1 - flat[:, ::-1].argmax(axis=1)
            counts = flat.sum(axis=1)
            runs_ok = counts[has] == (last[has] - first[has] + 1)
            if not runs_ok.all():
                raise PreconditionError("mask not axis-convex on the grid")
        if _component_count(ins) != 1:
            raise PreconditionError("mask not grid-connected")

    # -- basic queries ---------------------------------------------------

    @property
    def n(self):
        return self.grid.n

    def inside_count(self) -> int:
        return self.inside_idx.shape[0]

    def inside_coords(self) -> np.ndarray:
        return self.grid.coords(self.inside_idx)

    def extents(self) -> np.ndarray:
        return self.inside_idx.max(axis=0) - self.inside_idx.min(axis=0) + 1

    def stencils(self) -> "StencilSet":
        if self._stencils is None:
            self._stencils = _build_stencils(self)
        return self._stencils


@dataclass(frozen=True, eq=False)
class StencilRows:
    """Sparse rows in canonical compressed sparse row (CSR) form: row r
    holds data[indptr[r]:indptr[r + 1]] at the columns
    indices[indptr[r]:indptr[r + 1]], ascending and distinct; explicit
    zeros are kept, and indices and indptr are int32."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def __matmul__(self, x) -> np.ndarray:
        """The rows applied to x, each row's products added left to right
        to +0.0, the order of a CSR matrix product, so the two agree bit
        for bit."""
        # numpy gathers several times faster with intp indices than int32
        prod = self.data * x[self.indices.astype(np.intp)]
        row = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out = np.zeros(self.shape[0])
        np.add.at(out, row, prod)              # one product at a time, in order
        return out


class StencilSet:
    """Precomputed difference stencils and node classes for one mask.

    hess[(p, q)] (p <= q) and grad[d] hold StencilRows over the unknowns
    plus a constant vector carrying the Dirichlet cut contributions, one
    row per inside node; closure_matrix holds the closure rows, one per
    closure node. Node classes: `full` nodes have unit arms and complete
    mixed crosses; `closure` nodes own a cut arm (their solver row is a
    boundary interpolation, not the equation); remaining `collar` nodes
    keep equation rows built from one-sided mixed compositions.
    """

    def __init__(self, n_in):
        self.n_in = n_in
        self.hess = {}
        self.grad = {}
        self.is_full = np.zeros(n_in, dtype=bool)
        self.is_closure = np.zeros(n_in, dtype=bool)
        self.is_collar = np.zeros(n_in, dtype=bool)
        self.closure_matrix = None
        self.closure_rhs = None
        self.weights = None
        self.cut_node = None
        self.cut_axis = None
        self.cut_dir = None
        self.cut_theta = None
        self.cut_points = None

    def hessian_stack(self, values_in) -> np.ndarray:
        """Discrete Hessians at every inside node, shape (N_in, n, n)."""
        n = max(p for p, _ in self.hess) + 1
        H = np.empty((self.n_in, n, n))
        for (p, q), (A, c) in self.hess.items():
            col = A @ values_in + c
            H[:, p, q] = col
            H[:, q, p] = col
        return H

    def gradient_stack(self, values_in) -> np.ndarray:
        n = max(self.grad) + 1
        G = np.empty((self.n_in, n))
        for d, (A, c) in self.grad.items():
            G[:, d] = A @ values_in + c
        return G


def _rows(cols, vals, n_cols) -> StencilRows:
    """StencilRows of (R, k) column/value arrays, row r from row r of both,
    column -1 for an absent entry. As a coordinate-to-CSR conversion: each
    row's entries are stably sorted by column, and repeated columns are
    summed left to right from the first."""
    R, k = cols.shape
    order = np.argsort(cols, axis=1, kind="stable")
    flat = (order + (np.arange(R) * k)[:, None]).ravel()
    c, v = cols.ravel()[flat], vals.ravel()[flat]
    last = np.ones(c.size, dtype=bool)            # last entry of its column's run
    last[:-1] = c[1:] != c[:-1]
    last[k - 1 :: k] = True
    for j in range(1, k):                         # entry j adds to its run's sum so far
        v[j::k] = np.where(last[j - 1 :: k], v[j::k], v[j - 1 :: k] + v[j::k])
    keep = np.flatnonzero(last & (c >= 0))
    indptr = np.searchsorted(keep, np.arange(R + 1) * k)
    return StencilRows(v[keep], c[keep].astype(np.int32), indptr.astype(np.int32), (R, n_cols))


def _build_stencils(mask: DomainMask) -> StencilSet:
    """Every stencil family, assembled for all inside nodes at once.

    Arm arrays have shape (n, 2, N_in), index 0 toward - and 1 toward +.
    An arm to an inside neighbor has theta 1; a cut arm reads theta and
    the Dirichlet value from the mask, whose arrays have that layout. Rows
    are (N_in, k) column/value arrays with column -1 for an absent entry.
    """
    n, h = mask.n, mask.grid.h
    idxs = mask.inside_idx
    n_in = idxs.shape[0]
    node = np.arange(n_in)
    st = StencilSet(n_in)

    def neighbor(*steps):
        """Unknown column of idx + sum of s * e_d over (d, s), or -1."""
        pos = idxs.copy()
        for d, s in steps:
            pos[:, d] += s
        return mask.unknown[tuple(pos.T)]

    col = np.array([[neighbor((d, -1)), neighbor((d, +1))] for d in range(n)])
    cut = col < 0
    theta = np.where(cut, mask.theta, 1.0)
    bval = np.where(cut, mask.bval, 0.0)

    def three_point(d, w_m, w_0, w_p):
        """w_m u(-) + w_0 u + w_p u(+) along axis d; cut arms go to the constant."""
        const = np.zeros(n_in)
        const += np.where(cut[d, 0], w_m * bval[d, 0], 0.0)
        const += np.where(cut[d, 1], w_p * bval[d, 1], 0.0)
        return np.stack([node, col[d, 0], col[d, 1]], 1), np.stack([w_0, w_m, w_p], 1), const

    a, b = theta[:, 0] * h, theta[:, 1] * h
    grad = [
        three_point(d, -b[d] / (a[d] * (a[d] + b[d])), (b[d] - a[d]) / (a[d] * b[d]),
                    a[d] / (b[d] * (a[d] + b[d])))
        for d in range(n)
    ]
    second = [
        three_point(d, 2.0 / (a[d] * (a[d] + b[d])), -2.0 / (a[d] * b[d]),
                    2.0 / (b[d] * (a[d] + b[d])))
        for d in range(n)
    ]

    def mixed(d_in, d_out):
        """Outer difference along d_out of the gradient rows along d_in:
        central where both d_out neighbors are inside, one-sided where one
        is; (exists, cols, vals, const)."""
        g_cols, g_vals, g_const = grad[d_in]
        has_p, has_m = col[d_out, 1] >= 0, col[d_out, 0] >= 0
        both = has_p & has_m
        qa = np.where(has_p, col[d_out, 1], node)
        qb = np.where(has_m, col[d_out, 0], node)
        fa = np.where(both, 1.0 / (2 * h), 1.0 / h)
        fb = np.where(both, -1.0 / (2 * h), -1.0 / h)
        exists = has_p | has_m
        # 0.0 + keeps -0.0 out of the stored weights (w_0 is 0 on symmetric arms)
        cols = np.where(exists[:, None], np.concatenate([g_cols[qa], g_cols[qb]], 1), -1)
        vals = 0.0 + np.concatenate([fa[:, None] * g_vals[qa], fb[:, None] * g_vals[qb]], 1)
        return exists, cols, vals, fa * g_const[qa] + fb * g_const[qb]

    corners_ok = np.ones(n_in, dtype=bool)
    for p in range(n):
        for q in range(p, n):
            if p == q:
                cols, vals, const = second[p]
            else:
                for s1, s2 in itertools.product((-1, 1), repeat=2):
                    corners_ok &= neighbor((p, s1), (q, s2)) >= 0
                # average of the two compositions where both exist
                e0, c0, v0, k0 = mixed(p, q)
                e1, c1, v1, k1 = mixed(q, p)
                f = np.where(e0 & e1, 0.5, 1.0)
                cols = np.concatenate([c0, c1], 1)
                vals = np.concatenate([f[:, None] * v0, f[:, None] * v1], 1)
                const = 0.0 + (np.where(e0, f * k0, 0.0) + np.where(e1, f * k1, 0.0))
            st.hess[(p, q)] = (_rows(cols, vals, n_in), const)
    for d, (cols, vals, const) in enumerate(grad):
        st.grad[d] = (_rows(cols, vals, n_in), const)

    # a node with no mixed composition has both neighbors along an axis
    # outside, so owning a cut arm covers it
    st.is_closure = cut.any(axis=(0, 1))
    st.is_full = ~st.is_closure & corners_ok
    st.is_collar = ~st.is_closure & ~corners_ok

    # dual-cell extent: half a spacing toward inside neighbors, the whole
    # cut arm toward the boundary (no other node claims it)
    ext = np.where(cut, theta, 0.5)
    st.weights = np.ones(n_in)
    for d in range(n):
        st.weights *= h * (ext[d, 0] + ext[d, 1])

    # closure rows: boundary interpolation along the sharpest cut arm, the
    # first one in (axis, -/+) order on ties
    cl = np.nonzero(st.is_closure)[0]
    best = np.argmin(np.where(cut, theta, np.inf)[:, :, cl].reshape(2 * n, cl.size), axis=0)
    d, j = best // 2, best % 2
    th, bv = theta[d, j, cl], bval[d, j, cl]
    inner = col[d, 1 - j, cl]
    t2, b2 = theta[d, 1 - j, cl], bval[d, 1 - j, cl]
    st.closure_matrix = _rows(
        np.stack([cl, inner], 1), np.stack([np.ones(cl.size), -th / (1.0 + th)], 1), n_in
    )
    st.closure_rhs = np.where(inner >= 0, bv / (1.0 + th), (t2 * bv + th * b2) / (th + t2))
    st.closure_nodes = cl

    # cut records, node-major, then axis, then - before +
    r, d, j = np.nonzero(cut.transpose(2, 0, 1))
    st.cut_node, st.cut_axis, st.cut_dir = r, d, 2 * j - 1
    st.cut_theta = theta[d, j, r]
    offs = np.zeros((r.size, n))
    offs[np.arange(r.size), d] = st.cut_dir * st.cut_theta * h
    st.cut_points = mask.grid.coords(idxs[r]) + offs
    return st


# ---------------------------------------------------------------------------
# rasterization


def _cut_arms(inside: np.ndarray):
    """The arms from inside nodes to outside neighbors.

    Returns the inside nodes (N_in, n) in C order, the (n, 2, N_in) flags
    of their cut arms (index 0 toward -, 1 toward +), and per cut arm, in
    (axis, side, node) order, its node row and unit step. Padding keeps a
    node on the grid shell indexable; DomainMask rejects it.
    """
    idx = np.argwhere(inside)
    steps = np.array([[s * e for s in (-1, 1)] for e in np.eye(inside.ndim, dtype=int)])
    nbr = idx + 1 + steps[:, :, None]                      # (n, 2, N_in, n), padded
    cut = ~np.pad(inside, 1)[tuple(np.moveaxis(nbr, -1, 0))]
    d, j, node = np.nonzero(cut)
    return idx, cut, node, steps[d, j]


def rasterize(phi, grid: Grid, boundary_value) -> DomainMask:
    """Shortley-Weller mask of the region {phi < 0}.

    phi is a vectorized level function on (N, n) point arrays, negative
    strictly inside and monotone along any grid segment leaving the region
    (true for convex regions). Every cut arm of a pass is bisected at once.
    Nodes whose boundary cut would fall within THETA_MIN of the node are
    demoted to outside, pass after pass until none is, which removes
    ill-conditioned slivers at a negligible geometric cost. boundary_value
    is a constant or a vectorized function of the final cut points.
    """
    inside = (phi(grid.coords(grid.all_indices())) < 0.0).reshape(grid.dims)
    while True:
        idx, cut, node, step = _cut_arms(inside)
        base, step = grid.coords(idx[node]), step * grid.h
        th = polar.bisect(lambda f: phi(base + f[:, None] * step) < 0.0, np.ones(node.size))
        th = np.minimum(th, 1.0 - 1e-9)
        thin = th < THETA_MIN
        if not thin.any():
            break
        inside[tuple(idx[node[thin]].T)] = False
    theta, bval = np.ones(cut.shape), np.full(cut.shape, np.nan)
    theta[cut] = th
    cuts = base + th[:, None] * step
    bval[cut] = boundary_value(cuts) if callable(boundary_value) else float(boundary_value)
    return DomainMask(grid=grid, inside=inside, theta=theta, bval=bval)


def mask_from_ellipse(semiaxes, h, center=None) -> DomainMask:
    """Mask of the open ellipsoid sum((x_i-c_i)^2/s_i^2) < 1."""
    s = np.asarray(semiaxes, dtype=float)
    n = s.size
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    if c.shape != s.shape:
        raise PreconditionError(f"center has {c.size} entries, semiaxes {n}")

    def phi(X):
        return np.sum(((X - c) / s) ** 2, axis=-1) - 1.0

    return _mask_from_phi(phi, lo=c - s, hi=c + s, h=h)


def mask_from_polygon(vertices, h) -> DomainMask:
    """Mask of an open convex polygon given by counterclockwise vertices."""
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[1] != 2:
        raise PreconditionError("polygon vertices must be (m, 2)")
    E = np.roll(V, -1, axis=0) - V                  # edge i runs from vertex i to i + 1
    F = np.roll(E, -1, axis=0)
    cross = E[:, 0] * F[:, 1] - E[:, 1] * F[:, 0]
    # convex and counterclockwise: every turn is to the left, once around in all
    if not (np.all(cross > 0) and np.sum(np.arctan2(cross, np.sum(E * F, axis=1))) < 3 * np.pi):
        raise PreconditionError("polygon vertices must be convex and counterclockwise")
    N = np.stack([E[:, 1], -E[:, 0]], axis=1)       # outward for CCW ordering
    N /= np.array([np.linalg.norm(nvec) for nvec in N])[:, None]
    O = np.array([nvec @ a for nvec, a in zip(N, V)])

    def phi(X):
        return np.max(X @ N.T - O, axis=-1)

    return _mask_from_phi(phi, lo=V.min(axis=0), hi=V.max(axis=0), h=h)


def _mask_from_phi(phi, lo, hi, h) -> DomainMask:
    lo = np.asarray(lo, dtype=float) - 3 * h
    hi = np.asarray(hi, dtype=float) + 3 * h
    dims = tuple(int(math.ceil((b - a) / h)) + 1 for a, b in zip(lo, hi))
    grid = Grid(n=len(dims), dims=dims, origin=lo, h=h)
    return rasterize(phi, grid, boundary_value=1.0)


# ---------------------------------------------------------------------------
# scalar fields


@dataclass
class ScalarField:
    """Field values over the inside nodes of a mask."""

    mask: DomainMask
    values: np.ndarray               # (N_in,), in the order of mask.inside_idx
    level: float = math.nan          # boundary level for sub-level-set fields

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mask.inside_count(),):
            raise PreconditionError("values must hold one entry per inside node")
        if not np.all(np.isfinite(self.values)):
            raise PreconditionError("field values must be finite inside")

    @property
    def grid(self) -> Grid:
        return self.mask.grid

    # -- differential operators ------------------------------------------

    def hessian_stack(self) -> np.ndarray:
        return self.mask.stencils().hessian_stack(self.values)

    def gradient_stack(self) -> np.ndarray:
        return self.mask.stencils().gradient_stack(self.values)


def sample_candidate(cand, grid: Grid, level: float) -> ScalarField:
    """Sample a registered analytic candidate on its sub-level set."""
    if level <= 0:
        raise DegenerateDomainError("level must be positive")

    def phi(X):
        return cand.value(X) - level

    mask = rasterize(phi, grid, boundary_value=level)
    if np.any(mask.extents() < 3):
        raise DegenerateDomainError("sub-level set too small for this grid")
    return ScalarField(mask=mask, values=cand.value(mask.inside_coords()), level=level)


def grid_for_candidate(cand, level: float, h: float) -> Grid:
    """Axis-aligned grid box guaranteed to contain the open sub-level set."""
    dirs = polar.directions(cand.n, 256)
    rho = polar.radial_crossings(cand, level, dirs)
    pts = cand.anchor + rho[:, None] * dirs
    lo = pts.min(axis=0) - 4 * h
    hi = pts.max(axis=0) + 4 * h
    dims = tuple(int(math.ceil((b - a) / h)) + 1 for a, b in zip(lo, hi))
    return Grid(n=cand.n, dims=dims, origin=lo, h=h)


# ---------------------------------------------------------------------------
# HSF1 text format


def save_hsf1(field: ScalarField, path):
    """Write the field in the HSF1 text format (17 significant digits)."""
    g = field.grid
    lines = [
        f"HSF1 n={g.n}",
        "dims=" + ",".join(str(d) for d in g.dims),
        "origin=" + ",".join(f"{v:.17g}" for v in g.origin),
        f"h={g.h:.17g}",
        f"level={field.level:.17g}",
    ]
    # one line per node in C order: the index, then 1 and the value or 0;
    # the inside values come in the same order
    heads = itertools.product(*[[str(i) for i in range(d)] for d in g.dims])
    flags = field.mask.inside.ravel().tolist()
    values = iter(field.values.tolist())
    lines += [
        f"{' '.join(head)} 1 {next(values):.17g}" if inside else f"{' '.join(head)} 0"
        for head, inside in zip(heads, flags)
    ]
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text: str):
    """Write text to path by temp-and-rename: a failed write leaves any
    earlier file whole and no partial one."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, payload: dict):
    """Write payload as JSON with sorted keys, one-space indent and a final
    newline, by temp-and-rename."""
    write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_hsf1(path) -> ScalarField:
    """Read an HSF1 field.

    The format stores node payloads only; boundary cut fractions are
    re-estimated from one-sided slopes against the stored level, so cut
    geometry is approximate after a round trip while every header item and
    node value is bit-exact.
    """
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith("HSF1 n="):
        raise PreconditionError("not an HSF1 file")
    try:
        n = int(lines[0].split("=")[1])
        dims = tuple(int(v) for v in lines[1].split("=")[1].split(","))
        origin = np.array([float(v) for v in lines[2].split("=")[1].split(",")])
        h = float(lines[3].split("=")[1])
        level = float(lines[4].split("=")[1])
        grid = Grid(n=n, dims=dims, origin=origin, h=h)
        inside = np.zeros(dims, dtype=bool)
        values = np.zeros(dims)
        rows = [ln.split() for ln in lines[5:]]
        rows = [r for r in rows if r[n] == "1"]
        if rows:
            idx = tuple(np.array([list(map(int, r[:n])) for r in rows]).T)
            inside[idx] = True
            values[idx] = [float(r[n + 1]) for r in rows]
    except (IndexError, ValueError) as exc:
        # a missing header line, a short node row or an unparsable number
        raise PreconditionError(f"malformed HSF1 file: {exc}") from exc
    lvl = level if math.isfinite(level) else None
    # padding keeps the neighbors of a node on the grid shell indexable
    ins_pad, val_pad = np.pad(inside, 1), np.pad(values, 1)
    idx, cut, node, step = _cut_arms(inside)
    at = idx[node] + 1
    inner = tuple((at - step).T)
    v = val_pad[tuple(at.T)]
    th = np.full(v.size, 0.5)
    if lvl is not None:
        # one-sided slope toward the boundary along the arm
        m = (v - val_pad[inner]) / h
        up = ins_pad[inner] & (m > 0)
        th[up] = np.minimum(np.maximum((lvl - v[up]) / (m[up] * h), 1e-3), 1.0 - 1e-9)
    theta, bval = np.ones(cut.shape), np.full(cut.shape, np.nan)
    theta[cut] = th
    bval[cut] = lvl if lvl is not None else v
    mask = DomainMask(grid=grid, inside=inside, theta=theta, bval=bval)
    return ScalarField(mask=mask, values=values[inside], level=level)
