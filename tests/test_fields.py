import math

import numpy as np
import pytest

from hessianlab import candidates, fields
from hessianlab.errors import (
    ClippingError,
    DegenerateDomainError,
    PreconditionError,
)


def sample_disk(h=1 / 32, level=1.0):
    c = candidates.quadratic(np.eye(2), name="quad:iso")
    g = fields.grid_for_candidate(c, level=level, h=h)
    return c, fields.sample_candidate(c, g, level)


def test_hessian_exact_on_quadratic_everywhere():
    _, f = sample_disk()
    st = f.mask.stencils()
    H = f.hessian_stack()
    assert np.max(np.abs(H[st.is_full] - np.eye(2))) <= 1e-12
    assert np.max(np.abs(H - np.eye(2))) <= 1e-8  # cut arms are conditioned worse


def test_hessian_exact_on_tilted_quadratic():
    A = np.array([[1.5, 0.4], [0.4, 0.8]])
    c = candidates.quadratic(A, name="quad:tilted")
    g = fields.grid_for_candidate(c, level=1.0, h=1 / 24)
    f = fields.sample_candidate(c, g, 1.0)
    st = f.mask.stencils()
    H = f.hessian_stack()
    assert np.max(np.abs(H[st.is_full] - A)) <= 1e-10
    assert np.max(np.abs(H[st.is_collar] - A)) <= 1e-8


def test_hessian_quartic_taylor_bound():
    # pure quartic along the first axis: curvature 12 x^2 with O(h^2) remainder
    c = candidates.aniso_sum([1.0, 1.0], [4.0, 2.0])
    g = fields.grid_for_candidate(c, level=2.2, h=0.01)
    f = fields.sample_candidate(c, g, 2.2)
    i = np.argmin(np.linalg.norm(f.mask.inside_coords() - [1.0, 0.0], axis=1))
    node = tuple(f.mask.inside_idx[i])   # the inside node nearest [1.0, 0.0]
    H = f.hessian_stack()[f.mask.unknown[node]]
    x = f.grid.coords(np.asarray(node))
    assert H[0, 0] == pytest.approx(12.0 * x[0] ** 2, abs=1e-3)


def test_mixed_derivative_exact():
    A = np.array([[0.0, 1.0], [1.0, 0.0]]) + 2.0 * np.eye(2)  # u has u_xy = 1
    c = candidates.quadratic(A, name="quad:mixed")
    g = fields.grid_for_candidate(c, level=1.0, h=1 / 16)
    f = fields.sample_candidate(c, g, 1.0)
    i = np.argmin(np.linalg.norm(f.mask.inside_coords() - [0.1, 0.05], axis=1))
    node = tuple(f.mask.inside_idx[i])   # the inside node nearest [0.1, 0.05]
    r = f.mask.unknown[node]
    H = f.hessian_stack()[r]
    assert H[0, 1] == pytest.approx(1.0, abs=1e-10)
    # the node's row of the stack equals its stencil row applied to the
    # values one by one, the products added left to right
    st, u = f.mask.stencils(), f.values
    for (p, q), (A_pq, c_pq) in st.hess.items():
        row = slice(A_pq.indptr[r], A_pq.indptr[r + 1])
        total = 0.0
        for a, j in zip(A_pq.data[row], A_pq.indices[row]):
            total += a * u[j]
        assert H[p, q] == H[q, p] == total + c_pq[r]


def test_gradient_exact_on_quadratic_and_constant():
    _, f = sample_disk()
    G = f.gradient_stack()
    X = f.mask.inside_coords()
    assert np.max(np.abs(G - X)) <= 1e-9
    # constant field with matching boundary data differentiates to zero
    flat_mask = fields.DomainMask(
        grid=f.grid, inside=f.mask.inside.copy(),
        theta=f.mask.theta.copy(), bval=np.zeros_like(f.mask.bval),
    )
    flat = fields.ScalarField(mask=flat_mask, values=np.zeros(f.mask.inside_count()))
    assert np.max(np.abs(flat.gradient_stack())) == 0.0


def test_field_values_are_per_inside_node():
    # one value per inside node, in inside_idx order; a grid-shaped array
    # is refused
    c, f = sample_disk()
    assert f.values.shape == (f.mask.inside_count(),)
    assert np.array_equal(f.values, c.value(f.mask.inside_coords()))
    with pytest.raises(PreconditionError, match="one entry per inside node"):
        fields.ScalarField(mask=f.mask, values=np.zeros(f.grid.dims))


def test_gradient_matches_registry_away_from_origin():
    c = candidates.power_norm(1.0, 1.5, 2)
    g = fields.grid_for_candidate(c, level=1.4, h=0.02)
    f = fields.sample_candidate(c, g, 1.4)
    st = f.mask.stencils()
    G = f.gradient_stack()
    X = f.mask.inside_coords()
    ref = c.grad(X)
    away = np.linalg.norm(X, axis=1) > 0.5  # skip the Hessian singularity at 0
    sel = st.is_full & away
    err = np.max(np.abs(G[sel] - ref[sel]))
    assert err <= 5.0 * f.grid.h**2  # second-order interior gradients


def test_hessian_order_of_accuracy():
    # smooth non-quadratic: refinement ratio of the max interior error in [3.2, 4.8]
    c = candidates.aniso_sum([1.0, 1.0], [4.0, 4.0])
    errs = []
    for h in (0.02, 0.01):
        g = fields.grid_for_candidate(c, level=1.0, h=h)
        f = fields.sample_candidate(c, g, 1.0)
        st = f.mask.stencils()
        H = f.hessian_stack()[st.is_full]
        X = f.mask.inside_coords()[st.is_full]
        ref = c.hess(X)
        errs.append(np.max(np.abs(H - ref)))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_sample_candidate_disk_area():
    _, f = sample_disk(h=1 / 32)
    st = f.mask.stencils()
    area = st.weights.sum()
    assert area == pytest.approx(2.0 * math.pi, abs=2.0 / 32)


def test_sample_candidate_clipping_and_degenerate():
    c = candidates.quadratic(np.eye(2), name="quad:iso")
    tight = fields.Grid(n=2, dims=(11, 11), origin=np.array([-0.5, -0.5]), h=0.1)
    with pytest.raises(ClippingError, match="touches the grid box"):
        fields.sample_candidate(c, tight, 1.0)  # sub-level set pokes out
    with pytest.raises(DegenerateDomainError):
        fields.sample_candidate(c, tight, 0.0)
    with pytest.raises(DegenerateDomainError, match="too small"):
        g = fields.Grid(n=2, dims=(64, 64), origin=np.array([-3.2, -3.2]), h=0.1)
        fields.sample_candidate(c, g, 1e-4)
    with pytest.raises(DegenerateDomainError, match="empty mask"):
        g = fields.Grid(n=2, dims=(64, 64), origin=np.array([-3.25, -3.25]), h=0.1)
        fields.sample_candidate(c, g, 1e-4)  # the set falls between the nodes


def test_sample_candidate_aniso_extents():
    c = candidates.aniso_sum([1.0, 1.0], [2.0, 4.0])
    g = fields.grid_for_candidate(c, level=1.0, h=0.05)
    f = fields.sample_candidate(c, g, 1.0)
    X = f.mask.inside_coords()
    assert np.max(np.abs(X[:, 0])) == pytest.approx(1.0, abs=0.06)
    assert np.max(np.abs(X[:, 1])) == pytest.approx(1.0, abs=0.06)


def test_mask_convexity_validation():
    g = fields.Grid(n=2, dims=(9, 9), origin=np.zeros(2), h=1.0)
    inside = np.zeros((9, 9), dtype=bool)
    inside[2:4, 2:7] = True
    inside[5:7, 2:7] = True  # disconnected slabs
    theta = np.ones((2, 2, 20))
    bval = np.full((2, 2, 20), np.nan)
    with pytest.raises(PreconditionError, match="not axis-convex"):
        fields.DomainMask(grid=g, inside=inside, theta=theta, bval=bval)


def test_mask_cut_data_must_be_per_inside_node():
    # cut data lives on the inside nodes only, shape (n, 2, N_in)
    g = fields.Grid(n=2, dims=(9, 9), origin=np.zeros(2), h=1.0)
    inside = np.zeros((9, 9), dtype=bool)
    inside[2:5, 2:6] = True
    good = np.ones((2, 2, 12))
    fields.DomainMask(grid=g, inside=inside, theta=good, bval=good)
    for dense in (np.ones((2, 2, 9, 9)), np.ones((2, 2, 11)), np.ones((3, 2, 12))):
        with pytest.raises(PreconditionError, match="shape"):
            fields.DomainMask(grid=g, inside=inside, theta=dense, bval=good)
        with pytest.raises(PreconditionError, match="shape"):
            fields.DomainMask(grid=g, inside=inside, theta=good, bval=dense)


def _blobs(n, kind):
    """Cubes of side 2 on a 9^n grid: one, two apart, or two that share
    only a corner (face-connectivity splits them, full connectivity not)."""
    inside = np.zeros((9,) * n, dtype=bool)
    inside[(slice(2, 4),) * n] = True
    if kind == "two":
        inside[(slice(5, 7),) * n] = True
    elif kind == "diagonal":
        inside[(slice(4, 6),) * n] = True
    return inside


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind,count", [("one", 1), ("two", 2), ("diagonal", 2)])
def test_component_count_matches_ndimage_label(n, kind, count):
    from scipy import ndimage

    inside = _blobs(n, kind)
    assert fields._component_count(inside) == ndimage.label(inside)[1] == count
    full = ndimage.label(inside, structure=np.ones((3,) * n))[1]
    assert full == (1 if kind == "diagonal" else count)


@pytest.mark.parametrize("shape", [(23, 19), (11, 10, 9), (48, 48, 48)])
def test_component_count_matches_ndimage_label_on_random_masks(shape):
    from scipy import ndimage

    rng = np.random.default_rng(len(shape))
    for density in (0.3, 0.5, 0.6, 0.8):
        inside = rng.random(shape) < density
        assert fields._component_count(inside) == ndimage.label(inside)[1]


def _serpentine(side, cut):
    """A one-node-wide path along every other row, turning at alternate
    ends: its geodesic (about side**2 / 2 nodes) is far longer than the
    grid side. cut drops the middle turn, which splits the path in two."""
    inside = np.zeros((side, side), dtype=bool)
    inside[1:-1:2, 1:-1] = True
    turns = list(range(2, side - 2, 2))
    for i, r in enumerate(turns):
        inside[r, -2 if i % 2 == 0 else 1] = True
    if cut:
        inside[turns[len(turns) // 2]] = False
    return inside


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("cut,count", [(False, 1), (True, 2)])
def test_component_count_follows_a_serpentine(transpose, cut, count):
    from scipy import ndimage

    inside = _serpentine(61, cut)
    inside = inside.T.copy() if transpose else inside
    assert fields._component_count(inside) == ndimage.label(inside)[1] == count


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["two", "diagonal"])
def test_mask_not_grid_connected(n, kind):
    # both masks are axis-convex, so the connectivity check is what rejects them
    g = fields.Grid(n=n, dims=(9,) * n, origin=np.zeros(n), h=1.0)
    inside = _blobs(n, kind)
    theta = np.ones((n, 2, np.count_nonzero(inside)))
    bval = np.full(theta.shape, np.nan)
    with pytest.raises(PreconditionError, match="not grid-connected"):
        fields.DomainMask(grid=g, inside=inside, theta=theta, bval=bval)


def test_hsf1_roundtrip_bit_exact(tmp_path):
    _, f = sample_disk(h=1 / 16)
    rng = np.random.default_rng(1)
    noise = 1 + 1e-13 * rng.normal(size=f.mask.inside_count())
    noisy = fields.ScalarField(f.mask, f.values * noise, f.level)
    path = tmp_path / "field.hsf1"
    fields.save_hsf1(noisy, path)
    back = fields.load_hsf1(path)
    assert back.grid.dims == noisy.grid.dims
    assert back.grid.h == noisy.grid.h
    assert np.array_equal(back.grid.origin, noisy.grid.origin)
    assert back.level == noisy.level
    assert np.array_equal(back.mask.inside, noisy.mask.inside)
    assert np.array_equal(back.values, noisy.values)
    # second pass is byte-identical
    path2 = tmp_path / "field2.hsf1"
    fields.save_hsf1(back, path2)
    assert path.read_text() == path2.read_text()


@pytest.mark.parametrize(
    "vertices",
    [
        [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
        [[0, 0], [0, 1], [1, 1], [1, 0]],
        [[0, 0], [1, 0], [2, 0], [0, 1]],
        [[math.cos(0.8 * math.pi * i), math.sin(0.8 * math.pi * i)] for i in range(5)],
    ],
    ids=["l-shape", "clockwise", "collinear", "pentagram"],
)
def test_polygon_must_be_convex_and_counterclockwise(vertices):
    # the pentagram turns left at every vertex but winds around twice
    with pytest.raises(PreconditionError, match="convex and counterclockwise"):
        fields.mask_from_polygon(vertices, h=1 / 16)


def test_grid_validation():
    with pytest.raises(PreconditionError):
        fields.Grid(n=2, dims=(4, 10), origin=np.zeros(2), h=0.1)
    with pytest.raises(PreconditionError):
        fields.Grid(n=2, dims=(10, 10), origin=np.zeros(2), h=-0.1)
