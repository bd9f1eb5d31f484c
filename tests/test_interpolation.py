"""Field interpolation and 3D field contouring against fixtures in tests/data.

Each fixture holds a set of points for one sampled field, the value that
`ScalarField.interpolate` gave at every point the domain covers, and the
points it rejected as outside. The points mix random points around the
domain, every boundary cut point, grid nodes, points on grid lines and
planes, and points a hair away from nodes and cut points, so that every
branch of the interpolant (multilinear cells, ghost values behind cuts,
the grid-line rule with its cut tolerance) is reached. Fixtures of 3D
fields also hold the vertices `extract_body` contoured at a few levels.
The comparison is exact: same verdict for every point, same bits for
every value and vertex.

Regenerate the fixtures only on purpose, after a change that is meant to
alter interpolation:

    PYTHONPATH=src python tests/test_interpolation.py --write
"""

import os
import sys

import numpy as np
import pytest

from hessianlab import candidates, fields, geometry
from hessianlab.errors import PreconditionError

DATA = os.path.join(os.path.dirname(__file__), "data")
H = 1 / 12


def _quad2d():
    c = candidates.quadratic(np.array([[1.5, 0.4], [0.4, 0.8]]), name="quad:tilted")
    return fields.sample_candidate(c, fields.grid_for_candidate(c, 0.2, H), 0.2)


def _quad3d():
    A = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.2], [0.0, 0.2, 0.5]])
    c = candidates.quadratic(A, name="quad:tilted3d")
    return fields.sample_candidate(c, fields.grid_for_candidate(c, 0.1, H), 0.1)


def _loaded(name):
    return lambda: fields.load_hsf1(os.path.join(DATA, f"field_{name}.hsf1"))


FIELDS = {
    "quad2d": _quad2d,
    "quad3d": _quad3d,
    "aniso2d": _loaded("aniso2d"),
    "noisy3d": _loaded("noisy3d"),
}

# contouring levels of the 3D fields. On quad3d the higher one brings the
# bisection to the edge of the interpolable region; noisy3d has no boundary
# level, so its levels stay below the smallest value next to the domain
# edge (0.0153), past which extraction raises
LEVELS = {"quad3d": (0.05, 0.099), "noisy3d": (0.01, 0.015)}


def _path(name):
    return os.path.join(DATA, f"interp_{name}.npz")


def _assert_bits(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, what
    assert np.array_equal(got, ref), what
    # bit equality, so that signed zeros are covered too
    assert got.tobytes() == ref.tobytes(), what


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_interpolation_matches_oracle(name):
    ref = np.load(_path(name))
    f = FIELDS[name]()
    X, inside = ref["X"], ref["inside"]
    assert inside.any() and not inside.all()
    _assert_bits(f.interpolate_many(X[inside]), ref["values"][inside], name)
    with pytest.raises(PreconditionError):
        f.interpolate_many(X)
    for x in X[~inside]:
        with pytest.raises(PreconditionError):
            f.interpolate(x)


@pytest.mark.parametrize("name", sorted(LEVELS))
def test_extract_body_3d_field_matches_oracle(name):
    ref = np.load(_path(name))
    f = FIELDS[name]()
    for t, verts in zip(ref["levels"], ref["vertices"]):
        _assert_bits(geometry.extract_body(f, float(t)).vertices, verts, (name, t))


def _points(f, rng) -> np.ndarray:
    """Probe points around the domain of f, every branch represented."""
    g, n = f.grid, f.mask.n
    st = f.mask.stencils()
    lo = np.maximum(f.mask.inside_idx.min(axis=0) - 2, 0)
    hi = np.minimum(f.mask.inside_idx.max(axis=0) + 2, np.asarray(g.dims) - 1)

    def nodes(m):
        return rng.integers(lo, hi + 1, size=(m, n))

    def axes(m):
        return np.eye(n)[rng.integers(0, n, size=m)]

    m = 600 * n
    groups = [
        g.coords(lo) + rng.uniform(0, 1, size=(m, n)) * (hi - lo) * g.h,  # random
        st.cut_points,
        g.coords(nodes(m)),
        g.coords(nodes(m) + rng.uniform(0, 1, size=(m, 1)) * axes(m)),    # grid lines
        g.coords(nodes(m) + rng.uniform(0, 1, size=(m, n)) * (1 - axes(m))),  # planes
        g.coords(nodes(m)) + rng.choice([-1, 1], size=(m, n)) * 4e-13 * g.h,
    ]
    # a hair inside and outside every cut, along its grid line
    offs = np.zeros_like(st.cut_points)
    offs[np.arange(len(offs)), st.cut_axis] = st.cut_dir * g.h
    for eps in (-1e-9, -5e-13, 5e-13, 1e-9, 1e-3):
        groups.append(st.cut_points + eps * offs)
    return np.vstack(groups)


def _reference(f, X):
    """Per-point values and verdicts, NaN where the point is outside."""
    values = np.full(len(X), np.nan)
    inside = np.zeros(len(X), dtype=bool)
    for i, x in enumerate(X):
        try:
            values[i] = f.interpolate(x)
            inside[i] = True
        except PreconditionError:
            pass
    return values, inside


def _write():
    for seed, (name, make) in enumerate(FIELDS.items()):
        f = make()
        X = _points(f, np.random.default_rng(seed))
        values, inside = _reference(f, X)
        arrays = {"X": X, "values": values, "inside": inside}
        if name in LEVELS:
            arrays["levels"] = np.array(LEVELS[name])
            arrays["vertices"] = np.stack(
                [geometry.extract_body(f, t).vertices for t in LEVELS[name]]
            )
        np.savez_compressed(_path(name), **arrays)
        print(name, len(X), "points,", int((~inside).sum()), "outside,",
              os.path.getsize(_path(name)), "bytes")


if __name__ == "__main__":
    if "--write" in sys.argv[1:]:
        _write()
    else:
        print(__doc__)
