"""Stencil and HSF1 oracles: output against fixtures stored in tests/data.

Each stencil fixture holds every array of a StencilSet built on a small mask. The
comparison is exact: the CSR arrays of every row family must have the same
sparsity structure (explicit zeros included, since they shape the Newton
Jacobian and with it the incomplete LU), int32 indices and the same bits in
every entry; constant vectors, weights, node classes, closure rows and cut
records must match bit for bit. The stencil products must match scipy's
CSR products bit for bit; scipy serves only as the reference there.
The HSF1 fixtures are text files with the arrays `load_hsf1` made of them,
the values and cut data stored dense over the grid (value 0, theta 1 and
bval NaN off the inside nodes); writing the loaded field back must
reproduce the text byte for byte.

Regenerate the fixtures only on purpose, after a change that is meant to
alter the stencils:

    PYTHONPATH=src python tests/test_stencils.py --write
"""

import os
import sys
import tempfile

import numpy as np
import pytest

from hessianlab import candidates, fields

DATA = os.path.join(os.path.dirname(__file__), "data")
H = 1 / 12

VECTORS = (
    "weights", "is_full", "is_collar", "is_closure",
    "closure_rhs", "closure_nodes",
    "cut_node", "cut_axis", "cut_dir", "cut_theta", "cut_points",
)


def _ellipse():
    return fields.mask_from_ellipse([0.7, 0.45], h=H, center=[0.03, -0.02])


def _polygon():
    verts = [[-0.7, -0.5], [0.6, -0.4], [0.5, 0.45], [-0.4, 0.6]]
    return fields.mask_from_polygon(verts, h=H)


def _candidate():
    c = candidates.quadratic(np.array([[1.5, 0.4], [0.4, 0.8]]), name="quad:tilted")
    return fields.sample_candidate(c, fields.grid_for_candidate(c, 0.2, H), 0.2).mask


def _hsf1():
    c = candidates.aniso_sum([1.0, 1.0], [2.0, 4.0])
    f = fields.sample_candidate(c, fields.grid_for_candidate(c, 0.3, H), 0.3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.hsf1")
        fields.save_hsf1(f, path)
        return fields.load_hsf1(path).mask


def _ellipsoid():
    return fields.mask_from_ellipse([0.4, 0.35, 0.3], h=H)


MASKS = {
    "ellipse": _ellipse,
    "polygon": _polygon,
    "candidate": _candidate,
    "hsf1": _hsf1,
    "ellipsoid3d": _ellipsoid,
}


def _matrices(st):
    mats = {f"hess{p}{q}": st.hess[(p, q)] for p, q in st.hess}
    mats.update({f"grad{d}": st.grad[d] for d in st.grad})
    return mats


def _flatten(st) -> dict:
    out = {"hess_keys": np.array(list(st.hess), dtype=int)}
    for name, (A, c) in _matrices(st).items():
        out[f"{name}_data"] = A.data
        out[f"{name}_indices"] = A.indices
        out[f"{name}_indptr"] = A.indptr
        out[f"{name}_const"] = c
    C = st.closure_matrix
    out.update(closure_data=C.data, closure_indices=C.indices, closure_indptr=C.indptr)
    out["closure_shape"] = np.array(C.shape)
    for name in VECTORS:
        out[name] = getattr(st, name)
    return out


def _path(name):
    return os.path.join(DATA, f"stencils_{name}.npz")


def _assert_same(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape, what
    if a.dtype.kind == "f":
        # bit equality, so that signed zeros and every last ulp are covered
        assert b.dtype.kind == "f" and a.tobytes() == b.astype(a.dtype).tobytes(), what
    else:
        assert np.array_equal(a, b), what


@pytest.mark.parametrize("name", sorted(MASKS))
def test_stencils_match_oracle(name):
    ref = np.load(_path(name))
    st = MASKS[name]().stencils()
    got = _flatten(st)
    assert sorted(got) == sorted(ref.files)
    _assert_same(got["hess_keys"], ref["hess_keys"], "hess key order")
    for mat, (A, _) in _matrices(st).items():
        assert A.shape == (st.n_in, st.n_in), mat
        for part in ("data", "indices", "indptr", "const"):
            _assert_same(got[f"{mat}_{part}"], ref[f"{mat}_{part}"], f"{mat}_{part}")
    for key in ("closure_data", "closure_indices", "closure_indptr", "closure_shape"):
        _assert_same(got[key], ref[key], key)
    # the solver wraps the index arrays as scipy stores them, without a cast
    for key in got:
        if key.endswith(("_indices", "_indptr")):
            assert got[key].dtype == ref[key].dtype == np.int32, key
    for key in VECTORS:
        _assert_same(got[key], ref[key], key)


def _wild_values(rng, size):
    """Values of both signs from 1e-300 to 1e300 in magnitude, a tenth of
    them signed zeros."""
    v = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    zero = rng.random(size) < 0.1
    v[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return v


@pytest.mark.parametrize("name", sorted(MASKS))
def test_stencil_products_match_scipy_bit_for_bit(name):
    # scipy is the reference here only: hessian_stack, gradient_stack and the
    # closure rows must give the bits of scipy's CSR products
    import scipy.sparse as sp

    st = MASKS[name]().stencils()

    def ref(A, x):
        return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape) @ x

    rng = np.random.default_rng(sorted(MASKS).index(name))
    signed_zeros = np.where(rng.random(st.n_in) < 0.5, -0.0, 0.0)
    with np.errstate(all="ignore"):
        for u in (rng.normal(size=st.n_in), _wild_values(rng, st.n_in), signed_zeros):
            H, G = st.hessian_stack(u), st.gradient_stack(u)
            for (p, q), (A, c) in st.hess.items():
                assert (A @ u).tobytes() == ref(A, u).tobytes(), (p, q)
                want = (ref(A, u) + c).tobytes()
                assert H[:, p, q].tobytes() == H[:, q, p].tobytes() == want, (p, q)
            for d, (A, c) in st.grad.items():
                assert (A @ u).tobytes() == ref(A, u).tobytes(), d
                assert G[:, d].tobytes() == (ref(A, u) + c).tobytes(), d
            C = st.closure_matrix
            assert (C @ u).tobytes() == ref(C, u).tobytes()
            assert (C @ u - st.closure_rhs).tobytes() == (ref(C, u) - st.closure_rhs).tobytes()


def test_oracle_covers_every_node_class():
    for name in MASKS:
        ref = np.load(_path(name))
        for cls in ("is_full", "is_collar", "is_closure"):
            assert ref[cls].any(), (name, cls)


def _hsf1_fields():
    """A level-set field in 2D and a level-free noisy field in 3D."""
    c = candidates.aniso_sum([1.0, 1.0], [2.0, 4.0])
    flat = fields.sample_candidate(c, fields.grid_for_candidate(c, 0.3, H), 0.3)
    mask = _ellipsoid()
    X = mask.grid.coords(mask.grid.all_indices())
    rng = np.random.default_rng(7)
    vals = 0.5 * np.sum(X**2, axis=1) + 0.1 * X[:, 0] + 1e-3 * rng.normal(size=len(X))
    solid = fields.ScalarField(mask=mask, values=vals.reshape(mask.grid.dims)[mask.inside])
    return {"aniso2d": flat, "noisy3d": solid}


HSF1_ARRAYS = ("inside", "values", "theta", "bval")


@pytest.mark.parametrize("name", ["aniso2d", "noisy3d"])
def test_hsf1_matches_oracle(name, tmp_path):
    text = os.path.join(DATA, f"field_{name}.hsf1")
    ref = np.load(os.path.join(DATA, f"field_{name}.npz"))
    f = fields.load_hsf1(text)
    got = {"inside": f.mask.inside, "values": f.values,
           "theta": f.mask.theta, "bval": f.mask.bval}
    for key in HSF1_ARRAYS:
        # values, theta and bval are stored dense over the grid
        want = ref[key] if key == "inside" else ref[key][..., ref["inside"]]
        _assert_same(got[key], want, key)
    out = tmp_path / "again.hsf1"
    fields.save_hsf1(f, out)
    with open(text, "rb") as fh:
        assert out.read_bytes() == fh.read()


def _write():
    os.makedirs(DATA, exist_ok=True)
    for name, make in MASKS.items():
        np.savez_compressed(_path(name), **_flatten(make().stencils()))
        print(name, os.path.getsize(_path(name)), "bytes")
    for name, f in _hsf1_fields().items():
        text = os.path.join(DATA, f"field_{name}.hsf1")
        fields.save_hsf1(f, text)
        back = fields.load_hsf1(text)
        inside = back.mask.inside
        arrays = {"inside": inside}
        for key, of, fill in (
            ("values", back, 0.0), ("theta", back.mask, 1.0), ("bval", back.mask, np.nan)
        ):
            node = getattr(of, key)
            dense = np.full(node.shape[:-1] + inside.shape, fill)
            dense[..., inside] = node
            arrays[key] = dense
        np.savez_compressed(os.path.join(DATA, f"field_{name}.npz"), **arrays)
        print(name, os.path.getsize(text), "bytes of text")


if __name__ == "__main__":
    if "--write" in sys.argv[1:]:
        _write()
    else:
        print(__doc__)
