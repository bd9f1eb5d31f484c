import math

import numpy as np
import pytest
import scipy.integrate

from hessianlab import candidates, fields, functionals, geometry
from hessianlab.errors import PreconditionError
from hessianlab.functionals import Condition
from hessianlab.symm import esym_table

# ratio of the gradient integral to the layer-cake norm for |x|^2/2 in the
# plane: (2 pi (2t)^{3/2} / 3) / sqrt(2 pi t^3 / 3), independent of t.
ISO_RATIO_DISK = 4.093306831785954


def test_frozen_disk_constant_against_quadrature_oracle():
    # independent oracle: 1d radial quadrature of both integrals
    num = scipy.integrate.quad(lambda r: r * 2.0 * math.pi * r, 0.0, math.sqrt(2.0))[0]
    den = scipy.integrate.quad(
        lambda r: (1.0 - 0.5 * r * r) ** 2 * 2.0 * math.pi * r, 0.0, math.sqrt(2.0)
    )[0]
    oracle = num / math.sqrt(den)
    assert oracle == pytest.approx(ISO_RATIO_DISK, rel=1e-10)
    closed = (2.0 * math.pi * 2.0**1.5 / 3.0) / math.sqrt(2.0 * math.pi / 3.0)
    assert closed == pytest.approx(ISO_RATIO_DISK, rel=1e-12)


def test_iso_ratio_disk_t_independent(iso_quad):
    vals = [functionals.iso_ratio(iso_quad, t).ratio for t in (1.0, 10.0, 1e3, 1e6)]
    for v in vals:
        assert v == pytest.approx(ISO_RATIO_DISK, rel=1e-3)
    assert max(vals) - min(vals) <= 1e-3 * ISO_RATIO_DISK


def test_iso_ratio_scale_invariant_for_quadratics():
    A = np.array([[1.5, 0.4], [0.4, 0.8]])
    c = candidates.quadratic(A, name="quad:tilted")
    vals = [functionals.iso_ratio(c, t).ratio for t in (1.0, 100.0)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-4)


def test_iso_ratio_denominator_floor(iso_quad, aniso24):
    import hessianlab.polar as polar

    # layer-cake floor c(n) from the cone over the level set, in the plane:
    # c(2) = (2 B(2, 3))^(1/2) = 1/sqrt(6)
    c_n = 1.0 / math.sqrt(6.0)
    for cand in (iso_quad, aniso24):
        for t in (1.0, 10.0):
            s = functionals.iso_ratio(cand, t)
            mu = polar.sublevel_volume(cand, t)
            assert s.denominator >= c_n * t * mu ** 0.5 * (1.0 - 1e-9)


def test_iso_ratio_rejects_bad_level(iso_quad):
    with pytest.raises(PreconditionError):
        functionals.iso_ratio(iso_quad, 0.0)


def test_sweep_slopes_match_exponent_bookkeeping(iso_quad, aniso24, pow32):
    grid = np.geomspace(1e2, 1e6, 13)
    v = functionals.condition_sweep(iso_quad, Condition.VOLUME_GROWTH, grid)
    assert abs(v.fitted_exponent) <= 1e-6 and v.verdict == "bounded"
    v = functionals.condition_sweep(aniso24, Condition.REVERSE_ISO, grid)
    assert v.fitted_exponent == pytest.approx(0.125, abs=0.03)
    assert v.verdict == "unbounded"
    v = functionals.condition_sweep(pow32, Condition.VOLUME_GROWTH, grid)
    assert v.fitted_exponent == pytest.approx(1.0 / 3.0, abs=0.05)
    assert v.verdict == "unbounded"
    v = functionals.condition_sweep(iso_quad, Condition.LP_INTEGRABILITY, grid, p=1.0)
    assert abs(v.fitted_exponent) <= 5e-3 and v.verdict == "bounded"


def test_sweep_requires_enough_points(iso_quad):
    with pytest.raises(PreconditionError):
        functionals.condition_sweep(iso_quad, Condition.VOLUME_GROWTH, np.geomspace(1, 10, 5))


def test_pogorelov_normalize_fixed_point_on_quadratics():
    A = np.array([[1.5, 0.4], [0.4, 0.8]])
    c = candidates.quadratic(A, name="quad:tilted")
    for t0 in (10.0, 1e3):
        cn = functionals.pogorelov_normalize(c, t0)
        X = np.random.default_rng(0).uniform(-2, 2, size=(50, 2))
        assert np.max(np.abs(cn.value(X) - c.value(X))) <= 1e-12


def test_pogorelov_normalize_aniso_extents(aniso24):
    cn = functionals.pogorelov_normalize(aniso24, 16.0)
    # x1^2 + 16 x2^4: unit sub-level extents (1, 1/2)
    assert cn.value(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-12)
    assert cn.value(np.array([[0.0, 0.5]]))[0] == pytest.approx(1.0, abs=1e-12)
    body = geometry.extract_body(cn, 1.0, m_dirs=360)
    assert np.max(np.abs(body.vertices[:, 0])) == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(body.vertices[:, 1])) == pytest.approx(0.5, abs=1e-6)


def test_pogorelov_invariance_of_iso_ratio(aniso24, pow32):
    for cand in (aniso24, pow32):
        for t0 in (10.0, 1e3):
            base = functionals.iso_ratio(cand, t0).ratio
            moved = functionals.iso_ratio(functionals.pogorelov_normalize(cand, t0), 1.0).ratio
            assert moved == pytest.approx(base, rel=1e-3)


def test_recenter_properties():
    c = candidates.aniso_sum([1.0, 1.0], [4.0, 2.0])
    x0 = np.array([1.0, 0.0])
    v = candidates.shifted(c, x0)
    assert v.value(x0[None, :])[0] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(v.grad(x0[None, :]))) <= 1e-12
    # quadratic recentring keeps the Hessian
    A = np.diag([2.0, 0.5])
    q = candidates.quadratic(A, name="q")
    vq = candidates.shifted(q, np.array([0.7, -0.3]))
    X = np.random.default_rng(1).uniform(-1, 1, size=(20, 2))
    assert np.max(np.abs(vq.hess(X) - A)) <= 1e-12


def test_legendre_quadratic_conjugate():
    A = np.diag([2.0, 0.5])
    c = candidates.quadratic(A, name="q")
    g = fields.grid_for_candidate(c, level=1.0, h=1 / 48)
    f = fields.sample_candidate(c, g, 1.0)
    v = functionals.legendre_transform(f)
    Ainv = np.linalg.inv(A)
    Y = v.mask.inside_coords()
    exact = 0.5 * np.einsum("ki,ij,kj->k", Y, Ainv, Y)
    assert np.max(np.abs(v.values - exact)) <= f.grid.h ** 2
    st = v.mask.stencils()
    H = v.hessian_stack()[st.is_full]
    assert np.max(np.abs(H - Ainv)) <= 5.0 * f.grid.h


def test_legendre_inverse_hessian_identity():
    A = np.array([[1.5, 0.4], [0.4, 0.8]])
    c = candidates.quadratic(A, name="quad:tilted")
    g = fields.grid_for_candidate(c, level=1.0, h=1 / 40)
    f = fields.sample_candidate(c, g, 1.0)
    v = functionals.legendre_transform(f)
    st = v.mask.stencils()
    H = v.hessian_stack()[st.is_full]
    prod = H @ A
    assert np.max(np.abs(prod - np.eye(2))) <= 5.0 * f.grid.h


def test_legendre_involution():
    A = np.diag([2.0, 0.5])
    c = candidates.quadratic(A, name="q")
    g = fields.grid_for_candidate(c, level=1.0, h=1 / 40)
    f = fields.sample_candidate(c, g, 1.0)
    v = functionals.legendre_transform(f)
    w = functionals.legendre_transform(v, region_level=0.5 * float(np.max(v.values)))
    W = w.mask.inside_coords()
    exact = 0.5 * np.einsum("ki,ij,kj->k", W, A, W)
    inner = np.linalg.norm(W, axis=1) <= 0.35
    assert inner.any()
    assert np.max(np.abs(w.values[inner] - exact[inner])) <= f.grid.h


def test_legendre_rejects_nonconvex(iso_quad):
    g = fields.grid_for_candidate(iso_quad, level=1.0, h=1 / 24)
    f = fields.sample_candidate(iso_quad, g, 1.0)
    X = f.mask.inside_coords()
    from hessianlab.errors import AdmissibilityError

    saddle = fields.ScalarField(f.mask, X[:, 0] ** 2 - X[:, 1] ** 2, f.level)
    with pytest.raises(AdmissibilityError):
        functionals.legendre_transform(saddle, region_level=0.4)


def test_transformed_quotient_solves_complementary_equation(quotient_ellipse_64):
    rep = quotient_ellipse_64
    v = functionals.legendre_transform(rep.field)
    st = v.mask.stencils()
    lam = np.linalg.eigvalsh(v.hessian_stack()[st.is_full])
    T = esym_table(lam)
    res = np.abs(T[:, 1] - 1.0)  # n - l = 1
    assert np.max(res) <= 10.0 * rep.problem.mask.grid.h


def test_growth_verdict_export(tmp_path, iso_quad):
    grid = np.geomspace(1e2, 1e6, 12)
    v = functionals.condition_sweep(iso_quad, Condition.VOLUME_GROWTH, grid)
    path = tmp_path / "sweep.csv"
    v.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t value running_min"
    assert len(lines) == 13
    payload = v.to_json_dict()
    assert payload["verdict"] == "bounded"
    assert set(payload) >= {"condition", "slope", "ci", "verdict", "running_min"}


def test_iso_ratio_3d_closed_form():
    # |x|^2/2 in three dimensions: ratio is 8 pi^(-1/3), level-free
    closed = 8.0 * math.pi ** (-1.0 / 3.0)
    c3 = candidates.quadratic(np.eye(3), name="quad:iso3")
    for t in (1.0, 100.0):
        r = functionals.iso_ratio(c3, t, m_dirs=800).ratio
        assert r == pytest.approx(closed, rel=1e-6)


def test_condition_sweep_3d_quadratic_bounded():
    c3 = candidates.quadratic(np.diag([2.0, 1.0, 0.5]), name="quad:diag3")
    grid = np.geomspace(1e2, 1e5, 12)
    v = functionals.condition_sweep(c3, Condition.VOLUME_GROWTH, grid, m_dirs=400)
    assert v.verdict == "bounded"
    assert abs(v.fitted_exponent) <= 1e-6
