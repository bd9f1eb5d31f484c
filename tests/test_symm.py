import itertools
import math

import numpy as np
import pytest

from hessianlab import symm
from hessianlab.errors import PreconditionError, SingularQuotientError


def esym_bruteforce(lam, j):
    """Subset-sum oracle, independent of the recurrence implementation."""
    if j == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(lam, j)))


def test_esym_matches_bruteforce():
    rng = np.random.default_rng(0)
    for n in range(2, 9):
        for _ in range(25):
            lam = rng.normal(scale=3.0, size=n)
            T = symm.esym_table(lam)
            for j in range(n + 1):
                ref = esym_bruteforce(lam, j)
                assert T[j] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_esym_worked_values():
    assert symm.esym_table([1.0, 1.0, 1.0])[2] == pytest.approx(3.0)
    assert symm.esym_table([1.0, 2.0, 3.0])[3] == pytest.approx(6.0)
    assert symm.esym_table([0.5, 2.0])[2] == pytest.approx(1.0)
    assert symm.esym_table([4.0, -1.0, 7.0])[0] == 1.0
    # stacked spectra: one row per spectrum, S_0..S_n along the last axis
    T = symm.esym_table([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    assert np.array_equal(T, [[1.0, 3.0, 3.0, 1.0], [1.0, 6.0, 11.0, 6.0]])


def test_esym_order_out_of_range():
    with pytest.raises(PreconditionError):
        symm.hessian_operator(np.eye(2), 3)


def test_cone_monotone_bump():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        for _ in range(200):
            lam = rng.uniform(0.05, 3.0, size=n)  # positive orthant subset
            k = rng.integers(1, n + 1)
            eta = rng.uniform(0.0, 2.0, size=n)
            s0 = symm.esym_table(lam)[k]
            s1 = symm.esym_table(lam + eta)[k]
            assert s1 >= s0 > 0


def test_hessian_operator_worked():
    assert symm.hessian_operator(np.eye(3), 2) == pytest.approx(3.0)
    for a in (0.5, 1.0, 4.0):
        M = np.diag([a, 1.0 / a])
        assert symm.hessian_operator(M, 2) == pytest.approx(1.0)
    assert symm.hessian_operator(np.eye(3), 3, 1) == pytest.approx(1.0 / 3.0)


def test_quotient_singular_denominator():
    M = np.diag([1.0, -1.0])  # S_1 = 0
    with pytest.raises(SingularQuotientError):
        symm.hessian_operator(M, 2, 1)


def test_rotation_invariance():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        M = rng.normal(size=(n, n))
        M = 0.5 * (M + M.T)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        for k in range(1, n + 1):
            a = symm.hessian_operator(M, k)
            b = symm.hessian_operator(Q @ M @ Q.T, k)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_operator_gradient_worked():
    G = symm.operator_gradient(np.eye(2), 2).array
    assert np.allclose(G, np.eye(2), atol=1e-12)
    G = symm.operator_gradient(np.diag([1.0, 2.0]), 1).array
    assert np.allclose(G, np.eye(2), atol=1e-12)
    G = symm.operator_gradient(np.diag([1.0, 2.0, 3.0]), 2).array
    assert np.allclose(G, np.diag([5.0, 4.0, 3.0]), atol=1e-12)


def _fd_gradient(M, k, l, step=None):
    """Central differences of the solved form: S_k for l = 0, otherwise
    log S_k - log S_l."""
    n = M.shape[0]
    step = step or 1e-5 * max(np.linalg.norm(M), 1.0)
    out = np.zeros((n, n))

    def op(A):
        if l > 0:
            return math.log(symm.hessian_operator(A, k, l))
        return symm.hessian_operator(A, k, l)

    for p in range(n):
        for q in range(p, n):
            E = np.zeros((n, n))
            E[p, q] = E[q, p] = 1.0
            d = (op(M + step * E) - op(M - step * E)) / (2.0 * step)
            # symmetric perturbation moves both entries: split evenly
            out[p, q] = out[q, p] = d / (2.0 if p != q else 1.0)
    return out


def test_operator_gradient_matches_fd():
    rng = np.random.default_rng(4)
    cases = 0
    while cases < 60:
        n = int(rng.integers(2, 5))
        B = rng.normal(size=(n, n))
        M = B @ B.T + 0.3 * np.eye(n)
        k = int(rng.integers(1, n + 1))
        l = int(rng.integers(0, k))
        G = symm.operator_gradient(M, k, l).array
        F = _fd_gradient(M, k, l)
        scale = max(np.max(np.abs(F)), 1e-12)
        assert np.max(np.abs(G - F)) <= 1e-6 * scale
        cases += 1


def test_operator_gradient_fd_with_tiny_eigen_gap():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    M = Q @ np.diag([1.0, 1.0 + 1e-8, 2.0]) @ Q.T
    M = 0.5 * (M + M.T)
    G = symm.operator_gradient(M, 2).array
    F = _fd_gradient(M, 2, 0)
    assert np.max(np.abs(G - F)) <= 1e-6 * max(np.max(np.abs(F)), 1.0)


def test_operator_gradient_positive_definite_on_cone():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        lam = rng.uniform(0.05, 4.0, size=n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        M = Q @ np.diag(lam) @ Q.T
        M = 0.5 * (M + M.T)
        k = int(rng.integers(1, n + 1))
        G = symm.operator_gradient(M, k).array
        assert np.min(np.linalg.eigvalsh(G)) > 0


def _symmetric_stack(rng, n, family, size=20, positive=False):
    """Seeded stacks of symmetric n x n matrices with known spectra, at
    scales 1e-2..1e2: random (any sign, or positive), clustered (a
    near-ball, eigenvalues equal to 1e-9 relative) and near-singular (the
    smallest eigenvalue 1e-9 of the largest). The last two are positive.
    Positive spectra lie in every cone Gamma_k."""
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(size, 1))
    if family == "random":
        lam = rng.normal(size=(size, n))
        lam = np.abs(lam) if positive else lam
    elif family == "clustered":
        lam = 1.0 + 1e-9 * rng.normal(size=(size, n))
    else:
        lam = rng.uniform(0.5, 2.0, size=(size, n))
        lam[:, 0] = 1e-9 * lam[:, 1]
    Q = np.linalg.qr(rng.normal(size=(size, n, n)))[0]
    H = np.einsum("sij,sj,skj->sik", Q, scale * lam, Q)
    return 0.5 * (H + np.swapaxes(H, 1, 2))


_FAMILIES = ("random", "clustered", "near-singular")
_ORDERS = [(n, k, l) for n in (2, 3) for k in range(1, n + 1) for l in range(k)]


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
def test_matrix_esym_table_matches_the_spectrum(n, family):
    H = _symmetric_stack(np.random.default_rng(n), n, family)
    T = symm.matrix_esym_table(H)
    ref = symm.esym_table(np.linalg.eigvalsh(H))
    norm = np.linalg.norm(H, 2, axis=(1, 2))
    assert T.shape == (H.shape[0], n + 1)
    for j in range(n + 1):
        assert np.all(np.abs(T[:, j] - ref[:, j]) <= 64 * np.finfo(float).eps * norm**j)


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("n,k,l", _ORDERS)
def test_matrix_gradient_matches_operator_gradient(n, k, l, family):
    # the Newton tensors T_{k-1}, and T_{k-1}/S_k - T_{l-1}/S_l for
    # quotients, against the eigenbasis path; the quotients need S_k and S_l
    # positive, so they take matrices in the cone only
    H = _symmetric_stack(np.random.default_rng(10 * n + k + l), n, family, positive=l > 0)
    G = symm.matrix_gradient(H, k, l)
    S = symm.esym_table(np.linalg.eigvalsh(H))
    norm = np.linalg.norm(H, 2, axis=(1, 2))
    eps = np.finfo(float).eps
    for i, M in enumerate(H):
        ref = symm.operator_gradient(M, k, l).array
        if l == 0:
            tol = 64 * eps * norm[i] ** (k - 1)
        else:
            # rounding of T_j / S_j is relative to S_j, and S_j to ||H||^j
            tol = 64 * eps * sum(
                norm[i] ** (j - 1) / S[i, j] * (1.0 + norm[i] ** j / S[i, j])
                for j in (k, l) if j > 0
            )
        assert np.max(np.abs(G[i] - ref)) <= tol


def test_newton_tensor_worked():
    H = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(symm.newton_tensor(H, 0), np.eye(3))
    assert np.array_equal(symm.newton_tensor(H, 1), np.diag([5.0, 4.0, 3.0]))
    assert np.array_equal(symm.newton_tensor(H, 2), np.diag([6.0, 3.0, 2.0]))
    # T_{n-1} is the adjugate: H T_{n-1} = det(H) I, in 2D and 3D
    rng = np.random.default_rng(11)
    for n in (2, 3):
        H = _symmetric_stack(rng, n, "random")
        det = symm.matrix_esym_table(H)[:, n]
        err = H @ symm.newton_tensor(H, n - 1) - det[:, None, None] * np.eye(n)
        norm = np.linalg.norm(H, 2, axis=(1, 2))
        assert np.all(np.max(np.abs(err), axis=(1, 2)) <= 64 * np.finfo(float).eps * norm**n)
    with pytest.raises(PreconditionError):
        symm.newton_tensor(np.eye(3), 3)
    with pytest.raises(PreconditionError):
        symm.matrix_esym_table(np.eye(4))


def test_barrier_coefficients_worked():
    assert symm.maclaurin_trace_bound(2, 1) == pytest.approx(1.0)
    assert symm.maclaurin_trace_bound(3, 2) == pytest.approx(3.0 / math.sqrt(3.0))
    assert symm.radius_bound_coeff(2, 1) == pytest.approx(2.0)
    assert symm.radius_bound_coeff(3, 2) == pytest.approx(1.8612097182041993, rel=1e-12)


def test_symmetric_matrix_storage_and_eig():
    rng = np.random.default_rng(8)
    B = rng.normal(size=(4, 4))
    M = symm.SymmetricMatrix.from_array(B @ B.T)
    A = M.array
    assert np.array_equal(A, A.T)  # exact symmetry from packed storage
    w, Q = M.eig()
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm((Q * w) @ Q.T - A) <= 1e-12 * np.linalg.norm(A)


def test_dimension_limits():
    with pytest.raises(PreconditionError):
        symm.SymmetricMatrix.from_array(np.eye(1))
    with pytest.raises(PreconditionError):
        symm.SymmetricMatrix.from_array(np.eye(17))
    with pytest.raises(PreconditionError):
        symm.SymmetricMatrix.from_array(np.diag([1.0, np.inf]))
