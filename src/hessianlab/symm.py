"""Elementary symmetric polynomials S_j and the derivatives of S_k/S_l.

esym_table gives S_0..S_n of spectra of any length. For 2x2 and 3x3
symmetric matrices, matrix_esym_table gives the same invariants in closed
form from the entries, and newton_tensor and matrix_gradient give their
matrix derivatives, the Newton tensors, with no eigendecomposition; these
feed the Newton solver. spectral_gradient is the same derivative in the
eigenvalues of a spectrum. All functions are pure; the batched helpers
accept stacked spectra or matrices (leading axes arbitrary) so a solver
can process a whole grid of Hessians per call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError


def esym_table(lam) -> np.ndarray:
    """All values S_0..S_n for spectra stacked along the last axis.

    Uses the characteristic-coefficient recurrence (expand the product of
    (x + lam_i) one factor at a time): O(n^2) work, numerically stable,
    never subset enumeration.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.zeros(lam.shape[:-1] + (n + 1,), dtype=float)
    out[..., 0] = 1.0
    for i in range(n):
        # descend j so that out[..., j-1] is still the previous factor's value
        for j in range(i + 1, 0, -1):
            out[..., j] += lam[..., i] * out[..., j - 1]
    return out


def _small_stack(H) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.ndim < 2 or H.shape[-1] not in (2, 3) or H.shape[-2] != H.shape[-1]:
        raise PreconditionError("closed-form invariants need stacked 2x2 or 3x3 matrices")
    return H


def _adjugate3(H) -> np.ndarray:
    """adj(H) of symmetric 3x3 matrices stacked over the leading axes: the
    cofactor matrix, itself symmetric."""
    a, b, c = H[..., 0, 0], H[..., 0, 1], H[..., 0, 2]
    d, e, f = H[..., 1, 1], H[..., 1, 2], H[..., 2, 2]
    A = np.empty(H.shape)
    A[..., 0, 0] = d * f - e * e
    A[..., 1, 1] = a * f - c * c
    A[..., 2, 2] = a * d - b * b
    A[..., 0, 1] = A[..., 1, 0] = c * e - b * f
    A[..., 0, 2] = A[..., 2, 0] = b * e - c * d
    A[..., 1, 2] = A[..., 2, 1] = b * c - a * e
    return A


def matrix_esym_table(H) -> np.ndarray:
    """S_0..S_n of the spectrum of every symmetric matrix stacked over the
    leading axes of H, n in {2, 3}, in closed form from the entries: S_1 the
    trace, S_2 the sum of the principal 2x2 minors (the trace of the
    adjugate), S_3 the determinant by cofactor expansion along row 0. Equals
    esym_table(eigvalsh(H)) up to rounding, with no eigendecomposition."""
    H = _small_stack(H)
    n = H.shape[-1]
    out = np.empty(H.shape[:-2] + (n + 1,))
    out[..., 0] = 1.0
    out[..., 1] = np.trace(H, axis1=-2, axis2=-1)
    if n == 2:
        out[..., 2] = H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 0, 1]
    else:
        A = _adjugate3(H)
        out[..., 2] = np.trace(A, axis1=-2, axis2=-1)
        out[..., 3] = np.sum(H[..., 0, :] * A[..., 0, :], axis=-1)
    return out


def newton_tensor(H, j: int) -> np.ndarray:
    """The Newton tensor T_j(H) = sum_i (-1)^i S_{j-i}(H) H^i of every
    symmetric matrix stacked in H, n in {2, 3}, 0 <= j < n: the derivative
    of S_{j+1} at H, dS_{j+1} = sum_{p,q} T_j[p,q] dH[p,q] (Reilly, Michigan
    Math. J. 20, 1973). T_0 = I, T_1 = S_1 I - H, and T_2 = adj(H) for
    n = 3 (by Cayley-Hamilton). T_j is positive definite on Gamma_{j+1}."""
    H = _small_stack(H)
    n = H.shape[-1]
    if not 0 <= j < n:
        raise PreconditionError(f"need 0 <= j < n, got j={j}, n={n}")
    if j == 0:
        return np.broadcast_to(np.eye(n), H.shape)
    if j == 1:
        T = -H
        idx = np.arange(n)
        T[..., idx, idx] += np.trace(H, axis1=-2, axis2=-1)[..., None]
        return T
    return _adjugate3(H)


def matrix_gradient(H, k: int, l: int = 0) -> np.ndarray:
    """The matrix derivative G of the solved form of S_k/S_l (see
    spectral_gradient), d Op = sum_{p,q} G[p,q] dH[p,q], at every symmetric
    matrix stacked in H, n in {2, 3}, from Newton tensors: T_{k-1}(H) for
    l = 0, and T_{k-1}/S_k - T_{l-1}/S_l for l > 0. Equals
    Q diag(spectral_gradient(lam)) Q^T up to rounding; positive definite
    when lambda(H) lies in Gamma_k (ellipticity)."""
    H = _small_stack(H)
    check_orders(H.shape[-1], k, l)
    G = newton_tensor(H, k - 1)
    if l == 0:
        return G
    S = matrix_esym_table(H)
    return G / S[..., k, None, None] - newton_tensor(H, l - 1) / S[..., l, None, None]


def complementary_table(lam) -> np.ndarray:
    """S_j of the spectrum with entry i deleted, for every i.

    Returns shape (..., n, n): entry [..., i, j] equals S_j(lam minus i),
    j = 0..n-1. Recomputed per deletion rather than deflated, which stays
    stable for spectra with large dynamic range.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.empty(lam.shape[:-1] + (n, n), dtype=float)
    for i in range(n):
        out[..., i, :] = esym_table(np.delete(lam, i, axis=-1))
    return out


def check_orders(n: int, k: int, l: int):
    """The orders of S_k/S_l on n x n matrices: 0 <= l < k <= n."""
    if not (0 <= l < k <= n):
        raise PreconditionError(f"need 0 <= l < k <= n, got k={k}, l={l}, n={n}")


def spectral_gradient(lam, k: int, l: int = 0) -> np.ndarray:
    """d/d(lambda_i) of the solved form of S_k/S_l, batched over leading axes.

    The form follows l: S_k for l = 0, log S_k - log S_l for l > 0. The
    partial of S_k in lambda_i is S_{k-1} of the spectrum with entry i
    removed, which is smooth across eigenvalue collisions, so no divided
    differences are needed here.
    """
    lam = np.asarray(lam, dtype=float)
    check_orders(lam.shape[-1], k, l)
    comp = complementary_table(lam)  # (..., i, j)
    dSk = comp[..., :, k - 1]
    if l == 0:
        return dSk
    T = esym_table(lam)
    return dSk / T[..., k][..., None] - comp[..., :, l - 1] / T[..., l][..., None]


def maclaurin_trace_bound(n: int, k: int) -> float:
    """Coefficient n * C(n,k)^(-1/k): lower bound on the Laplacian of a
    unit k-Hessian solution, feeding the radial comparison barrier."""
    return n * math.comb(n, k) ** (-1.0 / k)


def radius_bound_coeff(n: int, k: int) -> float:
    """sqrt(2n / maclaurin_trace_bound): the universal factor in the
    normalized-domain radius estimate R <= coeff * gamma."""
    return math.sqrt(2.0 * n / maclaurin_trace_bound(n, k))
