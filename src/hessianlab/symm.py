"""Elementary symmetric polynomial calculus on eigenvalue spectra.

Dimension-generic evaluation of the symmetric polynomials S_j, Hessian and
Hessian-quotient operators on symmetric matrices, and the first spectral
derivatives that feed the Newton solver. All functions are pure; the
batched helpers accept stacked spectra (leading axes arbitrary) so a solver
can process a whole grid of Hessians per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    NumericError,
    PreconditionError,
    SingularQuotientError,
)

MIN_DIM = 2
MAX_DIM = 16


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)


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


@dataclass(frozen=True)
class SymmetricMatrix:
    """Exactly symmetric n x n matrix stored as a packed upper triangle."""

    tri: np.ndarray
    n: int

    @classmethod
    def from_array(cls, M) -> "SymmetricMatrix":
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise PreconditionError("matrix must be square")
        n = M.shape[0]
        if not MIN_DIM <= n <= MAX_DIM:
            raise PreconditionError(f"dimension {n} outside {MIN_DIM}..{MAX_DIM}")
        if not np.all(np.isfinite(M)):
            raise PreconditionError("matrix entries must be finite")
        scale = np.linalg.norm(M)
        if np.linalg.norm(M - M.T) > 1e-12 * max(scale, 1.0):
            raise PreconditionError("matrix is not symmetric within tolerance")
        sym = 0.5 * (M + M.T)
        iu = np.triu_indices(n)
        return cls(tri=sym[iu].copy(), n=n)

    @property
    def array(self) -> np.ndarray:
        M = np.zeros((self.n, self.n))
        iu = np.triu_indices(self.n)
        M[iu] = self.tri
        il = np.tril_indices(self.n, -1)
        M[il] = M.T[il]
        return M

    def eig(self):
        """Eigenvalues ascending plus orthonormal eigenvectors.

        Raises NumericError if Q diag(w) Q^T fails to reconstruct the
        matrix to 1e-12 relative.
        """
        M = self.array
        w, Q = np.linalg.eigh(M)
        recon = (Q * w) @ Q.T
        if np.linalg.norm(recon - M) > 1e-12 * max(np.linalg.norm(M), 1.0):
            raise NumericError("eigendecomposition reconstruction out of tolerance")
        return w, Q


def _as_matrix(M) -> SymmetricMatrix:
    if isinstance(M, SymmetricMatrix):
        return M
    return SymmetricMatrix.from_array(M)


def check_orders(n: int, k: int, l: int):
    """The orders of S_k/S_l on n x n matrices: 0 <= l < k <= n."""
    if not (0 <= l < k <= n):
        raise PreconditionError(f"need 0 <= l < k <= n, got k={k}, l={l}, n={n}")


def hessian_operator(M, k: int, l: int = 0) -> float:
    """S_k/S_l (lambda(M)); S_0 = 1, so l = 0 gives S_k."""
    sm = _as_matrix(M)
    check_orders(sm.n, k, l)
    t = esym_table(sm.eig()[0])
    if t[l] == 0.0:
        raise SingularQuotientError(f"S_{l} vanishes; quotient undefined")
    return float(t[k] / t[l])


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


def operator_gradient(M, k: int, l: int = 0) -> SymmetricMatrix:
    """Matrix derivative of the solved form of S_k/S_l at M (see
    spectral_gradient), via the eigenbasis.

    Positive definite whenever lambda(M) lies in Gamma_k (ellipticity).
    Convention: d Op = sum_{p,q} G[p,q] dM[p,q] over all n^2 entries.
    """
    sm = _as_matrix(M)
    check_orders(sm.n, k, l)
    w, Q = sm.eig()
    if l > 0:
        t = esym_table(w)
        if t[k] <= 0.0 or t[l] <= 0.0:
            raise AdmissibilityError("log S_k - log S_l needs S_k and S_l positive")
    G = (Q * spectral_gradient(w, k, l)) @ Q.T
    return SymmetricMatrix.from_array(0.5 * (G + G.T))


def maclaurin_trace_bound(n: int, k: int) -> float:
    """Coefficient n * C(n,k)^(-1/k): lower bound on the Laplacian of a
    unit k-Hessian solution, feeding the radial comparison barrier."""
    return n * binomial(n, k) ** (-1.0 / k)


def radius_bound_coeff(n: int, k: int) -> float:
    """sqrt(2n / maclaurin_trace_bound): the universal factor in the
    normalized-domain radius estimate R <= coeff * gamma."""
    return math.sqrt(2.0 * n / maclaurin_trace_bound(n, k))
