"""Registry of closed-form convex candidates.

Candidates carry vectorized value/gradient/Hessian evaluators normalized
so that both the value and the gradient vanish at the anchor point. Three
families are registered: quadratics x'Ax/2 with A positive definite,
radial power norms c|x|^p with p > 1, and anisotropic power sums
sum_i c_i |x_i|^{p_i} with p_i >= 2.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError


@dataclass
class AnalyticCandidate:
    """A closed-form convex function with vectorized evaluators."""

    name: str
    n: int
    params: np.ndarray
    value_fn: callable
    grad_fn: callable
    hess_fn: callable
    anchor: np.ndarray = None
    # memo of polar.radial_crossings: (dirs shape, dirs bytes) -> {level: radii}
    _crossings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # polar probing and the hull geometry work in the plane and in space
        if self.n not in (2, 3):
            raise PreconditionError(f"candidate {self.name} has dimension {self.n}, not 2 or 3")
        if self.anchor is None:
            self.anchor = np.zeros(self.n)
        self.anchor = np.asarray(self.anchor, dtype=float)
        self.params = np.asarray(self.params, dtype=float)
        a = self.anchor[None, :]
        if abs(float(self.value_fn(a)[0])) > 1e-12:
            raise PreconditionError(f"candidate {self.name} not zero at its anchor")
        if np.max(np.abs(self.grad_fn(a))) > 1e-12:
            raise PreconditionError(f"candidate {self.name} has nonzero anchor slope")

    def value(self, X):
        return self.value_fn(np.atleast_2d(np.asarray(X, dtype=float)))

    def grad(self, X):
        return self.grad_fn(np.atleast_2d(np.asarray(X, dtype=float)))

    def hess(self, X):
        return self.hess_fn(np.atleast_2d(np.asarray(X, dtype=float)))


def require_candidate(source):
    """The sub-level-set measurements take closed-form candidates only."""
    if not isinstance(source, AnalyticCandidate):
        raise PreconditionError("source must be an analytic candidate")


def quadratic(A, name=None) -> AnalyticCandidate:
    """u(x) = x' A x / 2 for symmetric positive definite A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise PreconditionError("quadratic matrix must be square")
    if np.linalg.norm(A - A.T) > 1e-12 * max(np.linalg.norm(A), 1.0):
        raise PreconditionError("quadratic matrix must be symmetric")
    if np.min(np.linalg.eigvalsh(A)) <= 0:
        raise PreconditionError("quadratic matrix must be positive definite")
    n = A.shape[0]

    def val(X):
        return 0.5 * np.einsum("ki,ij,kj->k", X, A, X)

    def grad(X):
        return X @ A.T

    def hess(X):
        return np.broadcast_to(A, (X.shape[0], n, n)).copy()

    label = name or "quad:" + json.dumps(A.tolist())
    return AnalyticCandidate(label, n, A.ravel(), val, grad, hess)


def power_norm(c: float, p: float, n: int) -> AnalyticCandidate:
    """u(x) = c |x|^p with p > 1 (singular Hessian at the origin for p < 2)."""
    if p <= 1 or c <= 0:
        raise PreconditionError("power norm needs c > 0 and p > 1")

    def val(X):
        return c * np.linalg.norm(X, axis=1) ** p

    def grad(X):
        r = np.linalg.norm(X, axis=1)
        safe = np.maximum(r, 1e-300)
        return c * p * safe[:, None] ** (p - 2) * X

    def hess(X):
        r = np.linalg.norm(X, axis=1)
        safe = np.maximum(r, 1e-300)
        w = X / safe[:, None]
        eye = np.eye(n)
        rad = c * p * safe ** (p - 2)
        return rad[:, None, None] * (
            eye[None, :, :] + (p - 2) * np.einsum("ki,kj->kij", w, w)
        )

    return AnalyticCandidate(f"pownorm:c={c:g},p={p:g},n={n}", n, [c, p], val, grad, hess)


def aniso_sum(coeffs, powers) -> AnalyticCandidate:
    """u(x) = sum_i c_i |x_i|^{p_i} with every p_i >= 2."""
    c = np.asarray(coeffs, dtype=float)
    p = np.asarray(powers, dtype=float)
    if c.shape != p.shape or c.ndim != 1:
        raise PreconditionError("coefficients and powers must be matching vectors")
    if np.any(c <= 0) or np.any(p < 2):
        raise PreconditionError("anisotropic sums need c_i > 0 and p_i >= 2")
    n = c.size

    def val(X):
        return np.sum(c * np.abs(X) ** p, axis=1)

    def grad(X):
        return c * p * np.abs(X) ** (p - 1) * np.sign(X)

    def hess(X):
        diag = c * p * (p - 1) * np.abs(X) ** np.maximum(p - 2, 0.0)
        H = np.zeros((X.shape[0], n, n))
        ii = np.arange(n)
        H[:, ii, ii] = diag
        return H

    cs = ",".join(f"{v:g}" for v in c)
    ps = ",".join(f"{v:g}" for v in p)
    return AnalyticCandidate(f"aniso:c={cs};p={ps}", n, np.concatenate([c, p]), val, grad, hess)


def shifted(base: AnalyticCandidate, x0) -> AnalyticCandidate:
    """Subtract the tangent plane at x0, moving the anchor there."""
    x0 = np.asarray(x0, dtype=float)
    u0 = float(base.value(x0[None, :])[0])
    g0 = base.grad(x0[None, :])[0]

    def val(X):
        return base.value(X) - u0 - (X - x0) @ g0

    def grad(X):
        return base.grad(X) - g0

    return AnalyticCandidate(
        f"{base.name}@recenter", base.n, base.params, val, grad, base.hess, anchor=x0
    )


def rescaled(base: AnalyticCandidate, t0: float) -> AnalyticCandidate:
    """First normalization u(sqrt(t0) x)/t0, sending level t0 to level 1."""
    if t0 <= 0:
        raise PreconditionError("normalization level must be positive")
    s = np.sqrt(t0)

    def val(X):
        return base.value(X * s) / t0

    def grad(X):
        return base.grad(X * s) / s

    def hess(X):
        return base.hess(X * s)

    return AnalyticCandidate(
        f"{base.name}@scale{t0:g}", base.n, base.params, val, grad, hess,
        anchor=base.anchor / s,
    )


# ---------------------------------------------------------------------------
# registry and parsing

_DIAG_RE = re.compile(r"^diag\(([^)]*)\)$")


def candidate_from_spec(spec: str) -> AnalyticCandidate:
    """Build a candidate from a compact string spec.

    Formats: "quad:diag(2,0.5)", "quad:[[2,0],[0,0.5]]",
    "pownorm:c=1,p=1.5,n=2", "aniso:c=1,1;p=2,4".
    """
    if ":" not in spec:
        raise PreconditionError(f"malformed candidate spec: {spec!r}")
    kind, arg = spec.split(":", 1)
    try:
        if kind == "quad":
            m = _DIAG_RE.match(arg)
            if m:
                d = [float(v) for v in m.group(1).split(",")]
                return quadratic(np.diag(d), name=spec)
            A = np.asarray(json.loads(arg), dtype=float)
            return quadratic(A, name=spec)
        if kind == "pownorm":
            kv = dict(part.split("=") for part in arg.split(","))
            return power_norm(float(kv.get("c", 1)), float(kv["p"]), int(kv.get("n", 2)))
        if kind == "aniso":
            kv = dict(part.split("=") for part in arg.split(";"))
            c = [float(v) for v in kv["c"].split(",")]
            p = [float(v) for v in kv["p"].split(",")]
            return aniso_sum(c, p)
    except (KeyError, ValueError, TypeError) as exc:
        raise PreconditionError(f"malformed candidate spec {spec!r}: {exc!r}") from exc
    raise PreconditionError(f"unknown candidate family: {kind!r}")


def default_corpus(n: int = 2) -> list:
    """The standing test corpus for one dimension."""
    if n == 2:
        return [
            quadratic(0.5 * np.eye(2) * 2.0, name="quad:iso"),
            quadratic(np.diag([2.0, 0.5]), name="quad:diag(2,0.5)"),
            quadratic(np.array([[1.5, 0.4], [0.4, 0.8]]), name="quad:tilted"),
            aniso_sum([1.0, 1.0], [2.0, 4.0]),
            power_norm(1.0, 1.5, 2),
        ]
    if n == 3:
        return [
            quadratic(np.eye(3), name="quad:iso3"),
            quadratic(np.diag([2.0, 1.0, 0.5]), name="quad:diag(2,1,0.5)"),
            aniso_sum([1.0, 1.0, 1.0], [2.0, 2.0, 4.0]),
        ]
    raise PreconditionError("corpus provided for n = 2 or 3 only")
