import numpy as np
import pytest

from hessianlab import candidates, fields, solver


@pytest.fixture(scope="session")
def iso_quad():
    return candidates.quadratic(np.eye(2), name="quad:iso")


@pytest.fixture(scope="session")
def aniso24():
    return candidates.aniso_sum([1.0, 1.0], [2.0, 4.0])


@pytest.fixture(scope="session")
def pow32():
    return candidates.power_norm(1.0, 1.5, 2)


@pytest.fixture
def hessian_stack_calls(monkeypatch):
    """A list that grows by one entry per StencilSet.hessian_stack call."""
    calls = []
    stack = fields.StencilSet.hessian_stack

    def counted(self, values_in):
        calls.append(1)
        return stack(self, values_in)

    monkeypatch.setattr(fields.StencilSet, "hessian_stack", counted)
    return calls


@pytest.fixture(scope="session")
def poisson_disk_64():
    mask = fields.mask_from_ellipse([1.0, 1.0], h=1 / 64)
    return solver.solve(solver.DirichletProblem(mask=mask, k=1, l=0))


@pytest.fixture(scope="session")
def ma_ellipse_64():
    """Unit-determinant quadratic domain, aspect 2, k = 2."""
    mask = fields.mask_from_ellipse([1.0, 2.0], h=1 / 64)
    return solver.solve(solver.DirichletProblem(mask=mask, k=2, l=0))


@pytest.fixture(scope="session")
def quotient_ellipse_64():
    """Exact-quadratic quotient instance: eigenvalues (5, 1.25)."""
    lam = np.array([5.0, 1.25])
    mask = fields.mask_from_ellipse(np.sqrt(2.0 / lam), h=1 / 64)
    return solver.solve(solver.DirichletProblem(mask=mask, k=2, l=1))


def ma_exact(a, X):
    return 0.5 * (a * X[:, 0] ** 2 + X[:, 1] ** 2 / a)


def quotient_exact(lam, X):
    return 0.5 * (lam[0] * X[:, 0] ** 2 + lam[1] * X[:, 1] ** 2)
