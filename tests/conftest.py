import numpy as np
import pytest

from perigid import ToleranceVault, fixtures


@pytest.fixture(scope="session")
def tol():
    return ToleranceVault()


@pytest.fixture(scope="session")
def catalog():
    return fixtures()


@pytest.fixture(scope="session")
def flex1(catalog):
    return catalog["flex1"]


@pytest.fixture(scope="session")
def flex2(catalog):
    return catalog["flex2"]


@pytest.fixture(scope="session")
def hexes(catalog):
    return catalog["hex"]


@pytest.fixture(scope="session")
def octagon(catalog):
    return catalog["octagon"]


@pytest.fixture()
def count_factorisations(monkeypatch):
    """Start recording (name, operand shape) of every numpy.linalg factorisation,
    inverse, linear solve and least-squares solve."""

    def start() -> list:
        calls = []
        for name in ("svd", "eigh", "eigvalsh", "qr", "cholesky", "inv", "solve", "lstsq"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    return start
