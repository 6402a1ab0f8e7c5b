import pytest

from carnotperim import (
    DInfinityGauge,
    EuclideanGauge,
    KoranyiGauge,
    abelian,
    euclidean_ball_gauge,
    heisenberg,
    two_ball_gauge,
)

# frozen oracle values (computed by independent quadrature / closed forms,
# see the oracle tests that re-derive them)
KORANYI_PSI0 = 0.8740191847640402  # integral of sqrt(1 - s^4) over [0, 1]


@pytest.fixture(scope="session")
def h1():
    return heisenberg(1)


@pytest.fixture(scope="session")
def h2():
    return heisenberg(2)


@pytest.fixture(scope="session")
def r2():
    return abelian(2)


@pytest.fixture(scope="session")
def koranyi(h1):
    return KoranyiGauge(h1)


@pytest.fixture(scope="session")
def dinf2(h1):
    return DInfinityGauge(h1, eps2=2.0)


@pytest.fixture(scope="session")
def starball(h1):
    return euclidean_ball_gauge(h1, rho=0.5)


@pytest.fixture(scope="session")
def twoball(h1):
    return two_ball_gauge(h1)


@pytest.fixture(scope="session")
def disc(r2):
    return EuclideanGauge(r2)


def random_points(model, rng, k, scale=2.0):
    pts = rng.uniform(-1.0, 1.0, size=(k, model.n))
    pts[:, : model.m1] *= scale
    if model.m2:
        pts[:, model.m1 :] *= scale * scale
    return pts
