import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

from reflextor import GF, QQ, make_ring
from reflextor.modules import cyclic, minimize, tensor, transpose
from reflextor.parse import parse_poly
from reflextor.rings import RIdeal


@pytest.fixture(scope="session")
def ring_a():
    """Q[x,y,z,w]/(xy), the four-variable hypersurface fixture."""
    return make_ring(QQ, ["x", "y", "z", "w"], ["x*y"])


@pytest.fixture(scope="session")
def pa(ring_a):
    return lambda s: parse_poly(s, ring_a.sig)


@pytest.fixture(scope="session")
def m_a(ring_a, pa):
    prime = RIdeal(ring_a, (pa("y"), pa("z"), pa("w")), prime_status="verified")
    return transpose(cyclic(ring_a, prime))


@pytest.fixture(scope="session")
def n_a(ring_a, pa):
    return cyclic(ring_a, (pa("x"),))


@pytest.fixture(scope="session")
def tensor_a(m_a, n_a):
    return minimize(tensor(m_a, n_a))


@pytest.fixture(scope="session")
def ring_b():
    """Q[x,y]/(xy), the two-variable hypersurface fixture."""
    return make_ring(QQ, ["x", "y"], ["x*y"])


@pytest.fixture(scope="session")
def pb(ring_b):
    return lambda s: parse_poly(s, ring_b.sig)


@pytest.fixture(scope="session")
def m_b(ring_b, pb):
    return cyclic(ring_b, (pb("x"),))


@pytest.fixture(scope="session")
def n_b(ring_b, pb):
    return cyclic(ring_b, (pb("x^2"),))


@pytest.fixture(scope="session")
def ring_c():
    """Q[x,y,u,v]/(xu,xv,yu,yv): two planes meeting at a point."""
    return make_ring(QQ, ["x", "y", "u", "v"], ["x*u", "x*v", "y*u", "y*v"])


@pytest.fixture(scope="session")
def ring_ci():
    """GF(32003)[x,y,z,u,v] modulo a complete intersection of degrees 2, 2, 3."""
    return make_ring(
        GF(32003), ["x", "y", "z", "u", "v"],
        ["x^2+y*z-u*v", "z*u-y^2+x*v", "x*y*z-v^3"],
    )


@pytest.fixture(scope="session")
def ring_regular():
    return make_ring(QQ, ["x", "y"], [])
