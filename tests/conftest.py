import pytest
from hypothesis import HealthCheck, settings

from markedgibbs.gibbsmc import _draw_points
from markedgibbs.lpintegrate import philox_rng
from markedgibbs.model import FiniteConfiguration
from markedgibbs.potential import build_model

settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def toy_model():
    return build_model("toy-repulsive-spin", z=0.05, beta=1.0)


@pytest.fixture(scope="session")
def ideal_model():
    return build_model("ideal", z=0.05, beta=1.0)


def random_config(model, n, rng) -> FiniteConfiguration:
    return _draw_points(model, model.space.box, n, rng)


@pytest.fixture
def rng():
    return philox_rng(20240817)
