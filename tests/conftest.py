import numpy as np
import pytest

from curbmap import (CurbParams, GroundParams, SceneSpec, VotingParams, generate_scene,
                     ground_model, saliency_field)

# street-scene operating point: thresholds are scene-relative and these
# are the documented defaults for the synthetic street
STREET_CURB = CurbParams(plate_threshold=0.35, outlier_min_neighbors=5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240 + 7)


@pytest.fixture(scope="session")
def street_spec():
    return SceneSpec()


@pytest.fixture(scope="session")
def street_cloud(street_spec):
    return generate_scene(street_spec)


@pytest.fixture(scope="session")
def street_field(street_cloud):
    """Saliency channels over the full street scene, computed once."""
    return saliency_field(street_cloud, VotingParams(sigma=0.3), threads=2)


@pytest.fixture(scope="session")
def street_dem(street_field):
    return ground_model(street_field, GroundParams())
