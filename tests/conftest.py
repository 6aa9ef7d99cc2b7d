import os

import pytest

from theta2.groebner import GFP1, GFP2
from theta2.numerics import sample_siegel
from theta2.thetaring import StructurePipeline, default_oracle


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    # a persistent cache (set THETA2_TEST_CACHE) makes local reruns fast;
    # the default is hermetic
    env = os.environ.get("THETA2_TEST_CACHE")
    if env:
        os.makedirs(env, exist_ok=True)
        return env
    return str(tmp_path_factory.mktemp("basis-cache"))


@pytest.fixture(scope="session")
def oracle():
    return default_oracle()


@pytest.fixture(scope="session")
def pipe_p1(cache_dir):
    return StructurePipeline(GFP1, cache_dir)


@pytest.fixture(scope="session")
def pipe_p2(cache_dir):
    return StructurePipeline(GFP2, cache_dir)


@pytest.fixture(scope="session")
def points():
    return sample_siegel(7, 10)
