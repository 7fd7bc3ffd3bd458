import math

import pytest

from lensshrinker import PipelineConfig, angle_of, find_lens

A_SUITE = (0.1, 0.5, 1.0, math.sqrt(2.0))
# the junction height find_lens() returns at the default settings
A_STAR = 0.7860039861771013


@pytest.fixture(scope="session")
def cfg():
    return PipelineConfig()


@pytest.fixture(scope="session")
def profiles(cfg):
    """Profiles for the standard height suite, computed once."""
    out = {}
    for a in A_SUITE:
        alpha, profile = angle_of(a, cfg)
        out[a] = (alpha, profile)
    return out


@pytest.fixture(scope="session")
def circle_profile(profiles):
    return profiles[math.sqrt(2.0)][1]


@pytest.fixture(scope="session")
def lens_report(cfg):
    """The junction shoot with default settings, computed once."""
    return find_lens(cfg=cfg)
