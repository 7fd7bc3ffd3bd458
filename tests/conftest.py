import math

import pytest

from lensshrinker import PipelineConfig, angle_of, find_lens

A_SUITE = (0.1, 0.5, 1.0, math.sqrt(2.0))
# a fixed height next to the junction, pinned by the bit and counter tests:
# the a* of find_lens() at the default settings while it took ITP steps
# (Brent's a* is pinned in test_dop853.test_a_star_is_pinned)
A_STAR = 0.7860039861771009

# NPY_DISABLE_CPU_FEATURES settings for a child interpreter, each with the
# SIMD dispatch targets it may leave on; on an AVX-512 host, X86_V3 is off
# only when every target above it is named too
SIMD_SETTINGS = pytest.mark.parametrize("disabled, kept", [
    ("AVX512_SPR AVX512_ICL X86_V4", {"X86_V3"}),
    ("AVX512_SPR AVX512_ICL X86_V4 X86_V3", set()),
], ids=["no_avx512", "no_x86_v3"])


def dispatch_check(kept: set) -> str:
    """Source that a child runs first: it stops unless numpy dispatches
    none of its SIMD targets but those of kept, so that a setting that
    leaves a target on cannot pass for one that turns it off."""
    return ("from numpy._core._multiarray_umath import (__cpu_dispatch__,\n"
            "                                           __cpu_features__)\n"
            "_on = {t for t in __cpu_dispatch__ if __cpu_features__[t]}\n"
            f"assert _on <= {kept!r}, f'still dispatched: {{_on}}'\n")


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
