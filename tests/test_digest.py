"""The committed digest of every output byte (tests/golden/digest.txt)
against the digest that tools/profile_digest.py prints for this checkout.

A change that moves an output byte regenerates the file,

    python3 tools/profile_digest.py > tests/golden/digest.txt

and the diff of that file is the list of what moved."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SIMD_SETTINGS, dispatch_check

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "digest.txt"


def _moved(want: bytes, got: bytes) -> list:
    """The lines of want that got does not hold in the same place, and any
    line that one has beyond the other."""
    w, g = want.splitlines(), got.splitlines()
    return [(i, a, b) for i, (a, b) in enumerate(zip(w, g)) if a != b] + \
        [(i, line, None) for i, line in enumerate(w[len(g):], len(g))] + \
        [(i, None, line) for i, line in enumerate(g[len(w):], len(w))]


TOOL = str(ROOT / "tools" / "profile_digest.py")


def _digest(env=None, first="") -> bytes:
    # the tool run as a script, after the source first, if any
    run = f"import runpy\nrunpy.run_path({TOOL!r}, run_name='__main__')\n"
    proc = subprocess.run([sys.executable, "-c", first + run],
                          capture_output=True, check=True, timeout=300,
                          env=env)
    return proc.stdout


@pytest.fixture(scope="module")
def digest() -> bytes:
    return _digest()


def test_the_digest_is_the_committed_one(digest):
    assert _moved(GOLDEN.read_bytes(), digest) == []


@SIMD_SETTINGS
def test_the_digest_is_the_same_under_another_simd_dispatch(disabled, kept):
    # the profile path runs on Python floats, and the mesh path on math.sin
    # tables, elementwise arithmetic and integer hashing: with some of
    # numpy's SIMD dispatch turned off (in the CLI children too), no line
    # moves; the child first checks that the setting turned off what it
    # names
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
    assert _moved(GOLDEN.read_bytes(),
                  _digest(env, dispatch_check(kept))) == []


def test_a_flipped_byte_fails_the_digest(digest):
    # the negative control: one flipped bit in one hex digit of the
    # committed file, anywhere, is a moved line
    golden = GOLDEN.read_bytes()
    for at in (golden.index(b" ") + 1, len(golden) // 2, len(golden) - 2):
        flipped = bytearray(golden)
        flipped[at] ^= 1
        assert [i for i, *_ in _moved(bytes(flipped), digest)] == \
            [golden[:at].count(b"\n")]
