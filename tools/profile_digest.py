"""Print one line per fixed height: the height, a digest of its profile, a
digest of its axis series and a digest of its mesh's OBJ bytes, so that two
checkouts can be compared bit for bit with ``diff``.

    python3 tools/profile_digest.py > digest.txt

The checkout is the one holding this script: its ``src`` goes first on the
import path.  Each line holds the height's repr, the first 16 hex digits of
the sha256 of every field of ``angle_of(a)``'s LensProfile but the series
(its scalars and counters, its arrays, the dense output's ts, h, y_old and
F, and the monitors sorted by name), of the sha256 of the series
coefficients and of the sha256 of the OBJ that ``write_obj`` writes for
``build_cluster(profile)`` at the default sizes.  A height that does not
solve prints its exception's name in place of all three digests, and a
profile whose mesh is refused prints it in place of the OBJ digest.  The
heights are 42 geometrically spaced from 0.005 to sqrt(2), then 1e-3,
1e-6, 1e-160, 0.3349954407339448 and 0.4258777130659485.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from lensshrinker import LensError, angle_of, build_cluster  # noqa: E402
from lensshrinker.cluster import write_obj  # noqa: E402

HEIGHTS = [*np.geomspace(0.005, math.sqrt(2.0), 42).tolist(), 1e-3, 1e-6,
           1e-160, 0.3349954407339448, 0.4258777130659485]


def _digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part)
    return sha.hexdigest()[:16]


def _bytes(value) -> bytes:
    # floats by their hex spelling, arrays by dtype, shape and raw bytes
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + value.tobytes()
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, dict):
        return b";".join(k.encode() + b"=" + _bytes(value[k])
                         for k in sorted(value))
    return repr(value).encode()


def profile_digest(profile) -> str:
    """sha256 prefix of every LensProfile field but the series."""
    parts = []
    for field in dataclasses.fields(profile):
        if field.name == "series":
            continue
        value = getattr(profile, field.name)
        if field.name == "dense":
            value = {k: getattr(value, k) for k in ("ts", "h", "y_old", "F")}
        parts.append(field.name.encode() + b":" + _bytes(value) + b"\n")
    return _digest(parts)


def obj_digest(profile, path: str) -> str:
    """sha256 prefix of the default-size OBJ bytes of the profile's mesh,
    written to path, or the exception's name if the mesh is refused."""
    try:
        write_obj(build_cluster(profile), path)
    except (LensError, ValueError) as exc:
        return type(exc).__name__
    with open(path, "rb") as fh:
        return _digest([fh.read()])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lens.obj")
        for a in HEIGHTS:
            try:
                profile = angle_of(a)[1]
            except (LensError, ValueError) as exc:
                print(repr(a), *[type(exc).__name__] * 3)
                continue
            print(repr(a), profile_digest(profile),
                  _digest([_bytes(profile.series.coeffs)]),
                  obj_digest(profile, path))


if __name__ == "__main__":
    main()
