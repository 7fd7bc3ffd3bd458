"""Print one line per fixed height: the height, a digest of its profile, a
digest of its axis series, a digest of its mesh's OBJ bytes, a digest of
its axis series on the radius r = 1, a digest of its ODE defect and a
digest of its CSV files, then one line per fixed CLI command with the
digests of what it writes, so that two checkouts can be compared bit for
bit with ``diff``.

    python3 tools/profile_digest.py > digest.txt

The checkout is the one holding this script: its ``src`` goes first on the
import path.  Each line holds the height's repr, the first 16 hex digits of
the sha256 of every field of ``angle_of(a)``'s LensProfile but the series
(its scalars and counters, its arrays, the dense output's ts, h, y_old and
F, and the monitors sorted by name), of the sha256 of the series
coefficients, of the sha256 of the OBJ that ``write_obj`` writes for
``build_cluster(profile)`` at the default sizes, of the sha256 of the
coefficients of ``picard_analytic(a, 1.0)``, the series that ``verify``'s
criterion 6 reads, of the sha256 of ``shrinker_residual(profile)``, the
defect at every state that the monitors see only as its worst value, and
of the sha256 of the bytes that ``profile_to_csv`` and
``trajectory_to_csv`` write.  A height that does not solve prints its
exception's name in place of the profile, series, OBJ, defect and CSV
digests (1e-6 and 1e-160 lie below shooting.A_MIN, so ``angle_of``
refuses them with ValueError, while their r = 1 series still solve), a
profile whose mesh is refused prints it in place of the OBJ digest, and a
height whose series is not certified at r = 1 (every height above ~0.27)
prints it in place of that series' digest.  The heights are
42 geometrically spaced from 0.005 to sqrt(2), then 1e-3, 1e-6, 1e-160,
0.3349954407339448 and 0.4258777130659485.

Then one line per CLI command of CLI_COMMANDS: the command, its exit
code, the digest of its ``--json`` stdout and, for each file it writes,
the file's name and digest.  Each command runs as ``python -m
lensshrinker.cli`` from this checkout's ``src``, in a fresh temporary
working directory with the relative ``--output-dir out``, so the
``config`` block that each output embeds is the same in every checkout.

The CSV bytes also depend on numpy's SIMD dispatch (the CPU features numpy
selects at import, ROADMAP item 13): np.cos, np.sin, np.arctan2 and the
like may round differently on another host.  So compare two checkouts on
one host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)

from lensshrinker import (LensError, angle_of, build_cluster,  # noqa: E402
                          picard_analytic)
from lensshrinker.arclength import (profile_to_csv,  # noqa: E402
                                    shrinker_residual)
from lensshrinker.cluster import write_obj  # noqa: E402
from lensshrinker.graph_profile import trajectory_to_csv  # noqa: E402

HEIGHTS = [*np.geomspace(0.005, math.sqrt(2.0), 42).tolist(), 1e-3, 1e-6,
           1e-160, 0.3349954407339448, 0.4258777130659485]
CLI_COMMANDS = [
    *(["solve", "--a", repr(a)] for a in (0.5, 0.786004, math.sqrt(2.0))),
    ["shoot"],
    *(["table", "--from", "0.1", "--to", "1.4", "--step", "0.1", "--jobs", j]
      for j in ("1", "2")),
    ["mesh", "--a", "0.786004", "--n-theta", "16"],
    ["mesh"],
]


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


def csv_digest(profile, path: str) -> str:
    """sha256 prefix of the bytes of profile_to_csv, then of
    trajectory_to_csv, each written to path."""
    parts = []
    for write in (profile_to_csv, trajectory_to_csv):
        write(profile, path)
        with open(path, "rb") as fh:
            parts.append(fh.read())
    return _digest(parts)


def series_digest(a: float, r: float) -> str:
    """sha256 prefix of the coefficients of picard_analytic(a, r), or the
    exception's name if the series is refused."""
    try:
        return _digest([_bytes(picard_analytic(a, r).coeffs)])
    except (LensError, ValueError) as exc:
        return type(exc).__name__


def cli_digest(argv: list[str]) -> str:
    """The command, its exit code, the digest of its --json stdout and the
    name and digest of each file it writes, run in a fresh directory."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("LENS_OUTPUT_DIR", None)
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "lensshrinker.cli", *argv, "--json",
             "--output-dir", "out"], cwd=cwd, env=env, capture_output=True,
            stdin=subprocess.DEVNULL, check=False)
        out = os.path.join(cwd, "out")
        files = []
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, name), "rb") as fh:
                files.append(f"{name}={_digest([fh.read()])}")
    return " ".join([repr(" ".join(argv)), str(proc.returncode),
                     _digest([proc.stdout]), *files])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lens.obj")
        csv_path = os.path.join(tmp, "lens.csv")
        for a in HEIGHTS:
            try:
                profile = angle_of(a)[1]
                digests = [profile_digest(profile),
                           _digest([_bytes(profile.series.coeffs)]),
                           obj_digest(profile, path)]
                tail = [_digest([_bytes(shrinker_residual(profile))]),
                        csv_digest(profile, csv_path)]
            except (LensError, ValueError) as exc:
                digests = [type(exc).__name__] * 3
                tail = digests[:2]
            print(repr(a), *digests, series_digest(a, 1.0), *tail)
    for argv in CLI_COMMANDS:
        print(cli_digest(argv))


if __name__ == "__main__":
    main()
