"""Print one line per fixed height, then one per fixed CLI command, of
digests of what this checkout computes and writes, so that two checkouts
can be compared bit for bit with ``diff``.

    python3 tools/profile_digest.py > tests/golden/digest.txt

tests/golden/digest.txt holds this checkout's digest, and
tests/test_digest.py diffs it against a fresh run, so a change that moves
an output byte commits the new file and its diff lists what moved.

The checkout is the one holding this script: its ``src`` goes first on the
import path.  A digest is the first 16 hex digits of a sha256.  A height's
line holds its repr and the digests of ``angle_of(a)``'s profile
(profile_digest), of its series' coefficients, of its mesh's OBJ
(obj_digest), of the coefficients of ``picard_analytic(a, 1.0)``, the
series that ``verify``'s criterion 6 reads (series_digest), of
``shrinker_residual(profile)``, the defect at every state that the
monitors see only as its worst value, and of its CSV files (csv_digest);
each digest that cannot be made prints the exception's name instead
(1e-6 and 1e-160 lie below shooting.A_MIN, while their r = 1 series still
solve; no series above ~0.27 is certified at r = 1).  The heights are 42
geometrically spaced from 0.005 to sqrt(2), then 1e-3, 1e-6, 1e-160,
0.3349954407339448 and 0.4258777130659485, as literal floats: the first 42
are np.geomspace's on numpy's default CPU dispatch; another dispatch of
its power, or libm's pow, moves the 33rd by one ulp.  One line then
holds the obj_digest of the mesh at a = 0.786004 and the LARGE sizes
(n_theta, n_s, n_r) = (128, 512, 48) that perfbench's mesh workload
writes: 18,400 distinct coordinate magnitudes among 410,502
coordinates, where a hashed dedupe of the magnitudes has clashes to
resolve.  Each command of
CLI_COMMANDS runs as ``python -m lensshrinker.cli`` from this checkout's
``src`` (cli_digest), in a fresh temporary working directory with the
relative ``--output-dir out``, so the ``config`` block that each output
embeds is the same in every checkout.

The profile path runs on Python floats and math.* (ROADMAP items 13 and
16), so the profile, series, defect and CSV digests and the lines of
solve, shoot and table depend on IEEE binary64 arithmetic and the host's
libm only.  The OBJ digests and the mesh lines are computed on numpy,
but from math.sin ring angles and meridian arclengths, elementwise
binary64 arithmetic and an integer hash, so no SIMD dispatch should move
them (tests/test_digest.py checks every line under two other dispatch
settings).  Every digest depends on the libm, so compare two checkouts on
one host.
"""

from __future__ import annotations

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

HEIGHTS = [
    0.005, 0.005738042817773531, 0.006585027075720481, 0.0075570334633364225,
    0.008672516317594359, 0.009952653993639215, 0.011421750953197304,
    0.01310769920467835, 0.015042507855788088, 0.017262910832641355,
    0.019811064303420514, 0.022735347047738323, 0.02609127896737271,
    0.029942575177051716, 0.03436235568806511, 0.03943453365153628,
    0.04525540851828927, 0.05193549436275537, 0.059601618083145215,
    0.06839932731393446, 0.07849565376685251, 0.09008228446466518,
    0.1033792010762208, 0.11863885644851484, 0.13615096763065312,
    0.15624801638919716, 0.17931156164667866, 0.20577948369009597,
    0.23615429768662016, 0.2710126943454127, 0.31101648886282957,
    0.3569251860257, 0.4096104000314499, 0.4700724027971609,
    0.5394591149407592, 0.6190878999936572, 0.7104705756258206,
    0.8153421167418333, 0.9356935953997481, 1.0738099829440435,
    1.2323135320571175, 1.4142135623730951, 1e-3, 1e-6, 1e-160,
    0.3349954407339448, 0.4258777130659485]
LARGE = {"n_theta": 128, "n_s": 512, "n_r": 48}
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


# every LensProfile field but the series, in a fixed order
PROFILE_FIELDS = ("a", "s", "u", "v", "up", "vp", "i_phi", "i_v", "s_bar",
                  "s_star", "xi", "alpha", "v_residual", "monitors", "dense",
                  "nfev", "n_steps", "n_rejected")


def profile_digest(profile) -> str:
    """sha256 prefix of every LensProfile field but the series."""
    parts = []
    for name in PROFILE_FIELDS:
        value = getattr(profile, name)
        if name == "dense":
            value = {k: getattr(value, k) for k in ("ts", "h", "y_old", "F")}
        parts.append(name.encode() + b":" + _bytes(value) + b"\n")
    return _digest(parts)


def obj_digest(profile, path: str, **sizes) -> str:
    """sha256 prefix of the OBJ bytes of the profile's mesh at the sizes
    (the defaults if none), written to path, or the exception's name if
    the mesh is refused."""
    try:
        write_obj(build_cluster(profile, **sizes), path)
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
        sizes = " ".join(map(str, LARGE.values()))
        print(repr(f"obj 0.786004 {sizes}"),
              obj_digest(angle_of(0.786004)[1], path, **LARGE))
    for argv in CLI_COMMANDS:
        print(cli_digest(argv))


if __name__ == "__main__":
    main()
