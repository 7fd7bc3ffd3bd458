"""Time one in-process loop of solves from a base checkout and from variants
of it, alternated loop by loop in one interpreter pinned to one CPU, and
write one JSON file with each comparison's runs and verdict.

    python3 tools/solve_pair.py --base parent=../parent \
        --variant no_cache=../no_cache --loop sweep --pairs 20 \
        --about "What the variants remove" --out BENCH_32_ablation.json

A variant is the base with some mechanism removed, so the comparison asks
whether the base's mechanism pays.  The ``sweep`` loop is ``angle_of`` over
16 fixed heights, one at the middle of each of 15 equal strata of log a in
[0.005, sqrt(2)], then sqrt(2); the ``shoot`` loop is ``find_lens()`` on its
default bracket.  Each pair is one fresh ``python -c`` that pins itself to
one CPU (``--cpu``, by default the last one this process may use) and
imports both checkouts' ``src/lensshrinker`` under two package names (even
pairs the variant first), makes each side's loop once to warm up, then
times the two sides' loops in turn ``--reps`` times each, so that a change
of the host's speed falls on both alike, and reports each side's median
in seconds and in ``probes``: each loop's time over the mean of the
best-of-three time of a fixed mix of interpreter and NumPy work just
before and just after it, so that a slowdown of the whole CPU by other
tenants of the host cancels, as in perfbench's calibrated rounds.
Each side also digests the bits of s, u, v, alpha, xi and s_bar of its
profiles (every sweep height, or the shoot's a*), so the file shows
whether the two sides computed the same numbers.  Per comparison the file
holds its runs and ``summary``, verdict() of them, which standard error
gets too; the variant/base ratio within each pair is not spread by the
host's drift between pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pair import host, paired  # noqa: E402

CHILD = """
import hashlib, importlib, importlib.util, json, math, os, statistics, sys
import time
os.sched_setaffinity(0, {{{cpu}}})
import numpy as np
lo, hi = math.log(0.005), math.log(math.sqrt(2.0))
HEIGHTS = [math.exp(lo + (k + 0.5) * (hi - lo) / 15) for k in range(15)]
HEIGHTS.append(math.sqrt(2.0))
PROBE_DATA = np.random.default_rng(0).random(100_000)

def probe():
    # best of three timings of a fixed mix of interpreter and NumPy work
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        np.sort(PROBE_DATA)
        best = min(best, time.perf_counter() - t0)
    return best

def load(name, root):
    # the checkout's package under another name: its imports are relative
    pkg = os.path.join(root, "src", "lensshrinker")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".shooting")

def loop(shooting):
    if {loop!r} == "sweep":
        return [shooting.angle_of(a)[1] for a in HEIGHTS]
    return [shooting.find_lens().profile]

def bits(profiles):
    sha = hashlib.sha256()
    for p in profiles:
        for x in (p.s, p.u, p.v, np.array([p.alpha, p.xi, p.s_bar])):
            sha.update(x.tobytes())
    return sha.hexdigest()[:16]

sides = {{side: load("tree_" + side, root) for side, root in {roots!r}}}
checks = {{side: bits(loop(shooting)) for side, shooting in sides.items()}}
raw, cal = ({{side: [] for side in sides}} for _ in range(2))
before = probe()
for _ in range({reps}):
    for side, shooting in sides.items():
        t0 = time.perf_counter()
        loop(shooting)
        raw[side].append(time.perf_counter() - t0)
        after = probe()
        cal[side].append(2 * raw[side][-1] / (before + after))
        before = after
print(json.dumps({{side: {{"median_s": statistics.median(raw[side]),
                           "probes": statistics.median(cal[side]),
                           "check": checks[side]}} for side in sides}}))
"""


def run_pair(roots: list, loop: str, reps: int, cpu: int) -> dict:
    """One fresh interpreter timing the sides of roots, [(side, root)], in
    that order of import and of each round; its parsed output."""
    code = CHILD.format(cpu=cpu, loop=loop, reps=reps, roots=roots)
    proc = subprocess.run([sys.executable, "-c", code],
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"the {loop} loop failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(runs: list[dict]) -> dict:
    """paired() of the variant (reference) and the base in probes, whose
    ``gain`` says whether the base pays, the quartiles of the variant/base
    ratio within each pair, and whether every run computed the same bits."""
    out = paired(*([r[side]["probes"] for r in runs]
                   for side in ("variant", "base")))
    checks = {r[side]["check"] for r in runs for side in ("base", "variant")}
    out.update(pair_ratio=statistics.quantiles(
        [r["variant"]["probes"] / r["base"]["probes"] for r in runs], n=4),
        same_bits=len(checks) == 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="NAME=ROOT of the base")
    ap.add_argument("--variant", action="append", required=True,
                    help="NAME=ROOT of a variant; repeat for more")
    ap.add_argument("--loop", choices=("sweep", "shoot"), action="append",
                    required=True, help="repeat for both")
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--reps", type=int, default=25)
    ap.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    ap.add_argument("--about", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    named = [v.split("=", 1) for v in [args.base, *args.variant]]
    (base_name, base_root), *variants = named
    comparisons = []
    for loop in args.loop:
        for name, root in variants:
            sides = [("variant", os.path.abspath(root)),
                     ("base", os.path.abspath(base_root))]
            runs = [run_pair(sides[::1 if i % 2 == 0 else -1], loop,
                             args.reps, args.cpu) for i in range(args.pairs)]
            v = verdict(runs)
            comparisons.append({"base": base_name, "variant": name,
                                "loop": loop, "summary": v, "runs": runs})
            print(loop, name, json.dumps(v), file=sys.stderr, flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(dict(about=args.about, host=host(dict(named)),
                       reps=args.reps, comparisons=comparisons), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
