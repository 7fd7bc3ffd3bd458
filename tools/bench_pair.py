"""Run the benchmark from two checkouts in alternating order and write one
BENCH_<n>.json.

    python3 tools/bench_pair.py --parent ../parent --change . \
        --about "What the change does" --out BENCH_16.json

For each workload W of the change's BENCHMARK.json and each pair i of
``--pairs`` (10 by default) the command

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the file's ``run_seconds`` and seed S = 1 + 1000 i, runs once from
the root of each checkout; even pairs run the parent first, odd pairs the
change first, so that a drift of the host's speed falls on both sides
alike.  The file holds ``about``, ``host`` (host()), ``source_lines``
(source_lines() of each side, by side), ``summary`` (summary() of the
runs) and ``runs``: each run is its side, workload, seed, trace flag,
command and the JSON of the command's last line of standard output, in
the order the runs were made.  Standard error gets each entry of the
summary, then the net change of physical lines in ``src/**/*.py``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_one(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from the checkout at root; its parsed last line."""
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run([sys.executable, *args], cwd=root,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} failed in {root}:\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "trace": 0,
            "command": "python3 " + " ".join(args),
            "stdout": json.loads(lines[-1])}


def host(roots: dict) -> str:
    """CPU count and model, Python and numpy versions of this machine,
    whether Python writes bytecode (if not, each process compiles the
    package from source), and the HEAD commit of each checkout of roots,
    side -> root, "+changes" if its tracked files differ from it."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commits = []
    for side, root in roots.items():
        git = ["git", "-C", root]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False).stdout.strip()
        dirty = head and subprocess.run(git + ["diff", "--quiet", "HEAD"],
                                        check=False).returncode
        commits.append(f"{side} {head or 'no git'}{' +changes' * bool(dirty)}")
    return (f"{os.cpu_count()} CPU {model}; Python "
            f"{platform.python_version()}, numpy {np.__version__}; "
            f"dont_write_bytecode {sys.flags.dont_write_bytecode}, "
            f"PYTHONDONTWRITEBYTECODE "
            f"{os.environ.get('PYTHONDONTWRITEBYTECODE', 'unset')}; "
            + ", ".join(commits))


def source_lines(root: str) -> int:
    """Physical lines of the checkout's src/**/*.py."""
    return sum(Path(path).read_bytes().count(b"\n") for path in glob.glob(
        os.path.join(root, "src", "**", "*.py"), recursive=True))


def paired(reference: list, candidate: list) -> dict:
    """The rule by which a candidate gains on a reference, lower being
    better, over pairs i of runs reference[i] and candidate[i]: each side's
    [q1, median, q3], the pairs the candidate read lower in, the ratio of
    the medians, candidate/reference (None if the reference's is 0), and
    ``gain``: lower in at least 9 of every 10 pairs and its median lower by
    more than the reference's q3 - q1."""
    (r1, r2, r3), (c1, c2, c3) = (
        statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        for xs in (reference, candidate))
    wins = sum(c < r for r, c in zip(reference, candidate))
    return {"reference": [r1, r2, r3], "candidate": [c1, c2, c3],
            "pairs": len(reference), "candidate_lower": wins,
            "ratio": c2 / r2 if r2 else None,
            "gain": 10 * wins >= 9 * len(reference) and r2 - c2 > r3 - r1}


def summary(runs: list[dict], bounds: dict) -> list[dict]:
    """Per workload and metric, paired() of the parent (reference) and the
    change (candidate) over the pairs (same workload and seed), and, for a
    metric of ``bounds`` (name -> (bound, better)), ``within_bound``:
    whether the change's median is worse than the parent's by no more than
    that fraction of it."""
    values = {}
    for r in runs:
        for name, m in r["stdout"]["metrics"].items():
            values.setdefault((r["workload"], name), {}).setdefault(
                r["side"], {})[r["seed"]] = m["value"]
    out = []
    for (workload, name), sides in values.items():
        rule = paired(*([sides[side][seed] for seed in sorted(sides["parent"])]
                        for side in ("parent", "change")))
        if name in bounds:
            bound, better = bounds[name]
            (_, p2, _), (_, c2, _) = rule["reference"], rule["candidate"]
            worse = p2 - c2 if better == "higher" else c2 - p2
            rule["within_bound"] = worse <= bound * abs(p2)
        out.append({"workload": workload, "metric": name, **rule})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--about", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_one(roots[side], workload, 1 + 1000 * i,
                              bench["run_seconds"])
                runs.append({"side": side, **run})
                print(f"{workload} pair {i} {side}: "
                      f"{json.dumps(run['stdout']['metrics'])}",
                      file=sys.stderr, flush=True)
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in bench["end_to_end"]}
    result = summary(runs, bounds)
    lines = {side: source_lines(root) for side, root in roots.items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"about": args.about, "host": host(roots),
                   "source_lines": lines, "summary": result, "runs": runs},
                  fh, indent=1)
        fh.write("\n")
    for entry in result:
        print(json.dumps(entry), file=sys.stderr)
    before, after = lines["parent"], lines["change"]
    print(f"src/**/*.py physical lines: {before} parent, {after} change, "
          f"net {after - before:+d}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
