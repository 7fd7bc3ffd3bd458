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
alike.  The file holds ``about``, ``host`` (host()) and ``runs``: each run
is its side, workload, seed, trace flag, command and the JSON of the
command's last line of standard output, in the order the runs were made.
Standard error gets the verdict of summary(), then the net change of
physical lines in ``src/**/*.py``.
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
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"),
                          recursive=True):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def summary(runs: list[dict], bounds: dict) -> str:
    """Per workload and metric: each side's median [q1, q3] over its runs,
    the pairs (same workload and seed) in which the change read lower, the
    change/parent ratio of the medians, whether the gap between the
    medians exceeds the parent's interquartile range q3 - q1, and, for a
    metric of ``bounds`` (name -> (bound, better)), whether the change's
    median is worse than the parent's by more than that fraction of it."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        value = {(r["side"], r["seed"], name): m["value"]
                 for r in runs if r["workload"] == workload
                 for name, m in r["stdout"]["metrics"].items()}
        seeds = sorted({seed for _, seed, _ in value})
        for name in dict.fromkeys(name for _, _, name in value):
            line = f"{workload:6} {name:12}"
            quartiles = {}
            for side in ("parent", "change"):
                xs = [value[side, seed, name] for seed in seeds]
                q1, q2, q3 = quartiles[side] = \
                    statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
                line += f" {side} {q2:.4f} [{q1:.4f}, {q3:.4f}]"
            wins = sum(value["change", seed, name] < value["parent", seed, name]
                       for seed in seeds)
            (p1, p2, p3), (_, c2, _) = quartiles["parent"], quartiles["change"]
            ratio = f"{c2 / p2:.3f}" if p2 else "n/a"
            above = "above" if abs(c2 - p2) > p3 - p1 else "not above"
            line += (f" change lower in {wins}/{len(seeds)} pairs, "
                     f"change/parent {ratio}, median gap {abs(c2 - p2):.4f} "
                     f"{above} parent IQR {p3 - p1:.4f}")
            if name in bounds:
                bound, better = bounds[name]
                worse = p2 - c2 if better == "higher" else c2 - p2
                line += (", within" if worse <= bound * abs(p2) else
                         ", OUTSIDE") + f" bound {bound:g}"
            out.append(line)
    return "\n".join(out)


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
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"about": args.about, "host": host(roots), "runs": runs},
                  fh, indent=1)
        fh.write("\n")
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in bench["end_to_end"]}
    print(summary(runs, bounds), file=sys.stderr)
    before, after = source_lines(args.parent), source_lines(args.change)
    print(f"src/**/*.py physical lines: {before} parent, {after} change, "
          f"net {after - before:+d}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
