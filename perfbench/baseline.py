"""Measure the benchmark's baseline and write perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --held-out 1001

For every workload it runs ``run.py`` once per seed (untraced), once on the
held-out seed, and once traced.  It records the environment, the seeds,
each end-to-end metric's median and quartile spread over the seeds, whether
the held-out run lands within the metric's bound of that median, the
per-layer metrics of the traced run with its tracing overhead, and which
end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# layer -> the end-to-end metric (and the per-operation name printed beside
# it) a change in that layer should move, and the workloads it must not move
LAYER_MAP = {
    "series": {"moves": ["sweep round_cal_s (traced solve_ms_p50; largest "
                         "share at small a)", "shoot round_cal_s (shoot_s)"],
               "unchanged": ["mesh"]},
    "graph": {"moves": ["sweep round_cal_s (traced solve_ms_p90; near-circle "
                        "heights)", "shoot round_cal_s (shoot_s)"],
              "unchanged": ["mesh"]},
    "arc": {"moves": ["sweep round_cal_s (traced solve_ms_p50)",
                      "shoot round_cal_s (shoot_s)"],
            "unchanged": ["mesh"]},
    "shoot": {"moves": ["shoot round_cal_s (shoot_s)",
                        "cli round_cal_s (cli_mesh_shoot_s)"],
              "unchanged": ["sweep", "mesh"]},
    "cluster": {"moves": ["mesh round_cal_s (mesh_s, mesh_large_s)",
                          "cli round_cal_s (cli_mesh_s, cli_mesh_shoot_s)"],
                "unchanged": ["shoot", "sweep"]},
    "cli": {"moves": ["cli round_cal_s (cli_solve_s, cli_mesh_s, "
                      "cli_mesh_shoot_s, cli_table_s)"],
            "unchanged": ["shoot", "sweep", "mesh"]},
    "import": {"moves": ["setup_s on every workload",
                         "cli round_cal_s (cli_*_s)"],
               "unchanged": ["shoot, sweep and mesh round_cal_s"]},
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    line["wall_s"] = time.perf_counter() - t0
    print(f"{workload} seed {seed} trace {trace} ({line['wall_s']:.0f} s): "
          f"correct={line['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()
                     if not trace), flush=True)
    return line


def environment() -> dict:
    import numpy
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        model = platform.processor()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--held-out", type=int, default=1001)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"environment": environment(), "run_seconds": seconds,
              "seeds": seeds, "held_out_seed": args.held_out,
              "layer_map": LAYER_MAP, "workloads": {}}
    for w in spec["workloads"]:
        lines = [run_once(w["name"], s, seconds, 0) for s in seeds]
        held = run_once(w["name"], args.held_out, seconds, 0)
        traced = run_once(w["name"], seeds[0], seconds, 1)
        end_to_end = {}
        for metric, bound in bounds.items():
            values = [line["metrics"][metric]["value"] for line in lines]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            held_value = held["metrics"][metric]["value"]
            end_to_end[metric] = {
                "unit": lines[0]["metrics"][metric]["unit"],
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bound,
                "held_out": held_value,
                "held_out_within_bound":
                    abs(held_value - median) <= bound * median}
        record["workloads"][w["name"]] = {
            "why": w["why"],
            "all_correct": all(line["correct"] for line in lines + [held, traced]),
            "end_to_end": end_to_end,
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "tracing_overhead_s": traced["metrics"]["trace.overhead_s"]["value"],
            "run_wall_s": [line["wall_s"] for line in lines + [held, traced]],
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
