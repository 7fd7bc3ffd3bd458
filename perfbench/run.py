"""lensshrinker benchmark: run one workload and print one JSON result line.

Run from the root of a checkout (the directory holding ``src/lensshrinker``):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` times the workload's rounds untraced and reports the
end-to-end metrics.  ``--trace 1`` alternates an untraced and a traced copy
of each round, reports the per-layer metrics, and writes every span to
``.perfbench_out/trace-<workload>-seed<seed>.json``.  ``--workload all``
runs the four workloads in turn and prints each one's named metrics.
The last line of standard output is always the JSON result; the report for
people goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

SETUP_REPEATS = 3
# name, unit: reported by every workload with --trace 0.  Times are
# calibrated seconds (see Round.clock): wall time rescaled to the speed of
# an undisturbed core, so that neighbours on a shared host do not move them.
END_TO_END = [("setup_s", "s"), ("round_cal_s", "s")]
# the per-operation names that make up a round, per workload, reported on
# standard error: name -> (op kind, unit).  Each is the median over the
# run's operations of that kind, except sweep_solves_per_s, which is the
# table's rows over its time.  The per-solve latencies solve_ms_p50 and
# solve_ms_p90 come from the traced run's angle_of spans.
NAMED = {
    "shoot": {"shoot_s": ("find_lens", "s")},
    "sweep": {"sweep_solves_per_s": ("sample_angle_table", "1/s")},
    "mesh": {"mesh_s": ("export", "s"),
             "mesh_large_s": ("export_large", "s")},
    "cli": {"cli_solve_s": ("solve", "s"),
            "cli_mesh_s": ("mesh", "s"),
            "cli_mesh_shoot_s": ("mesh_shoot", "s"),
            "cli_table_s": ("table", "s")},
}
ACCURACY = ("shoot.junction_residual", "sweep.circle_err", "monitor.worst_slack")


def find_root() -> str | None:
    root = os.getcwd()
    if os.path.isfile(os.path.join(root, "src", "lensshrinker", "__init__.py")):
        return root
    return None


def measure_setup(wl, ctx) -> tuple[float, float]:
    """Calibrated and raw time of a fresh interpreter that imports
    lensshrinker and makes the workload's warm-up call."""
    from bench_workloads import Round
    code = "import lensshrinker\n" + wl.warmup.format(
        out=repr(ctx.fresh_dir("setup")))
    rnd = Round()
    with rnd.clock("setup"):
        proc = subprocess.run([ctx.python, "-c", code], cwd=ctx.tmp,
                              env=ctx.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed:\n"
                           + proc.stderr.decode(errors="replace"))
    return rnd.times["setup"][0], rnd.raw["setup"][0]


def measure_import(ctx) -> dict:
    """Cumulative import times from ``python -X importtime``, in seconds."""
    proc = subprocess.run([ctx.python, "-X", "importtime", "-c",
                           "import lensshrinker"], cwd=ctx.tmp, env=ctx.env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {"import.total_s": cumulative.get("lensshrinker", 0.0),
            "import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0)}


def run_rounds(wl, seed, seconds, ctx, tracer=None):
    """Closed loop until ``seconds`` have passed (at least one round).

    Untraced, each round runs once.  Traced, each round runs untraced and
    then traced on the same inputs; returns (untraced, traced) rounds and
    the traced rounds' op ids.
    """
    from bench_workloads import Round
    untraced, traced, ops = [], [], []
    deadline = perf_counter() + seconds
    index = 0
    while not untraced or perf_counter() < deadline:
        inp = wl.inputs(seed, index)
        ref = wl.reference(inp)
        rnd = Round()
        wl.run(inp, ref, ctx, rnd, inprocess=tracer is not None)
        untraced.append(rnd)
        if tracer is not None:
            twin = Round()
            with tracer.installed(), tracer.op(f"round {wl.name} {index}") as op:
                wl.run(inp, ref, ctx, twin, tracer=tracer, inprocess=True)
            traced.append(twin)
            ops.append(op)
        index += 1
    return untraced, traced, ops


def _bits(values) -> list:
    return [float(v).hex() if isinstance(v, float) else repr(v) for v in values]


def named_metrics(name, rounds) -> dict:
    out = {}
    for metric, (kind, unit) in NAMED[name].items():
        times = [t for r in rounds for t in r.times.get(kind, [])]
        raw = [t for r in rounds for t in r.raw.get(kind, [])]
        if not times:
            continue
        if unit == "1/s":
            solves = sum(r.facts["solves"] for r in rounds)
            out[metric] = (solves / sum(times), unit)
            out[f"{metric}_raw_wall"] = (solves / sum(raw), unit)
        else:
            out[metric] = (statistics.median(times), unit)
            out[f"{metric}_raw_wall"] = (statistics.median(raw), unit)
    return out


def solve_latencies(tracer) -> dict:
    """Per-solve wall time of the traced angle_of calls, tracing included."""
    times = np.array([end - start for name, start, end, _, _ in tracer.spans
                      if name == "shooting.angle_of"])
    if not len(times):
        return {}
    p90 = np.percentile(times, 90)
    return {"solve_ms_p50": (float(np.median(times)) * 1e3, "ms"),
            "solve_ms_p90": (float(p90) * 1e3, "ms"),
            "solve_samples": (len(times), "count"),
            "solve_samples_above_p90": (int(np.sum(times > p90)), "count")}


def run_workload(wl, seed: int, seconds: float, trace: bool, ctx,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Everything one invocation measures, checks and reports."""
    import bench_trace
    setup, setup_raw = zip(*(measure_setup(wl, ctx) for _ in range(setup_repeats)))
    wl.prepare(ctx)
    tracer = bench_trace.Tracer() if trace else None
    untraced, traced, ops = run_rounds(wl, seed, seconds, ctx, tracer)
    rounds = untraced + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [e for r in rounds for e in r.errors]

    # determinism: round 0 recomputed from scratch gives the same bits
    attempted += 1
    if _bits(wl.replay(wl.inputs(seed, 0), ctx)) != _bits(untraced[0].alphas):
        failed += 1
        problems.append("round 0 recomputed gives different alphas")

    result = {"workload": wl.name, "seed": seed, "rounds": len(untraced),
              "setup_runs_s": setup, "setup_raw_s": setup_raw,
              "attempted": attempted, "failed": failed,
              "problems": problems,
              # traced runs time the CLI in-process, so no CLI wall times
              "named": (solve_latencies(tracer) if trace
                        else named_metrics(wl.name, untraced))}
    result["named"]["setup_s"] = (statistics.median(setup), "s")
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "round_cal_s": statistics.median(r.seconds for r in untraced),
        }
        result["named"]["failed_frac"] = (failed / attempted, "1")
        return result

    for rnd, twin in zip(untraced, traced):
        attempted += 1
        if _bits(rnd.alphas) != _bits(twin.alphas):
            failed += 1
            problems.append("traced and untraced alphas differ")
    bad_nesting = tracer.check_nesting()
    if bad_nesting:
        failed += 1
        problems.append(f"{len(bad_nesting)} spans outlast their parent")
    own = tracer.self_times()
    per_round = [bench_trace.round_layers(tracer, own, op, twin.facts)
                 for op, twin in zip(ops, traced)]
    metrics = {}
    for name, unit, _ in bench_trace.PER_LAYER:
        if name in per_round[0]:
            metrics[name] = (statistics.median(r[name] for r in per_round)
                             if unit == "s" else per_round[0][name])
    metrics.update(measure_import(ctx))
    not_measured = []
    for name in ACCURACY:
        seen = [r.accuracy[name] for r in rounds if name in r.accuracy]
        pick = min if name == "monitor.worst_slack" else max
        metrics[name] = pick(seen) if seen else 0.0
        if not seen:
            not_measured.append(name)
    metrics["trace.overhead_s"] = (statistics.median(r.seconds for r in traced)
                                   - statistics.median(r.seconds for r in untraced))
    result.update(metrics=metrics, attempted=attempted, failed=failed,
                  absent=tracer.absent, not_measured=not_measured,
                  bad_nesting=len(bad_nesting))
    result["named"]["failed_frac"] = (failed / attempted, "1")
    path = os.path.join(ctx.trace_dir, f"trace-{wl.name}-seed{seed}.json")
    tracer.write(path, {"workload": wl.name, "seed": seed, "metrics": metrics,
                        "not_measured": not_measured})
    result["trace_file"] = path
    return result


def contract_line(result: dict, trace: bool) -> dict:
    import bench_trace
    units = dict((n, u) for n, u, _ in bench_trace.PER_LAYER) if trace \
        else dict(END_TO_END)
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}


def report(result: dict, trace: bool) -> None:
    err = sys.stderr
    print(f"[{result['workload']}] seed {result['seed']}: {result['rounds']} "
          f"rounds, {result['failed']}/{result['attempted']} failed", file=err)
    for name, (value, unit) in result["named"].items():
        print(f"  {name:28s} {value:.6g} {unit}", file=err)
    if trace:
        for name, value in result["metrics"].items():
            print(f"  {name:28s} {value:.6g}", file=err)
        if result["absent"]:
            print(f"  absent: {', '.join(result['absent'])}", file=err)
        if result["not_measured"]:
            print(f"  not measured here: {', '.join(result['not_measured'])}",
                  file=err)
        print(f"  spans written to {result['trace_file']}", file=err)
    for problem in result["problems"][:5]:
        print(f"  FAILED: {problem}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["shoot", "sweep", "mesh", "cli", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = find_root()
    if root is None:
        print("perfbench: run from a checkout root that holds "
              "src/lensshrinker", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import lensshrinker
    if not os.path.abspath(lensshrinker.__file__).startswith(
            os.path.join(root, "src") + os.sep):
        print(f"perfbench: imported {lensshrinker.__file__}, not the "
              "checkout's sources", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS, Context

    ctx = Context(root=root,
                  tmp=os.path.join(root, ".perfbench_tmp", str(os.getpid())),
                  trace_dir=os.path.join(root, ".perfbench_out"))
    os.makedirs(ctx.tmp)
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = []
        for name in names:
            results.append(run_workload(WORKLOADS[name](), args.seed,
                                        args.seconds, trace, ctx))
            report(results[-1], trace)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.tmp))
        except OSError:
            pass

    if len(results) == 1:
        line = contract_line(results[0], trace)
    else:
        for result in results:
            for name, (value, unit) in result["named"].items():
                print(f"{result['workload']:6s} {name:28s} {value:.6g} {unit}")
        lines = [contract_line(r, trace) for r in results]
        line = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines),
                "metrics": {f"{r['workload']}.{k}": v for r, x in
                            zip(results, lines) for k, v in x["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
