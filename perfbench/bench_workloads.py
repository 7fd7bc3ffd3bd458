"""The four benchmark workloads: shoot, sweep, mesh and cli.

Every workload is a closed loop with one caller: the inputs of round i come
from (seed, i) alone, a round runs to completion before the next starts,
and only the calls into the program are timed.  Each operation's output is
checked after its clock stops; an operation that raises or fails a check
counts as failed.

Importing this module imports lensshrinker, so ``src`` must already be on
``sys.path``.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from lensshrinker import cli, cluster, shooting
from lensshrinker.arclength import (curvature_arrays, polar_monitors,
                                    profile_summary)

SQRT2 = math.sqrt(2.0)
A_STAR = 0.786004          # junction height, to the digits the inputs need
MONITOR_TOL = -1e-9        # tolerances of the acceptance gate
CURVATURE_TOL = 1e-8
CIRCLE_TOL = 1e-8
JUNCTION_TOL = 1e-9
CHILD_TIMEOUT_S = 150.0
# probe() on an undisturbed core of the reference host: a 2-vCPU VM on an
# Intel Xeon, Python 3.11, NumPy 2.4 (1st percentile of 600 probes)
PROBE_REF_S = 1.3e-3
MAX_PROBED_CPUS = 4     # enough for --jobs 2; keeps probing cheap on big hosts


@dataclass
class Context:
    """Where a run may write, and how to start a fresh interpreter on the
    checkout's sources."""

    root: str
    tmp: str
    trace_dir: str = ""
    python: str = sys.executable

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["TMPDIR"] = self.tmp
        return env

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.tmp, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


@dataclass
class Round:
    """What one round did: timed operations, failures, and its outputs."""

    times: dict = field(default_factory=dict)      # op kind -> [calibrated s]
    raw: dict = field(default_factory=dict)        # op kind -> [wall s]
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    alphas: list = field(default_factory=list)     # for determinism checks
    accuracy: dict = field(default_factory=dict)
    facts: Counter = field(default_factory=Counter)

    @contextmanager
    def clock(self, kind: str, pin: bool = True):
        """Time the block, in seconds calibrated to a quiet core.

        Other tenants of a shared host slow each virtual CPU by 1.5-2x in
        episodes of seconds to minutes, which moves raw wall times by far
        more than any bound worth keeping.  So the block runs pinned to the
        CPU on which ``probe()`` is fastest (when ``pin``), and its wall
        time is scaled by PROBE_REF_S over the mean probe time just before
        and just after it on the CPUs it used.  The raw wall time is kept
        in ``raw``.
        """
        allowed = os.sched_getaffinity(0)
        cpus = set(sorted(allowed)[:MAX_PROBED_CPUS])
        before = probe_cpus(cpus)
        used = {min(before, key=before.get)} if pin else cpus
        os.sched_setaffinity(0, used)
        try:
            t0 = perf_counter()
            yield
            raw = perf_counter() - t0
            after = probe_cpus(used)
        finally:
            os.sched_setaffinity(0, allowed)
        slowdown = statistics.mean([before[c] for c in used]
                                   + list(after.values())) / PROBE_REF_S
        self.raw.setdefault(kind, []).append(raw)
        self.times.setdefault(kind, []).append(raw / slowdown)

    @property
    def seconds(self) -> float:
        return sum(sum(v) for v in self.times.values())

    def attempt(self, body) -> None:
        """Run one operation; ``body`` returns the checks it failed."""
        self.attempted += 1
        try:
            problems = body()
        except Exception:  # the run goes on; the failure is counted and shown
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self.failed += 1
            self.errors.extend(problems)

    def worst(self, name: str, value: float, pick=max) -> None:
        self.accuracy[name] = pick(self.accuracy.get(name, value), value)


_PROBE_DATA = np.random.default_rng(0).random(100_000)


def probe() -> float:
    """Best of three timings of a fixed mix of interpreter and NumPy work."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        np.sort(_PROBE_DATA)
        best = min(best, perf_counter() - t0)
    return best


def probe_cpus(cpus) -> dict:
    """Probe time on each CPU in turn."""
    times = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times[cpu] = probe()
    return times


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _profile_problems(alpha, profile, rnd: Round) -> list[str]:
    """Monitor slack and three-way curvature agreement of one profile."""
    problems = []
    worst = min(profile.monitors.values())
    rnd.worst("monitor.worst_slack", worst, min)
    if not worst >= MONITOR_TOL:
        problems.append(f"a={profile.a!r}: monitor slack {worst:.3e}")
    k_alg, k_var, k_int = curvature_arrays(profile)
    split = max(float(np.max(np.abs(k_alg - k_var))),
                float(np.max(np.abs(k_alg - k_int))))
    if not split < CURVATURE_TOL:
        problems.append(f"a={profile.a!r}: curvature split {split:.3e}")
    if not alpha == profile.alpha:
        problems.append(f"a={profile.a!r}: alpha differs from profile.alpha")
    return problems


class Workload:
    """One seeded input stream and the operations run on it."""

    name = ""
    why = ""
    warmup = ""       # code a fresh interpreter runs after the import

    def inputs(self, seed: int, index: int) -> dict:
        raise NotImplementedError

    def reference(self, inp: dict):
        """Untimed, untraced expected outputs, computed before the round."""
        return None

    def run(self, inp: dict, ref, ctx: Context, rnd: Round, tracer=None,
            inprocess: bool = False) -> None:
        raise NotImplementedError

    def replay(self, inp: dict, ctx: Context) -> list[float]:
        """The alphas of round ``inp`` recomputed from scratch."""
        raise NotImplementedError

    def prepare(self, ctx: Context) -> None:
        exec(self.warmup.format(out=repr(ctx.fresh_dir("warmup"))), {})


class Shoot(Workload):
    name = "shoot"
    why = ("find_lens on seeded brackets: root-finder evaluations times one "
           "solve near a*; the cluster layer does no work")
    warmup = "from lensshrinker import shooting; shooting.angle_of(0.786004)"

    def inputs(self, seed, index):
        rng = _rng(seed, self.name, index)
        return {"a_lo": rng.uniform(0.05, 0.3), "a_hi": rng.uniform(1.2, SQRT2)}

    def run(self, inp, ref, ctx, rnd, tracer=None, inprocess=False):
        def body():
            with rnd.clock("find_lens"):
                report = shooting.find_lens(inp["a_lo"], inp["a_hi"])
            p = report.profile
            rnd.alphas += [report.a_star, p.alpha]
            up_err = abs(float(p.up[-1]) - 0.5)
            vp_err = abs(float(p.vp[-1]) + math.sqrt(3.0) / 2.0)
            rnd.worst("shoot.junction_residual", up_err)
            problems = _profile_problems(p.alpha, p, rnd)
            if not (up_err < JUNCTION_TOL and vp_err < JUNCTION_TOL):
                problems.append(f"junction residuals {up_err:.2e}, {vp_err:.2e}")
            if not inp["a_lo"] < report.a_star < inp["a_hi"]:
                problems.append(f"a*={report.a_star!r} outside the bracket")
            return problems
        rnd.attempt(body)

    def replay(self, inp, ctx):
        report = shooting.find_lens(inp["a_lo"], inp["a_hi"])
        return [report.a_star, report.profile.alpha]


class Sweep(Workload):
    name = "sweep"
    why = ("sample_angle_table(jobs=1) over log-uniform heights in [0.005, "
           "sqrt2] plus the circle: every per-solve regime, no root-finder")
    warmup = "from lensshrinker import shooting; shooting.angle_of(2 ** 0.5)"

    def __init__(self, heights_per_round: int = 16):
        self.heights_per_round = heights_per_round

    def inputs(self, seed, index):
        # log-uniform, one height per equal stratum of log a, so that every
        # round spans the whole range and rounds differ little in work
        rng = _rng(seed, self.name, index)
        lo, hi = math.log(0.005), math.log(SQRT2)
        n = self.heights_per_round - 1
        heights = [math.exp(lo + (k + rng.random()) * (hi - lo) / n)
                   for k in range(n)]
        return {"heights": heights + [SQRT2]}

    def reference(self, inp):
        """Each height's profile from its own angle_of call; the table rows
        must match these bit for bit."""
        return [shooting.angle_of(a) for a in inp["heights"]]

    def run(self, inp, ref, ctx, rnd, tracer=None, inprocess=False):
        def body():
            with rnd.clock("sample_angle_table"):
                report = shooting.sample_angle_table(
                    inp["heights"], shooting.PipelineConfig(jobs=1))
            rnd.facts["solves"] += len(inp["heights"])
            rows = {row.a: row for row in report.table}   # rows come sorted
            problems = []
            for a, (alpha, p) in zip(inp["heights"], ref):
                row = rows[a]
                rnd.alphas.append(row.alpha)
                if not (row.error is None and row.monitor_pass
                        and (row.alpha, row.s_bar, row.xi_a)
                        == (alpha, p.s_bar, p.xi)):
                    problems.append(f"a={a!r}: table row {row.to_dict()} "
                                    "differs from angle_of")
                problems += _profile_problems(alpha, p, rnd)
                if a == SQRT2:
                    problems += self._circle_problems(alpha, p, rnd)
            return problems
        rnd.attempt(body)

    @staticmethod
    def _circle_problems(alpha, p, rnd) -> list[str]:
        s_err = abs(p.s_bar - math.pi / SQRT2)
        angle_err = abs(alpha + math.pi / 2.0)
        dev = float(np.max(np.hypot(p.u - SQRT2 * np.sin(p.s / SQRT2),
                                    p.v - SQRT2 * np.cos(p.s / SQRT2))))
        rnd.worst("sweep.circle_err", s_err)
        if s_err < CIRCLE_TOL and angle_err < CIRCLE_TOL * math.pi / 180.0 \
                and dev < CIRCLE_TOL:
            return []
        return [f"circle: |s_bar-pi/sqrt2|={s_err:.2e}, "
                f"|alpha+pi/2|={angle_err:.2e}, deviation={dev:.2e}"]

    def replay(self, inp, ctx):
        report = shooting.sample_angle_table(inp["heights"],
                                             shooting.PipelineConfig(jobs=1))
        by_a = {row.a: row.alpha for row in report.table}
        return [by_a[a] for a in inp["heights"]]


def _obj_counts(path) -> tuple[int, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return (data.count(b"\nv ") + data.startswith(b"v "),
            data.count(b"\nf ") + data.startswith(b"f "))


class Mesh(Workload):
    name = "mesh"
    why = ("one solve near a*, then build_cluster and the OBJ and JSON "
           "writers at the default and at 4x the triangles")
    warmup = ("from lensshrinker import cluster, shooting; "
              "cluster.build_cluster(shooting.angle_of(0.786004)[1])")
    DEFAULT = {}
    LARGE = {"n_theta": 128, "n_s": 512, "n_r": 48}

    def __init__(self, sizes=None):
        self.sizes = sizes or (("export", self.DEFAULT),
                               ("export_large", self.LARGE))

    def inputs(self, seed, index):
        return {"a": A_STAR + _rng(seed, self.name, index).uniform(-0.01, 0.01)}

    def run(self, inp, ref, ctx, rnd, tracer=None, inprocess=False):
        a = inp["a"]
        solved = []

        def solve():
            with rnd.clock("angle_of"):
                alpha, p = shooting.angle_of(a)
            rnd.alphas.append(alpha)
            solved.append(p)
            return _profile_problems(alpha, p, rnd)
        rnd.attempt(solve)
        if not solved:
            return
        out = ctx.fresh_dir("mesh")
        obj, meta = os.path.join(out, "lens.obj"), os.path.join(out, "lens.json")
        for kind, size in self.sizes:
            def export(kind=kind, size=size):
                # build_cluster raises unless every mesh_checks entry passes
                with rnd.clock(kind):
                    mesh = cluster.build_cluster(solved[0], **size)
                    cluster.write_obj(mesh, obj)
                    cluster.write_metadata(mesh, meta, {"a": a})
                n_v, n_f = _obj_counts(obj)
                with open(meta, encoding="utf-8") as fh:
                    side = json.load(fh)
                if (n_v, n_f) == (len(mesh.vertices), len(mesh.triangles)) \
                        == (side["n_vertices"], side["n_triangles"]):
                    return []
                return [f"{kind}: OBJ has {n_v} v / {n_f} f lines, mesh "
                        f"{len(mesh.vertices)} / {len(mesh.triangles)}"]
            rnd.attempt(export)

    def replay(self, inp, ctx):
        alpha, p = shooting.angle_of(inp["a"])
        failed = [name for name, ok, _ in
                  cluster.mesh_checks(cluster.build_cluster(p)) if not ok]
        if failed:
            raise AssertionError(f"mesh_checks failed: {failed}")
        return [alpha]


class Cli(Workload):
    name = "cli"
    why = ("solve, mesh with and without --a, and table --jobs 2 as fresh "
           "interpreters: import, duplicate CLI work, writers, worker pool")
    warmup = ("from lensshrinker import cli; import contextlib, io\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    cli.main(['solve', '--a', '0.786004', '--output-dir', {out}])")
    TABLE_STEP = 0.1
    JOBS = 2
    # what `mesh` without --a shoots over: the CLI's default bracket and tol_a
    LENS_SHOOT = (0.05, SQRT2, 1e-10)

    def __init__(self, table_span: float = 1.0):
        self.table_span = table_span
        self.mesh_counts = None
        self.lens = None

    def prepare(self, ctx):
        with redirect_stdout(io.StringIO()):
            super().prepare(ctx)
        mesh = cluster.build_cluster(shooting.angle_of(A_STAR)[1])
        self.mesh_counts = (len(mesh.vertices), len(mesh.triangles))
        a_star = shooting.find_lens(*self.LENS_SHOOT).a_star
        self.lens = shooting.angle_of(a_star)[1]

    def inputs(self, seed, index):
        rng = _rng(seed, self.name, index)
        lo = rng.uniform(0.1, 0.3)
        return {"a": rng.uniform(0.2, 1.4), "table": (lo, lo + self.table_span,
                                                      self.TABLE_STEP)}

    def _table_values(self, inp) -> list:
        lo, hi, step = inp["table"]   # the CLI's own rule for the rows
        return list(np.arange(lo, hi + 0.5 * step, step))

    def reference(self, inp):
        alpha, p = shooting.angle_of(inp["a"])
        summary = profile_summary(p)
        summary["alpha_deg"] = math.degrees(alpha)
        summary["polar_monitors"] = polar_monitors(p, inp["a"]).to_json_list()
        table = shooting.sample_angle_table(self._table_values(inp),
                                            shooting.PipelineConfig(jobs=1))
        rows = table.to_dict()
        return {"profile": p,
                "solve": _json_roundtrip(summary),
                "table": _json_roundtrip({k: rows[k] for k in
                                          ("table", "sign_change_brackets")})}

    def commands(self, inp, jobs: int) -> list[tuple[str, list[str]]]:
        a = repr(inp["a"])
        lo, hi, step = (repr(x) for x in inp["table"])
        return [("solve", ["solve", "--a", a]),
                ("mesh", ["mesh", "--a", a]),
                ("mesh_shoot", ["mesh"]),
                ("table", ["table", "--from", lo, "--to", hi, "--step", step,
                           "--jobs", str(jobs)])]

    def run(self, inp, ref, ctx, rnd, tracer=None, inprocess=False):
        # In-process runs (the traced run and its untraced twin) use one
        # job, because spans recorded in pool workers would be lost.
        for kind, argv in self.commands(inp, 1 if inprocess else self.JOBS):
            def body(kind=kind, argv=argv):
                out = ctx.fresh_dir("cli_" + kind)
                argv = argv + ["--output-dir", out]
                span = tracer.span(f"bench.cli {kind}") if tracer else nullcontext()
                # the table's worker pool needs every CPU
                with rnd.clock(kind, pin=kind != "table"), span:
                    code = self._invoke(argv, ctx, inprocess)
                if code != 0:
                    return [f"cli {kind} exited with {code}"]
                # profiles the output needs beyond a root finder's own
                rnd.facts[f"cli.profiles {kind}"] = {
                    "table": len(self._table_values(inp)),
                    "mesh_shoot": 0}.get(kind, 1)
                rnd.facts["cli.bytes_written"] += sum(
                    os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
                return getattr(self, "_check_" + kind)(inp, ref, out, rnd)
            rnd.attempt(body)

    def _invoke(self, argv, ctx, inprocess) -> int:
        if inprocess:
            with redirect_stdout(io.StringIO()):
                return cli.main(argv)
        proc = subprocess.run([ctx.python, "-m", "lensshrinker.cli", *argv],
                              cwd=ctx.tmp, env=ctx.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode

    def _check_solve(self, inp, ref, out, rnd):
        got = _load_without_config(os.path.join(out, f"profile_a{inp['a']:.8g}.json"))
        rnd.alphas.append(got.get("alpha"))
        rnd.worst("monitor.worst_slack", min(ref["profile"].monitors.values()), min)
        return [] if got == ref["solve"] else ["solve JSON differs from angle_of"]

    def _check_mesh(self, inp, ref, out, rnd):
        return self._mesh_problems(out, ref["profile"])

    def _check_mesh_shoot(self, inp, ref, out, rnd):
        return self._mesh_problems(out, self.lens)

    def _mesh_problems(self, out, p):
        got = _load_without_config(os.path.join(out, "lens.json"))
        want = {"a_star": p.a, "xi": p.xi, "s_bar": p.s_bar,
                "n_vertices": self.mesh_counts[0],
                "n_triangles": self.mesh_counts[1]}
        if {k: got.get(k) for k in want} != want:
            return ["mesh JSON differs from the in-process mesh"]
        n_v, n_f = _obj_counts(os.path.join(out, "lens.obj"))
        return [] if (n_v, n_f) == self.mesh_counts else ["OBJ line counts"]

    def _check_table(self, inp, ref, out, rnd):
        got = _load_without_config(os.path.join(out, "angle_table.json"))
        rnd.alphas += [row["alpha"] for row in got.get("table", [])]
        got = {k: got.get(k) for k in ("table", "sign_change_brackets")}
        return [] if got == ref["table"] else [
            "table rows differ from sample_angle_table(jobs=1)"]

    def replay(self, inp, ctx):
        ref = self.reference(inp)
        return [ref["profile"].alpha] + [row["alpha"] for row in ref["table"]["table"]]


def _json_roundtrip(payload):
    return json.loads(json.dumps(payload, sort_keys=True))


def _load_without_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("config", None)
    return payload


WORKLOADS = {w.name: w for w in (Shoot, Sweep, Mesh, Cli)}
