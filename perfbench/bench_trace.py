"""Span tracer that wraps lensshrinker functions from the outside.

The tracer replaces a function at the module attribute its caller looks
up (``shooting.angle_of`` is what ``find_lens`` calls), so the program is
not edited.  Spans live in memory as ``[name, start, end, parent, op]``
rows; ``parent`` is the index of the enclosing span (-1 for none) and
``op`` the index of the workload round that caused it.  Right-hand sides
are wrapped for counts only, since a span per RHS call would cost more
than the call.  Names that no longer exist are recorded as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute): a span per call.  Both the defining module and each
# importing module are listed where a caller binds the name at import time.
SPAN_SITES = [
    ("lensshrinker.shooting", "find_lens"),
    ("lensshrinker.shooting", "sample_angle_table"),
    ("lensshrinker.shooting", "angle_of"),
    ("lensshrinker.shooting", "picard_analytic"),
    ("lensshrinker.shooting", "integrate_graph"),
    ("lensshrinker.shooting", "handoff_to_arclength"),
    ("lensshrinker.shooting", "integrate_to_axis"),
    ("lensshrinker.graph_profile", "evaluate_monitors"),
    ("lensshrinker.arclength", "polar_monitors"),
    ("lensshrinker.cluster", "build_cluster"),
    ("lensshrinker.cluster", "resample_profile"),
    ("lensshrinker.cluster", "mesh_checks"),
    ("lensshrinker.cluster", "write_obj"),
    ("lensshrinker.cluster", "write_metadata"),
    ("lensshrinker.cli", "find_lens"),
    ("lensshrinker.cli", "sample_angle_table"),
    ("lensshrinker.cli", "angle_of"),
    ("lensshrinker.cli", "picard_analytic"),
    ("lensshrinker.cli", "integrate_graph"),
    ("lensshrinker.cli", "polar_monitors"),
    ("lensshrinker.cli", "build_cluster"),
    ("lensshrinker.cli", "write_obj"),
    ("lensshrinker.cli", "write_metadata"),
    ("lensshrinker.cli", "profile_to_csv"),
    ("lensshrinker.cli", "trajectory_to_csv"),
    ("lensshrinker.cli", "angle_table_to_csv"),
    ("lensshrinker.cli", "_write_json"),
]

# (module, attribute): counted, never timed.  nonlinear_Q runs once per
# Picard iteration; graph_rhs also runs once per accepted step after the
# solve, to recover f''.
COUNT_SITES = [
    ("lensshrinker.graph_profile", "graph_rhs"),
    ("lensshrinker.arclength", "arclength_rhs"),
    ("lensshrinker.series", "nonlinear_Q"),
]

CLI_WRITERS = ("cli.write_obj", "cli.write_metadata", "cli.profile_to_csv",
               "cli.trajectory_to_csv", "cli.angle_table_to_csv",
               "cli._write_json")


def span_name(module: str, attr: str) -> str:
    """Span name: the call site's short module name and the attribute."""
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[Counter] = []   # one Counter per op
        self.results: list[dict] = []     # per-op facts taken from return values
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def installed(self, span_sites=SPAN_SITES, count_sites=COUNT_SITES):
        """Wrap every site for the duration of the block, then restore."""
        saved = []
        try:
            for sites, wrap in ((span_sites, self._span_wrapper),
                                (count_sites, self._count_wrapper)):
                for module_name, attr in sites:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    name = span_name(module_name, attr)
                    if fn is None:
                        if name not in self.absent:
                            self.absent.append(name)
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def op(self, name: str):
        """Root span for one workload round; counts are kept per round."""
        self._op = len(self.counts)
        self.counts.append(Counter())
        self.results.append(Counter())
        try:
            with self.span(name):
                yield self._op
        finally:
            self._op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, perf_counter(), None, parent, self._op]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            row[2] = perf_counter()

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            tracer._note_result(name, args, kwargs, out)
            return out
        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op >= 0:
                tracer.counts[tracer._op][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note_result(self, name, args, kwargs, out) -> None:
        """Work counts that only the return value carries."""
        if self._op < 0:
            return
        facts = self.results[self._op]
        short = name.split(".", 1)[1]
        if short == "integrate_graph":
            facts["graph.steps"] += len(out.x) - 1
            facts[f"graph.stop_{out.stop_reason}"] += 1
        elif short == "integrate_to_axis":
            prefix = kwargs.get("prefix")
            n_prefix = 0 if prefix is None else len(prefix.x)
            facts["arc.steps"] += len(out.s) - n_prefix - 1
            facts["arc.projections"] += len(out.projections)
            facts["arc.solves"] += 1
        elif short == "build_cluster":
            facts["cluster.triangles"] += len(out.triangles)
        elif short == "write_obj":
            facts["cluster.obj_bytes"] += os.path.getsize(args[1])

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            if row[3] >= 0:
                own[row[3]] -= row[2] - row[1]
        return own

    def check_nesting(self) -> list[int]:
        """Indices of spans that start before or end after their parent."""
        bad = []
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    bad.append(idx)
        return bad

    def write(self, path, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {**extra, "absent": self.absent,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": self.spans,
                   "counts": [dict(c) for c in self.counts],
                   "results": [dict(r) for r in self.results]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")


# name, unit, better.  Times are per-round medians over the traced rounds;
# counts and bytes are those of the first traced round, so they repeat
# exactly for a seed; accuracy records are the worst over the run.
PER_LAYER = [
    ("series.s", "s", "lower"),
    ("series.calls", "count", "lower"),
    ("series.picard_iters", "count", "lower"),
    ("graph.s", "s", "lower"),
    ("graph.steps", "count", "lower"),
    ("graph.rhs_evals", "count", "lower"),
    ("graph.monitor_s", "s", "lower"),
    ("graph.stop_slope_cap", "count", "lower"),
    ("graph.stop_height_floor", "count", "lower"),
    ("arc.s", "s", "lower"),
    ("arc.steps", "count", "lower"),
    ("arc.rhs_evals", "count", "lower"),
    ("arc.projections_per_solve", "count", "lower"),
    ("arc.monitor_s", "s", "lower"),
    ("shoot.evals", "count", "lower"),
    ("shoot.self_s", "s", "lower"),
    ("cluster.resample_s", "s", "lower"),
    ("cluster.build_s", "s", "lower"),
    ("cluster.checks_s", "s", "lower"),
    ("cluster.obj_s", "s", "lower"),
    ("cluster.obj_bytes", "B", "lower"),
    ("cluster.triangles", "count", "lower"),
    ("cli.solves_per_command", "count", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("import.total_s", "s", "lower"),
    ("import.scipy_integrate_s", "s", "lower"),
    ("shoot.junction_residual", "1", "lower"),
    ("sweep.circle_err", "1", "lower"),
    ("monitor.worst_slack", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

CLI_COMMAND = "bench.cli "


def round_layers(tracer: Tracer, own: list[float], op: int, facts) -> dict:
    """Per-layer work and self time of traced round ``op``.

    ``own`` is ``tracer.self_times()``; ``facts`` holds what the workload
    itself counted (bytes written, profiles each CLI command must yield).
    """
    dur, self_s, calls = Counter(), Counter(), Counter()
    shoot_evals = 0
    command_of: dict[int, int] = {}
    stage_calls, lens_evals = Counter(), Counter()
    for idx, (name, start, end, parent, span_op) in enumerate(tracer.spans):
        if span_op != op:
            continue
        short = name.rsplit(".", 1)[-1]
        dur[short] += end - start
        self_s[short] += own[idx]
        calls[short] += 1
        if name in CLI_WRITERS:
            dur["cli writers"] += end - start
        in_find_lens = short == "angle_of" and parent >= 0 \
            and tracer.spans[parent][0].endswith(".find_lens")
        shoot_evals += in_find_lens
        if name.startswith(CLI_COMMAND):
            command_of[idx] = idx
        elif parent in command_of:
            command_of[idx] = command_of[parent]
            command = tracer.spans[command_of[idx]][0]
            if short in ("picard_analytic", "integrate_graph"):
                stage_calls[command] += 1
            lens_evals[command] += in_find_lens
    counts, got = tracer.counts[op], tracer.results[op]
    # series and graph stage runs per profile the command needs, where a
    # root finder needs each profile it evaluates
    per_command = [stage_calls[CLI_COMMAND + kind]
                   / (2 * (profiles + lens_evals[CLI_COMMAND + kind]))
                   for kind, profiles in
                   ((k[len("cli.profiles "):], v) for k, v in facts.items()
                    if k.startswith("cli.profiles "))]
    return {
        "series.s": dur["picard_analytic"],
        "series.calls": calls["picard_analytic"],
        "series.picard_iters": counts["series.nonlinear_Q"],
        "graph.s": self_s["integrate_graph"],
        "graph.steps": got["graph.steps"],
        "graph.rhs_evals": counts["graph_profile.graph_rhs"],
        "graph.monitor_s": dur["evaluate_monitors"],
        "graph.stop_slope_cap": got["graph.stop_slope_cap"],
        "graph.stop_height_floor": got["graph.stop_height_floor"],
        "arc.s": self_s["integrate_to_axis"],
        "arc.steps": got["arc.steps"],
        "arc.rhs_evals": counts["arclength.arclength_rhs"],
        "arc.projections_per_solve":
            got["arc.projections"] / got["arc.solves"] if got["arc.solves"] else 0,
        "arc.monitor_s": dur["polar_monitors"],
        "shoot.evals": shoot_evals / calls["find_lens"] if calls["find_lens"] else 0,
        "shoot.self_s": self_s["find_lens"],
        "cluster.resample_s": dur["resample_profile"],
        "cluster.build_s": self_s["build_cluster"],
        "cluster.checks_s": dur["mesh_checks"],
        "cluster.obj_s": dur["write_obj"],
        "cluster.obj_bytes": got["cluster.obj_bytes"],
        "cluster.triangles": got["cluster.triangles"],
        "cli.solves_per_command":
            sum(per_command) / len(per_command) if per_command else 0,
        "cli.write_s": dur["cli writers"],
        "cli.bytes_written": facts["cli.bytes_written"],
    }
