"""Smoke tests for the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_workloads import (WORKLOADS, Cli, Context, Mesh, Round,  # noqa: E402
                             Shoot, Sweep)


def tiny(name):
    return {"shoot": lambda: Shoot(),
            "sweep": lambda: Sweep(heights_per_round=3),
            "mesh": lambda: Mesh(sizes=(
                ("export", {"n_theta": 16, "n_s": 32, "n_r": 4}),
                ("export_large", {"n_theta": 32, "n_s": 64, "n_r": 8}))),
            "cli": lambda: Cli(table_span=0.1)}[name]()


@pytest.fixture
def ctx(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    return Context(root=ROOT, tmp=str(work), trace_dir=str(tmp_path / "trace"))


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [cls.why for cls in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        bench_trace.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, ctx, spec):
    result = run.run_workload(tiny(name), seed=3, seconds=0, trace=bool(trace),
                              ctx=ctx, setup_repeats=1)
    line = run.contract_line(result, bool(trace))
    assert line["correct"], result["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0
    if trace:
        assert result["bad_nesting"] == 0
        assert os.path.isfile(result["trace_file"])


def _traced_round(wl, ctx, seed=5):
    inp = wl.inputs(seed, 0)
    ref = wl.reference(inp)
    plain, twin = Round(), Round()
    wl.run(inp, ref, ctx, plain, inprocess=True)
    tracer = bench_trace.Tracer()
    with tracer.installed(), tracer.op("round") as op:
        wl.run(inp, ref, ctx, twin, tracer=tracer, inprocess=True)
    return plain, twin, tracer, op


@pytest.mark.parametrize("name", ["sweep", "mesh", "cli"])
def test_no_child_span_outlasts_its_parent(name, ctx):
    wl = tiny(name)
    wl.prepare(ctx)
    _, _, tracer, _ = _traced_round(wl, ctx)
    assert len(tracer.spans) > 1
    assert tracer.check_nesting() == []
    for _, start, end, parent, _ in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]


def test_nesting_check_catches_a_child_that_outlasts_its_parent():
    tracer = bench_trace.Tracer()
    tracer.spans = [["parent", 0.0, 1.0, -1, 0], ["child", 0.5, 1.5, 0, 0]]
    assert tracer.check_nesting() == [1]


@pytest.mark.parametrize("name", ["sweep", "mesh", "cli"])
def test_traced_and_untraced_alphas_are_bit_identical(name, ctx):
    wl = tiny(name)
    wl.prepare(ctx)
    plain, twin, _, _ = _traced_round(wl, ctx)
    assert plain.failed == twin.failed == 0, plain.errors + twin.errors
    assert plain.alphas
    assert run._bits(plain.alphas) == run._bits(twin.alphas)


def test_counts_repeat_exactly(ctx):
    wl = tiny("sweep")
    units = {name: unit for name, unit, _ in bench_trace.PER_LAYER}
    counts = []
    for _ in range(2):
        _, twin, tracer, op = _traced_round(wl, ctx)
        layers = bench_trace.round_layers(tracer, tracer.self_times(), op,
                                          twin.facts)
        counts.append({k: v for k, v in layers.items() if units[k] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["series.calls"] == 3


def test_tracer_restores_every_wrapped_function():
    from lensshrinker import graph_profile, shooting
    before = (shooting.angle_of, graph_profile.graph_rhs)
    with bench_trace.Tracer().installed():
        assert shooting.angle_of is not before[0]
    assert (shooting.angle_of, graph_profile.graph_rhs) == before


def test_missing_name_is_reported_absent():
    tracer = bench_trace.Tracer()
    sites = [("lensshrinker.shooting", "no_such_stage")]
    with tracer.installed(span_sites=sites, count_sites=[]):
        pass
    assert tracer.absent == ["shooting.no_such_stage"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
