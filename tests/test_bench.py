"""The committed benchmark files against the scripts that wrote them: each
file's ``summary`` is what tools/bench_pair.py or tools/solve_pair.py
computes from the runs the file holds."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pair  # noqa: E402
import solve_pair  # noqa: E402


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


def _recomputed_summary(name: str) -> list:
    """The file's summary, checked against bench_pair.summary of its runs
    and to hold every workload and end-to-end metric."""
    bench = _load(name)
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in _load("BENCHMARK.json")["end_to_end"]}
    assert bench_pair.summary(bench["runs"], bounds) == bench["summary"]
    assert {(e["workload"], e["metric"]) for e in bench["summary"]} == {
        (w["name"], m["name"]) for w in _load("BENCHMARK.json")["workloads"]
        for m in _load("BENCHMARK.json")["end_to_end"]}
    return bench["summary"]


def test_the_bench_summary_is_recomputed_from_its_runs():
    _recomputed_summary("BENCH_37.json")


def test_the_graded_mesh_gain_is_recomputed_from_its_runs():
    # the mesh round is lower in at least 9 of 10 pairs and by more than
    # the parent's quartile spread, and every metric is within its bound
    summary = _recomputed_summary("BENCH_38.json")
    assert all(e["within_bound"] for e in summary)
    mesh = {e["metric"]: e for e in summary if e["workload"] == "mesh"}
    assert mesh["round_cal_s"]["gain"] and mesh["round_cal_s"]["pairs"] == 20


def test_the_solve_pair_summary_is_recomputed_from_its_runs():
    comparisons = _load("BENCH_37_solve_pair.json")["comparisons"]
    assert {c["loop"] for c in comparisons} == {"sweep", "shoot"}
    for c in comparisons:
        assert solve_pair.verdict(c["runs"]) == c["summary"]


def test_the_rule_needs_nine_of_ten_pairs_and_the_reference_spread():
    # lower in 9 of 10 pairs by more than the reference's q3 - q1 (5.5)
    # gains; 8 of 10, or a gap inside the spread, does not
    reference = [10.0 + i for i in range(10)]
    assert bench_pair.paired(reference, [x - 6.0 for x in reference])["gain"]
    eight = [x - 6.0 for x in reference[:8]] + [30.0, 30.0]
    assert not bench_pair.paired(reference, eight)["gain"]
    assert not bench_pair.paired(reference, [x - 1.0 for x in reference])[
        "gain"]


def test_the_hashed_dedupe_gain_is_recomputed_from_its_runs():
    # the OBJ writer's hashed dedupe: the mesh round is lower in at least
    # 9 of 10 pairs and by more than the parent's quartile spread, and
    # every metric is within its bound
    summary = _recomputed_summary("BENCH_39.json")
    assert all(e["within_bound"] for e in summary)
    gains = {(e["workload"], e["metric"]) for e in summary if e["gain"]}
    assert gains == {("mesh", "round_cal_s")}
    mesh = next(e for e in summary
                if (e["workload"], e["metric"]) == ("mesh", "round_cal_s"))
    assert mesh["pairs"] == 20
