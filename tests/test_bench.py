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


def test_the_bench_summary_is_recomputed_from_its_runs():
    bench = _load("BENCH_37.json")
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in _load("BENCHMARK.json")["end_to_end"]}
    assert bench_pair.summary(bench["runs"], bounds) == bench["summary"]
    assert {(e["workload"], e["metric"]) for e in bench["summary"]} == {
        (w["name"], m["name"]) for w in _load("BENCHMARK.json")["workloads"]
        for m in _load("BENCHMARK.json")["end_to_end"]}


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
