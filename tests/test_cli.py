import json
import math
import os

import numpy as np
import pytest

from lensshrinker import cli
from lensshrinker.cli import (EXIT_BRACKET, EXIT_CONFIG, EXIT_OK, RunConfig,
                              config_from_args, build_parser, main)

SQRT2 = math.sqrt(2.0)


def run(args):
    return main(args)


def test_solve_writes_profile_and_series(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["solve", "--a", "1.4142135623730951",
                "--output-dir", str(out)])
    assert code == EXIT_OK
    files = {p.name for p in out.iterdir()}
    assert {"profile_a1.4142136.csv", "profile_a1.4142136.json",
            "series_a1.4142136.json", "graph_a1.4142136.csv"} <= files
    summary = json.loads((out / "profile_a1.4142136.json").read_text())
    assert summary["alpha_deg"] == pytest.approx(-90.0, abs=1e-7)
    assert summary["s_bar"] == pytest.approx(math.pi / SQRT2, abs=1e-8)
    assert summary["config"]["command"] == "solve"
    series = json.loads((out / "series_a1.4142136.json").read_text())
    assert series["a"] == 1.4142135623730951
    assert series["coeffs"][0] == 0.0
    text = capsys.readouterr().out
    assert "alpha=-90.0" in text


def test_solve_reproducible_bit_for_bit(tmp_path):
    out = tmp_path / "run"
    names = ("profile_a0.9.csv", "profile_a0.9.json", "series_a0.9.json")
    assert run(["solve", "--a", "0.9", "--output-dir", str(out)]) == EXIT_OK
    first = {n: (out / n).read_bytes() for n in names}
    for n in names:
        (out / n).unlink()
    assert run(["solve", "--a", "0.9", "--output-dir", str(out)]) == EXIT_OK
    for n in names:
        assert (out / n).read_bytes() == first[n]


def test_solve_rejects_bad_height(tmp_path):
    assert run(["solve", "--a", "-1", "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    assert run(["solve", "--a", "1.6", "--output-dir", str(tmp_path)]) == EXIT_CONFIG


def test_config_validation_catches_bad_tolerances():
    parser = build_parser()
    args = parser.parse_args(["solve", "--a", "0.5", "--series-tol", "-1"])
    with pytest.raises(ValueError):
        config_from_args(args)


def test_shoot_report(tmp_path, capsys):
    out = tmp_path / "shoot"
    code = run(["shoot", "--output-dir", str(out), "--tol-a", "1e-8"])
    assert code == EXIT_OK
    report = json.loads((out / "shoot_report.json").read_text())
    assert 0.0 < report["a_star"] < SQRT2
    assert report["alpha_residual"] < 1e-7
    assert report["config"]["tolerances"]["tol_a"] == 1e-8
    assert (out / "profile_lens.csv").exists()


def test_shoot_bad_bracket_exit_code(tmp_path):
    code = run(["shoot", "--a-lo", "1.0", "--a-hi", "1.2",
                "--output-dir", str(tmp_path)])
    assert code == EXIT_BRACKET


def test_table_outputs(tmp_path):
    out = tmp_path / "table"
    code = run(["table", "--from", "0.4", "--to", "1.2", "--step", "0.4",
                "--output-dir", str(out)])
    assert code == EXIT_OK
    lines = (out / "angle_table.csv").read_text().splitlines()
    assert lines[0] == "a,s_bar,xi_a,alpha_deg,pass"
    assert len(lines) == 4
    data = json.loads((out / "angle_table.json").read_text())
    assert len(data["table"]) == 3
    assert data["config"]["command"] == "table"


def test_table_rejects_bad_range(tmp_path):
    assert run(["table", "--from", "0.8", "--to", "0.4", "--step", "0.1",
                "--output-dir", str(tmp_path)]) == EXIT_CONFIG


def test_mesh_outputs(tmp_path):
    out = tmp_path / "mesh"
    code = run(["mesh", "--a", "1.4142135623730951", "--n-theta", "24",
                "--output-dir", str(out)])
    assert code == EXIT_OK
    obj = (out / "lens.obj").read_text().splitlines()
    assert any(ln.startswith("g upper_cap") for ln in obj)
    meta = json.loads((out / "lens.json").read_text())
    assert meta["n_theta"] == 24
    assert meta["xi"] == pytest.approx(SQRT2, abs=1e-8)
    assert meta["config"]["command"] == "mesh"


def test_mesh_without_height_reuses_the_shoot_profile(tmp_path, monkeypatch,
                                                     lens_report):
    def no_second_solve(*args, **kwargs):
        raise AssertionError("mesh solved a* again")

    monkeypatch.setattr(cli, "angle_of", no_second_solve)
    out = tmp_path / "mesh"
    assert run(["mesh", "--n-theta", "16", "--output-dir", str(out)]) == EXIT_OK
    meta = json.loads((out / "lens.json").read_text())
    assert meta["a_star"] == lens_report.a_star
    assert meta["xi"] == lens_report.profile.xi


def parse(argv):
    return config_from_args(build_parser().parse_args(argv))


TABLE = ["table", "--from", "0.0001", "--to", "1.0"]


@pytest.mark.parametrize("argv", [
    TABLE + ["--step", "0.1", "--jobs", "0"],
    TABLE + ["--step", "0.1", "--jobs", str((os.cpu_count() or 1) + 1)],
    ["table", "--from", "0.0001", "--to", "1.0001", "--step", "0.0001"],
    TABLE + ["--step", "1e-320"],
    ["solve", "--a", "0.5", "--order", "258"],
    ["mesh", "--a", "0.5", "--n-theta", "15"],
    ["mesh", "--a", "0.5", "--n-theta", "4097"],
    ["solve", "--a", repr(SQRT2 + 1e-13)],
])
def test_size_inputs_are_bounded(argv):
    with pytest.raises(ValueError):
        parse(argv)


def test_size_bounds_admit_their_edges():
    cfg = parse(TABLE + ["--step", "0.0001", "--jobs", str(os.cpu_count() or 1)])
    lo, hi, step = cfg.table_range
    assert len(np.arange(lo, hi + 0.5 * step, step)) == 10_000
    assert parse(["solve", "--a", repr(SQRT2), "--order", "256"]).a == SQRT2
    for n_theta in ("16", "4096"):
        assert parse(["mesh", "--n-theta", n_theta]).n_theta == int(n_theta)


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("LENS_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert run(["solve", "--a", "0.8"]) == EXIT_OK
    assert (tmp_path / "env_out" / "profile_a0.8.json").exists()


def test_json_stdout_mode(tmp_path, capsys):
    code = run(["solve", "--a", "0.7", "--json", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == 0.7
    assert payload["config"]["command"] == "solve"


def test_runconfig_roundtrip_defaults():
    cfg = RunConfig(command="solve", a=0.5)
    cfg.validate()
    d = cfg.to_dict()
    assert d["tolerances"]["tol_a"] == 1e-10
    assert d["order"] == 64


def test_verify_exits_zero(capsys):
    assert run(["verify"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("[PASS]") >= 10
    assert "[FAIL]" not in text
