import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lensshrinker import checks, cli, shooting
from lensshrinker.cli import (EXIT_BRACKET, EXIT_CONFIG, EXIT_MONITOR, EXIT_OK,
                              RunConfig, config_from_args, build_parser, main)
from lensshrinker.dop853 import RTOL_FLOOR
from lensshrinker.errors import DegenerateProfile, MonitorViolation, NoCrossing

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


def test_pipeline_error_exit_code(tmp_path, monkeypatch, capsys):
    def degenerate(*args, **kwargs):
        raise DegenerateProfile("mesh validity checks failed")

    monkeypatch.setattr(cli, "build_cluster", degenerate)
    code = run(["mesh", "--a", "1.4142135623730951", "--n-theta", "16",
                "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "error: mesh validity checks failed" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [(NoCrossing, EXIT_CONFIG),
                                         (MonitorViolation, EXIT_MONITOR)])
def test_shoot_names_the_height_of_an_interior_failure(tmp_path, monkeypatch,
                                                       capsys, error, code):
    heights = []
    angle_of = shooting.angle_of

    def failing_inside(a, cfg=None):
        heights.append(a)
        if len(heights) > 2:  # both bracket endpoints solve, then one step
            raise error("stub failure")
        return angle_of(a, cfg)

    monkeypatch.setattr(shooting, "angle_of", failing_inside)
    assert run(["shoot", "--output-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert len(heights) == 3
    assert f"at a={heights[2]!r} inside the bracket" in err
    assert "stub failure" in err


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


@pytest.mark.parametrize("argv", [
    ["shoot", "--tol-a", "inf"],
    ["shoot", "--tol-a", repr(SQRT2 - 0.05)],  # the default bracket width
    ["mesh", "--tol-a", "inf"],
    ["solve", "--a", "0.9", "--ode-rel", "1e-14"],
    ["solve", "--a", "0.9", "--ode-abs", "inf"],
], ids=["shoot_tol_a_inf", "shoot_tol_a_width", "mesh_tol_a_inf",
        "ode_rel_below_floor", "ode_abs_inf"])
def test_unbounded_tolerances_exit_with_config_error(tmp_path, argv):
    out = tmp_path / "out"
    assert run(argv + ["--output-dir", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mesh", "--a", "0.9", "--annulus-outer", value]
    for value in ("nan", "inf", "1e300", "0", "-1", "30.000000000000004")
] + [["mesh", "--annulus-outer", "inf"]])
def test_annulus_outer_is_bounded_before_any_solve(tmp_path, monkeypatch,
                                                   argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before --annulus-outer was validated")

    monkeypatch.setattr(cli, "angle_of", no_solve)
    monkeypatch.setattr(cli, "find_lens", no_solve)
    out = tmp_path / "out"
    assert run(argv + ["--output-dir", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_tolerance_bounds_admit_their_edges():
    assert parse(["solve", "--a", "0.9", "--ode-rel", repr(RTOL_FLOOR)]
                 ).ode_rel == RTOL_FLOOR
    width = SQRT2 - 0.05
    assert parse(["shoot", "--tol-a", repr(math.nextafter(width, 0.0))]
                 ).tol_a < width


def test_fresh_interpreter_imports_no_scipy(tmp_path):
    code = ("import sys\n"
            "import lensshrinker, lensshrinker.cli\n"
            "from lensshrinker import cli\n"
            f"assert cli.main(['solve', '--a', '0.9', '--output-dir', "
            f"{str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "profile_a0.9.json").exists()


def test_size_bounds_admit_their_edges():
    cfg = parse(TABLE + ["--step", "0.0001", "--jobs", str(os.cpu_count() or 1)])
    lo, hi, step = cfg.table_range
    assert len(np.arange(lo, hi + 0.5 * step, step)) == 10_000
    assert parse(["solve", "--a", repr(SQRT2), "--order", "256"]).a == SQRT2
    for n_theta in ("16", "4096"):
        assert parse(["mesh", "--n-theta", n_theta]).n_theta == int(n_theta)
    assert parse(["mesh", "--annulus-outer", "30"]).annulus_outer \
        == cli.MAX_ANNULUS_OUTER


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


def test_verify_shoot_bounds_the_defect_by_the_ode_tolerance():
    cfg = shooting.PipelineConfig(ode_rtol=1e-10, ode_atol=1e-10)
    result = checks.check_junction_shoot(cfg)
    assert result.passed, result.detail
    assert "(bound 1e-06)" in result.detail


def test_verify_exits_zero(capsys):
    assert run(["verify"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("[PASS]") >= 10
    assert "[FAIL]" not in text
