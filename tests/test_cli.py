import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lensshrinker import arclength, checks, cli, shooting
from lensshrinker.arclength import (integrate_profile, polar_monitors,
                                    profile_summary)
from lensshrinker.cli import (EXIT_BRACKET, EXIT_CONFIG, EXIT_MONITOR, EXIT_OK,
                              config_from_args, build_parser, main)
from lensshrinker.dop853 import RTOL_FLOOR
from lensshrinker.errors import DegenerateProfile, MonitorViolation, NoCrossing
from lensshrinker.series import R_STAR, picard_analytic

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


def test_solve_refuses_to_overwrite_another_height(tmp_path, capsys):
    # both heights print as the file tag a0.78600399
    out = tmp_path / "run"
    where = ["--output-dir", str(out)]
    assert run(["solve", "--a", "0.786003986", *where]) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run(["solve", "--a", "0.7860039861771013", *where]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "profile_a0.78600399.json" in err
    assert "0.786003986," in err and "0.7860039861771013" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    # the same height again is a rerun, bit for bit
    assert run(["solve", "--a", "0.786003986", *where]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


@pytest.mark.parametrize("text", ['[]', '{"config": [1]}', '"x"'])
def test_solve_refuses_a_foreign_json_file_at_its_tag(tmp_path, capsys, text):
    previous = tmp_path / "profile_a0.9.json"
    previous.write_text(text)
    assert run(["solve", "--a", "0.9", "--output-dir", str(tmp_path)]) \
        == EXIT_CONFIG
    assert "use another --output-dir" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [previous.name]
    assert previous.read_text() == text


def test_solve_rejects_bad_height(tmp_path):
    assert run(["solve", "--a", "-1", "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    assert run(["solve", "--a", "1.6", "--output-dir", str(tmp_path)]) == EXIT_CONFIG


def test_config_validation_catches_bad_tolerances():
    parser = build_parser()
    args = parser.parse_args(["solve", "--a", "0.5", "--ode-tol", "-1"])
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
    # monitor_pass repeated error is None; the CSV keeps its pass column
    for row in data["table"]:
        assert row["error"] is None and "monitor_pass" not in row
    assert data["config"]["command"] == "table"


def test_table_rejects_bad_range(tmp_path):
    assert run(["table", "--from", "0.8", "--to", "0.4", "--step", "0.1",
                "--output-dir", str(tmp_path)]) == EXIT_CONFIG


def test_solve_at_the_smallest_certified_heights(tmp_path, capsys):
    # A_MIN is the smallest height solved.  Below it, down to the 1e-160
    # that the series certificate still admits and below, solve, shoot and
    # mesh exit 2 and name A_MIN before they make the output directory
    out = tmp_path / "out"
    assert run(["solve", "--a", repr(shooting.A_MIN), "--output-dir",
                str(out)]) == EXIT_OK
    refused = tmp_path / "refused"
    for argv in (["solve", "--a", "1e-160"], ["solve", "--a", "1e-300"],
                 ["shoot", "--a-lo", "1e-5"], ["mesh", "--a", "1.9e-4"]):
        capsys.readouterr()
        assert run(argv + ["--output-dir", str(refused)]) == EXIT_CONFIG
        assert "A_MIN" in capsys.readouterr().err
        assert not refused.exists()
    # at a = 1e-160 the library still solves: the crossing's Brent
    # refinement meets a zero interpolation denominator and bisects.  The
    # alpha pins the steps' bits only: with v ~ a far below the absolute
    # tolerance it is ~0.4% off the small-height slope -J'(x0) a
    p = integrate_profile(picard_analytic(1e-160, R_STAR), 1e-160)
    assert p.alpha == -1.4354062936326017e-160


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
    TABLE + ["--step", "0"],
    ["mesh", "--a", "0.5", "--n-theta", "15"],
    ["mesh", "--a", "0.5", "--n-theta", "4097"],
    ["solve", "--a", repr(SQRT2 + 1e-13)],
    TABLE + ["--step", "inf"],
    # hi + step/2 rounds to hi, so np.arange(lo, hi + step/2, step) is empty
    ["table", "--from", "0.1", "--to", "0.1", "--step", "1e-300"],
])
def test_size_inputs_are_bounded(argv):
    # validation runs before any command, so no output directory is made
    with pytest.raises(ValueError):
        parse(argv)


@pytest.mark.parametrize("argv", [
    ["shoot", "--tol-a", "inf"],
    ["shoot", "--tol-a", repr(SQRT2 - 0.05)],  # the default bracket width
    ["mesh", "--tol-a", "inf"],
    ["solve", "--a", "0.9", "--ode-tol", "1e-14"],
    ["solve", "--a", "0.9", "--ode-tol", "inf"],
    ["solve", "--a", "0.9", "--ode-tol", "nan"],
], ids=["shoot_tol_a_inf", "shoot_tol_a_width", "mesh_tol_a_inf",
        "ode_tol_below_floor", "ode_tol_inf", "ode_tol_nan"])
def test_unbounded_tolerances_exit_with_config_error(tmp_path, argv):
    out = tmp_path / "out"
    assert run(argv + ["--output-dir", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mesh", "--a", "0.9", "--annulus-outer", value]
    for value in ("nan", "inf", "1e300", "0", "-1", "1000.0000000000001")
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


@pytest.mark.parametrize("argv, code", [
    (["shoot", "--a-lo", "0.05", "--a-hi", "0.06"], EXIT_BRACKET),
    (["mesh", "--a", "0.786", "--annulus-outer", "1.0"], EXIT_CONFIG),
], ids=["shoot_no_sign_change", "mesh_annulus_inside_the_junction"])
def test_a_failed_command_creates_no_output_dir(tmp_path, argv, code):
    out = tmp_path / "out"
    assert run(argv + ["--output-dir", str(out)]) == code
    assert not out.exists()


def test_a_solve_without_a_crossing_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(arclength, "ARCLENGTH_HARD_CAP", 1.0)
    out = tmp_path / "out"
    assert run(["solve", "--a", repr(SQRT2), "--output-dir", str(out)]) \
        == EXIT_CONFIG
    assert "no v=0 crossing before the arclength cap" in \
        capsys.readouterr().err
    assert not out.exists()


def test_tolerance_bounds_admit_their_edges():
    assert parse(["solve", "--a", "0.9", "--ode-tol", repr(RTOL_FLOOR)]
                 ).pipeline.ode_tol == RTOL_FLOOR
    width = SQRT2 - 0.05
    assert parse(["shoot", "--tol-a", repr(math.nextafter(width, 0.0))]
                 ).tol_a < width


@pytest.mark.parametrize("argv", [
    ["solve", "--a", "0.5", "--order", "64"],
    ["solve", "--a", "0.5", "--x-seed", "1e-3"],
    ["mesh", "--order", "8"],
    ["solve", "--a", "0.5", "--series-tol", "1e-14"],
    ["shoot", "--event-tol", "1e-12"],
    ["table", "--from", "0.1", "--to", "0.2", "--step", "0.1",
     "--ode-abs", "1e-12"],
    ["mesh", "--ode-rel", "1e-12"],
])
def test_removed_series_options_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fresh_interpreter_imports_no_scipy(tmp_path):
    code = ("import contextlib, io, sys\n"
            "import lensshrinker, lensshrinker.cli\n"
            "from lensshrinker import cli\n"
            f"assert cli.main(['solve', '--a', '0.9', '--output-dir', "
            f"{str(tmp_path)!r}]) == 0\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "profile_a0.9.json").exists()


def test_fresh_interpreter_imports_no_process_pool():
    # no command loads a process pool, and only verify loads checks; a
    # forked table child leaves by os._exit, so the caller's unflushed
    # stdout buffer reaches the pipe once
    code = ("import sys\n"
            "import lensshrinker, lensshrinker.cli\n"
            "pool = ('concurrent.futures', 'multiprocessing')\n"
            "print(sorted(m for m in pool + ('lensshrinker.checks',)"
            " if m in sys.modules))\n"
            "from lensshrinker import PipelineConfig, sample_angle_table\n"
            "table = sample_angle_table([0.4, 0.9], PipelineConfig(jobs=2))\n"
            "assert all(row.error is None for row in table.table)\n"
            "print(sorted(m for m in pool if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    # a block-buffered stdout holds the first line when the child forks
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_table_jobs_without_fork_is_a_configuration_error(tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    code = run(["table", "--from", "0.5", "--to", "0.6", "--step", "0.1",
                "--jobs", "2", "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "os.fork" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_fresh_interpreter_defaults_to_one_openblas_thread(preset, want):
    # the default applies when the variable is unset; a set value is kept
    code = ("import os, lensshrinker\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == want


def test_size_bounds_admit_their_edges():
    cfg = parse(TABLE + ["--step", "0.0001", "--jobs", str(os.cpu_count() or 1)])
    lo, hi, step = cfg.a_from, cfg.a_to, cfg.step
    assert len(np.arange(lo, hi + 0.5 * step, step)) == 10_000
    assert parse(["solve", "--a", repr(SQRT2)]).a == SQRT2
    for n_theta in ("16", "4096"):
        assert parse(["mesh", "--n-theta", n_theta]).n_theta == int(n_theta)
    assert parse(["mesh", "--annulus-outer", "1000"]).annulus_outer \
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


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["solve", "--a", "0.9"],
    ["shoot", "--tol-a", "1e-8"],
    ["table", "--from", "0.5", "--to", "0.9", "--step", "0.2"],
    ["mesh", "--a", "0.9", "--n-theta", "16"],
    # one failed row, whose NaN fields are written as null
    ["table", "--from", "1e-300", "--to", "1e-300", "--step", "1"],
], ids=["solve", "shoot", "table", "mesh", "table_failed_row"])
def test_json_outputs_are_strict_json(tmp_path, capsys, argv):
    assert run(argv + ["--json", "--output-dir", str(tmp_path)]) == EXIT_OK
    printed = _strict_json(capsys.readouterr().out)
    files = sorted(tmp_path.glob("*.json"))
    assert files
    for path in files:
        _strict_json(path.read_text())
    # stdout is the payload of the command's main JSON file
    main = {"solve": "profile_a0.9.json", "shoot": "shoot_report.json",
            "table": "angle_table.json", "mesh": "lens.json"}[argv[0]]
    assert printed == _strict_json((tmp_path / main).read_text())


def test_output_dir_on_a_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["solve", "--a", "0.9", "--output-dir", str(blocker)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _config_block(command, **settings):
    block = {"command": command, "a": None, "annulus_outer": None,
             "bracket": [0.05, SQRT2], "jobs": 1, "n_theta": 64,
             "output_dir": "out",
             "tolerances": {"ode_tol": 1e-12, "tol_a": 1e-10}}
    return {**block, **settings}


@pytest.mark.parametrize("argv, want", [
    (["solve", "--a", "0.5"], _config_block("solve", a=0.5)),
    (["shoot"], _config_block("shoot")),
    (["table", "--from", "0.5", "--to", "0.9", "--step", "0.2"],
     _config_block("table", table_range=[0.5, 0.9, 0.2])),
    (["mesh", "--a", "0.9", "--n-theta", "16"],
     _config_block("mesh", a=0.9, n_theta=16)),
    (["verify"], _config_block("verify")),
], ids=["solve", "shoot", "table", "mesh", "verify"])
def test_config_block_defaults(tmp_path, monkeypatch, capsys, argv, want):
    # every key and default of the config block, in stdout and in each file
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--json", "--output-dir", "out"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"] == want
    files = sorted((tmp_path / "out").glob("*.json"))
    assert bool(files) == (argv[0] != "verify")  # verify writes no file
    for path in files:
        assert json.loads(path.read_text())["config"] == want, path.name


def test_verify_shoot_bounds_the_defect_by_the_ode_tolerance():
    cfg = shooting.PipelineConfig(ode_tol=1e-10)
    result = checks.criterion_2_junction_located(cfg)
    assert result.passed, result.detail
    assert "(bound 1e-06)" in result.detail


def test_verify_small_height_line_resolves_the_gap():
    # |xi - x0| is about 1e-5 at a = 0.01; a fixed-point format printed 0.0000
    result = checks.criterion_3_small_height_asymptotics(shooting.PipelineConfig())
    assert result.passed, result.detail
    gaps = re.search(r"\|xi - x0\|=(\S+)/(\S+),", result.detail).groups()
    assert all(0.0 < float(gap) < 0.05 for gap in gaps)


def test_verify_exits_zero(capsys):
    assert run(["verify"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("[PASS]") == 8
    assert "[FAIL]" not in text


def test_verify_json_lists_the_criteria_in_order(capsys):
    assert run(["verify", "--json"]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["name"] for r in results] == [c.name for c in checks.CRITERIA]
    assert [r["name"].split(" (")[0] for r in results] \
        == [f"criterion {n}" for n in range(1, 9)]
    assert all(r["pass"] for r in results)


def test_verify_fails_the_circle_and_curvature_criteria_at_1e_8(capsys):
    # the circle deviation (3.2e-8) and the curvature split (2.5e-7) pass
    # 1e-8 no longer; every other criterion passes with margin
    assert run(["verify", "--ode-tol", "1e-8"]) == EXIT_MONITOR
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("[FAIL]")]
    assert [line.split(" (")[0] for line in fails] \
        == ["[FAIL] criterion 1", "[FAIL] criterion 4"]


@pytest.mark.parametrize("ode_tol", [1e-10, RTOL_FLOOR])
def test_verify_passes_at_tighter_tolerances(capsys, ode_tol):
    # at the floor the refinement drift compares the floor with itself
    assert run(["verify", "--ode-tol", repr(ode_tol)]) == EXIT_OK
    assert capsys.readouterr().out.count("[PASS]") == 8


def test_verify_solves_each_height_once(monkeypatch):
    # criteria 1, 4, 5 and 8 share the heights of A_SUITE and criteria 2
    # and 4 the shoot: one run_all solves each (a, cfg) once, and each
    # shoot once, where unshared it made 12 angle_of and 3 find_lens calls
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, args, tuple(kwargs.items())))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(checks, "angle_of", counted(checks.angle_of))
    monkeypatch.setattr(checks, "find_lens", counted(checks.find_lens))
    results = checks.run_all(shooting.PipelineConfig(), verbose=False)
    assert all(r.passed for r in results)
    names = [name for name, _, _ in calls]
    assert (names.count("angle_of"), names.count("find_lens")) == (6, 2)
    assert len(set(calls)) == len(calls)


def test_verify_reports_a_raising_criterion_under_its_name(capsys,
                                                           monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("oracle down")
    monkeypatch.setattr(checks.se, "picard_c2_oracle", boom)
    assert run(["verify"]) == EXIT_MONITOR
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("[FAIL]")] \
        == ["[FAIL] criterion 7 (cross-oracle agreement): "
            "RuntimeError: oracle down"]


def _bench_module(name, monkeypatch):
    """Load perfbench/<name>.py read-only; it is registered in sys.modules
    for the test's duration, as its dataclasses look themselves up there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_contract(tmp_path, profiles, monkeypatch):
    # the benchmark traces these modules, imports its workloads from the
    # package and checks solve's JSON against the in-process profile, so
    # all three must hold for it to run at all
    trace = _bench_module("bench_trace", monkeypatch)
    workloads = _bench_module("bench_workloads", monkeypatch)
    assert sorted(workloads.WORKLOADS) == ["cli", "mesh", "shoot", "sweep"]
    for module, _ in trace.SPAN_SITES + trace.COUNT_SITES:
        importlib.import_module(module)
    assert run(["solve", "--a", "1.0", "--output-dir", str(tmp_path)]) == EXIT_OK
    got = json.loads((tmp_path / "profile_a1.json").read_text())
    alpha, p = profiles[1.0]
    want = profile_summary(p)
    want["alpha_deg"] = math.degrees(alpha)
    want["polar_monitors"] = polar_monitors(p, 1.0).to_json_list()
    want = json.loads(json.dumps(want, sort_keys=True))
    assert got["monitors"] == want["monitors"]
    assert got["polar_monitors"] == want["polar_monitors"]
    del got["config"]
    assert got == want
    # the table check compares the CLI's rows with sample_angle_table's on
    # the CLI's own row rule, and the sweep check reads row.monitor_pass
    table_dir = tmp_path / "table"
    assert run(["table", "--from", "0.1", "--to", "0.3", "--step", "0.1",
                "--output-dir", str(table_dir)]) == EXIT_OK
    got = json.loads((table_dir / "angle_table.json").read_text())
    values = list(np.arange(0.1, 0.3 + 0.5 * 0.1, 0.1))
    report = shooting.sample_angle_table(values, shooting.PipelineConfig(jobs=1))
    want = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert len(got["table"]) == 3
    assert got["table"] == want["table"]
    assert got["sign_change_brackets"] == want["sign_change_brackets"]
    assert all(row.monitor_pass is True for row in report.table)
