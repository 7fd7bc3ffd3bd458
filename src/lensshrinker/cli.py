"""Command-line interface for the lens-shrinker pipeline.

Subcommands: ``solve`` (one profile), ``shoot`` (locate the junction
height), ``table`` (sample the angle map), ``mesh`` (export the cluster
geometry), ``verify`` (run the acceptance gate).  Each takes one accuracy
option, ``--ode-tol`` (the rtol and atol of every profile solve); the
series and crossing tolerances are constants.  Every JSON output embeds
the configuration that produced it, so outputs are reproducible bit for
bit; no timestamps are written.

Exit codes: 0 success, 2 configuration, I/O or other pipeline error
(``table --jobs`` above 1 where os.fork is missing counts as
configuration), 3 bracket failure, 4 monitor violation or failed
verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .arclength import polar_monitors, profile_summary, profile_to_csv
from .errors import BracketFailure, LensError, MonitorViolation
from .graph_profile import trajectory_to_csv
from .shooting import (A_CIRCLE, A_MIN, DEFAULT_BRACKET, DEFAULT_N_THETA,
                       DEFAULT_TOL_A, MIN_N_THETA, PipelineConfig, angle_of,
                       angle_table_to_csv, find_lens, sample_angle_table)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BRACKET = 3
EXIT_MONITOR = 4

MAX_TABLE_ROWS = 10_000
N_THETA_RANGE = (MIN_N_THETA, 4096)
# keeps the annulus input finite; junction radii stay below 1.8
MAX_ANNULUS_OUTER = 1000.0


def _config(args) -> dict:
    """The JSON config block: every setting the command ran with."""
    d = {"command": args.command, "a": args.a,
         "bracket": [args.a_lo, args.a_hi],
         "tolerances": {"ode_tol": args.ode_tol, "tol_a": args.tol_a},
         "output_dir": args.output_dir, "jobs": args.jobs,
         "n_theta": args.n_theta, "annulus_outer": args.annulus_outer}
    if args.command == "table":
        d["table_range"] = [args.a_from, args.a_to, args.step]
    return d


def _write_json(path: Path, payload: dict, args) -> None:
    payload = {**payload, "config": _config(args)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _out_dir(args) -> Path:
    # made after the computation, so that a command that fails makes none
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _refuse_a_file_in(output_dir: str) -> None:
    """Raise NotADirectoryError if output_dir, or the nearest of its
    ancestors that exists, is not a directory: a path that no mkdir can
    make, refused before the computation; nothing is made."""
    out = Path(output_dir)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(f"output directory {out}: {path} "
                                         f"is not a directory")
            return


def table_heights(lo: float, hi: float, step: float) -> list:
    """The table's heights, np.arange(lo, hi + step / 2, step) to the bit:
    ceil((hi + step / 2 - lo) / step) rows, lo, lo + step, then lo + i
    ((lo + step) - lo), as arange fills them."""
    n = math.ceil((hi + 0.5 * step - lo) / step)
    delta = (lo + step) - lo
    return [lo, lo + step, *(lo + i * delta for i in range(2, n))][:n]


def _say(args, payload: dict, text: str) -> None:
    if args.json_output:
        print(json.dumps({**payload, "config": _config(args)}, sort_keys=True,
                         allow_nan=False))
    else:
        print(text)


def cmd_solve(args) -> int:
    a = args.a
    # the tag keeps 8 digits, so two heights can share it: refuse to
    # overwrite the files of another height
    tag = f"a{a:.8g}"
    previous = Path(args.output_dir) / f"profile_{tag}.json"
    if previous.exists():
        with open(previous, encoding="utf-8") as fh:
            other = json.load(fh)  # not a solve's file: another run's
        other = other.get("config") if isinstance(other, dict) else None
        other = other.get("a") if isinstance(other, dict) else None
        if other != a:
            raise ValueError(f"{previous} holds the solve at a = {other!r}, "
                             f"not at a = {a!r}; use another --output-dir")
    alpha, profile = angle_of(a, args.pipeline)
    out = _out_dir(args)
    trajectory_to_csv(profile, out / f"graph_{tag}.csv")
    _write_json(out / f"series_{tag}.json", profile.series.to_dict(a), args)
    profile_to_csv(profile, out / f"profile_{tag}.csv")
    summary = profile_summary(profile)
    summary["alpha_deg"] = math.degrees(alpha)
    summary["polar_monitors"] = polar_monitors(profile, a).to_json_list()
    _write_json(out / f"profile_{tag}.json", summary, args)
    _say(args, summary,
         f"a={a:.12g}: s_bar={profile.s_bar:.12g}, xi={profile.xi:.12g}, "
         f"alpha={math.degrees(alpha):.8f} deg "
         f"(files profile_{tag}.csv/.json, series_{tag}.json in {out})")
    return EXIT_OK


def cmd_shoot(args) -> int:
    report = find_lens(args.a_lo, args.a_hi, args.tol_a, args.pipeline)
    payload = report.to_dict()
    profile = report.profile
    payload["profile"] = profile_summary(profile)
    out = _out_dir(args)
    _write_json(out / "shoot_report.json", payload, args)
    profile_to_csv(profile, out / "profile_lens.csv")
    _say(args, payload,
         f"a* = {report.a_star:.12f} "
         f"(|u'(s_bar) - 1/2| = {report.alpha_residual:.3e}, "
         f"alpha = {math.degrees(profile.alpha):.9f} deg, "
         f"report in {out / 'shoot_report.json'})")
    return EXIT_OK


def cmd_table(args) -> int:
    values = table_heights(args.a_from, args.a_to, args.step)
    report = sample_angle_table(values, args.pipeline)
    out = _out_dir(args)
    angle_table_to_csv(report, out / "angle_table.csv")
    _write_json(out / "angle_table.json", report.to_dict(), args)
    n_err = sum(1 for r in report.table if r.error is not None)
    _say(args, report.to_dict(),
         f"{len(report.table)} rows ({n_err} failed), sign changes on "
         f"{report.sign_change_brackets}; files in {out}")
    return EXIT_OK


# the mesh's names, which need numpy: each loads lensshrinker.cluster on
# first read (PEP 562), which only cmd_mesh makes
_CLUSTER = ("build_cluster", "sidecar", "write_metadata", "write_obj")


def __getattr__(name):
    if name in _CLUSTER:
        from . import cluster
        return getattr(cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_mesh(args) -> int:
    # read off the module, so that its __getattr__ loads the cluster here
    # and a name set on the module is the one called
    cli = sys.modules[__name__]
    build_cluster, sidecar, write_metadata, write_obj = (
        getattr(cli, name) for name in _CLUSTER)
    if args.a is not None:
        _, profile = angle_of(args.a, args.pipeline)
    else:
        profile = find_lens(args.a_lo, args.a_hi, args.tol_a,
                            args.pipeline).profile
    mesh = build_cluster(profile, n_theta=args.n_theta,
                         annulus_outer=args.annulus_outer)
    out = _out_dir(args)
    write_obj(mesh, out / "lens.obj")
    write_metadata(mesh, out / "lens.json", _config(args))
    _say(args, sidecar(mesh),
         f"mesh for a={profile.a:.12g}: {len(mesh.vertices)} vertices, "
         f"{len(mesh.triangles)} triangles -> {out / 'lens.obj'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import checks  # imported here, so that no other command loads it
    results = checks.run_all(args.pipeline, verbose=not args.json_output)
    payload = {"results": [{"name": r.name, "pass": r.passed,
                            "detail": r.detail} for r in results]}
    n_fail = sum(1 for r in results if not r.passed)
    _say(args, payload, f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_MONITOR


def build_parser() -> argparse.ArgumentParser:
    """The parser, the one declaration of every setting and its default.
    A subcommand sets only the options it has; the rest keep the defaults
    declared here, so every command's namespace holds every setting."""
    ap = argparse.ArgumentParser(
        prog="lensshrinker",
        description="Lens-shaped self-shrinker profiles: solve, shoot, export.")
    defaults = PipelineConfig()
    ap.set_defaults(output_dir=None, json_output=False,
                    ode_tol=defaults.ode_tol, a=None,
                    a_lo=DEFAULT_BRACKET[0], a_hi=DEFAULT_BRACKET[1],
                    tol_a=DEFAULT_TOL_A, jobs=defaults.jobs,
                    n_theta=DEFAULT_N_THETA, annulus_outer=None)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, about):
        p = sub.add_parser(name, help=about, argument_default=argparse.SUPPRESS)
        p.add_argument("--output-dir",
                       help="output directory (fallback: $LENS_OUTPUT_DIR, then '.')")
        p.add_argument("--json", action="store_true", dest="json_output",
                       help="machine-readable stdout")
        p.add_argument("--ode-tol", type=float,
                       help="rtol and atol of each profile solve")
        return p

    p = command("solve", "compute one profile")
    p.add_argument("--a", type=float, required=True)

    p = command("shoot", "locate the 120-degree junction height")
    p.add_argument("--a-lo", type=float)
    p.add_argument("--a-hi", type=float)
    p.add_argument("--tol-a", type=float)

    p = command("table", "tabulate the angle map")
    p.add_argument("--from", dest="a_from", type=float, required=True)
    p.add_argument("--to", dest="a_to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--jobs", type=int,
                   help="processes, the caller included; above 1 the caller "
                        "forks (POSIX only), which costs ~3 ms and pays only "
                        "on long tables with a second CPU free (2 jobs on a "
                        "2-CPU host with none free: 1.20x the time of 1 at 11 "
                        "rows, 1.05x at 161)")

    p = command("mesh", "export the three-sheet cluster mesh")
    p.add_argument("--a", type=float,
                   help="profile height (default: shoot for the junction height)")
    p.add_argument("--n-theta", type=int)
    p.add_argument("--annulus-outer", type=float,
                   help=f"annulus radius, at most {MAX_ANNULUS_OUTER:g} "
                        "(default: 3x the junction radius)")
    p.add_argument("--tol-a", type=float)

    command("verify", "run the acceptance gate")
    return ap


def config_from_args(args):
    """Check the parsed settings, resolve the output directory and attach
    args.pipeline; returns args.  Raises ValueError on a bad setting."""
    args.output_dir = args.output_dir or os.environ.get("LENS_OUTPUT_DIR") or "."
    args.pipeline = PipelineConfig(ode_tol=args.ode_tol, jobs=args.jobs)
    resolved = f"[A_MIN = {A_MIN:g}, sqrt(2)]"
    if args.a is not None and not A_MIN <= args.a <= A_CIRCLE:
        raise ValueError(f"a must lie in {resolved}")
    lo, hi = args.a_lo, args.a_hi
    if not A_MIN <= lo < hi <= A_CIRCLE:
        raise ValueError(f"bracket must be ordered inside {resolved}")
    if not 0.0 < args.tol_a < hi - lo:
        raise ValueError(f"tol_a must be positive and below the bracket "
                         f"width {hi - lo}")
    cpus = os.cpu_count() or 1
    if args.jobs > cpus:
        raise ValueError(f"jobs must lie in [1, {cpus}] (the CPU count)")
    if not N_THETA_RANGE[0] <= args.n_theta <= N_THETA_RANGE[1]:
        raise ValueError(f"n_theta must lie in {list(N_THETA_RANGE)}")
    if args.annulus_outer is not None and \
            not 0.0 < args.annulus_outer <= MAX_ANNULUS_OUTER:
        raise ValueError(f"annulus_outer must lie in "
                         f"(0, {MAX_ANNULUS_OUTER:g}]")
    if args.command == "table":
        lo, hi, step = args.a_from, args.a_to, args.step
        if not (0.0 < lo <= hi <= A_CIRCLE and 0.0 < step < math.inf):
            raise ValueError("table range must be ordered inside (0, sqrt(2)] "
                             "with a finite positive step")
        # table_heights(lo, hi, step) has ceil(span) rows
        span = (hi + step / 2 - lo) / step
        if not 0.0 < span <= MAX_TABLE_ROWS:
            raise ValueError(f"table range gives no row or more than "
                             f"{MAX_TABLE_ROWS} rows")
    return args


COMMANDS = {"solve": cmd_solve, "shoot": cmd_shoot, "table": cmd_table,
            "mesh": cmd_mesh, "verify": cmd_verify}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_from_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command != "verify":
            _refuse_a_file_in(args.output_dir)
        return COMMANDS[args.command](args)
    except BracketFailure as exc:
        print(f"bracket failure: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except MonitorViolation as exc:
        print(f"monitor violation: {exc}", file=sys.stderr)
        return EXIT_MONITOR
    except (LensError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
