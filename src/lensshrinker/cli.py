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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arclength import polar_monitors, profile_summary, profile_to_csv
from .cluster import (DEFAULT_N_THETA, MIN_N_THETA, build_cluster, sidecar,
                      write_metadata, write_obj)
from .errors import BracketFailure, LensError, MonitorViolation
from .graph_profile import trajectory_to_csv
from .shooting import (A_CIRCLE, DEFAULT_BRACKET, DEFAULT_TOL_A, PipelineConfig,
                       angle_of, angle_table_to_csv, find_lens,
                       sample_angle_table)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BRACKET = 3
EXIT_MONITOR = 4

MAX_TABLE_ROWS = 10_000
N_THETA_RANGE = (MIN_N_THETA, 4096)
# keeps the annulus input finite; junction radii stay below 1.8
MAX_ANNULUS_OUTER = 1000.0


@dataclass
class RunConfig:
    """Validated CLI run configuration; echoed into every JSON output."""

    command: str
    a: float | None = None
    bracket: tuple[float, float] = DEFAULT_BRACKET
    tol_a: float = DEFAULT_TOL_A
    output_dir: str = "."
    json_output: bool = False
    table_range: tuple[float, float, float] | None = None
    n_theta: int = DEFAULT_N_THETA
    annulus_outer: float | None = None
    pipeline: PipelineConfig = PipelineConfig()

    def validate(self) -> None:
        if not 0.0 < self.tol_a < math.inf:
            raise ValueError("tol_a must be positive and finite")
        if self.a is not None and not 0.0 < self.a <= A_CIRCLE:
            raise ValueError("a must lie in (0, sqrt(2)]")
        lo, hi = self.bracket
        if not 0.0 < lo < hi <= A_CIRCLE:
            raise ValueError("bracket must be ordered inside (0, sqrt(2)]")
        if not self.tol_a < hi - lo:
            raise ValueError(f"tol_a must be below the bracket width {hi - lo}")
        cpus = os.cpu_count() or 1
        if self.pipeline.jobs > cpus:
            raise ValueError(f"jobs must lie in [1, {cpus}] (the CPU count)")
        if not N_THETA_RANGE[0] <= self.n_theta <= N_THETA_RANGE[1]:
            raise ValueError(f"n_theta must lie in {list(N_THETA_RANGE)}")
        if self.annulus_outer is not None and \
                not 0.0 < self.annulus_outer <= MAX_ANNULUS_OUTER:
            raise ValueError(f"annulus_outer must lie in "
                             f"(0, {MAX_ANNULUS_OUTER:g}]")
        if self.table_range is not None:
            lo, hi, step = self.table_range
            if not (0.0 < lo <= hi <= A_CIRCLE and 0.0 < step < math.inf):
                raise ValueError("table range must be ordered inside (0, sqrt(2)] "
                                 "with a finite positive step")
            # np.arange(lo, hi + step / 2, step) has ceil(span) rows
            span = (hi + step / 2 - lo) / step
            if not 0.0 < span <= MAX_TABLE_ROWS:
                raise ValueError(f"table range gives no row or more than "
                                 f"{MAX_TABLE_ROWS} rows")

    def to_dict(self) -> dict:
        p = self.pipeline
        d = {"command": self.command, "a": self.a,
             "bracket": list(self.bracket),
             "tolerances": {"ode_tol": p.ode_tol, "tol_a": self.tol_a},
             "output_dir": self.output_dir, "jobs": p.jobs,
             "n_theta": self.n_theta, "annulus_outer": self.annulus_outer}
        if self.table_range is not None:
            d["table_range"] = list(self.table_range)
        return d


def _write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    payload = {**payload, "config": cfg.to_dict()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _say(cfg: RunConfig, payload: dict, text: str) -> None:
    if cfg.json_output:
        print(json.dumps({**payload, "config": cfg.to_dict()}, sort_keys=True,
                         allow_nan=False))
    else:
        print(text)


def cmd_solve(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    a = cfg.a
    # the tag keeps 8 digits, so two heights can share it: refuse to
    # overwrite the files of another height
    tag = f"a{a:.8g}"
    previous = out / f"profile_{tag}.json"
    if previous.exists():
        with open(previous, encoding="utf-8") as fh:
            other = json.load(fh)  # not a solve's file: another run's
        other = other.get("config") if isinstance(other, dict) else None
        other = other.get("a") if isinstance(other, dict) else None
        if other != a:
            raise ValueError(f"{previous} holds the solve at a = {other!r}, "
                             f"not at a = {a!r}; use another --output-dir")
    alpha, profile = angle_of(a, cfg.pipeline)
    trajectory_to_csv(profile, out / f"graph_{tag}.csv")
    _write_json(out / f"series_{tag}.json", profile.series.to_dict(a), cfg)
    profile_to_csv(profile, out / f"profile_{tag}.csv")
    summary = profile_summary(profile)
    summary["alpha_deg"] = math.degrees(alpha)
    summary["polar_monitors"] = polar_monitors(profile, a).to_json_list()
    _write_json(out / f"profile_{tag}.json", summary, cfg)
    _say(cfg, summary,
         f"a={a:.12g}: s_bar={profile.s_bar:.12g}, xi={profile.xi:.12g}, "
         f"alpha={math.degrees(alpha):.8f} deg "
         f"(files profile_{tag}.csv/.json, series_{tag}.json in {out})")
    return EXIT_OK


def cmd_shoot(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    report = find_lens(*cfg.bracket, cfg.tol_a, cfg.pipeline)
    payload = report.to_dict()
    profile = report.profile
    payload["profile"] = profile_summary(profile)
    _write_json(out / "shoot_report.json", payload, cfg)
    profile_to_csv(profile, out / "profile_lens.csv")
    _say(cfg, payload,
         f"a* = {report.a_star:.12f} "
         f"(|u'(s_bar) - 1/2| = {report.alpha_residual:.3e}, "
         f"alpha = {math.degrees(profile.alpha):.9f} deg, "
         f"report in {out / 'shoot_report.json'})")
    return EXIT_OK


def cmd_table(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    lo, hi, step = cfg.table_range
    values = list(np.arange(lo, hi + 0.5 * step, step))
    report = sample_angle_table(values, cfg.pipeline)
    angle_table_to_csv(report, out / "angle_table.csv")
    _write_json(out / "angle_table.json", report.to_dict(), cfg)
    n_err = sum(1 for r in report.table if r.error is not None)
    _say(cfg, report.to_dict(),
         f"{len(report.table)} rows ({n_err} failed), sign changes on "
         f"{report.sign_change_brackets}; files in {out}")
    return EXIT_OK


def cmd_mesh(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    if cfg.a is not None:
        _, profile = angle_of(cfg.a, cfg.pipeline)
    else:
        profile = find_lens(*cfg.bracket, cfg.tol_a, cfg.pipeline).profile
    mesh = build_cluster(profile, n_theta=cfg.n_theta,
                         annulus_outer=cfg.annulus_outer)
    write_obj(mesh, out / "lens.obj")
    write_metadata(mesh, out / "lens.json", cfg.to_dict())
    _say(cfg, sidecar(mesh),
         f"mesh for a={profile.a:.12g}: {len(mesh.vertices)} vertices, "
         f"{len(mesh.triangles)} triangles -> {out / 'lens.obj'}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    from . import checks  # imported here, so that no other command loads it
    results = checks.run_all(cfg.pipeline, verbose=not cfg.json_output)
    payload = {"results": [{"name": r.name, "pass": r.passed,
                            "detail": r.detail} for r in results]}
    n_fail = sum(1 for r in results if not r.passed)
    _say(cfg, payload, f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_MONITOR


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lensshrinker",
        description="Lens-shaped self-shrinker profiles: solve, shoot, export.")
    sub = ap.add_subparsers(dest="command", required=True)
    defaults = PipelineConfig()

    def common(p):
        p.add_argument("--output-dir", default=None,
                       help="output directory (fallback: $LENS_OUTPUT_DIR, then '.')")
        p.add_argument("--json", action="store_true", dest="json_output",
                       help="machine-readable stdout")
        p.add_argument("--ode-tol", type=float, default=defaults.ode_tol,
                       help="rtol and atol of each profile solve")

    p = sub.add_parser("solve", help="compute one profile")
    common(p)
    p.add_argument("--a", type=float, required=True)

    p = sub.add_parser("shoot", help="locate the 120-degree junction height")
    common(p)
    p.add_argument("--a-lo", type=float, default=DEFAULT_BRACKET[0])
    p.add_argument("--a-hi", type=float, default=DEFAULT_BRACKET[1])
    p.add_argument("--tol-a", type=float, default=DEFAULT_TOL_A)

    p = sub.add_parser("table", help="tabulate the angle map")
    common(p)
    p.add_argument("--from", dest="a_from", type=float, required=True)
    p.add_argument("--to", dest="a_to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--jobs", type=int, default=defaults.jobs,
                   help="processes, the caller included; above 1 the caller "
                        "forks (POSIX only), which pays from about 16 rows "
                        "(2 jobs on a 2-CPU host: 1.34x the time of 1 at 11 "
                        "rows, 0.83x at 21)")

    p = sub.add_parser("mesh", help="export the three-sheet cluster mesh")
    common(p)
    p.add_argument("--a", type=float, default=None,
                   help="profile height (default: shoot for the junction height)")
    p.add_argument("--n-theta", type=int, default=DEFAULT_N_THETA)
    p.add_argument("--annulus-outer", type=float, default=None,
                   help=f"annulus radius, at most {MAX_ANNULUS_OUTER:g} "
                        "(default: 3x the junction radius)")
    p.add_argument("--tol-a", type=float, default=DEFAULT_TOL_A)

    p = sub.add_parser("verify", help="run the acceptance gate")
    common(p)
    return ap


def config_from_args(args) -> RunConfig:
    out_dir = args.output_dir or os.environ.get("LENS_OUTPUT_DIR") or "."
    defaults = PipelineConfig()
    pipeline = PipelineConfig(ode_tol=args.ode_tol,
                              jobs=getattr(args, "jobs", defaults.jobs))
    cfg = RunConfig(command=args.command, output_dir=out_dir,
                    tol_a=getattr(args, "tol_a", DEFAULT_TOL_A),
                    json_output=args.json_output, pipeline=pipeline)
    if args.command in ("solve", "mesh"):
        cfg.a = args.a
    if args.command == "shoot":
        cfg.bracket = (args.a_lo, args.a_hi)
    elif args.command == "table":
        cfg.table_range = (args.a_from, args.a_to, args.step)
    elif args.command == "mesh":
        cfg.n_theta = args.n_theta
        cfg.annulus_outer = args.annulus_outer
    cfg.validate()
    return cfg


COMMANDS = {"solve": cmd_solve, "shoot": cmd_shoot, "table": cmd_table,
            "mesh": cmd_mesh, "verify": cmd_verify}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[cfg.command](cfg)
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
