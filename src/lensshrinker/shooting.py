"""Shooting over the initial height a for the 120-degree junction condition.

Each height a in (0, sqrt(2]) yields one profile curve ending on the
horizontal axis with tangent angle alpha(a); the map is continuous, equals
-pi/2 at the circle height sqrt(2) and tends to 0 as a -> 0.  The
lens-shaped cluster needs alpha = -pi/3, equivalently u'(s_bar) = 1/2,
which Brent's method locates inside a validated sign-changing bracket.
Nothing here assumes alpha(a) is monotone: the bracket endpoints are
checked at runtime, and table sampling reports every sign change it sees.
A table takes one path for any jobs; with one process it forks no child.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

from .arclength import DEFAULT_TOL, LensProfile, integrate_profile
from .dop853 import RTOL_FLOOR, brentq
from .errors import BracketFailure, LensError
from .series import R_STAR, picard_analytic

A_CIRCLE = math.sqrt(2.0)
# the smallest height solved: at and above it xi follows the small-height
# law x0 + c2 a^2 to 1e-8, below it the absolute tolerance swamps v ~ a
A_MIN = 2e-4
TARGET_UP = 0.5  # u'(s_bar) at the 120-degree junction

DEFAULT_BRACKET = (0.05, A_CIRCLE)
DEFAULT_TOL_A = 1e-10


@dataclass(frozen=True)
class PipelineConfig:
    """Settings of the single-profile pipeline: ode_tol is the one accuracy
    setting of each solve (DOP853's rtol and atol), jobs the number of
    processes that compute a table, the caller included (jobs > 1 forks,
    so it needs POSIX os.fork; see sample_angle_table).  The series and
    crossing tolerances are constants of their modules."""

    ode_tol: float = DEFAULT_TOL
    jobs: int = 1

    def __post_init__(self):
        if not RTOL_FLOOR <= self.ode_tol < math.inf:
            raise ValueError(f"ode_tol={self.ode_tol} must be finite and at "
                             f"least the floor 100 eps = {RTOL_FLOOR}")
        if not (isinstance(self.jobs, int) and self.jobs >= 1):
            raise ValueError(f"jobs={self.jobs!r} must be an int >= 1")
        if self.jobs > 1 and not hasattr(os, "fork"):
            raise ValueError("jobs > 1 needs os.fork, which this platform lacks")


def junction_residual(alpha: float) -> float:
    """g = u'(s_bar) - 1/2 = cos alpha - 1/2, zero at the junction."""
    return math.cos(alpha) - TARGET_UP


def angle_of(a: float, cfg: PipelineConfig | None = None) -> tuple[float, LensProfile]:
    """Terminal tangent angle and full profile for one initial height.

    Composes the pipeline: the axis series on [0, R_STAR], then one
    angle-form integration that it seeds, out to the crossing.
    Deterministic: identical (a, cfg) inputs give bitwise-identical results.
    An a outside [A_MIN, sqrt(2)] raises ValueError.
    """
    cfg = cfg or PipelineConfig()
    if not A_MIN <= a <= A_CIRCLE:
        raise ValueError(f"a={a} outside the resolved range "
                         f"[A_MIN = {A_MIN:g}, sqrt(2)]")
    profile = integrate_profile(picard_analytic(a, R_STAR), a, tol=cfg.ode_tol)
    return profile.alpha, profile


@dataclass(frozen=True)
class AngleSample:
    """One row of the a -> alpha(a) map."""

    a: float
    s_bar: float
    xi_a: float
    alpha: float
    error: str | None = None

    @property
    def monitor_pass(self) -> bool:
        """True exactly for a solved row: integrate_profile raises
        MonitorViolation when any monitor fails."""
        return self.error is None

    def to_dict(self) -> dict:
        """The row, with a failed row's NaN fields as None (JSON null)."""
        values = {"a": self.a, "s_bar": self.s_bar, "xi_a": self.xi_a,
                  "alpha": self.alpha}
        return {**{k: None if math.isnan(x) else x for k, x in values.items()},
                "error": self.error}


@dataclass(frozen=True)
class AngleTable:
    """Rows of the angle map, sorted by a, and every sub-bracket (lo, hi)
    of successive good rows on which u'(s_bar) - 1/2 changes sign."""

    table: list[AngleSample]
    sign_change_brackets: list[tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "sign_change_brackets": [list(b) for b in self.sign_change_brackets],
            "table": [row.to_dict() for row in self.table],
        }


@dataclass(frozen=True)
class ShootReport:
    """Outcome of a shooting run.

    ``table`` holds the bracket endpoints and a_star; each
    ``bracket_history`` row is (lo, hi, g(lo), g(hi)) with
    g = u'(s_bar) - 1/2, so every row shows its own sign change.
    """

    table: list[AngleSample]
    a_star: float
    alpha_residual: float
    bracket_history: list[tuple[float, float, float, float]]
    profile: LensProfile

    def to_dict(self) -> dict:
        return {
            "a_star": self.a_star,
            "alpha_residual": self.alpha_residual,
            "bracket_history": [list(b) for b in self.bracket_history],
            "table": [row.to_dict() for row in self.table],
        }


def _row(a: float, cfg: PipelineConfig) -> AngleSample:
    try:
        _, profile = angle_of(a, cfg)
    except (LensError, ValueError) as exc:
        return AngleSample(a, math.nan, math.nan, math.nan,
                           f"{type(exc).__name__}: {exc}")
    return _sample_from(profile)


def sample_angle_table(a_values, cfg: PipelineConfig | None = None) -> AngleTable:
    """Tabulate (a, s_bar, xi_a, alpha) rows, recording per-row failures.

    Rows are independent.  For every cfg.jobs the sorted heights split
    into k = max(1, min(jobs, rows)) contiguous chunks: the caller solves
    the first row of its own chunk, then forks k - 1 children with os.fork
    (none for jobs == 1; POSIX only, elsewhere jobs > 1 raises ValueError),
    so each child starts with the compiled stage code, the quadrature rule
    and numpy already loaded.  The rows and their bits are the same for
    every jobs.  A child that raises passes its exception to the caller,
    one that dies raises ChildProcessError, and an exception in the caller
    kills its children; every child is reaped and every pipe closed before
    the call returns or raises.  As with any fork, the caller should run no
    other thread; the package keeps OpenBLAS to one.  On short tables the
    fork costs more than the child saves (README, ``table --jobs``).  The
    table also lists
    every sub-bracket on which u'(s_bar) - 1/2 changes sign, since the
    angle map is not known to be monotone.
    """
    cfg = cfg or PipelineConfig()
    a_values = sorted(float(a) for a in a_values)
    k = max(1, min(cfg.jobs, len(a_values)))
    cuts = [len(a_values) * i // k for i in range(k + 1)]
    own, *chunks = [a_values[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    # solved before the fork, so that every child inherits a warm process
    rows = [_row(a, cfg) for a in own[:1]]
    pending = []  # (pid, pipe, chunk) of every child not yet reaped
    try:
        for chunk in chunks:
            pending.append(_fork_chunk(chunk, cfg))
        rows += [_row(a, cfg) for a in own[1:]]
        while pending:
            pid, pipe, chunk = pending[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del pending[0]
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(
                    f"the process solving a = {chunk} ended by {how}")
            ok, value = pickle.loads(data)
            if not ok:
                value.add_note(f"raised while solving a = {chunk}")
                raise value
            rows += value
    finally:
        if pending:  # imported here, so that no command pays ~1 ms for it
            from signal import SIGKILL
        for pid, pipe, _ in pending:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    g = [(r.a, junction_residual(r.alpha)) for r in rows if r.error is None]
    brackets = [(lo, hi) for (lo, g_lo), (hi, g_hi) in zip(g[:-1], g[1:])
                if g_lo == 0.0 or g_lo * g_hi < 0.0]
    return AngleTable(rows, brackets)


def _fork_chunk(chunk: list, cfg: PipelineConfig):
    """Fork a child that pickles (True, its rows) or (False, the exception)
    into a pipe and leaves by os._exit, so that it never flushes the stdio
    buffers it inherited or returns into the caller's frames."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                result = True, [_row(a, cfg) for a in chunk]
            except Exception as exc:
                result = False, exc
            with open(w, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb"), chunk


def find_lens(a_lo: float = DEFAULT_BRACKET[0], a_hi: float = DEFAULT_BRACKET[1],
              tol_a: float = DEFAULT_TOL_A,
              cfg: PipelineConfig | None = None) -> ShootReport:
    """Solve u'(s_bar) = 1/2 by Brent's method inside a validated bracket.

    The endpoints must satisfy alpha(a_lo) > -pi/3 > alpha(a_hi).
    dop853.brentq shrinks the bracket until it is narrower than tol_a + 4
    eps a; tol_a must lie in (0, a_hi - a_lo), and it is only set here,
    since cfg holds the tolerances of each solve.  Each height Brent solves
    lies inside the last bracket, so the sign of its g = u'(s_bar) - 1/2
    gives the next one.  The report carries every bracket with its g values
    (each straddles the sign change), the endpoint of the last bracket with
    the smaller |g| as a_star, its profile and that residual; no height,
    a_star included, is solved twice.
    """
    cfg = cfg or PipelineConfig()
    if not 0.0 < a_lo < a_hi <= A_CIRCLE:
        raise BracketFailure(f"invalid bracket ({a_lo}, {a_hi})")
    if not 0.0 < tol_a < a_hi - a_lo:
        raise ValueError(f"tol_a={tol_a} must be positive and below the "
                         f"bracket width {a_hi - a_lo}")

    solved = {a: angle_of(a, cfg)[1] for a in (a_lo, a_hi)}
    g_lo, g_hi = (junction_residual(solved[a].alpha) for a in (a_lo, a_hi))
    if not (g_lo > 0.0 > g_hi):
        raise BracketFailure(
            f"bracket endpoints do not straddle the junction condition: "
            f"g({a_lo})={g_lo:.6g}, g({a_hi})={g_hi:.6g}")
    history = [(a_lo, a_hi, g_lo, g_hi)]

    def g(a: float) -> float:
        if a not in solved:
            lo, hi, g_lo, g_hi = history[-1]
            try:
                solved[a] = angle_of(a, cfg)[1]
            except LensError as exc:
                raise type(exc)(f"at a={a!r} inside the bracket "
                                f"({lo!r}, {hi!r}): {exc}") from exc
            g_a = junction_residual(solved[a].alpha)
            history.append((a, hi, g_a, g_hi) if g_a > 0.0
                           else (lo, a, g_lo, g_a))
        return junction_residual(solved[a].alpha)

    profile = solved[brentq(g, a_lo, a_hi, xtol=tol_a)]
    table = sorted((_sample_from(solved[a]) for a in (a_lo, a_hi, profile.a)),
                   key=lambda row: row.a)
    return ShootReport(table, profile.a, abs(junction_residual(profile.alpha)),
                       history, profile)


def _sample_from(profile: LensProfile) -> AngleSample:
    return AngleSample(profile.a, profile.s_bar, profile.xi, profile.alpha)


def angle_table_to_csv(report: AngleTable, path) -> None:
    """Write a, s_bar, xi_a, alpha_deg, pass rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,s_bar,xi_a,alpha_deg,pass\n")
        for row in report.table:
            fh.write(f"{row.a:.17g},{row.s_bar:.17g},{row.xi_a:.17g},"
                     f"{math.degrees(row.alpha):.17g},{row.monitor_pass}\n")
