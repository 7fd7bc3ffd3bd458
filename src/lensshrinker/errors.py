"""Exception types raised by the profile-construction pipeline."""


class LensError(Exception):
    """Base class for all pipeline errors."""


class NoContraction(LensError):
    """No certified (R, L) ball exists for the requested (a, r)."""


class NoConvergence(LensError):
    """A root finder, the grid iteration or the series recursion ran out of
    its budget, or a fixed point left its certified ball."""


class CertificateFailure(LensError):
    """A precondition certificate does not hold for the given constants."""


class BracketFailure(LensError):
    """A root-finding bracket does not enclose a sign change."""


class MonitorViolation(LensError):
    """A proved inequality failed beyond tolerance along a computed solution.

    This signals integrator misconfiguration (or a bug), never expected
    behaviour of a correctly computed profile.
    """


class StepFailure(LensError):
    """The ODE integrator failed to complete a step."""


class NoCrossing(LensError):
    """The curve failed to reach the horizontal axis before the arclength cap."""


class DegenerateProfile(LensError):
    """A profile is unusable for mesh construction."""
