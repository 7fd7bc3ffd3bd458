"""Rotationally symmetric lens-shaped self-shrinker for mean curvature flow.

The package constructs the profile curve of a three-sheet cluster (two
mirror-image caps and a planar sheet meeting a shared circle at 120-degree
angles) that shrinks homothetically under mean curvature flow:

* :mod:`lensshrinker.series` solves the degenerate profile equation at the
  rotation axis with certified even-power-series fixed points, plus an
  independent grid-based construction used as a cross-validation oracle;
* :mod:`lensshrinker.arclength` seeds the curve from the series and
  integrates it once, in angle form, down to the horizontal axis, with
  three independent curvature formulas and one table of pointwise slacks
  of the monitored inequalities, whose strictly decreasing polar angle
  certifies non-self-intersection;
* :mod:`lensshrinker.graph_profile` reads the region where the curve is a
  graph y = f(x) off its states, with the slacks of its inequalities;
* :mod:`lensshrinker.shooting` locates the initial height whose profile
  meets the axis at 60 degrees (the junction condition);
* :mod:`lensshrinker.cluster` revolves the profile into a watertight
  three-sheet mesh and exports it.
"""

import os

# The one BLAS call left (the C2 oracle's matmul in the series) is too
# small to gain from threads, and starting OpenBLAS's pool costs import time:
# a fresh numpy import took a median 241 ms unset and 171 ms at 1 on a 2-CPU
# host.  Set before the first numpy import, which the profile path never
# makes; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arclength import LensProfile, integrate_profile, polar_monitors
from .errors import (BracketFailure, CertificateFailure, DegenerateProfile,
                     LensError, MonitorViolation, NoContraction,
                     NoConvergence, NoCrossing, StepFailure)
from .graph_profile import graph_view
from .series import (ContractionConstants, EvenSeries, apply_L,
                     contraction_certificate, eta_coefficients, find_x0,
                     invert_L, j_function, nonlinear_Q, picard_analytic,
                     picard_c2_oracle, weighted_norm)
from .shooting import (AngleTable, PipelineConfig, ShootReport, angle_of,
                       find_lens, sample_angle_table)

# the mesh needs numpy, which the profile path never imports: its names
# load lensshrinker.cluster on first use (PEP 562)
_CLUSTER = ("ClusterMesh", "build_cluster", "write_obj")


def __getattr__(name):
    if name in _CLUSTER:
        from . import cluster
        return getattr(cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AngleTable", "BracketFailure", "CertificateFailure", "ClusterMesh",
    "ContractionConstants", "DegenerateProfile", "EvenSeries", "LensError",
    "LensProfile", "MonitorViolation", "NoContraction", "NoConvergence",
    "NoCrossing", "PipelineConfig", "ShootReport",
    "StepFailure", "angle_of", "apply_L", "build_cluster",
    "contraction_certificate", "eta_coefficients", "find_lens", "find_x0",
    "graph_view", "integrate_profile", "invert_L", "j_function",
    "nonlinear_Q", "picard_analytic", "picard_c2_oracle", "polar_monitors",
    "sample_angle_table", "weighted_norm",
]
