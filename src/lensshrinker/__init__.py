"""Rotationally symmetric lens-shaped self-shrinker for mean curvature flow.

The package constructs the profile curve of a three-sheet cluster (two
mirror-image caps and a planar sheet meeting a shared circle at 120-degree
angles) that shrinks homothetically under mean curvature flow:

* :mod:`lensshrinker.series` solves the degenerate profile equation at the
  rotation axis with certified even-power-series fixed points, plus an
  independent grid-based construction used as a cross-validation oracle;
* :mod:`lensshrinker.arclength` integrates the curve once, in angle form,
  from the series seed down to the horizontal axis, with three independent
  curvature formulas and polar bounds certifying non-self-intersection;
* :mod:`lensshrinker.graph_profile` seeds that curve from the series and
  reads the region where it is a graph y = f(x) off its states, monitoring
  every proved inequality there;
* :mod:`lensshrinker.shooting` locates the initial height whose profile
  meets the axis at 60 degrees (the junction condition);
* :mod:`lensshrinker.cluster` revolves the profile into a watertight
  three-sheet mesh and exports it.
"""

from .arclength import LensProfile, integrate_profile, polar_monitors
from .cluster import ClusterMesh, build_cluster, write_obj
from .errors import (BracketFailure, CertificateFailure, DegenerateProfile,
                     LensError, MonitorViolation, NoContraction,
                     NoConvergence, NoCrossing, StepFailure)
from .graph_profile import (ProfileSample, graph_view, seed_from_series,
                            transversality_monitor)
from .series import (ContractionConstants, EvenSeries, apply_L,
                     contraction_certificate, eta_coefficients, find_x0,
                     invert_L, j_function, nonlinear_Q, picard_analytic,
                     picard_c2_oracle, weighted_norm)
from .shooting import (PipelineConfig, ShootReport, angle_of, find_lens,
                       sample_angle_table)

__version__ = "0.1.0"

__all__ = [
    "BracketFailure", "CertificateFailure", "ClusterMesh",
    "ContractionConstants", "DegenerateProfile", "EvenSeries", "LensError",
    "LensProfile", "MonitorViolation", "NoContraction", "NoConvergence",
    "NoCrossing", "PipelineConfig", "ProfileSample", "ShootReport",
    "StepFailure", "angle_of", "apply_L", "build_cluster",
    "contraction_certificate", "eta_coefficients", "find_lens", "find_x0",
    "graph_view", "integrate_profile", "invert_L", "j_function",
    "nonlinear_Q", "picard_analytic", "picard_c2_oracle", "polar_monitors",
    "sample_angle_table", "seed_from_series", "transversality_monitor",
    "weighted_norm",
]
