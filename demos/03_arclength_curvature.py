#!/usr/bin/env python3
"""Demo 3: following the curve to the horizontal axis, three curvatures at once.

The curve is integrated in arclength, in angle form (u', v') =
(cos phi, sin phi), from the series seed down to its crossing of the
horizontal axis, so it stays unit speed by construction.  The curvature is
computed three independent ways -- algebraically from the shrinker
identity, by variation of constants, and from an integral identity that
encodes the axis-orthogonal start -- and the three must agree to
integrator accuracy.  The ODE defect |y'(s) - F(y(s))| of the dense output
between the integrator's steps shows whether the stored curve solves the
angle-form equation at all.
Polar-coordinate bounds pin the curve inside an annulus and force the
polar angle to decrease strictly, which is why it can never self-intersect.
"""

import math

import numpy as np

from lensshrinker import angle_of
from lensshrinker.arclength import (POLAR_MONITORS, curvature_arrays,
                                    shrinker_residual)

for a in (0.5, 1.0, math.sqrt(2.0)):
    alpha, p = angle_of(a)
    k_alg, k_var, k_int = curvature_arrays(p)
    print(f"a = {a:.4f}")
    print(f"  s_bar = {p.s_bar:.8f}, s_star = {p.s_star:.8f}, "
          f"crossing radius xi = {p.xi:.8f}")
    print(f"  terminal angle = {math.degrees(alpha):+.6f} deg")
    print(f"  curvature at the axis -> {k_alg[0]:+.8f}  (limit -a/2 = {-a/2:+.8f})")
    print(f"  max |k_alg - k_var| = {np.max(np.abs(k_alg - k_var)):.2e}, "
          f"max |k_alg - k_int| = {np.max(np.abs(k_alg - k_int)):.2e}")
    print(f"  max ODE defect of the dense output = "
          f"{np.max(shrinker_residual(p)):.2e}, "
          f"unit-speed drift = {np.max(np.abs(p.up**2 + p.vp**2 - 1)):.2e}")
    name = min(POLAR_MONITORS, key=p.monitors.get)
    print(f"  polar monitors: worst slack = {p.monitors[name]:+.2e} ({name})")

print("\nthe a = sqrt(2) profile is the quarter circle of radius sqrt(2):")
_, p = angle_of(math.sqrt(2.0))
dev = np.max(np.hypot(p.u - math.sqrt(2) * np.sin(p.s / math.sqrt(2)),
                      p.v - math.sqrt(2) * np.cos(p.s / math.sqrt(2))))
print(f"  max pointwise deviation = {dev:.3e}; "
      f"s_bar - pi/sqrt2 = {p.s_bar - math.pi / math.sqrt(2):+.3e}")
