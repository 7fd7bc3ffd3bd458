#!/usr/bin/env python3
"""Demo 4: shooting over the initial height for the 120-degree junction.

Each height a gives a profile meeting the horizontal axis at some angle
alpha(a): near -0 for shallow caps, exactly -90 degrees for the circle at
a = sqrt(2).  A lens-shaped cluster of three surfaces needs the caps to
meet the plane at 60 degrees (exterior angles of 120 degrees), that is
alpha = -60 degrees, equivalently u'(s_bar) = 1/2.  Brent's method inside
a validated bracket pins the height that does it.
"""

import math
import os

from lensshrinker import find_lens, find_x0, sample_angle_table
from lensshrinker.shooting import angle_table_to_csv

OUT = os.environ.get("LENS_OUTPUT_DIR", "out")
os.makedirs(OUT, exist_ok=True)

print("the angle map a -> alpha(a):")
report = sample_angle_table([0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3,
                             math.sqrt(2.0)])
print(f"  {'a':>8} {'s_bar':>10} {'xi_a':>10} {'alpha':>12}  monitors")
for row in report.table:
    print(f"  {row.a:8.4f} {row.s_bar:10.6f} {row.xi_a:10.6f} "
          f"{math.degrees(row.alpha):+11.4f}d  {'ok' if row.monitor_pass else 'FAIL'}")
print(f"  sign changes of u'(s_bar) - 1/2 inside: {report.sign_change_brackets}")

x0 = find_x0()
print(f"\nas a -> 0 the crossing radius tends to x0 = {x0:.6f} and the angle to 0.")

print("\nBrent's method inside a validated bracket for the junction height:")
lens = find_lens()
p = lens.profile
print(f"  a* = {lens.a_star:.12f}")
print(f"  terminal tangent = ({p.up[-1]:.12f}, {p.vp[-1]:.12f})")
print(f"  target             (0.5, -sqrt(3)/2 = {-math.sqrt(3)/2:.12f})")
print(f"  angle = {math.degrees(p.alpha):.9f} degrees, "
      f"residual |u' - 1/2| = {lens.alpha_residual:.2e}")
print(f"  junction circle radius xi = {p.xi:.9f}, curve length s_bar = {p.s_bar:.9f}")
print(f"  Brent steps: {len(lens.bracket_history) - 1}; each bracket straddles "
      f"the sign change of g = u'(s_bar) - 1/2:")
for lo, hi, g_lo, g_hi in lens.bracket_history:
    print(f"    ({lo:.15f}, {hi:.15f})  width {hi - lo:.1e}  "
          f"g = ({g_lo:+.2e}, {g_hi:+.2e})")

path = os.path.join(OUT, "angle_table_demo.csv")
angle_table_to_csv(report, path)
print(f"\nangle table written to {path}")
