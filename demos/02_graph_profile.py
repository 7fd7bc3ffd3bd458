#!/usr/bin/env python3
"""Demo 2: the graph region y = f(x) of the profile.

Near the axis the profile is a graph over the horizontal axis.  The curve
is integrated once, in angle form, from the series seed to its crossing of
the horizontal axis; on the strip 0 < x < 1 its states read as a graph
with x = u, f = v and f' = tan phi.  Every inequality known to hold for the
true solution is monitored on those states: the height stays between
a sqrt(1-x^2) and a, the slope is negative but above -a x/(1-x^2), the
profile is concave, and f / sqrt(1-x^2) increases.
"""

import math
import os

import numpy as np

from lensshrinker import angle_of, graph_view
from lensshrinker.graph_profile import trajectory_to_csv

OUT = os.environ.get("LENS_OUTPUT_DIR", "out")
os.makedirs(OUT, exist_ok=True)

for a in (0.1, 1.0, math.sqrt(2.0)):
    _, p = angle_of(a)
    x, f, fp, _ = graph_view(p)
    f1 = np.interp(1.0, p.u, p.v)
    print(f"a = {a:.4f}: {len(p.s)} profile states, {len(x)} of them with "
          f"0 < x < 1; u passes 1 at s = {p.s_star:.6f}")
    print(f"  f(1) ~ {f1:.6f} in (0, a); f' at the last graph state = {fp[-1]:.6f}")
    print("  worst monitor slacks:")
    for name, slack in sorted(p.monitors.items()):
        if name.startswith("graph_"):
            print(f"    {name[len('graph_'):]:<18} {slack:+.3e}")

# the exact circle is reproduced pointwise
_, p = angle_of(math.sqrt(2.0))
x, f, _, _ = graph_view(p)
dev = np.max(np.abs(f - np.sqrt(2.0 - x * x)))
print(f"\ncircle check: max |f - sqrt(2-x^2)| on the {len(x)} graph states "
      f"in [{x[0]:.3f}, {x[-1]:.3f}] = {dev:.3e}")

path = os.path.join(OUT, "graph_demo.csv")
trajectory_to_csv(p, path)
print(f"graph view with per-state slacks written to {path}")
