#!/usr/bin/env python3
"""Demo 5: assembling and exporting the three-sheet lens cluster.

The junction-height profile is revolved about the vertical axis into the
upper cap, reflected through the horizontal plane into the lower cap, and
joined to a flat annulus standing in for the unbounded planar sheet.  All
three sheets share the junction circle exactly; the result is written as a
Wavefront OBJ with one group per sheet plus a JSON sidecar.
"""

import math
import os

import numpy as np

from lensshrinker import angle_of, build_cluster, find_lens
from lensshrinker.arclength import shrinker_residual
from lensshrinker.cluster import (SHEET_NAMES, mesh_checks, write_metadata,
                                  write_obj)

OUT = os.environ.get("LENS_OUTPUT_DIR", "out")
os.makedirs(OUT, exist_ok=True)

lens = find_lens()
p = lens.profile
print(f"junction height a* = {lens.a_star:.12f}, junction radius {p.xi:.6f}")
print(f"max ODE defect of the profile's dense output: "
      f"{np.max(shrinker_residual(p)):.2e}")

mesh = build_cluster(p, n_theta=96)
print(f"\nmesh: {len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles")
for sheet, name in enumerate(SHEET_NAMES):
    print(f"  {name:<15} {int(np.sum(mesh.sheet_id == sheet))} triangles")
for name, ok, detail in mesh_checks(mesh):
    print(f"  check {name:<24} {'ok' if ok else 'FAIL'}  ({detail})")

# the caps meet the plane at 60 degrees: exterior angles of 120 degrees
ring = mesh.vertices[mesh.junction]
prev = mesh.vertices[mesh.junction - len(mesh.junction)]
rise = prev[:, 2] - ring[:, 2]
run = np.hypot(ring[:, 0], ring[:, 1]) - np.hypot(prev[:, 0], prev[:, 1])
print(f"\ncap tangent angle at the junction: "
      f"{np.degrees(np.arctan2(rise, run)).mean():.3f} degrees (target 60)")

obj_path = os.path.join(OUT, "lens_demo.obj")
write_obj(mesh, obj_path)
write_metadata(mesh, os.path.join(OUT, "lens_demo.json"))
print(f"written {obj_path} and sidecar lens_demo.json")

print("\nsanity: revolving the a = sqrt(2) profile instead gives a round "
      "sphere --")
_, circle = angle_of(math.sqrt(2.0))
sphere = build_cluster(circle, n_theta=48)
caps = np.unique(sphere.triangles[sphere.sheet_id != 2])
radii = np.linalg.norm(sphere.vertices[caps], axis=1)
print(f"  cap vertex radii = sqrt(2) {np.max(np.abs(radii - math.sqrt(2))):.2e}")
