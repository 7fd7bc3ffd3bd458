"""The default mesh against the paper's equations: how far its upper cap
lies from the exact surface of revolution, how far its three sheets miss
the 120-degree junction, and how far its cap misses H = <x, nu>.

The measures read the mesh's vertices and triangles, and the profile's
dense output for the distance only; they share no code with
resample_profile or build_cluster beyond the vertex layout (the pole, the
upper rings ending at the junction ring, the lower mirror of all but the
junction ring, then the annulus rings).

- d: the largest distance from a point of an upper-cap triangle (a
  barycentric lattice of 28 points per triangle, its corners, edge
  midpoints and centroid among them) to the revolved profile, measured
  in the meridian half-plane against a fine polyline of the dense
  output.
- The junction: at each junction vertex, each sheet's unit conormal from
  a one-sided 3-point difference along that sheet's meridian on
  chord-length parameters; the largest deviation of the three pairwise
  angles from 120 degrees, and the largest |sum of the three conormals|.
- r: the largest |H - <x, nu>| over the interior upper-cap vertices (the
  pole and the junction ring left out), with H = -<K, nu>, K the
  cotangent Laplacian of the position over barycentric areas (Pinkall &
  Polthier, Exp. Math. 2 (1993); Meyer, Desbrun, Schroeder & Barr,
  VisMath 2003) and nu the area-weighted outward vertex normal.  So H is
  the sum of the principal curvatures, sqrt(2) on the sphere of radius
  sqrt(2).  The cotangent formula converges pointwise on these
  structured ring meshes; it need not on irregular meshes (Hildebrandt,
  Polthier & Wardetzky, Geom. Dedicata 123 (2006)).
"""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.spatial import cKDTree

from lensshrinker import angle_of, build_cluster
from lensshrinker.cluster import SHEET_UPPER, _circle

SQRT2 = math.sqrt(2.0)
# segments of the polyline that stands in for the profile in d: its own
# chord error, max|kappa| (s_bar / POLYLINE)^2 / 8, is below 1e-9
POLYLINE = 1 << 15
LATTICE = 6  # barycentric lattice order of d's sample points


class MeshErrors(NamedTuple):
    d: float                # max distance of the upper cap from the surface
    junction_deg: float     # max |pairwise conormal angle - 120| in degrees
    conormal_sum: float     # max |sum of the three unit conormals|
    r: float                # max |H - <x, nu>| at interior upper-cap vertices


def _layout(mesh):
    """(n_theta, the upper cap's vertex count, which is the lower cap's id
    offset, and the annulus' first id) of build_cluster's layout."""
    n_theta, n_s = mesh.metadata["n_theta"], mesh.metadata["n_s"]
    n_upper = 1 + (n_s - 1) * n_theta
    junction_start = n_upper - n_theta
    assert np.array_equal(mesh.junction,
                          np.arange(junction_start, n_upper))
    return n_theta, n_upper, n_upper + junction_start


def surface_distance(mesh, profile) -> float:
    """d: the largest distance from the upper cap's triangles to the
    surface of revolution of the profile."""
    s = np.linspace(0.0, profile.s_bar, POLYLINE + 1)
    curve = np.column_stack(profile.dense(s)[:2])
    tri = mesh.vertices[mesh.triangles[mesh.sheet_id == SHEET_UPPER]]
    weights = np.array([(i, j, LATTICE - i - j)
                        for i in range(LATTICE + 1)
                        for j in range(LATTICE + 1 - i)]) / LATTICE
    points = np.einsum("pc,tcx->tpx", weights, tri).reshape(-1, 3)
    # the nearest surface point lies in the point's meridian half-plane
    meridian = np.column_stack([np.hypot(points[:, 0], points[:, 1]),
                                points[:, 2]])
    _, near = cKDTree(curve).query(meridian)
    best = np.full(len(meridian), np.inf)
    # the nearest point of the two polyline segments at the nearest node
    for lo in (np.maximum(near - 1, 0), np.minimum(near, POLYLINE - 1)):
        a, b = curve[lo], curve[lo + 1]
        ab = b - a
        t = np.clip(np.einsum("ij,ij->i", meridian - a, ab)
                    / np.einsum("ij,ij->i", ab, ab), 0.0, 1.0)
        foot = a + t[:, None] * ab
        best = np.minimum(best, np.hypot(*(meridian - foot).T))
    return float(best.max())


def _one_sided(p0, p1, p2):
    """Unit tangents at p0, pointing to p1, of the curves through the
    rows of p0, p1, p2: a 3-point one-sided difference on chord-length
    parameters 0, h1, h1 + h2."""
    h1 = np.linalg.norm(p1 - p0, axis=1)[:, None]
    h2 = np.linalg.norm(p2 - p1, axis=1)[:, None]
    tangent = (-(2.0 * h1 + h2) / (h1 * (h1 + h2)) * p0
               + (h1 + h2) / (h1 * h2) * p1
               - h1 / (h2 * (h1 + h2)) * p2)
    return tangent / np.linalg.norm(tangent, axis=1)[:, None]


def junction_errors(mesh) -> tuple[float, float]:
    """The largest deviation from 120 degrees of the pairwise angles of
    the three sheets' conormals at the junction vertices, in degrees,
    and the largest |sum of the three|."""
    v = mesh.vertices
    n_theta, n_upper, annulus = _layout(mesh)
    ring = mesh.junction
    conormals = [
        _one_sided(v[ring], v[ring - n_theta], v[ring - 2 * n_theta]),
        _one_sided(v[ring], v[ring - n_theta + n_upper],
                   v[ring - 2 * n_theta + n_upper]),
        _one_sided(v[ring], v[annulus + np.arange(n_theta)],
                   v[annulus + n_theta + np.arange(n_theta)])]
    worst = 0.0
    for i, j in ((0, 1), (1, 2), (2, 0)):
        cos = np.clip(np.einsum("ij,ij->i", conormals[i], conormals[j]),
                      -1.0, 1.0)
        worst = max(worst, float(np.max(np.abs(np.degrees(np.arccos(cos))
                                                - 120.0))))
    return worst, float(np.max(np.linalg.norm(sum(conormals), axis=1)))


def shrinker_terms(mesh) -> tuple[np.ndarray, np.ndarray]:
    """H and <x, nu> at the interior upper-cap vertices, the pole and the
    junction ring left out, in vertex order."""
    v = mesh.vertices
    tri = mesh.triangles[mesh.sheet_id == SHEET_UPPER]
    n_theta, n_upper, _ = _layout(mesh)
    p = v[tri]                                        # (m, 3 corners, 3)
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    double_area = np.linalg.norm(cross, axis=1)
    laplacian = np.zeros((n_upper, 3))
    normal = np.zeros((n_upper, 3))
    area = np.zeros(n_upper)
    for c in range(3):
        i, j, k = tri[:, c], tri[:, (c + 1) % 3], tri[:, (c + 2) % 3]
        # the cotangent at corner i weighs the opposite edge j k
        cot = np.einsum("ij,ij->i", v[j] - v[i], v[k] - v[i]) / double_area
        np.add.at(laplacian, j, cot[:, None] * (v[k] - v[j]))
        np.add.at(laplacian, k, cot[:, None] * (v[j] - v[k]))
        np.add.at(normal, i, cross)
        np.add.at(area, i, double_area / 6.0)
    inner = np.arange(1, n_upper - n_theta)
    k_vec = laplacian[inner] / (2.0 * area[inner, None])
    nu = normal[inner] / np.linalg.norm(normal[inner], axis=1)[:, None]
    return (-np.einsum("ij,ij->i", k_vec, nu),
            np.einsum("ij,ij->i", v[inner], nu))


def mesh_errors(mesh, profile) -> MeshErrors:
    h, support = shrinker_terms(mesh)
    return MeshErrors(surface_distance(mesh, profile), *junction_errors(mesh),
                      float(np.max(np.abs(h - support))))


def uniform_mesh(mesh, profile):
    """The mesh with its cap rings moved to arclength-uniform samples of
    the profile, as the meridian rule of commit 0e0c68b placed them."""
    n_theta, n_upper, annulus = _layout(mesh)
    n_s = mesh.metadata["n_s"]
    u, v = profile.dense(np.linspace(0.0, profile.s_bar, n_s))[:2]
    v[-1] = 0.0
    cos_p, sin_p = _circle(n_theta)
    rings = np.stack([u[1:, None] * cos_p, u[1:, None] * sin_p,
                      np.broadcast_to(v[1:, None], (n_s - 1, n_theta))],
                     axis=-1).reshape(-1, 3)
    vertices = mesh.vertices.copy()
    vertices[1:n_upper] = rings
    vertices[n_upper:annulus] = vertices[:n_upper - n_theta] * [1.0, 1.0, -1.0]
    return dataclasses.replace(mesh, vertices=vertices)


# mesh_errors of the 64 x 256 arclength-uniform default mesh of commit
# 0e0c68b, at each height: (d, junction_deg, conormal_sum, r).  The
# junction angle is the paper's only at a*
PARENT = {
    0.05: (1.538e-4, None, None, 3.025e-4),
    0.3: (8.774e-4, None, None, 1.246e-3),
    "a*": (1.727e-3, 1.369e-3, 2.070e-5, 1.898e-3),
    1.0: (1.822e-3, None, None, 2.415e-3),
    SQRT2: (1.710e-3, None, None, 3.416e-3),
}


@pytest.fixture(scope="module")
def default_errors(profiles, lens_report):
    out = {}
    for a in PARENT:
        profile = (lens_report.profile if a == "a*" else
                   profiles[a][1] if a in profiles else angle_of(a)[1])
        out[a] = mesh_errors(build_cluster(profile), profile)
    return out


def over_bounds(errors: MeshErrors, bounds) -> list:
    """The names of the measures above their bound (None: no bound)."""
    return [name for name, value, bound in zip(MeshErrors._fields, errors,
                                               bounds)
            if bound is not None and not value <= bound]


@pytest.mark.parametrize("a", list(PARENT), ids=str)
def test_default_mesh_errors_are_no_larger_than_the_parents(default_errors,
                                                             a):
    assert over_bounds(default_errors[a], PARENT[a]) == [], default_errors[a]


def test_the_default_mesh_is_80_by_48(lens_report):
    mesh = build_cluster(lens_report.profile)
    assert (len(mesh.vertices), len(mesh.triangles)) == (9362, 18720)


def test_the_sphere_residual_reads_h_equal_sqrt2(profiles):
    # at a = sqrt(2) the cap is the sphere of radius sqrt(2): H is the sum
    # of the principal curvatures, 2 / sqrt(2), and <x, nu> the radius
    h, support = shrinker_terms(build_cluster(profiles[SQRT2][1]))
    assert np.max(np.abs(support - SQRT2)) < 1e-4
    assert np.max(np.abs(h - SQRT2)) < 5e-3


def test_the_junction_bounds_fail_off_the_lens_height():
    # the negative control: a = 0.78 lies 6e-3 below a*, and its sheets
    # meet 0.77 degrees off 120
    profile = angle_of(0.78)[1]
    errors = mesh_errors(build_cluster(profile), profile)
    assert errors.junction_deg > 0.5
    assert over_bounds(errors, PARENT["a*"]) == ["junction_deg",
                                                 "conormal_sum"]


def test_the_junction_bounds_fail_on_the_uniform_meridian(lens_report):
    # the negative control: the default sizes with the arclength-uniform
    # meridian of commit 0e0c68b miss 120 degrees by ~4e-2; the grading
    # toward the junction is what meets the bounds
    profile = lens_report.profile
    errors = mesh_errors(uniform_mesh(build_cluster(profile), profile),
                         profile)
    assert errors.junction_deg > 1e-2
    assert {"junction_deg", "conormal_sum"} <= set(
        over_bounds(errors, PARENT["a*"]))
