import dataclasses
import json
import math

import numpy as np
import pytest

from lensshrinker import build_cluster
from lensshrinker.arclength import curvature_arrays, shrinker_residual
from lensshrinker.cluster import (SHEET_ANNULUS, SHEET_LOWER, SHEET_UPPER,
                                  mesh_checks, resample_profile, write_metadata,
                                  write_obj)
from lensshrinker.errors import DegenerateProfile

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def sphere_mesh(circle_profile):
    return build_cluster(circle_profile, n_theta=32, n_s=128, n_r=8)


def test_degenerate_case_is_a_round_sphere(sphere_mesh):
    caps = np.unique(sphere_mesh.triangles[sphere_mesh.sheet_id != SHEET_ANNULUS])
    radii = np.linalg.norm(sphere_mesh.vertices[caps], axis=1)
    assert np.max(np.abs(radii - SQRT2)) < 1e-6
    assert sphere_mesh.junction_radius == pytest.approx(SQRT2, abs=1e-8)


def test_axis_maps_to_single_pole_vertex(sphere_mesh):
    verts = sphere_mesh.vertices
    on_axis = np.flatnonzero(np.hypot(verts[:, 0], verts[:, 1]) < 1e-14)
    assert len(on_axis) == 2  # one pole per cap, no seam duplicates
    z = np.sort(verts[on_axis, 2])
    assert z[0] == -z[1]
    assert z[1] == pytest.approx(SQRT2, abs=1e-9)


def test_reflection_symmetry_exact(sphere_mesh):
    checks = dict((name, ok) for name, ok, _ in mesh_checks(sphere_mesh))
    assert checks["reflection_symmetry"]
    lower_ids = np.unique(sphere_mesh.sheet_triangles(SHEET_LOWER))
    upper_ids = np.unique(sphere_mesh.sheet_triangles(SHEET_UPPER))
    mirrored = sphere_mesh.vertices[upper_ids] * np.array([1.0, 1.0, -1.0])
    assert np.array_equal(np.sort(mirrored, axis=0),
                          np.sort(sphere_mesh.vertices[lower_ids], axis=0))


def test_junction_shared_by_three_sheets(sphere_mesh):
    for vid in sphere_mesh.junction:
        sheets = set(sphere_mesh.sheet_id[np.any(sphere_mesh.triangles == vid,
                                                 axis=1)].tolist())
        assert sheets == {SHEET_UPPER, SHEET_LOWER, SHEET_ANNULUS}
    # and the junction circle sits exactly in the plane
    assert np.all(sphere_mesh.vertices[sphere_mesh.junction, 2] == 0.0)


def test_mesh_quality_and_orientation(sphere_mesh):
    checks = dict((name, ok) for name, ok, _ in mesh_checks(sphere_mesh))
    assert checks["no_degenerate_triangles"]
    assert checks["orientation_consistent"]
    assert checks["junction_coherence"]


def _drop_interior_cap_triangle(mesh):
    keep = np.ones(len(mesh.triangles), dtype=bool)
    keep[mesh.metadata["n_theta"] + 5] = False  # a band triangle of the upper cap
    return dataclasses.replace(mesh, triangles=mesh.triangles[keep],
                               sheet_id=mesh.sheet_id[keep])


def _duplicate_annulus_triangle(mesh):
    return dataclasses.replace(mesh,
                               triangles=np.vstack([mesh.triangles,
                                                    mesh.triangles[-1:]]),
                               sheet_id=np.append(mesh.sheet_id, SHEET_ANNULUS))


def _nudge_lower_cap_vertex(mesh):
    lower_only = np.setdiff1d(mesh.sheet_triangles(SHEET_LOWER), mesh.junction)
    vertices = mesh.vertices.copy()
    vertices[lower_only[len(lower_only) // 2], 2] += 1e-9
    return dataclasses.replace(mesh, vertices=vertices)


def _flip_lower_cap_winding(mesh):
    triangles = mesh.triangles.copy()
    t = np.flatnonzero(mesh.sheet_id == SHEET_LOWER)[7]
    triangles[t, [1, 2]] = triangles[t, [2, 1]]
    return dataclasses.replace(mesh, triangles=triangles)


def _collapse_triangle(mesh):
    triangles = mesh.triangles.copy()
    triangles[3, 2] = triangles[3, 1]
    return dataclasses.replace(mesh, triangles=triangles)


@pytest.mark.parametrize("corrupt, check", [
    (_drop_interior_cap_triangle, "junction_coherence"),
    (_duplicate_annulus_triangle, "junction_coherence"),
    (_nudge_lower_cap_vertex, "reflection_symmetry"),
    (_flip_lower_cap_winding, "orientation_consistent"),
    (_collapse_triangle, "no_degenerate_triangles"),
])
def test_mesh_checks_negative_controls(sphere_mesh, corrupt, check):
    checks = dict((name, ok) for name, ok, _ in mesh_checks(corrupt(sphere_mesh)))
    assert list(checks) == ["reflection_symmetry", "junction_coherence",
                            "no_degenerate_triangles", "orientation_consistent"]
    assert not checks[check]


def test_junction_angle_at_lens_height(lens_report):
    mesh = build_cluster(lens_report.profile, n_theta=32, n_s=128, n_r=8)
    # cap tangent at the junction makes 60 degrees with the plane
    ring = mesh.vertices[mesh.junction]
    prev_ring_start = mesh.junction[0] - 32
    prev = mesh.vertices[prev_ring_start:prev_ring_start + 32]
    rise = prev[:, 2] - ring[:, 2]
    run = (np.hypot(ring[:, 0], ring[:, 1])
           - np.hypot(prev[:, 0], prev[:, 1]))
    angles = np.degrees(np.arctan2(rise, run))
    assert np.allclose(angles, 60.0, atol=0.5)


def test_annulus_truncation_recorded(sphere_mesh):
    meta = sphere_mesh.metadata
    assert meta["annulus_outer"] == pytest.approx(3.0 * meta["xi"], rel=1e-12)
    outer_ids = np.unique(sphere_mesh.sheet_triangles(SHEET_ANNULUS))
    r = np.hypot(*sphere_mesh.vertices[outer_ids, :2].T)
    assert np.max(r) == pytest.approx(meta["annulus_outer"], rel=1e-12)


def test_build_cluster_argument_validation(circle_profile):
    with pytest.raises(ValueError):
        build_cluster(circle_profile, n_theta=8)
    with pytest.raises(ValueError):
        build_cluster(circle_profile, annulus_outer=0.5)


def test_resample_is_arclength_uniform(circle_profile):
    u, v = resample_profile(circle_profile, 64)
    assert u[0] == 0.0 and v[-1] == 0.0
    assert v[0] == pytest.approx(SQRT2, abs=1e-12)
    seg = np.hypot(np.diff(u), np.diff(v))
    assert np.max(seg) / np.min(seg) < 1.001


# ---------------------------------------------------------------------------
# residual report
# ---------------------------------------------------------------------------

def curvature_split(p) -> float:
    """Largest disagreement of the two integral curvatures with k_alg."""
    k_alg, k_var, k_int = curvature_arrays(p)
    return float(np.max(np.abs([k_alg - k_var, k_alg - k_int])))


def test_residual_on_computed_profiles(profiles, lens_report):
    for p in [p for _, p in profiles.values()] + [lens_report.profile]:
        assert np.max(shrinker_residual(p)) < 1e-8
        assert curvature_split(p) < 1e-8


def test_residual_on_circle_is_roundoff(circle_profile):
    assert curvature_split(circle_profile) < 1e-10


def test_residual_negative_control(profiles):
    _, p = profiles[1.0]
    assert curvature_split(dataclasses.replace(p, v=p.v * 1.01)) > 1e-3


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_obj_export(tmp_path, sphere_mesh):
    path = tmp_path / "lens.obj"
    write_obj(sphere_mesh, path)
    lines = path.read_text().splitlines()
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    n_f = sum(1 for ln in lines if ln.startswith("f "))
    groups = [ln.split()[1] for ln in lines if ln.startswith("g ")]
    assert n_v == len(sphere_mesh.vertices)
    assert n_f == len(sphere_mesh.triangles)
    assert groups == ["upper_cap", "lower_cap", "planar_annulus"]
    # vertices round-trip exactly; each group holds its sheet's 1-based faces
    verts = np.array([[float(tok) for tok in ln.split()[1:]]
                      for ln in lines if ln.startswith("v ")])
    assert np.array_equal(verts, sphere_mesh.vertices)
    faces, group = {}, None
    for ln in lines:
        if ln.startswith("g "):
            group = ln.split()[1]
            faces[group] = []
        elif ln.startswith("f "):
            faces[group].append([int(tok) for tok in ln.split()[1:]])
    for sheet, name in enumerate(["upper_cap", "lower_cap", "planar_annulus"]):
        assert np.array_equal(np.array(faces[name]).reshape(-1, 3),
                              sphere_mesh.sheet_triangles(sheet) + 1)


def test_metadata_sidecar(tmp_path, sphere_mesh):
    path = tmp_path / "lens.json"
    write_metadata(sphere_mesh, path, config={"command": "mesh"})
    meta = json.loads(path.read_text())
    assert {"a_star", "xi", "s_bar", "n_theta", "annulus_outer"} <= set(meta)
    assert meta["config"] == {"command": "mesh"}


def test_resample_rejects_stub_profile(circle_profile):
    import copy
    stub = copy.deepcopy(circle_profile)
    stub.s = stub.s[:4]
    stub.u = stub.u[:4]
    stub.v = stub.v[:4]
    with pytest.raises(DegenerateProfile):
        resample_profile(stub, 16)
