import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SIMD_SETTINGS, dispatch_check
import lensshrinker
from lensshrinker import angle_of, build_cluster
from lensshrinker.arclength import curvature_arrays, shrinker_residual
from lensshrinker.cluster import (BLOCK, SHEET_ANNULUS, SHEET_LOWER,
                                  SHEET_NAMES, SHEET_UPPER, _cached, _circle,
                                  _distinct, mesh_checks, resample_profile,
                                  write_metadata, write_obj)
from lensshrinker.errors import DegenerateProfile

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def sphere_mesh(circle_profile):
    return build_cluster(circle_profile, n_theta=32, n_s=128, n_r=8)


def test_degenerate_case_is_a_round_sphere(sphere_mesh):
    caps = np.unique(sphere_mesh.triangles[sphere_mesh.sheet_id != SHEET_ANNULUS])
    radii = np.linalg.norm(sphere_mesh.vertices[caps], axis=1)
    assert np.max(np.abs(radii - SQRT2)) < 1e-6
    assert sphere_mesh.metadata["xi"] == pytest.approx(SQRT2, abs=1e-8)


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
    tri, sheet = sphere_mesh.triangles, sphere_mesh.sheet_id
    lower_ids = np.unique(tri[sheet == SHEET_LOWER])
    upper_ids = np.unique(tri[sheet == SHEET_UPPER])
    mirrored = sphere_mesh.vertices[upper_ids] * np.array([1.0, 1.0, -1.0])
    assert np.array_equal(np.sort(mirrored, axis=0),
                          np.sort(sphere_mesh.vertices[lower_ids], axis=0))


def _bit_rows(x, y, z):
    # the vertex set as unique rows of bit patterns
    return np.unique(np.column_stack([x, y, z]).view(np.uint64), axis=0)


@pytest.mark.parametrize("n_theta", [16, 17, 18, 64])
def test_mesh_is_exactly_symmetric_under_the_circle_maps(lens_report,
                                                         n_theta):
    # the angle table repeats exactly under the circle's reflections, and
    # under its quarter turns when 4 | n_theta, so the vertex set does too;
    # 0.0 - x negates x exactly and keeps a zero +0.0.  The x-reflection
    # takes angle 0 to pi, a ring angle only for even n_theta
    cos_p, sin_p = _circle(n_theta)
    phi = 2.0 * math.pi * np.arange(n_theta) / n_theta
    assert np.max(np.abs(cos_p - np.cos(phi))) <= 1e-15
    assert np.max(np.abs(sin_p - np.sin(phi))) <= 1e-15
    mesh = build_cluster(lens_report.profile, n_theta=n_theta)
    x, y, z = mesh.vertices.T
    assert not np.any(np.signbit(mesh.vertices) & (mesh.vertices == 0.0))
    rows = _bit_rows(x, y, z)
    maps = [(x, 0.0 - y, z)]
    if n_theta % 2 == 0:
        maps.append((0.0 - x, y, z))
    if n_theta % 4 == 0:
        maps.append((0.0 - y, x, z))
    for image in maps:
        assert np.array_equal(_bit_rows(*image), rows)


_DEFAULT_OBJ = """
import hashlib, sys
from lensshrinker import build_cluster, find_lens, write_obj
write_obj(build_cluster(find_lens().profile), sys.argv[1])
with open(sys.argv[1], "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
"""


@SIMD_SETTINGS
def test_obj_bytes_are_the_same_under_another_simd_dispatch(lens_report,
                                                           tmp_path,
                                                           disabled, kept):
    # the ring angles and the meridian map take math.sin, and the writer's
    # dedupe takes integer multiply, shift, gather and scatter, so a child
    # interpreter with some of numpy's SIMD dispatch turned off writes the
    # default OBJ at a* to the byte; the child first checks that the
    # setting turned off what it names
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   lensshrinker.__file__)))
    child = subprocess.run([sys.executable, "-c",
                            dispatch_check(kept) + _DEFAULT_OBJ,
                            str(tmp_path / "child.obj")], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=120)
    write_obj(build_cluster(lens_report.profile), tmp_path / "here.obj")
    here = hashlib.sha256((tmp_path / "here.obj").read_bytes()).hexdigest()
    assert child.stdout.split() == [here]


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
    lower_only = np.setdiff1d(mesh.triangles[mesh.sheet_id == SHEET_LOWER],
                              mesh.junction)
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


def _relabel_junction_lower_triangle(mesh):
    # a lower-cap triangle with an edge on the junction ring, labelled upper:
    # the triangles stay as they are, so every edge keeps its count (three on
    # the ring) and only the sheets on that ring edge can fail the check
    on_ring = np.isin(mesh.triangles, mesh.junction).sum(axis=1) == 2
    t = np.flatnonzero(on_ring & (mesh.sheet_id == SHEET_LOWER))[0]
    sheet_id = mesh.sheet_id.copy()
    sheet_id[t] = SHEET_UPPER
    return dataclasses.replace(mesh, sheet_id=sheet_id)


@pytest.mark.parametrize("corrupt, check", [
    (_drop_interior_cap_triangle, "junction_coherence"),
    (_duplicate_annulus_triangle, "junction_coherence"),
    (_nudge_lower_cap_vertex, "reflection_symmetry"),
    (_flip_lower_cap_winding, "orientation_consistent"),
    (_collapse_triangle, "no_degenerate_triangles"),
    (_relabel_junction_lower_triangle, "junction_coherence"),
])
def test_mesh_checks_negative_controls(sphere_mesh, corrupt, check):
    checks = dict((name, ok) for name, ok, _ in mesh_checks(corrupt(sphere_mesh)))
    assert list(checks) == ["reflection_symmetry", "junction_coherence",
                            "no_degenerate_triangles", "orientation_consistent"]
    assert not checks[check]


@pytest.mark.parametrize("bad", [-1, 3, 7, 64])
def test_an_unknown_sheet_id_fails_junction_coherence(sphere_mesh, bad):
    # an annulus triangle off the junction ring: 1 << -1 and 1 << 64 are 0,
    # so no edge count or junction sheet set would show it; 3 and 7 shift
    # into the class bits and the edge field
    on_ring = np.isin(sphere_mesh.triangles, sphere_mesh.junction).any(axis=1)
    t = np.flatnonzero(~on_ring & (sphere_mesh.sheet_id == SHEET_ANNULUS))[0]
    sheet_id = sphere_mesh.sheet_id.copy()
    sheet_id[t] = bad
    mesh = dataclasses.replace(sphere_mesh, sheet_id=sheet_id)
    want = _reference_mesh_checks(mesh)
    assert mesh_checks(mesh) == want
    assert [name for name, ok, _ in want if not ok] == ["junction_coherence"]


def _reference_mesh_checks(mesh) -> list[tuple[str, bool, str]]:
    """The whole-mesh checks that mesh_checks matches verdict for verdict
    and detail for detail."""
    out = []
    v, t, sheet = mesh.vertices, mesh.triangles, mesh.sheet_id
    n_vert = len(v)

    upper, lower = t[sheet == SHEET_UPPER], t[sheet == SHEET_LOWER]
    sym = np.array_equal(v[lower[:, [0, 2, 1]]], v[upper] * [1.0, 1.0, -1.0])
    out.append(("reflection_symmetry", bool(sym),
                "lower cap triangles are the z-negated upper cap triangles"))

    t_next = t[:, [1, 2, 0]]
    packed = (np.minimum(t, t_next) * n_vert + np.maximum(t, t_next)) << 3
    packed |= (1 << sheet)[:, None]
    packed = np.sort(packed, axis=None)
    edge = packed >> 3
    starts = np.flatnonzero(np.concatenate([[True], edge[1:] != edge[:-1]]))
    counts = np.diff(np.append(starts, len(edge)))
    # one bit per sheet: 0b111 on an edge of three triangles is one per sheet
    sheet_bits = np.bitwise_or.reduceat(packed & 7, starts)
    lo, hi = np.divmod(edge[starts], n_vert)
    radius = np.hypot(v[:, 0], v[:, 1])
    on_rim = np.isclose(radius, mesh.metadata["annulus_outer"],
                        rtol=1e-12, atol=0.0)
    on_junction = np.zeros(n_vert, dtype=bool)
    on_junction[mesh.junction] = True
    junction_edge = on_junction[lo] & on_junction[hi]
    rim_edge = on_rim[lo] & on_rim[hi]
    expected = np.where(junction_edge, 3, np.where(rim_edge, 1, 2))
    coherent = (np.array_equal(counts, expected)
                and np.all(sheet_bits[junction_edge] == 0b111)
                and np.all(np.isin(sheet, (SHEET_UPPER, SHEET_LOWER,
                                           SHEET_ANNULUS))))
    out.append(("junction_coherence", bool(coherent),
                "junction edges border one triangle per sheet, rim edges one, "
                "all other edges two"))

    # edge vectors e1 = p1 - p0, e2 = p2 - p0 and e2 - e1 from contiguous
    # coordinate columns, and their cross product written out
    x, y, z = np.ascontiguousarray(v.T)
    t0, t1, t2 = np.ascontiguousarray(t.T)
    x0, y0, z0 = x[t0], y[t0], z[t0]
    ax, ay, az = x[t1] - x0, y[t1] - y0, z[t1] - z0
    bx, by, bz = x[t2] - x0, y[t2] - y0, z[t2] - z0
    cx, cy, cz = bx - ax, by - ay, bz - az
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    # each area against its own longest edge, so the floor scales per triangle
    longest2 = np.maximum(np.maximum(ax * ax + ay * ay + az * az,
                                     bx * bx + by * by + bz * bz),
                          cx * cx + cy * cy + cz * cz)
    areas = 0.5 * np.sqrt(nx * nx + ny * ny + nz * nz)
    out.append(("no_degenerate_triangles",
                bool(np.all(areas > 1e-12 * longest2)),
                f"min area {np.min(areas):.3e}"))

    up_ok = np.all(nz[sheet == SHEET_UPPER] > 0.0)
    low_ok = np.all(nz[sheet == SHEET_LOWER] < 0.0)
    ann_ok = np.all(nz[sheet == SHEET_ANNULUS] > 0.0)
    out.append(("orientation_consistent",
                bool(up_ok and low_ok and ann_ok),
                "outward normal z-sign uniform per sheet"))
    return out


@pytest.fixture(scope="module")
def blocks_mesh(circle_profile):
    # 33,088 triangles: four full blocks and part of a fifth
    mesh = build_cluster(circle_profile, n_theta=32, n_s=256, n_r=8)
    assert len(mesh.triangles) >= 3 * BLOCK
    return mesh


def _drop_rows(mesh, rows):
    keep = np.ones(len(mesh.triangles), dtype=bool)
    keep[rows] = False
    return dataclasses.replace(mesh, triangles=mesh.triangles[keep],
                               sheet_id=mesh.sheet_id[keep])


def _duplicate_rows(mesh, rows):
    # each copy right after its row, so it may open the next block
    return dataclasses.replace(
        mesh, triangles=np.insert(mesh.triangles, rows + 1,
                                  mesh.triangles[rows], axis=0),
        sheet_id=np.insert(mesh.sheet_id, rows + 1, mesh.sheet_id[rows]))


def _nudge_rows(mesh, rows):
    vertices = mesh.vertices.copy()
    vertices[mesh.triangles[rows, 1], 2] += 1e-9
    return dataclasses.replace(mesh, vertices=vertices)


def _flip_rows(mesh, rows):
    triangles = mesh.triangles.copy()
    triangles[rows, 1:] = mesh.triangles[rows][:, [2, 1]]
    return dataclasses.replace(mesh, triangles=triangles)


def _collapse_rows(mesh, rows):
    triangles = mesh.triangles.copy()
    triangles[rows, 2] = triangles[rows, 1]
    return dataclasses.replace(mesh, triangles=triangles)


def _relabel_rows(mesh, rows):
    # upper to lower, lower to upper, annulus to upper
    sheet_id = mesh.sheet_id.copy()
    sheet_id[rows] = np.array([SHEET_LOWER, SHEET_UPPER,
                               SHEET_UPPER])[mesh.sheet_id[rows]]
    return dataclasses.replace(mesh, sheet_id=sheet_id)


def _split_pair(mesh):
    # the rows of reflection pair BLOCK - 1: the upper one ends block 0,
    # the lower one lies blocks later
    i = BLOCK - 1
    rows = np.array([np.flatnonzero(mesh.sheet_id == sheet)[i]
                     for sheet in (SHEET_UPPER, SHEET_LOWER)])
    assert len(set(rows // BLOCK)) == 2
    return rows


ROWS = {"block_first": lambda mesh: np.array([BLOCK]),
        "block_last": lambda mesh: np.array([2 * BLOCK - 1]),
        "mesh_last": lambda mesh: np.array([len(mesh.triangles) - 1]),
        "split_pair": _split_pair}


@pytest.mark.parametrize("where", ROWS)
@pytest.mark.parametrize("corrupt", [_drop_rows, _duplicate_rows, _nudge_rows,
                                     _flip_rows, _collapse_rows, _relabel_rows])
def test_block_checks_match_the_reference_at_block_edges(blocks_mesh, corrupt,
                                                        where):
    mesh = corrupt(blocks_mesh, ROWS[where](blocks_mesh))
    assert mesh_checks(mesh) == _reference_mesh_checks(mesh)


def test_block_checks_match_the_reference_on_built_meshes(sphere_mesh,
                                                          blocks_mesh,
                                                          lens_report):
    p = lens_report.profile
    # the rows in reverse order: the annulus first, the lower cap before the
    # upper, and pair i still the i-th upper and the i-th lower row
    backwards = dataclasses.replace(blocks_mesh,
                                    triangles=blocks_mesh.triangles[::-1],
                                    sheet_id=blocks_mesh.sheet_id[::-1])
    for mesh in (sphere_mesh, build_cluster(p),
                 build_cluster(p, n_theta=128, n_s=512, n_r=48), backwards):
        want = _reference_mesh_checks(mesh)
        assert mesh_checks(mesh) == want
        assert all(ok for _, ok, _ in want)


def test_block_checks_see_the_last_run_of_the_sorted_keys(blocks_mesh):
    # a triangle on the last vertex alone: its three edges hold the largest
    # key, so that only the last run of the sorted keys shows them
    last = len(blocks_mesh.vertices) - 1
    mesh = dataclasses.replace(
        blocks_mesh, triangles=np.vstack([blocks_mesh.triangles, [last] * 3]),
        sheet_id=np.append(blocks_mesh.sheet_id, SHEET_ANNULUS))
    want = _reference_mesh_checks(mesh)
    assert mesh_checks(mesh) == want
    assert ("junction_coherence", False) in [(n, ok) for n, ok, _ in want]


def test_block_checks_print_a_nan_area(blocks_mesh):
    # a NaN in block 2, not the first: min() over the block minima would
    # drop it, np.min keeps it
    vertices = blocks_mesh.vertices.copy()
    vertices[blocks_mesh.triangles[2 * BLOCK + 5, 0]] = np.nan
    mesh = dataclasses.replace(blocks_mesh, vertices=vertices)
    want = _reference_mesh_checks(mesh)
    assert mesh_checks(mesh) == want
    assert ("no_degenerate_triangles", False, "min area nan") in want


def _nudge_lower_vertex(mesh):
    # corner 0 of the lower cap's first band triangle, past the pole fan
    vid = mesh.triangles[mesh.sheet_id == SHEET_LOWER][len(mesh.junction), 0]
    vertices = mesh.vertices.copy()
    vertices[vid, 2] += 1e-9
    return vertices


def _widen_rim_vertex(mesh):
    vertices = mesh.vertices.copy()
    vertices[-1, :2] *= 1.0 + 1e-9
    return vertices


def _nan_vertex(mesh):
    vertices = mesh.vertices.copy()
    vertices[mesh.triangles[len(mesh.triangles) // 2, 1]] = np.nan
    return vertices


@pytest.mark.parametrize("corrupt, check", [
    (_nudge_lower_vertex, "reflection_symmetry"),
    (_widen_rim_vertex, "junction_coherence"),
    (_nan_vertex, "no_degenerate_triangles"),
])
def test_cached_facts_meet_new_vertices(lens_report, corrupt, check):
    # corrupted vertices with the cached triangles and sheet ids: the facts
    # made once for the size must still let each call see the corruption
    built = build_cluster(lens_report.profile, **SMALL)
    mesh = dataclasses.replace(built, vertices=corrupt(built))
    assert _cached(mesh) is _cached(built) is not None
    want = _reference_mesh_checks(mesh)
    assert mesh_checks(mesh) == want
    assert check in [name for name, ok, _ in want if not ok]
    # a copy of the triangles takes the facts made per call
    fresh = dataclasses.replace(mesh, triangles=mesh.triangles.copy())
    assert _cached(fresh) is None
    assert mesh_checks(fresh) == want


def test_int32_triangles_get_the_same_verdicts(lens_report):
    # the packed keys need more than 32 bits at the default size
    mesh = build_cluster(lens_report.profile)
    narrow = dataclasses.replace(mesh,
                                 triangles=mesh.triangles.astype(np.int32))
    assert mesh_checks(narrow) == mesh_checks(mesh)
    assert all(ok for _, ok, _ in mesh_checks(narrow))


@pytest.mark.parametrize("resize", [
    lambda ids: ids[:-1],
    lambda ids: np.append(ids, SHEET_ANNULUS),
], ids=["short", "long"])
def test_a_sheet_id_of_another_length_fails_the_checks(circle_profile,
                                                       resize):
    # no triangle has a sheet, so no check that reads one can pass
    mesh = build_cluster(circle_profile, **SMALL)
    assert len(mesh.triangles) == 992
    checks = dict((name, ok) for name, ok, _ in mesh_checks(
        dataclasses.replace(mesh, sheet_id=resize(mesh.sheet_id))))
    assert checks == {"reflection_symmetry": False,
                      "junction_coherence": False,
                      "no_degenerate_triangles": True,
                      "orientation_consistent": False}


@pytest.mark.parametrize("n_theta, size", [
    (16, {}), (64, {}), (4096, {"n_s": 32, "n_r": 4})])
def test_wide_annulus_passes_the_degenerate_floor(profiles, lens_report,
                                                  n_theta, size):
    # build_cluster raises unless every mesh check passes.  The floor is per
    # triangle, so the annulus width does not move it; a floor scaled by the
    # bounding box rejected these meshes except at n_theta = 16
    suite = [angle_of(0.005)[1], lens_report.profile, profiles[SQRT2][1]]
    for profile in suite:
        build_cluster(profile, n_theta=n_theta, annulus_outer=1000.0, **size)


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
    outer_ids = np.unique(
        sphere_mesh.triangles[sphere_mesh.sheet_id == SHEET_ANNULUS])
    r = np.hypot(*sphere_mesh.vertices[outer_ids, :2].T)
    assert np.max(r) == pytest.approx(meta["annulus_outer"], rel=1e-12)


def test_build_cluster_argument_validation(circle_profile):
    with pytest.raises(ValueError):
        build_cluster(circle_profile, n_theta=8)
    with pytest.raises(ValueError):
        build_cluster(circle_profile, annulus_outer=0.5)
    for outer in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            build_cluster(circle_profile, annulus_outer=outer)
    for size in ({"n_s": 1}, {"n_s": 0}, {"n_r": 0}, {"n_r": -1}):
        with pytest.raises(ValueError, match="at least"):
            build_cluster(circle_profile, **size)
    # checked before the size cache, whose key takes 16.0 for 16
    for name, value in (("n_theta", 16.0), ("n_s", 32.0), ("n_r", 2.0),
                        ("n_theta", "16"), ("n_r", np.int64(2))):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            build_cluster(circle_profile, **{**SMALL, name: value})


def test_build_cluster_refuses_a_profile_off_the_axis(circle_profile):
    # the axis piece's old state moved off the axis, so the first stored
    # state has u = 1e-3
    p = circle_profile
    y_old = p.dense.y_old.ravel().tolist()
    y_old[0] += 1e-3
    off = p._replace(dense=p.dense._replace(y_old=y_old))
    with pytest.raises(DegenerateProfile, match="rotation axis"):
        build_cluster(off, **SMALL)


def test_build_cluster_raises_on_a_failed_mesh_check(circle_profile):
    # an annulus 1e-13 of the junction radius wide: its triangles fall
    # below the area floor, and its radial edges join two rim vertices
    outer = circle_profile.xi * (1.0 + 1e-13)
    with pytest.raises(DegenerateProfile, match="mesh validity checks"):
        build_cluster(circle_profile, annulus_outer=outer, **SMALL)


def test_resample_grades_the_meridian_by_the_sin_rule(circle_profile):
    # on the circle of radius sqrt(2) about the origin the arclength from
    # the pole is sqrt(2) atan2(u, v); sample k sits at s_bar sin(pi k / 2
    # (n_s - 1)), so the chords shrink from the pole to the junction
    p, n_s = circle_profile, 64
    u, v = resample_profile(p, n_s)
    want = [p.s_bar * math.sin(0.5 * math.pi * k / (n_s - 1))
            for k in range(n_s)]
    assert np.max(np.abs(SQRT2 * np.arctan2(u, v) - want)) < 1e-12
    assert (u[0], v[0], u[-1], v[-1]) == (0.0, p.v[0], p.u[-1], 0.0)
    assert v[0] == pytest.approx(SQRT2, abs=1e-12)
    assert np.all(np.diff(np.hypot(np.diff(u), np.diff(v))) < 0.0)


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
    # the v rows of the dense output scaled by 1.01, and so its states' v
    _, p = profiles[1.0]
    d = p.dense
    v_up = np.array([1.0, 1.01, 1.0, 1.0, 1.0])
    bent = d._replace(y_old=(d.y_old * v_up).ravel().tolist(),
                      F=(d.F * v_up).ravel().tolist())
    assert curvature_split(p._replace(dense=bent)) > 1e-3


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
        assert np.array_equal(
            np.array(faces[name]).reshape(-1, 3),
            sphere_mesh.triangles[sphere_mesh.sheet_id == sheet] + 1)


def _reference_obj(mesh) -> bytes:
    """The %-template OBJ writer that write_obj matches byte for byte."""
    v = mesh.vertices
    parts = ["v %.17g %.17g %.17g\n" * len(v) % tuple(v.ravel().tolist())]
    for sheet in (SHEET_UPPER, SHEET_LOWER, SHEET_ANNULUS):
        f = mesh.triangles[mesh.sheet_id == sheet] + 1
        parts.append(f"g {SHEET_NAMES[sheet]}\n")
        parts.append("f %d %d %d\n" * len(f) % tuple(f.ravel().tolist()))
    return "".join(parts).encode()


def _signed_zeros(mesh):
    # 0.0 and -0.0 compare equal but print apart, and repeated values share
    # a token: a dedupe by value rather than by bit pattern misprints one
    vertices = mesh.vertices.copy()
    vertices[1:5] = [[0.0, -0.0, 0.25], [-0.0, 0.0, 0.25],
                     [0.25, -0.0, -0.0], [-0.25, 0.25, 0.0]]
    return dataclasses.replace(mesh, vertices=vertices)


def _empty_lower_cap(mesh):
    keep = mesh.sheet_id != SHEET_LOWER
    return dataclasses.replace(mesh, triangles=mesh.triangles[keep],
                               sheet_id=mesh.sheet_id[keep])


# vertex counts on both sides of each power of ten up to 1000
RING_SIZES = (9, 10, 99, 100, 999, 1000)


def _ring(sphere, n):
    # n vertices, each in three triangles, so that every index width up to
    # that of n is printed
    k = np.arange(n)
    return dataclasses.replace(
        sphere, vertices=np.column_stack([np.cos(k), np.sin(k), k / n]),
        triangles=np.column_stack([k, (k + 1) % n, (k + 2) % n]),
        sheet_id=k % 3)


def _extreme_values(sphere):
    # both signs of values on each side of 1e-10 and 1e14, at the ends of
    # the float64 range, -0.0, inf and nan: the sign twin of the nan token
    # must not print -nan
    x = np.array([5e-324, 1e-300, 9.999999999999999e-11, 1e-10,
                  99999999999999.98, 1e14, 1e300, -0.0, 0.1, 1e-05,
                  np.inf, np.nan])
    x = np.concatenate([x, -x])
    assert np.signbit(x[-1]) and np.isnan(x[-1])
    return dataclasses.replace(
        _ring(sphere, len(x)),
        vertices=np.column_stack([x, x[::-1], np.roll(x, 3)]))


def _perturbed(sphere):
    # every coordinate times 1 + 1e-9 N(0, 1): ~24,000 distinct magnitudes
    # in 2^15 hash slots, so thousands of keys clash with a representative
    rng = np.random.default_rng(39)
    v = sphere.vertices * (1.0 + 1e-9 * rng.standard_normal(
        sphere.vertices.shape))
    assert len(np.unique(np.abs(v))) > 0.9 * v.size
    return dataclasses.replace(sphere, vertices=v)


def _one_value(sphere):
    # one magnitude, every coordinate its '-' twin
    return dataclasses.replace(sphere,
                               vertices=np.full_like(sphere.vertices, -0.3))


def _nan_payloads(sphere):
    # NaNs of both signs with distinct payloads: distinct magnitude keys
    # that all print nan, never -nan
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF8000000000001, 0xFFF8000000000002,
                     0x7FF0000000000003, 0xFFF4000000000000],
                    dtype=np.uint64)
    v = sphere.vertices.copy()
    v.ravel()[:600] = np.tile(bits, 100).view(np.float64)
    assert np.isnan(v).sum() == 600 and np.signbit(v[np.isnan(v)]).any()
    return dataclasses.replace(sphere, vertices=v)


def _one_sheet_ring(sphere, n):
    # n vertex lines and n face lines in one group, so that the writer's
    # blocks end exactly at, or one line before, the last line
    return dataclasses.replace(_ring(sphere, n),
                               sheet_id=np.zeros(n, dtype=int))


SMALL = {"n_theta": 16, "n_s": 16, "n_r": 2}


def _rotated_corners(mesh):
    triangles = mesh.triangles[:, [1, 2, 0]]
    assert triangles.flags.writeable
    return dataclasses.replace(mesh, triangles=triangles)


@pytest.mark.parametrize("make", [
    lambda sphere, p: sphere,
    lambda sphere, p: build_cluster(p),
    lambda sphere, p: _signed_zeros(sphere),
    lambda sphere, p: _empty_lower_cap(sphere),
    *(lambda sphere, p, n=n: _ring(sphere, n) for n in RING_SIZES),
    lambda sphere, p: _extreme_values(sphere),
    lambda sphere, p: _perturbed(sphere),
    lambda sphere, p: _one_value(sphere),
    lambda sphere, p: _nan_payloads(sphere),
    *(lambda sphere, p, n=n: _one_sheet_ring(sphere, n)
      for n in (BLOCK, BLOCK + 1)),
    # meshes exported in turn into one file: the second export of a size
    # writes its cached face block, also after another size's export
    lambda sphere, p: [build_cluster(p, **SMALL),
                       build_cluster(angle_of(SQRT2)[1], **SMALL)],
    lambda sphere, p: [build_cluster(p, **SMALL), build_cluster(p),
                       build_cluster(angle_of(SQRT2)[1], **SMALL)],
    # the cached sheet ids with corners rotated in a writable copy of the
    # triangles: the same mesh, other f lines
    lambda sphere, p: _rotated_corners(build_cluster(p, **SMALL)),
], ids=["sphere", "computed_height", "signed_zeros", "empty_sheet",
        *(f"ring_{n}" for n in RING_SIZES), "extreme_values",
        "perturbed", "one_value", "nan_payloads", "block_lines",
        "block_lines_plus_one", "one_size_in_turn", "another_size_between",
        "writable_triangles"])
def test_obj_bytes_match_the_reference_writer(tmp_path, sphere_mesh, profiles,
                                              make):
    made = make(sphere_mesh, profiles[0.5][1])
    path = tmp_path / "lens.obj"
    for mesh in made if isinstance(made, list) else [made]:
        write_obj(mesh, path)
        assert path.read_bytes() == _reference_obj(mesh)


def _drawn_keys(n_distinct, n):
    # n keys drawn with repeats from n_distinct random 63-bit keys
    rng = np.random.default_rng(n)
    pool = rng.integers(0, 1 << 63, size=n_distinct, dtype=np.uint64)
    return pool[rng.integers(0, n_distinct, size=n)]


# repeated and mostly_distinct leave 880 and 3,075 keys that differ from
# their slot's representative, so the clash step runs on both
@pytest.mark.parametrize("keys", [
    np.zeros(0, dtype=np.uint64),
    _drawn_keys(3000, 20000),
    _drawn_keys(20000, 20000),
], ids=["empty", "repeated", "mostly_distinct"])
def test_distinct_rebuilds_its_keys_and_holds_each_once(keys):
    distinct, inverse = _distinct(keys)
    assert distinct.dtype == keys.dtype and len(inverse) == len(keys)
    assert np.array_equal(distinct[inverse], keys)
    assert np.array_equal(np.sort(distinct), np.unique(keys))


def test_obj_writer_checks_the_vertex_ids_before_opening(tmp_path,
                                                         sphere_mesh):
    # the lines are written block by block, so a bad id found in a late
    # block would leave a truncated file
    path = tmp_path / "lens.obj"
    path.write_bytes(b"kept")
    for bad in (-1, len(sphere_mesh.vertices)):
        triangles = sphere_mesh.triangles.copy()
        triangles[-1, 0] = bad
        with pytest.raises(IndexError):
            write_obj(dataclasses.replace(sphere_mesh, triangles=triangles),
                      path)
        assert path.read_bytes() == b"kept"


@pytest.mark.parametrize("relabel", [
    lambda ids: np.where(np.arange(len(ids)) == len(ids) - 1, 3, ids),
    lambda ids: np.where(np.arange(len(ids)) == len(ids) - 1, 7, ids),
    lambda ids: ids[:-1],
], ids=["sheet_3", "sheet_7", "short"])
def test_obj_writer_checks_the_sheet_ids_before_opening(tmp_path,
                                                        circle_profile,
                                                        relabel):
    # write_obj writes sheets 0, 1 and 2 only: a triangle of no sheet would
    # be dropped from the file
    mesh = build_cluster(circle_profile, **SMALL)
    assert len(mesh.triangles) == 992
    path = tmp_path / "lens.obj"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError):
        write_obj(dataclasses.replace(mesh, sheet_id=relabel(mesh.sheet_id)),
                  path)
    assert path.read_bytes() == b"kept"


def test_meshes_of_one_size_share_read_only_connectivity(profiles):
    # the connectivity depends on the sizes alone, not on the height
    first, second = (build_cluster(profiles[a][1], **SMALL)
                     for a in (0.5, SQRT2))
    assert not np.array_equal(first.vertices, second.vertices)
    for name in ("triangles", "sheet_id", "junction"):
        shared = getattr(first, name)
        assert getattr(second, name) is shared
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = shared[0]


def test_check_facts_are_made_once_per_size_and_read_only(profiles):
    first, second = (build_cluster(profiles[a][1], **SMALL)
                     for a in (0.5, SQRT2))
    facts = _cached(first).facts
    assert _cached(second).facts is facts
    assert facts.labelled
    for arr in (*facts.mirror, *facts.edges, facts.want):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_metadata_sidecar(tmp_path, sphere_mesh):
    path = tmp_path / "lens.json"
    write_metadata(sphere_mesh, path, config={"command": "mesh"})
    meta = json.loads(path.read_text())
    assert set(meta) == {"a_star", "xi", "s_bar", "n_theta", "annulus_outer",
                         "n_s", "n_r", "n_vertices", "n_triangles", "config"}
    assert meta["config"] == {"command": "mesh"}


def test_resample_rejects_a_profile_past_its_crossing(circle_profile):
    # the dense output runs on past s_bar, where v < 0
    p = circle_profile._replace(s_bar=1.1 * circle_profile.s_bar)
    with pytest.raises(DegenerateProfile, match="open quadrant"):
        resample_profile(p, 64)


def test_resample_rejects_stub_profile(circle_profile):
    # the dense output cut to its axis piece, whose states are the axis
    # point and the seed
    d = circle_profile.dense
    stub = circle_profile._replace(dense=d._replace(
        ts=d.ts[:2].tolist(), h=d.h[:1].tolist(),
        y_old=d.y_old[:1].ravel().tolist(), F=d.F[:1].ravel().tolist()))
    with pytest.raises(DegenerateProfile, match="too short"):
        resample_profile(stub, 16)
