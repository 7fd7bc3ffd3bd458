"""Assembly and export of the three-sheet lens cluster geometry.

The computed profile curve, revolved about the vertical axis, gives the
upper cap; its reflection through the horizontal plane gives the lower cap;
a flat annulus from the junction circle outward stands in for the unbounded
planar sheet.  All three sheets share the junction circle vertices exactly,
the lower cap vertex set is the exact z-negation of the upper one, and each
sheet is wound with consistent outward orientation.

The map (u, v) -> (u cos(phi), u sin(phi), v) sends the profile plane into
3-d with the rotation axis along z.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .arclength import LensProfile
from .errors import DegenerateProfile

SHEET_UPPER = 0
SHEET_LOWER = 1
SHEET_ANNULUS = 2
SHEET_NAMES = ("upper_cap", "lower_cap", "planar_annulus")

DEFAULT_N_THETA = 64
DEFAULT_N_S = 256
DEFAULT_N_R = 24
DEFAULT_OUTER_FACTOR = 3.0


@dataclass
class ClusterMesh:
    """Triangle mesh of the lens cluster with per-triangle sheet labels."""

    vertices: np.ndarray      # (n, 3)
    triangles: np.ndarray     # (m, 3) indices
    sheet_id: np.ndarray      # (m,) in {0: upper, 1: lower, 2: annulus}
    junction: np.ndarray      # vertex indices of the shared junction circle
    junction_radius: float
    metadata: dict

    def sheet_triangles(self, sheet: int) -> np.ndarray:
        return self.triangles[self.sheet_id == sheet]


def resample_profile(profile: LensProfile, n_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Arclength-uniform (u, v) samples from the axis to the crossing,
    evaluated on the profile's dense output."""
    if profile.s_bar <= 0.0 or len(profile.s) < 8:
        raise DegenerateProfile("profile too short to resample")
    u, v = profile.dense(np.linspace(0.0, profile.s_bar, n_s))[:2]
    u[0] = profile.u[0]
    v[0] = profile.v[0]
    u[-1] = profile.u[-1]
    v[-1] = 0.0  # junction circle lies exactly in the plane
    if np.any(u[1:] <= 0.0) or np.any(v[:-1] <= 0.0):
        raise DegenerateProfile("resampled profile leaves the open quadrant")
    return u, v


def build_cluster(profile: LensProfile, n_theta: int = DEFAULT_N_THETA,
                  annulus_outer: float | None = None,
                  n_s: int = DEFAULT_N_S, n_r: int = DEFAULT_N_R) -> ClusterMesh:
    """Revolve the profile into the watertight three-sheet cluster mesh.

    The profile's axis point maps to a single pole vertex (no seam), the
    junction circle vertices are created once and shared by all three
    sheets, and the unbounded planar sheet is truncated at annulus_outer
    (default 3x the junction radius, recorded in the metadata).
    """
    if n_theta < 16:
        raise ValueError("n_theta must be at least 16")
    if profile.u[0] != 0.0:
        raise DegenerateProfile("profile must start on the rotation axis")
    xi = profile.xi
    outer = DEFAULT_OUTER_FACTOR * xi if annulus_outer is None else annulus_outer
    if outer <= xi:
        raise ValueError("annulus_outer must exceed the junction radius")

    u, v = resample_profile(profile, n_s)
    phi = 2.0 * math.pi * np.arange(n_theta) / n_theta
    cos_p, sin_p = np.cos(phi), np.sin(phi)

    def rings(radius: np.ndarray, height: np.ndarray) -> np.ndarray:
        # one ring of n_theta vertices per radius, flattened ring by ring
        r = radius[:, None]
        z = np.broadcast_to(height[:, None], (len(radius), n_theta))
        return np.stack([r * cos_p, r * sin_p, z], axis=-1).reshape(-1, 3)

    # pole, then rings 1 .. n_s-1 of the upper cap; the last is the junction
    upper = np.concatenate([[[0.0, 0.0, v[0]]], rings(u[1:], v[1:])])
    junction_start = len(upper) - n_theta
    # lower cap: exact reflection of the upper cap, junction ring excluded
    lower = upper[:junction_start] * np.array([1.0, 1.0, -1.0])
    # annulus rings strictly outside the junction circle, z = 0
    radii = np.linspace(xi, outer, n_r + 1)[1:]
    annulus = rings(radii, np.zeros(n_r))
    annulus_offset = len(upper) + len(lower)
    vertices = np.concatenate([upper, lower, annulus])

    nxt = (np.arange(n_theta) + 1) % n_theta

    def band(inner_ids: np.ndarray, outer_ids: np.ndarray) -> np.ndarray:
        # the two triangles of every quad between consecutive rings of ids
        a, b = inner_ids, outer_ids
        a_n, b_n = a[:, nxt], b[:, nxt]
        quads = np.stack([np.stack([a, b, b_n], axis=-1),
                          np.stack([a, b_n, a_n], axis=-1)], axis=2)
        return quads.reshape(-1, 3)

    # upper cap: pole fan then bands, outward normal pointing away from z=0
    cap_rings = 1 + np.arange((n_s - 1) * n_theta).reshape(n_s - 1, n_theta)
    fan = np.column_stack([np.zeros(n_theta, dtype=np.int64),
                           cap_rings[0], cap_rings[0][nxt]])
    upper_tris = np.concatenate([fan, band(cap_rings[:-1], cap_rings[1:])])
    # lower cap: mirrored ids (the junction ring is shared), winding flipped
    lower_tris = np.where(upper_tris >= junction_start, upper_tris,
                          upper_tris + len(upper))[:, [0, 2, 1]]
    # planar annulus from the junction ring outward, outward normal +z
    ann_ids = annulus_offset + np.arange(n_r * n_theta).reshape(n_r, n_theta)
    ann_rings = np.concatenate([cap_rings[-1:], ann_ids])
    annulus_tris = band(ann_rings[:-1], ann_rings[1:])
    triangles = np.concatenate([upper_tris, lower_tris, annulus_tris])
    sheet_id = np.repeat([SHEET_UPPER, SHEET_LOWER, SHEET_ANNULUS],
                         [len(upper_tris), len(lower_tris), len(annulus_tris)])

    mesh = ClusterMesh(
        vertices=vertices,
        triangles=triangles,
        sheet_id=sheet_id,
        junction=np.arange(junction_start, junction_start + n_theta),
        junction_radius=xi,
        metadata={"a": profile.a, "xi": xi, "s_bar": profile.s_bar,
                  "n_theta": n_theta, "n_s": n_s, "n_r": n_r,
                  "annulus_outer": float(outer)},
    )
    _validate(mesh)
    return mesh


def _validate(mesh: ClusterMesh) -> None:
    checks = mesh_checks(mesh)
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        raise DegenerateProfile(f"mesh validity checks failed: {failed}")


def mesh_checks(mesh: ClusterMesh) -> list[tuple[str, bool, str]]:
    """Reflection symmetry, junction coherence, orientation and quality.

    Junction coherence counts the triangles on each undirected edge: an edge
    of the junction circle borders exactly three, one per sheet; an edge of
    the annulus rim (at radius annulus_outer) borders one; every other edge
    borders two.  A missing or duplicated triangle anywhere fails it.
    """
    out = []
    upper_set = mesh.vertices[np.unique(mesh.sheet_triangles(SHEET_UPPER))]
    lower_set = mesh.vertices[np.unique(mesh.sheet_triangles(SHEET_LOWER))]
    reflected = upper_set * [1.0, 1.0, -1.0]
    sym = np.array_equal(reflected[np.lexsort(reflected.T[::-1])],
                         lower_set[np.lexsort(lower_set.T[::-1])])
    out.append(("reflection_symmetry", bool(sym),
                "lower cap vertex set equals z-negated upper cap"))

    n_vert = len(mesh.vertices)
    edges = np.sort(mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]], axis=2)
    keys, inverse, counts = np.unique(edges[..., 0] * n_vert + edges[..., 1],
                                      return_inverse=True, return_counts=True)
    # one bit per sheet: 0b111 on an edge of three triangles is one per sheet
    sheet_bits = np.bincount(inverse.ravel(),
                             weights=np.repeat(1 << mesh.sheet_id, 3))
    radius = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    on_rim = np.isclose(radius, mesh.metadata["annulus_outer"],
                        rtol=1e-12, atol=0.0)
    ends = np.stack(np.divmod(keys, n_vert))
    junction_edge = np.isin(ends, mesh.junction).all(axis=0)
    rim_edge = on_rim[ends].all(axis=0)
    expected = np.where(junction_edge, 3, np.where(rim_edge, 1, 2))
    coherent = (np.array_equal(counts, expected)
                and np.all(sheet_bits[junction_edge] == 0b111))
    out.append(("junction_coherence", bool(coherent),
                "junction edges border one triangle per sheet, rim edges one, "
                "all other edges two"))

    v = mesh.vertices
    t = mesh.triangles
    n = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    areas = 0.5 * np.linalg.norm(n, axis=1)
    bbox = np.max(np.ptp(v, axis=0))
    out.append(("no_degenerate_triangles",
                bool(np.min(areas) > 1e-12 * bbox * bbox),
                f"min area {np.min(areas):.3e}"))

    nz = n[:, 2]
    up_ok = np.all(nz[mesh.sheet_id == SHEET_UPPER] > 0.0)
    low_ok = np.all(nz[mesh.sheet_id == SHEET_LOWER] < 0.0)
    ann_ok = np.all(nz[mesh.sheet_id == SHEET_ANNULUS] > 0.0)
    out.append(("orientation_consistent",
                bool(up_ok and low_ok and ann_ok),
                "outward normal z-sign uniform per sheet"))
    return out


def write_obj(mesh: ClusterMesh, path) -> None:
    """Wavefront OBJ with one group per sheet; 1-based face indices."""
    v = mesh.vertices
    parts = ["v %.17g %.17g %.17g\n" * len(v) % tuple(v.ravel().tolist())]
    for sheet in (SHEET_UPPER, SHEET_LOWER, SHEET_ANNULUS):
        f = mesh.sheet_triangles(sheet) + 1
        parts.append(f"g {SHEET_NAMES[sheet]}\n")
        parts.append("f %d %d %d\n" * len(f) % tuple(f.ravel().tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def write_metadata(mesh: ClusterMesh, path, config: dict | None = None) -> None:
    """JSON sidecar {a_star, xi, s_bar, n_theta, annulus_outer, ...}."""
    meta = {
        "a_star": mesh.metadata["a"],
        "xi": mesh.metadata["xi"],
        "s_bar": mesh.metadata["s_bar"],
        "n_theta": mesh.metadata["n_theta"],
        "annulus_outer": mesh.metadata["annulus_outer"],
        "n_s": mesh.metadata["n_s"],
        "n_r": mesh.metadata["n_r"],
        "n_vertices": int(len(mesh.vertices)),
        "n_triangles": int(len(mesh.triangles)),
    }
    if config is not None:
        meta["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
