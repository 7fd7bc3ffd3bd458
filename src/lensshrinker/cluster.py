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

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arclength import LensProfile
from .errors import DegenerateProfile

SHEET_UPPER = 0
SHEET_LOWER = 1
SHEET_ANNULUS = 2
SHEET_NAMES = ("upper_cap", "lower_cap", "planar_annulus")

DEFAULT_N_THETA = 64
MIN_N_THETA = 16
DEFAULT_N_S = 256
DEFAULT_N_R = 24
DEFAULT_OUTER_FACTOR = 3.0
# triangles (and OBJ lines) per block of mesh_checks and write_obj, so that
# a block's temporaries stay in cache
BLOCK = 8192
# the mesh sizes (n_theta, n_s, n_r) whose connectivity and OBJ face block
# stay cached
CACHED_SIZES = 4


@dataclass
class ClusterMesh:
    """Triangle mesh of the lens cluster with per-triangle sheet labels.

    From build_cluster, triangles, sheet_id and junction are read-only
    arrays shared by every mesh of the same sizes (n_theta, n_s, n_r), so
    an in-place write to them raises ValueError; copy them to edit.  Such
    a mesh also holds its size's cached connectivity, which
    dataclasses.replace keeps; see _cached.
    """

    vertices: np.ndarray      # (n, 3)
    triangles: np.ndarray     # (m, 3) indices
    sheet_id: np.ndarray      # (m,) in {0: upper, 1: lower, 2: annulus}
    junction: np.ndarray      # vertex indices of the shared junction circle
    metadata: dict            # a, xi (the junction radius), sizes, outer
    _connectivity: _Connectivity | None = field(default=None, repr=False,
                                                compare=False)


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


def _circle(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi j / n_theta for j = 0 .. n_theta - 1, each a
    signed entry of one quarter wave sin(pi k / 2 n_theta), k = 0 ..
    n_theta, chosen by the quadrant of 4j.  So the reflections in both
    axes (for even n_theta; in the x-axis for any) and the quarter turns
    (when 4 | n_theta) map the table onto itself exactly.  + 0.0 turns
    -0.0 into 0.0."""
    quarter = np.sin(0.5 * math.pi * np.arange(n_theta + 1) / n_theta)

    def wave(m: np.ndarray) -> np.ndarray:
        # sin(pi m / 2 n_theta) for integer m
        q, r = np.divmod(m % (4 * n_theta), n_theta)
        return (np.where(q < 2, 1.0, -1.0)
                * quarter[np.where(q % 2 == 1, n_theta - r, r)] + 0.0)

    m = 4 * np.arange(n_theta)
    return wave(m + n_theta), wave(m)


class _Connectivity:
    """The part of a cluster mesh that depends on its sizes alone: the
    read-only triangles, sheet ids and junction vertex ids, the vertex
    count, what mesh_checks reads of the triangles and sheet ids, and the
    OBJ face block, made on the first export."""

    def __init__(self, triangles: np.ndarray, sheet_id: np.ndarray,
                 junction: np.ndarray, n_vertices: int):
        for arr in (triangles, sheet_id, junction):
            arr.flags.writeable = False
        self.triangles, self.sheet_id = triangles, sheet_id
        self.junction, self.n_vertices = junction, n_vertices
        self.facts = _mesh_facts(triangles, sheet_id, n_vertices)

    @functools.cached_property
    def faces(self) -> bytes:
        return b"".join(_face_lines(
            self.triangles, _sheet_rows(self.sheet_id), self.n_vertices))


def _cached(mesh: ClusterMesh) -> _Connectivity | None:
    """The mesh's connectivity while the mesh holds that connectivity's
    own triangles and sheet_id, as build_cluster returns them and a
    dataclasses.replace of the vertices keeps them, or None."""
    conn = mesh._connectivity
    if (conn is not None and conn.triangles is mesh.triangles
            and conn.sheet_id is mesh.sheet_id):
        return conn
    return None


@functools.lru_cache(maxsize=CACHED_SIZES)
def _connectivity(n_theta: int, n_s: int, n_r: int) -> _Connectivity:
    """The triangles, sheet ids and junction of the cluster mesh at these
    sizes, which no profile changes.  The vertices are laid out as
    build_cluster makes them: the pole and the n_s - 1 upper cap rings
    (the last is the junction), the lower cap's mirror of all but the
    junction ring, then the n_r annulus rings."""
    n_upper = 1 + (n_s - 1) * n_theta
    junction_start = n_upper - n_theta
    annulus_offset = n_upper + junction_start
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
                          upper_tris + n_upper)[:, [0, 2, 1]]
    # planar annulus from the junction ring outward, outward normal +z
    ann_ids = annulus_offset + np.arange(n_r * n_theta).reshape(n_r, n_theta)
    ann_rings = np.concatenate([cap_rings[-1:], ann_ids])
    annulus_tris = band(ann_rings[:-1], ann_rings[1:])
    triangles = np.concatenate([upper_tris, lower_tris, annulus_tris])
    sheet_id = np.repeat([SHEET_UPPER, SHEET_LOWER, SHEET_ANNULUS],
                         [len(upper_tris), len(lower_tris), len(annulus_tris)])
    return _Connectivity(
        triangles, sheet_id,
        np.arange(junction_start, junction_start + n_theta),
        annulus_offset + n_r * n_theta)


def build_cluster(profile: LensProfile, n_theta: int = DEFAULT_N_THETA,
                  annulus_outer: float | None = None,
                  n_s: int = DEFAULT_N_S, n_r: int = DEFAULT_N_R) -> ClusterMesh:
    """Revolve the profile into the watertight three-sheet cluster mesh.

    The profile's axis point maps to a single pole vertex (no seam), the
    junction circle vertices are created once and shared by all three
    sheets, and the unbounded planar sheet is truncated at annulus_outer
    (default 3x the junction radius, recorded in the metadata).

    The connectivity (triangles, sheet ids, junction ids, what
    mesh_checks reads of them and the OBJ face block) depends on the
    sizes alone: it is built once per size, for the last CACHED_SIZES
    sizes, and the mesh holds it and shares its read-only arrays.  The
    vertices and metadata are the call's own, and every mesh passes all
    of mesh_checks.  A size that is not an int, or below its least value,
    raises ValueError.
    """
    # before the cache, whose key takes 16.0 for 16
    for name, size, least in (("n_theta", n_theta, MIN_N_THETA),
                              ("n_s", n_s, 2), ("n_r", n_r, 1)):
        if not isinstance(size, int):
            raise ValueError(f"{name} must be an int, not {size!r}")
        if size < least:
            raise ValueError(f"{name} must be at least {least}")
    if profile.u[0] != 0.0:
        raise DegenerateProfile("profile must start on the rotation axis")
    xi = profile.xi
    outer = DEFAULT_OUTER_FACTOR * xi if annulus_outer is None else annulus_outer
    if not xi < outer < math.inf:
        raise ValueError("annulus_outer must be finite and exceed the "
                         "junction radius")

    u, v = resample_profile(profile, n_s)
    cos_p, sin_p = _circle(n_theta)

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
    vertices = np.concatenate([upper, lower, annulus])

    conn = _connectivity(n_theta, n_s, n_r)
    mesh = ClusterMesh(
        vertices=vertices,
        triangles=conn.triangles,
        sheet_id=conn.sheet_id,
        junction=conn.junction,
        metadata={"a": profile.a, "xi": xi, "s_bar": profile.s_bar,
                  "n_theta": n_theta, "n_s": n_s, "n_r": n_r,
                  "annulus_outer": float(outer)},
        _connectivity=conn,
    )
    failed = [name for name, ok, _ in mesh_checks(mesh) if not ok]
    if failed:
        raise DegenerateProfile(f"mesh validity checks failed: {failed}")
    return mesh


class _MeshFacts(NamedTuple):
    """What mesh_checks reads of a mesh's triangles and sheet ids alone;
    its arrays are read-only."""

    labelled: bool     # one sheet id per triangle, each 0, 1 or 2
    # (upper, lower) vertex id arrays, one entry per distinct mirror pair
    # that the i-th upper and the i-th lower row imply; None if the caps
    # differ in triangle count or sheet_id is not one id per triangle
    mirror: tuple[np.ndarray, np.ndarray] | None
    # (lo, hi) vertex id arrays, one entry per distinct undirected edge;
    # None unless labelled
    edges: tuple[np.ndarray, np.ndarray] | None
    # per edge, the class that its triangles call for: 0 (inner) for two,
    # 1 (rim) for one, 2 (junction) for three with one per sheet, and 3,
    # which no edge has, for anything else
    want: np.ndarray | None


def _firsts(a: np.ndarray) -> np.ndarray:
    """True at the first entry of each run of equal entries of a."""
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _split(keys: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only high part (keys >> b) and low b bits of keys, the
    low bits taken in place."""
    high = keys >> b
    keys &= (1 << b) - 1
    high.flags.writeable = keys.flags.writeable = False
    return high, keys


def _mesh_facts(t: np.ndarray, sheet: np.ndarray, n: int) -> _MeshFacts:
    """The mirror pairs and edges of triangles t, with vertex ids below n
    and sheet ids sheet.  With b the bit length of n, the keys of the
    corner pairs (upper << b | lower) and of the triangle edges
    ((min << b | max) << 3 | the triangle's sheet bit) are sorted once
    each.  Among the sorted edge keys each edge is one run: its length is
    the edge's triangle count, and a run of three ORs its keys' low bits
    to 0b111 if it has one triangle per sheet.  The keys are packed in
    blocks of BLOCK triangles, so that each block's temporaries stay in
    cache, into one buffer, the pair keys and then the edge keys: on the
    first mesh of a process, fresh pages cost more than the sorts."""
    # the keys need 2 b + 3 bits, which an int32 array would wrap
    t, m, b = t.astype(np.int64, copy=False), len(t), n.bit_length()
    if len(sheet) != m:
        return _MeshFacts(False, None, None, None)
    upper, lower, annulus = _sheet_rows(sheet)
    labelled = len(upper) + len(lower) + len(annulus) == m
    buf = np.empty(3 * m, dtype=np.int64)
    mirror = edges = want = None
    if len(upper) == len(lower):
        pairs = buf[:3 * len(upper)].reshape(-1, 3)
        for s in range(0, len(upper), BLOCK):
            # lower corners 0, 2, 1 are upper corners 0, 1, 2 mirrored
            rows = pairs[s:s + BLOCK]
            np.left_shift(np.take(t, upper[s:s + BLOCK], axis=0), b, out=rows)
            rows |= np.take(t, lower[s:s + BLOCK], axis=0)[:, [0, 2, 1]]
        pairs = pairs.ravel()
        pairs.sort()
        mirror = _split(pairs[_firsts(pairs)], b)
    if labelled:
        # edges p0 p1, p1 p2 and p2 p0, one row of keys each
        rows = buf.reshape(3, m)
        for s in range(0, m, BLOCK):
            corners = t[s:s + BLOCK].T
            nxt = corners[[1, 2, 0]]
            rows[:, s:s + BLOCK] = ((np.minimum(corners, nxt) << b
                                     | np.maximum(corners, nxt)) << 3
                                    | 1 << sheet[s:s + BLOCK])
        keys = buf
        keys.sort()
        # the sheet bits (in the low bits of a byte), then the edges in place
        sheets = keys.astype(np.uint8)
        keys >>= 3
        starts = np.flatnonzero(_firsts(keys))
        counts = np.diff(starts, append=len(keys))
        three = np.flatnonzero(counts == 3)
        first = starts[three]
        one_each = (sheets[first] | sheets[first + 1] | sheets[first + 2]
                    ) & 7 == 0b111
        want = np.array([3, 1, 0, 3], dtype=np.uint8)[
            np.minimum(counts, 3, out=counts)]
        want[three[one_each]] = 2
        want.flags.writeable = False
        edges = _split(keys[starts], b)
    return _MeshFacts(labelled, mirror, edges, want)


def mesh_checks(mesh: ClusterMesh) -> list[tuple[str, bool, str]]:
    """Reflection symmetry, junction coherence, orientation and quality.

    Reflection symmetry: lower-cap triangle i is upper-cap triangle i with
    z negated and its winding reversed, as build_cluster makes it.
    Junction coherence counts the triangles on each undirected edge: an edge
    of the junction circle borders exactly three, one per sheet; an edge of
    the annulus rim (at radius annulus_outer) borders one; every other edge
    borders two.  A missing or duplicated triangle anywhere fails it, and
    so does a sheet id other than 0, 1 and 2.  A sheet_id that is not one
    id per triangle fails both and orientation too.

    What the triangles and sheet ids fix alone (the distinct mirror pairs
    of vertices, each distinct edge with the class its triangle count and
    sheets call for) is made once per cached mesh size, read from the
    connectivity the mesh holds (see _cached), and per call for any other
    mesh; see _mesh_facts.  Each call compares the mirror pairs'
    coordinates, gives each edge the class of its ends (rim: both at
    annulus_outer; junction: both on the junction circle) and compares it
    with the class called for.  It takes each triangle's normal z (the
    orientation sign) and its area against its longest edge over blocks
    of BLOCK triangles, so that each block's temporaries stay in cache.
    """
    v, t, sheet = mesh.vertices, mesh.triangles, mesh.sheet_id
    m = len(t)
    conn = _cached(mesh)
    facts = conn.facts if conn is not None else _mesh_facts(t, sheet, len(v))
    x, y, z = np.ascontiguousarray(v.T)

    sym = facts.mirror is not None
    if sym:
        up, low = facts.mirror
        sym = (np.array_equal(x[low], x[up]) and np.array_equal(y[low], y[up])
               and np.array_equal(z[low], -z[up]))

    coherent = facts.labelled
    if coherent:
        # each vertex's class bits: 1 at the annulus rim, 2 on the junction
        # circle; an edge's class is the AND of its ends', junction first
        vclass = np.isclose(np.hypot(x, y), mesh.metadata["annulus_outer"],
                            rtol=1e-12, atol=0.0).astype(np.uint8)
        vclass[mesh.junction] |= 2
        lo, hi = facts.edges
        coherent = np.array_equal(np.minimum(vclass[lo] & vclass[hi], 2),
                                  facts.want)

    floor_ok, oriented, min_areas = True, len(sheet) == m, []
    for s in range(0, m, BLOCK):
        t0, t1, t2 = t[s:s + BLOCK].T
        # edge vectors e1 = p1 - p0, e2 = p2 - p0 and e2 - e1, and their
        # cross product written out
        x0, y0, z0 = x[t0], y[t0], z[t0]
        ax, ay, az = x[t1] - x0, y[t1] - y0, z[t1] - z0
        bx, by, bz = x[t2] - x0, y[t2] - y0, z[t2] - z0
        cx, cy, cz = bx - ax, by - ay, bz - az
        nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        # each area against its own longest edge, so the floor scales per
        # triangle
        longest2 = np.maximum(np.maximum(ax * ax + ay * ay + az * az,
                                         bx * bx + by * by + bz * bz),
                              cx * cx + cy * cy + cz * cz)
        areas = 0.5 * np.sqrt(nx * nx + ny * ny + nz * nz)
        floor_ok = floor_ok and bool(np.all(areas > 1e-12 * longest2))
        min_areas.append(np.min(areas))
        # outward: normal z up on the upper cap and the annulus, down on
        # the lower cap
        oriented = oriented and bool(np.all(
            np.where(sheet[s:s + BLOCK] == SHEET_LOWER, -nz, nz) > 0.0))

    # np.min, not min: a NaN block minimum must print as nan
    return [("reflection_symmetry", sym,
             "lower cap triangles are the z-negated upper cap triangles"),
            ("junction_coherence", coherent,
             "junction edges border one triangle per sheet, rim edges one, "
             "all other edges two"),
            ("no_degenerate_triangles", floor_ok,
             f"min area {np.min(min_areas):.3e}"),
            ("orientation_consistent", oriented,
             "outward normal z-sign uniform per sheet")]


def _index_tokens(n: int) -> np.ndarray:
    """The %d tokens of 1..n, NUL-padded to the width of n.  The d-digit
    numbers 10^(d-1) .. 10^d - 1 are consecutive, and fill the first d of
    the digit columns."""
    width = len(str(n))
    columns = np.zeros((width, n), dtype=np.uint8)
    for d in range(1, width + 1):
        lo, hi = 10 ** (d - 1), min(10 ** d - 1, n)
        k = np.arange(lo, hi + 1)
        for j in range(d):
            columns[j, lo - 1:hi] = k // 10 ** (d - 1 - j) % 10 + ord("0")
    return np.ascontiguousarray(columns.T).view(f"S{width}")[:, 0]


def _spaced(tokens: np.ndarray) -> np.ndarray:
    """The token table with a space before each token, one void item per
    token, so that a line's three fields are one gather."""
    width = tokens.dtype.itemsize
    table = np.empty((len(tokens), width + 1), dtype=np.uint8)
    table[:, 0] = ord(" ")
    table[:, 1:] = tokens.view(np.uint8).reshape(-1, width)
    return table.view(f"V{width + 1}")[:, 0]


def _lines(head: bytes, table: np.ndarray, index: np.ndarray) -> bytes:
    """One line `head tok tok tok` per row of the (rows, 3) index into the
    `_spaced` token table, with the tokens' NUL padding deleted.  A token
    holds NUL bytes only as trailing padding."""
    rows, width = len(index), table.dtype.itemsize
    line = np.empty((rows, len(head) + 3 * width + 1), dtype=np.uint8)
    line[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    line[:, len(head):-1].view(table.dtype)[...] = table[index]
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")


def _sheet_rows(sheet_id: np.ndarray) -> list[np.ndarray]:
    """The rows of each sheet's triangles, upper, lower, annulus."""
    return [np.flatnonzero(sheet_id == sheet)
            for sheet in (SHEET_UPPER, SHEET_LOWER, SHEET_ANNULUS)]


def _face_lines(triangles: np.ndarray, rows: list[np.ndarray],
                n_vertices: int):
    """The OBJ face block in pieces: each sheet's `g` line, then its `f`
    lines in blocks of BLOCK lines."""
    ids = _spaced(_index_tokens(n_vertices))
    for sheet, sheet_rows in zip((SHEET_UPPER, SHEET_LOWER, SHEET_ANNULUS),
                                 rows):
        yield f"g {SHEET_NAMES[sheet]}\n".encode()
        for s in range(0, len(sheet_rows), BLOCK):
            yield _lines(b"f", ids, triangles[sheet_rows[s:s + BLOCK]])


def write_obj(mesh: ClusterMesh, path) -> None:
    """Wavefront OBJ with one group per sheet; 1-based face indices.

    Coordinates are printed as %.17g and indices as %d.  Each distinct
    magnitude bit pattern gets one '%.17g' token, and a coordinate whose
    sign bit is set takes the token's '-'-prefixed twin (so -0.0 prints
    -0, and a NaN prints nan whatever its sign).  The index tokens are
    spelled from digit columns.  The lines gather from these token
    tables, NUL-padded to one width each.  The token tables and the one
    np.unique are whole-mesh; the lines are built, stripped of their
    padding and written in blocks of BLOCK lines, so that no line buffer
    outgrows the cache.  The file is written as bytes, so no newline is
    translated.

    The face block (the `g` and `f` lines) depends on the triangles and
    sheet ids alone.  For a mesh that holds its size's cached
    connectivity (see _cached), the block is built on the first export
    of that size and written whole after; any other mesh gets its block
    built per call.  A vertex id outside the mesh raises IndexError and a
    sheet id other than 0, 1 and 2 (or a sheet_id whose length is not the
    triangle count) raises ValueError, both before the file is opened.
    """
    v = np.ascontiguousarray(mesh.vertices, dtype=np.float64)
    t, sheet_id = mesh.triangles, mesh.sheet_id
    # checked before the file is opened, which a block written later
    # could not undo
    if t.size and not 0 <= t.min() <= t.max() < len(v):
        raise IndexError("a triangle names a vertex outside the mesh")
    conn = _cached(mesh)
    if conn is not None:
        faces = [conn.faces]
    else:
        rows = _sheet_rows(sheet_id)
        if len(sheet_id) != len(t) or sum(map(len, rows)) != len(t):
            raise ValueError("a triangle's sheet id is not 0, 1 or 2")
        faces = _face_lines(t, rows, len(v))
    mags, index = np.unique(v.view(np.uint64) & ((1 << 63) - 1),
                            return_inverse=True)
    x = mags.view(np.float64).tolist()
    tokens = np.array(("%.17g " * len(x) % tuple(x)).encode().split(),
                      dtype=bytes)
    coords = _spaced(np.concatenate([tokens, np.char.add(b"-", tokens)]))
    index = index.reshape(-1, 3) + len(x) * (np.signbit(v) & ~np.isnan(v))
    with open(path, "wb") as fh:
        for s in range(0, len(index), BLOCK):
            fh.write(_lines(b"v", coords, index[s:s + BLOCK]))
        fh.writelines(faces)


def sidecar(mesh: ClusterMesh) -> dict:
    """The sidecar's payload: mesh.metadata with a as a_star, plus the
    vertex and triangle counts."""
    meta = {**mesh.metadata, "n_vertices": int(len(mesh.vertices)),
            "n_triangles": int(len(mesh.triangles))}
    meta["a_star"] = meta.pop("a")
    return meta


def write_metadata(mesh: ClusterMesh, path, config: dict | None = None) -> None:
    """JSON sidecar: the `sidecar` payload, plus the run config when
    given."""
    meta = sidecar(mesh)
    if config is not None:
        meta["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
