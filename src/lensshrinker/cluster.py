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
MIN_N_THETA = 16
DEFAULT_N_S = 256
DEFAULT_N_R = 24
DEFAULT_OUTER_FACTOR = 3.0
# triangles (and OBJ lines) per block of mesh_checks and write_obj, so that
# a block's temporaries stay in cache
BLOCK = 8192


@dataclass
class ClusterMesh:
    """Triangle mesh of the lens cluster with per-triangle sheet labels."""

    vertices: np.ndarray      # (n, 3)
    triangles: np.ndarray     # (m, 3) indices
    sheet_id: np.ndarray      # (m,) in {0: upper, 1: lower, 2: annulus}
    junction: np.ndarray      # vertex indices of the shared junction circle
    metadata: dict            # a, xi (the junction radius), sizes, outer

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
    if n_theta < MIN_N_THETA:
        raise ValueError(f"n_theta must be at least {MIN_N_THETA}")
    if n_s < 2:
        raise ValueError("n_s must be at least 2")
    if n_r < 1:
        raise ValueError("n_r must be at least 1")
    if profile.u[0] != 0.0:
        raise DegenerateProfile("profile must start on the rotation axis")
    xi = profile.xi
    outer = DEFAULT_OUTER_FACTOR * xi if annulus_outer is None else annulus_outer
    if not xi < outer < math.inf:
        raise ValueError("annulus_outer must be finite and exceed the "
                         "junction radius")

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
        metadata={"a": profile.a, "xi": xi, "s_bar": profile.s_bar,
                  "n_theta": n_theta, "n_s": n_s, "n_r": n_r,
                  "annulus_outer": float(outer)},
    )
    failed = [name for name, ok, _ in mesh_checks(mesh) if not ok]
    if failed:
        raise DegenerateProfile(f"mesh validity checks failed: {failed}")
    return mesh


def mesh_checks(mesh: ClusterMesh) -> list[tuple[str, bool, str]]:
    """Reflection symmetry, junction coherence, orientation and quality.

    Reflection symmetry: lower-cap triangle i is upper-cap triangle i with
    z negated and its winding reversed, as build_cluster makes it.
    Junction coherence counts the triangles on each undirected edge: an edge
    of the junction circle borders exactly three, one per sheet; an edge of
    the annulus rim (at radius annulus_outer) borders one; every other edge
    borders two.  A missing or duplicated triangle anywhere fails it.

    The checks run over blocks of BLOCK triangles, so that each block's
    temporaries stay in cache.  A block gathers its corner coordinates
    once, column by column, and from them takes each triangle's normal z
    (the orientation sign) and its area against its longest edge.  It
    packs the key of each of its 3 edges as (min*n + max, class, sheet):
    two class bits (junction: both ends on the junction circle; rim: both
    ends at annulus_outer) and three sheet bits, one per sheet.  The
    reflection pairs are compared block by block too, the rows of pair i
    being the i-th upper and the i-th lower row.  Only the (3, m) key array
    and its one sort are whole-mesh.  In the sorted keys each edge is one
    run: its length is the edge's triangle count, its class bits give the
    count expected, and a junction run's sheet bits OR to 0b111 if it has
    one triangle per sheet.  The pass over the runs goes in blocks too.
    """
    v, t, sheet = mesh.vertices, mesh.triangles, mesh.sheet_id
    n_vert, m = len(v), len(t)
    x, y, z = np.ascontiguousarray(v.T)

    upper = np.flatnonzero(sheet == SHEET_UPPER)
    lower = np.flatnonzero(sheet == SHEET_LOWER)
    sym = len(upper) == len(lower)
    for s in range(0, len(upper) if sym else 0, BLOCK):
        up, low = t[upper[s:s + BLOCK]], t[lower[s:s + BLOCK]]
        # lower corners 0, 2, 1 are upper corners 0, 1, 2 with z negated
        sym = all(np.array_equal(x[w], x[u]) and np.array_equal(y[w], y[u])
                  and np.array_equal(z[w], -z[u])
                  for u, w in ((up[:, 0], low[:, 0]), (up[:, 1], low[:, 2]),
                               (up[:, 2], low[:, 1])))
        if not sym:
            break

    # each vertex's class bits, in their place above an edge key's three
    # sheet bits: 1 at the annulus rim, 2 on the junction circle
    on_rim = np.isclose(np.hypot(x, y), mesh.metadata["annulus_outer"],
                        rtol=1e-12, atol=0.0)
    vclass = np.where(on_rim, 1 << 3, 0)
    vclass[mesh.junction] |= 2 << 3
    keys = np.empty((3, m), dtype=np.int64)
    floor_ok, oriented, min_areas = True, True, []
    for s in range(0, m, BLOCK):
        corners = t[s:s + BLOCK].T
        t0, t1, t2 = corners
        sb = sheet[s:s + BLOCK]
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
        oriented = oriented and bool(
            np.all(np.where(sb == SHEET_LOWER, -nz, nz) > 0.0))
        # edges p0 p1, p1 p2 and p2 p0, one row of keys each
        nxt, cls = corners[[1, 2, 0]], vclass[corners]
        keys[:, s:s + BLOCK] = ((np.minimum(corners, nxt) * n_vert
                                 + np.maximum(corners, nxt)) << 5
                                | cls & cls[[1, 2, 0]] | 1 << sb)

    keys = keys.ravel()
    keys.sort()
    # the triangles on an edge of class other, rim, junction, both
    expected = np.array([2, 1, 3, 3])
    # a run ends where the key above its sheet bits changes; `end` carries
    # the last run's end from block to block
    coherent, end = True, -1
    for s in range(0, len(keys), 3 * BLOCK):
        edge = keys[s:s + 3 * BLOCK + 1] >> 3
        ends = s + np.flatnonzero(edge[1:] != edge[:-1])
        if s + 3 * BLOCK >= len(keys):
            ends = np.append(ends, len(keys) - 1)
        counts = np.diff(ends, prepend=end)
        cls = keys[ends] >> 3 & 3
        ring = ends[cls >= 2]
        coherent = (np.array_equal(counts, expected[cls])
                    and bool(np.all((keys[ring] | keys[ring - 1]
                                     | keys[ring - 2]) & 7 == 0b111)))
        if not coherent:
            break
        end = ends[-1] if len(ends) else end

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


# 5^p for p <= 27 in 32-bit limbs; every one is below 2^64
_POW5 = np.array([5 ** p for p in range(28)], dtype=np.uint64)
_POW5_HI, _POW5_LO = _POW5 >> 32, _POW5 & 0xFFFFFFFF


def _scaled(m: np.ndarray, e: np.ndarray,
            k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(x 10^(16-k)) for x = m 2^e, and whether x 10^(16-k) rounds
    half-even up from it.  For a 53-bit m, 2 <= 16 - k <= 27 and k within
    one of floor(log10 x), m 5^(16-k) is exact in two 64-bit words and its
    binary point lies 2..62 bits in."""
    p = 16 - k
    s = (-e - p).view(np.uint64)
    m1, m0 = m >> 32, m & 0xFFFFFFFF
    a, b, c = m0 * _POW5_LO[p], m0 * _POW5_HI[p], m1 * _POW5_LO[p]
    mid = (a >> 32) + (b & 0xFFFFFFFF) + (c & 0xFFFFFFFF)
    hi = m1 * _POW5_HI[p] + (b >> 32) + (c >> 32) + (mid >> 32)
    lo = a & 0xFFFFFFFF | mid << 32
    t = hi << (64 - s) | lo >> s
    rem = lo & (1 << s) - 1
    return t, rem + (t & 1) > 1 << (s - 1)


def _float_tokens(values: np.ndarray) -> np.ndarray:
    """One NUL-holding token per float64; deleting its NULs gives exactly
    '%.17g' % x.

    For 1e-10 <= |x| < 1e14 the 17 significant digits D come from exact
    integer arithmetic (`_scaled`) with k = floor(log10 |x|) from np.log10,
    moved by one where the truncated value falls outside [10^16, 10^17).
    D is spelled from a 4-digit table whose second half has its trailing
    zeros as NUL, used for a group when every later digit is zero.  The
    rows, sorted by k, take one column template per k: fixed notation for
    k >= -4, else d.ddd plus e-XX.  Every other value (zeros, subnormals,
    the smallest and largest, inf and nan) goes through '%.17g'."""
    x = np.abs(values)
    fast = (x >= 1e-10) & (x < 1e14)
    bits = x[fast].view(np.uint64)
    m = bits & (1 << 52) - 1 | 1 << 52
    e = (bits >> 52).view(np.int64) - 1075
    k = np.floor(np.log10(x[fast])).astype(np.int8)
    d, up = _scaled(m, e, k)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    k[off] += np.where(d[off] < 10 ** 16, -1, 1)
    d[off], up[off] = _scaled(m[off], e[off], k[off])
    d += up
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry

    order = np.argsort(k, kind="stable")
    d, k = d[order].view(np.int64), k[order]
    hi, lo = np.divmod(d, 10 ** 8)
    top, g2 = np.divmod(hi, 10 ** 4)
    g0, g1 = np.divmod(top, 10 ** 4)
    g3, g4 = np.divmod(lo, 10 ** 4)
    # a group with only zeros after it is looked up in the stripped half
    stripped = 10000 * (lo == 0)
    groups = np.column_stack([g0, g1 + stripped * (g2 == 0), g2 + stripped,
                              g3 + 10000 * (g4 == 0), g4 + 10000])
    digit = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    kept = np.logical_or.accumulate(digit[:, ::-1] != 0, axis=1)[:, ::-1]
    table = np.concatenate([digit, np.where(kept, digit, -48)]) + 48
    # columns: sign, dot, '0', then the 17 digits (group g0 is "000d")
    chars = table.astype(np.uint8).view("V4")[:, 0][groups].view(np.uint8)
    chars[:, 0] = np.where(values[fast][order] < 0, ord("-"), 0)

    slow = values[~fast].tolist()
    rest = np.array(("%.17g " * len(slow) % tuple(slow)).encode().split(),
                    dtype=bytes)
    width = max(23, rest.dtype.itemsize)
    out = np.zeros((len(d), width), dtype=np.uint8)
    bounds = np.searchsorted(k, np.arange(-10, 15)).tolist()
    for kk, start, stop in zip(range(-10, 14), bounds, bounds[1:]):
        rows = chars[start:stop]
        if kk > 0:  # an integer digit is never stripped
            rows[:, 4:4 + kk] = np.maximum(rows[:, 4:4 + kk], ord("0"))
        first = max(kk + 1, 0) if kk >= -4 else 1  # first fraction digit
        rows[:, 1] = np.where(rows[:, 3 + first], ord("."), 0)
        if kk >= 0:
            cols = [0, *range(3, 4 + kk), 1, *range(4 + kk, 20)]
        elif kk >= -4:
            cols = [0, 2, 1, *[2] * (-kk - 1), *range(3, 20)]
        else:
            cols = [0, 3, 1, *range(4, 20)]
            out[start:stop, 19:23] = np.frombuffer(b"e-%02d" % -kk, np.uint8)
        out[start:stop, :len(cols)] = rows[:, cols]
    tokens = np.empty(len(values), dtype=f"S{width}")
    tokens[np.flatnonzero(fast)[order]] = out.view(f"S{width}")[:, 0]
    tokens[~fast] = rest
    return tokens


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
    `_spaced` token table, with the tokens' NUL bytes deleted.  A token may
    hold NUL bytes anywhere, not only as padding."""
    rows, width = len(index), table.dtype.itemsize
    line = np.empty((rows, len(head) + 3 * width + 1), dtype=np.uint8)
    line[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    line[:, len(head):-1].view(table.dtype)[...] = table[index]
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")


def write_obj(mesh: ClusterMesh, path) -> None:
    """Wavefront OBJ with one group per sheet; 1-based face indices.

    Coordinates are printed as %.17g and indices as %d.  Each distinct
    float64 bit pattern (so -0.0 apart from 0.0) gets one token from
    `_float_tokens`, and the index tokens are spelled from digit columns,
    into token tables that the lines gather from.  The token tables and
    the one np.unique are whole-mesh; the lines are built, stripped of
    their NULs and written in blocks of BLOCK lines, so that no line
    buffer outgrows the cache.  The file is written as bytes, so no
    newline is translated.
    """
    v = np.ascontiguousarray(mesh.vertices, dtype=np.float64)
    t = mesh.triangles
    # checked before the file is opened, which a block written later
    # could not undo
    if t.size and not 0 <= t.min() <= t.max() < len(v):
        raise IndexError("a triangle names a vertex outside the mesh")
    bits, index = np.unique(v.view(np.uint64), return_inverse=True)
    coords = _spaced(_float_tokens(bits.view(np.float64)))
    ids = _spaced(_index_tokens(len(v)))
    index = index.reshape(-1, 3)
    with open(path, "wb") as fh:
        for s in range(0, len(index), BLOCK):
            fh.write(_lines(b"v", coords, index[s:s + BLOCK]))
        for sheet in (SHEET_UPPER, SHEET_LOWER, SHEET_ANNULUS):
            fh.write(f"g {SHEET_NAMES[sheet]}\n".encode())
            rows = np.flatnonzero(mesh.sheet_id == sheet)
            for s in range(0, len(rows), BLOCK):
                fh.write(_lines(b"f", ids, t[rows[s:s + BLOCK]]))


def write_metadata(mesh: ClusterMesh, path, config: dict | None = None) -> None:
    """JSON sidecar: mesh.metadata with a as a_star, plus the vertex and
    triangle counts (and the run config when given)."""
    meta = {**mesh.metadata, "n_vertices": int(len(mesh.vertices)),
            "n_triangles": int(len(mesh.triangles))}
    meta["a_star"] = meta.pop("a")
    if config is not None:
        meta["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
