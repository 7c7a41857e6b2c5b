"""Conforming 2D triangle meshes of polygonal domains.

A :class:`Mesh` stores vertices, counterclockwise triangles and the derived
edge connectivity.  Two refinement operations are provided:

* :func:`refine_uniform` -- red refinement, every triangle is split into
  four congruent children through its edge midpoints;
* :func:`refine_marked` -- newest-vertex bisection of a marked subset,
  with recursive conforming closure so that no hanging nodes remain.

Conventions used throughout the package:

* local edge ``i`` of a triangle is the edge opposite local vertex ``i``;
* ``refinement_edge[t]`` is the local index of the edge across which
  triangle ``t`` is bisected next;
* meshes are immutable, refinement returns a new :class:`Mesh` and records
  one generation of genealogy (``parent`` per triangle, ``vertex_parents``
  per vertex).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Raised when mesh construction or validation fails."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation of a polygonal domain.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex indices per triangle, counterclockwise.
    edges : (ne, 2) int array
        Unique edges as sorted vertex pairs, lexicographically ordered.
    triangle_edges : (nt, 3) int array
        Global edge index opposite each local vertex.
    boundary_edge_flags : (ne,) bool array
        True for edges adjacent to exactly one triangle.
    refinement_edge : (nt,) int array
        Local index of the bisection edge of each triangle.
    parent : (nt,) int array
        Index of the triangle in the previous mesh that spawned this one;
        -1 on freshly constructed meshes.
    vertex_parents : (nv, 2) int array
        For vertices created as edge midpoints, the endpoint indices in the
        previous mesh; ``(i, i)`` for inherited vertices.
    expected_area : float
        Total domain area, preserved by refinement.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray
    boundary_edge_flags: np.ndarray
    refinement_edge: np.ndarray
    parent: np.ndarray
    vertex_parents: np.ndarray
    expected_area: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def edge_midpoints(self) -> np.ndarray:
        """Midpoint coordinates of every edge, shape (ne, 2)."""
        ev = self.vertices[self.edges]
        return 0.5 * (ev[:, 0] + ev[:, 1])

    def boundary_vertices(self) -> np.ndarray:
        """Sorted indices of vertices lying on a boundary edge."""
        return np.unique(self.edges[self.boundary_edge_flags])


def signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed area of each triangle (positive for counterclockwise)."""
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    ab = b - a
    ac = c - a
    return 0.5 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])


def _build_mesh(vertices, triangles, *, refinement_edge=None, parent=None,
                vertex_parents=None, expected_area=None) -> Mesh:
    """Assemble a Mesh from vertices and triangles, deriving connectivity.

    When ``refinement_edge`` is None, each triangle gets its longest edge,
    ties broken by the lowest global edge index.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must have shape (nv, 2)")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must have shape (nt, 3)")
    nt = triangles.shape[0]
    nv = vertices.shape[0]

    areas = signed_areas(vertices, triangles)
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} is not counterclockwise "
                        f"(signed area {areas[bad]:.3e})")

    # local edge i is opposite local vertex i
    pairs = np.stack([triangles[:, [1, 2]],
                      triangles[:, [2, 0]],
                      triangles[:, [0, 1]]], axis=1).reshape(-1, 2)
    pairs = np.sort(pairs, axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    triangle_edges = inverse.reshape(nt, 3).astype(np.int64)

    counts = np.bincount(triangle_edges.ravel(), minlength=edges.shape[0])
    if counts.max(initial=0) > 2:
        raise MeshError("an edge is shared by more than two triangles")
    boundary_edge_flags = counts == 1

    if refinement_edge is None:
        ev = vertices[edges]
        lengths = np.linalg.norm(ev[:, 1] - ev[:, 0], axis=1)
        tri_len = lengths[triangle_edges]
        longest = tri_len.max(axis=1, keepdims=True)
        candidate = tri_len == longest
        masked = np.where(candidate, triangle_edges, np.iinfo(np.int64).max)
        refinement_edge = np.argmin(masked, axis=1).astype(np.int64)
    else:
        refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int64)

    if parent is None:
        parent = np.full(nt, -1, dtype=np.int64)
    if vertex_parents is None:
        idx = np.arange(nv, dtype=np.int64)
        vertex_parents = np.stack([idx, idx], axis=1)
    if expected_area is None:
        expected_area = float(areas.sum())

    for arr in (vertices, triangles, edges, triangle_edges,
                boundary_edge_flags, refinement_edge, parent, vertex_parents):
        arr.setflags(write=False)

    return Mesh(vertices, triangles, edges, triangle_edges,
                boundary_edge_flags, refinement_edge,
                np.asarray(parent, dtype=np.int64),
                np.asarray(vertex_parents, dtype=np.int64),
                float(expected_area))


def unit_square_mesh(n: int) -> Mesh:
    """Structured triangulation of the unit square.

    The square is split into an ``n`` x ``n`` grid of cells, each divided
    along its bottom-left to top-right diagonal.

    Parameters
    ----------
    n : int
        Number of cells per side, must be at least 1.

    Returns
    -------
    Mesh
        Mesh with ``2*n**2`` triangles and ``(n+1)**2`` vertices.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise MeshError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v01 = vid(i, j + 1)
            v11 = vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return _build_mesh(vertices, np.asarray(tris), expected_area=1.0)


def refine_uniform(m: Mesh) -> Mesh:
    """Red refinement: split every triangle into four congruent children.

    New vertices are the edge midpoints; child ``4*t + k`` descends from
    triangle ``t``.  The mesh size (longest triangle diameter) halves
    exactly.
    """
    nv = m.n_vertices
    tri = m.triangles
    te = m.triangle_edges

    midpoints = m.edge_midpoints()
    vertices = np.vstack([m.vertices, midpoints])

    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    mbc = nv + te[:, 0]
    mca = nv + te[:, 1]
    mab = nv + te[:, 2]
    children = np.stack([
        np.column_stack([a, mab, mca]),
        np.column_stack([mab, b, mbc]),
        np.column_stack([mca, mbc, c]),
        np.column_stack([mab, mbc, mca]),
    ], axis=1).reshape(-1, 3)

    parent = np.repeat(np.arange(m.n_triangles, dtype=np.int64), 4)
    old = np.arange(nv, dtype=np.int64)
    vertex_parents = np.vstack([np.stack([old, old], axis=1), m.edges])
    return _build_mesh(vertices, children, parent=parent,
                       vertex_parents=vertex_parents,
                       expected_area=m.expected_area)


def refine_marked(m: Mesh, marked) -> Mesh:
    """Bisect the marked triangles, closing the mesh to stay conforming.

    Every marked triangle is bisected at least once across its refinement
    edge (newest-vertex bisection).  The closure marks further refinement
    edges until every triangle with a split edge can be subdivided
    conformally; a triangle is split into 2, 3 or 4 children depending on
    how many of its edges end up marked.

    Parameters
    ----------
    m : Mesh
    marked : iterable of int
        Triangle indices to bisect.  Out-of-range indices are rejected.

    Returns
    -------
    Mesh
        The refined mesh; the input mesh itself when ``marked`` is empty.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if marked.size == 0:
        return m
    if marked.min() < 0 or marked.max() >= m.n_triangles:
        raise MeshError("marked triangle index out of range")

    tri = m.triangles
    te = m.triangle_edges
    ref = m.refinement_edge
    nt = m.n_triangles
    nv = m.n_vertices

    # mark refinement edges of the marked triangles, then propagate:
    # any triangle owning a marked edge must have its own refinement edge
    # marked too, so that the final split pattern is conforming.
    edge_marked = np.zeros(m.n_edges, dtype=bool)
    rows = np.arange(nt)
    ref_global = te[rows, ref]
    edge_marked[ref_global[marked]] = True
    while True:
        needs = edge_marked[te].any(axis=1)
        grow = needs & ~edge_marked[ref_global]
        if not grow.any():
            break
        edge_marked[ref_global[grow]] = True

    # one midpoint vertex per marked edge, allocated in edge order
    marked_edge_ids = np.nonzero(edge_marked)[0]
    midvertex = np.full(m.n_edges, -1, dtype=np.int64)
    midvertex[marked_edge_ids] = nv + np.arange(marked_edge_ids.size)
    vertices = np.vstack([m.vertices, m.edge_midpoints()[marked_edge_ids]])
    old = np.arange(nv, dtype=np.int64)
    vertex_parents = np.vstack([np.stack([old, old], axis=1),
                                m.edges[marked_edge_ids]])

    new_tris = []
    new_ref = []
    new_parent = []

    def emit(t, verts, ref_local):
        new_tris.append(verts)
        new_ref.append(ref_local)
        new_parent.append(t)

    def bisect(t, p, q, r, mid, split_left, split_right,
               mid_left, mid_right):
        # ordered triangle (p, q, r) with refinement edge (p, q);
        # children inherit the full former edges (r, p) and (q, r) as their
        # refinement edges and split again in this round when those are
        # marked
        if split_left:
            emit(t, (r, mid_left, mid), 1)
            emit(t, (mid_left, p, mid), 0)
        else:
            emit(t, (p, mid, r), 1)
        if split_right:
            emit(t, (q, mid_right, mid), 1)
            emit(t, (mid_right, r, mid), 0)
        else:
            emit(t, (mid, q, r), 0)

    for t in range(nt):
        local = edge_marked[te[t]]
        if not local.any():
            emit(t, tuple(tri[t]), ref[t])
            continue
        r = ref[t]
        peak = tri[t, r]
        p = tri[t, (r + 1) % 3]
        q = tri[t, (r + 2) % 3]
        e_pq = te[t, r]
        e_rp = te[t, (r + 2) % 3]  # edge opposite q, i.e. (peak, p)
        e_qr = te[t, (r + 1) % 3]  # edge opposite p, i.e. (q, peak)
        bisect(t, p, q, peak, midvertex[e_pq],
               edge_marked[e_rp], edge_marked[e_qr],
               midvertex[e_rp], midvertex[e_qr])

    return _build_mesh(vertices, np.asarray(new_tris, dtype=np.int64),
                       refinement_edge=np.asarray(new_ref, dtype=np.int64),
                       parent=np.asarray(new_parent, dtype=np.int64),
                       vertex_parents=vertex_parents,
                       expected_area=m.expected_area)


def mesh_size(m: Mesh) -> float:
    """Longest triangle diameter (the mesh size h)."""
    ev = m.vertices[m.edges]
    return float(np.linalg.norm(ev[:, 1] - ev[:, 0], axis=1).max())


def export_svg(m: Mesh, path, *, size: int = 640, stroke: str = "#1a1a1a",
               stroke_width: float = 0.8) -> None:
    """Write a wireframe snapshot of the mesh as an SVG file."""
    lo = m.vertices.min(axis=0)
    hi = m.vertices.max(axis=0)
    span = max(float((hi - lo).max()), 1e-30)
    pad = 0.02 * span
    scale = size / (span + 2 * pad)

    def to_px(pt):
        x = (pt[0] - lo[0] + pad) * scale
        y = size - (pt[1] - lo[1] + pad) * scale  # SVG y grows downward
        return x, y

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<g stroke="{stroke}" stroke-width="{stroke_width}" '
             f'fill="none" stroke-linecap="round">']
    ev = m.vertices[m.edges]
    for k in range(m.n_edges):
        x1, y1 = to_px(ev[k, 0])
        x2, y2 = to_px(ev[k, 1])
        lines.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" '
                     f'x2="{x2:.2f}" y2="{y2:.2f}"/>')
    lines.append("</g></svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_vtk(m: Mesh, path) -> None:
    """Write the mesh as a legacy-VTK ASCII unstructured grid."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("plapminres triangulation\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {m.n_vertices} double\n")
        for x, y in m.vertices:
            fh.write(f"{x!r} {y!r} 0.0\n")
        fh.write(f"CELLS {m.n_triangles} {4 * m.n_triangles}\n")
        for a, b, c in m.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {m.n_triangles}\n")
        fh.write("\n".join(["5"] * m.n_triangles) + "\n")
