"""Conforming 2D triangle meshes of polygonal domains.

A :class:`Mesh` stores vertices, counterclockwise triangles and the derived
edge connectivity.  Two refinement operations are provided:

* :func:`refine_uniform` -- red refinement, every triangle is split into
  four congruent children through its edge midpoints;
* :func:`refine_marked` -- newest-vertex bisection of a marked subset,
  with recursive conforming closure so that no hanging nodes remain.

Both build their children as one table per refinement, without a loop
over triangles: red refinement stacks four children per triangle, and
bisection fills an (nt, 4, 3) table of the up to four children each
triangle can have and keeps the rows its marked edges select, in
parent order.

Conventions used throughout the package:

* local edge ``i`` of a triangle is the edge opposite local vertex ``i``;
* ``refinement_edge[t]`` is the local index of the edge across which
  triangle ``t`` is bisected next;
* meshes are immutable, refinement returns a new :class:`Mesh` and records
  one generation of genealogy (``parent`` per triangle, ``vertex_parents``
  per vertex);
* every mesh carries its element geometry, computed once when it is
  built: the triangle ``areas`` and the barycentric gradients
  ``grad_lambda``; the CR basis function of edge ``i`` is
  ``1 - 2 lambda_i``, with gradient ``-2 * grad_lambda[:, i]`` (the CR
  ``basis_gradients`` of :func:`plapminres.spaces.build_space`).
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
    areas : (nt,) float array
        Area of each triangle.
    grad_lambda : (nt, 3, 2) float array
        ``grad_lambda[t, i]`` is the constant gradient of the barycentric
        coordinate (the P1 hat function) of local vertex ``i`` on ``t``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray
    boundary_edge_flags: np.ndarray
    refinement_edge: np.ndarray
    parent: np.ndarray
    vertex_parents: np.ndarray
    areas: np.ndarray
    grad_lambda: np.ndarray

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


def _build_mesh(vertices, triangles, *, refinement_edge, parent=None,
                midpoint_parents=None) -> Mesh:
    """Assemble a Mesh from vertices and triangles, deriving connectivity.

    ``refinement_edge`` is the local bisection edge of each triangle, which
    every constructor states.  ``midpoint_parents``
    holds the endpoint pairs of the edge midpoints that a refinement
    appends to the vertices; every vertex before them is inherited and
    gets the parents ``(i, i)``.
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
    # one int64 key per sorted pair orders the edges lexicographically
    keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1],
                              return_inverse=True)
    edges = np.stack(np.divmod(keys, nv), axis=1)
    triangle_edges = inverse.reshape(nt, 3).astype(np.int64)

    counts = np.bincount(triangle_edges.ravel(), minlength=edges.shape[0])
    if counts.max(initial=0) > 2:
        raise MeshError("an edge is shared by more than two triangles")
    boundary_edge_flags = counts == 1

    refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int64)

    if parent is None:
        parent = np.full(nt, -1, dtype=np.int64)
    if midpoint_parents is None:
        midpoint_parents = np.empty((0, 2), dtype=np.int64)
    inherited = np.arange(nv - len(midpoint_parents), dtype=np.int64)
    vertex_parents = np.vstack([np.stack([inherited, inherited], axis=1),
                                midpoint_parents])

    # grad(lambda_i) = rot90(x_{i+2} - x_{i+1}) / (2 area)
    coords = vertices[triangles]
    e = np.stack([coords[:, 2] - coords[:, 1],
                  coords[:, 0] - coords[:, 2],
                  coords[:, 1] - coords[:, 0]], axis=1)
    rot = np.empty_like(e)
    rot[..., 0] = -e[..., 1]
    rot[..., 1] = e[..., 0]
    grad_lambda = rot / (2.0 * areas)[:, None, None]

    for arr in (vertices, triangles, edges, triangle_edges,
                boundary_edge_flags, refinement_edge, parent, vertex_parents,
                areas, grad_lambda):
        arr.setflags(write=False)

    return Mesh(vertices, triangles, edges, triangle_edges,
                boundary_edge_flags, refinement_edge,
                np.asarray(parent, dtype=np.int64), vertex_parents,
                areas, grad_lambda)


def unit_square_mesh(n: int) -> Mesh:
    """Structured triangulation of the unit square.

    The square is split into an ``n`` x ``n`` grid of cells, each divided
    along its bottom-left to top-right diagonal, the longest edge and so
    the refinement edge of both halves.

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

    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v11 = v00 + n + 2
    tris = np.stack([v00, v00 + 1, v11, v00, v11, v00 + n + 1],
                    axis=1).reshape(-1, 3)
    # the diagonal is local edge 1 of the lower half, 2 of the upper one
    return _build_mesh(vertices, tris, refinement_edge=np.tile([1, 2], n * n))


def refine_uniform(m: Mesh) -> Mesh:
    """Red refinement: split every triangle into four congruent children.

    New vertices are the edge midpoints; child ``4*t + k`` descends from
    triangle ``t``.  The mesh size (longest triangle diameter) halves
    exactly.  Every child is similar to its parent and takes the parent's
    refinement edge under that similarity.
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

    # the corner children keep the parent's local vertex order; the middle
    # child's edge k is parallel to the parent's edge (k + 2) % 3
    ref = m.refinement_edge
    child_ref = np.stack([ref, ref, ref, (ref + 1) % 3], axis=1).ravel()
    parent = np.repeat(np.arange(m.n_triangles, dtype=np.int64), 4)
    return _build_mesh(vertices, children, refinement_edge=child_ref,
                       parent=parent, midpoint_parents=m.edges)


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
        Triangle indices to bisect.  Out-of-range indices are rejected,
        and so are non-integer ones: a boolean mask or a float index
        raises a :class:`MeshError` instead of being read as indices.

    Returns
    -------
    Mesh
        The refined mesh; the input mesh itself when ``marked`` is empty.
    """
    marked = np.asarray(list(marked))
    if marked.size == 0:
        return m
    if marked.dtype.kind not in "iu":
        raise MeshError(f"marked triangles must be integer indices, got "
                        f"dtype {marked.dtype}")
    marked = np.unique(marked.astype(np.int64))
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

    # one (nt, 4, 3) child table, left half before right half.  Triangle
    # (peak, p, q) with refinement edge (p, q) is bisected at mid; its
    # halves inherit the full former edges (peak, p) and (q, peak) as their
    # refinement edges and split again across them when those are marked
    peak, p, q = (tri[rows, (ref + k) % 3] for k in range(3))
    mid = midvertex[ref_global]
    e_left, e_right = te[rows, (ref + 2) % 3], te[rows, (ref + 1) % 3]
    left, right = edge_marked[e_left], edge_marked[e_right]
    ml, mr = midvertex[e_left], midvertex[e_right]
    split = edge_marked[ref_global]
    children = np.stack([
        np.where(split, np.where(left, [peak, ml, mid], [p, mid, peak]), tri.T),
        [ml, p, mid],
        np.where(right, [q, mr, mid], [mid, q, peak]),
        [mr, peak, mid],
    ]).transpose(2, 0, 1)
    zero = np.zeros(nt, dtype=np.int64)
    child_ref = np.stack([np.where(split, 1, ref), zero, right, zero], axis=1)
    # after the closure a triangle with any marked edge has its refinement
    # edge marked, so split selects exactly the triangles that are divided
    keep = np.stack([np.ones(nt, dtype=bool), split & left, split,
                     split & right], axis=1)
    return _build_mesh(vertices, children[keep],
                       refinement_edge=child_ref[keep],
                       parent=np.repeat(rows, keep.sum(axis=1)),
                       midpoint_parents=m.edges[marked_edge_ids])


def mesh_size(m: Mesh) -> float:
    """Longest triangle diameter (the mesh size h)."""
    ev = m.vertices[m.edges]
    return float(np.linalg.norm(ev[:, 1] - ev[:, 0], axis=1).max())


def export_svg(m: Mesh, path) -> None:
    """Write a 640 x 640 pixel wireframe snapshot of the mesh as an SVG file."""
    size = 640
    lo = m.vertices.min(axis=0)
    hi = m.vertices.max(axis=0)
    span = max(float((hi - lo).max()), 1e-30)
    pad = 0.02 * span
    scale = size / (span + 2 * pad)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             '<g stroke="#1a1a1a" stroke-width="0.8" '
             'fill="none" stroke-linecap="round">']
    ev = m.vertices[m.edges]  # (ne, 2, 2)
    px = (ev[:, :, 0] - lo[0] + pad) * scale
    py = size - (ev[:, :, 1] - lo[1] + pad) * scale  # SVG y grows downward
    lines += [f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"/>'
              for (x1, x2), (y1, y2) in zip(px.tolist(), py.tolist())]
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
        for x, y in m.vertices.tolist():
            fh.write(f"{x!r} {y!r} 0.0\n")
        fh.write(f"CELLS {m.n_triangles} {4 * m.n_triangles}\n")
        for a, b, c in m.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {m.n_triangles}\n")
        fh.write("\n".join(["5"] * m.n_triangles) + "\n")
