import numpy as np
import pytest

from plapminres.mesh import (
    Mesh,
    MeshError,
    export_svg,
    export_vtk,
    mesh_size,
    refine_marked,
    refine_uniform,
    signed_areas,
    unit_square_mesh,
)
from tests.oracles import check_mesh, min_angle


def euler_edge_count(nv: int, nt: int) -> int:
    # disk-like mesh: nv - ne + nt = 1
    return nv + nt - 1


def connectivity_fingerprint(m: Mesh):
    """Relabeling-invariant summary: geometry multisets + degree multisets."""
    verts = np.sort(np.round(m.vertices, 12).view("f8").reshape(-1, 2), axis=0)
    centroids = m.vertices[m.triangles].mean(axis=1)
    cents = centroids[np.lexsort((centroids[:, 1], centroids[:, 0]))]
    mids = m.edge_midpoints()
    mids = mids[np.lexsort((mids[:, 1], mids[:, 0]))]
    vertex_tri_degree = np.sort(np.bincount(m.triangles.ravel(),
                                            minlength=m.n_vertices))
    vertex_edge_degree = np.sort(np.bincount(m.edges.ravel(),
                                             minlength=m.n_vertices))
    return verts, cents, mids, vertex_tri_degree, vertex_edge_degree


class TestUnitSquare:
    def test_minimal_split(self):
        m = unit_square_mesh(1)
        assert m.n_triangles == 2
        assert m.n_vertices == 4
        assert m.n_edges == 5
        assert int(m.boundary_edge_flags.sum()) == 4

    def test_counts_n2_match_euler_formula(self):
        m = unit_square_mesh(2)
        assert m.n_triangles == 8
        assert m.n_vertices == 9
        assert m.n_edges == euler_edge_count(m.n_vertices, m.n_triangles) == 16
        assert int(m.boundary_edge_flags.sum()) == 8

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_valid_and_unit_area(self, n):
        m = unit_square_mesh(n)
        assert check_mesh(m) == []
        assert signed_areas(m.vertices, m.triangles).sum() == pytest.approx(1.0, rel=1e-14)

    def test_rejects_zero(self):
        with pytest.raises(MeshError):
            unit_square_mesh(0)

    def test_triangle_order_n2(self):
        # row-major cells, each lower-right then upper-left of its diagonal
        assert unit_square_mesh(2).triangles.tolist() == [
            [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
            [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]]

    def test_refined_n1_matches_n2_up_to_relabeling(self):
        refined = refine_uniform(unit_square_mesh(1))
        direct = unit_square_mesh(2)
        for got, want in zip(connectivity_fingerprint(refined),
                             connectivity_fingerprint(direct)):
            assert np.allclose(got, want, atol=1e-13)


def edge_table_by_rows(m: Mesh):
    """Edges and triangle edges from ``np.unique`` over the rows of the
    sorted vertex pairs, the lexicographic order the mesh promises."""
    pairs = np.sort(m.triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2),
                    axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    return edges, inverse.reshape(-1, 3)


@pytest.mark.parametrize("make_mesh", [
    lambda: refine_uniform(refine_uniform(unit_square_mesh(3))),
    lambda: refine_marked(refine_marked(unit_square_mesh(4), [0, 7, 12]),
                          [1, 2, 30, 31])], ids=["uniform", "bisected"])
def test_edge_table_matches_row_unique(make_mesh):
    m = make_mesh()
    edges, triangle_edges = edge_table_by_rows(m)
    assert m.edges.dtype == m.triangle_edges.dtype == np.int64
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.triangle_edges, triangle_edges)


@pytest.mark.parametrize("refine", [
    refine_uniform, lambda m: refine_marked(m, [1, 2, 30, 31])],
    ids=["uniform", "bisected"])
def test_vertex_genealogy(refine):
    coarse = unit_square_mesh(4)
    fine = refine(coarse)
    nv = coarse.n_vertices
    own = np.repeat(np.arange(nv)[:, None], 2, axis=1)
    assert np.array_equal(coarse.vertex_parents, own)
    # inherited vertices keep their index and are their own parents; each
    # new vertex is the midpoint of a distinct coarse edge
    assert np.array_equal(fine.vertices[:nv], coarse.vertices)
    assert np.array_equal(fine.vertex_parents[:nv], own)
    new = fine.vertex_parents[nv:]
    assert new.shape[0] == fine.n_vertices - nv > 0
    assert np.unique(new, axis=0).shape == new.shape
    assert np.array_equal(new, np.sort(new, axis=1))
    assert np.array_equal(fine.vertices[nv:],
                          0.5 * (coarse.vertices[new[:, 0]]
                                 + coarse.vertices[new[:, 1]]))
    assert fine.vertex_parents.dtype == np.int64
    assert not fine.vertex_parents.flags.writeable


class TestUniformRefinement:
    def test_four_way_split(self):
        m = refine_uniform(unit_square_mesh(1))
        assert m.n_triangles == 8
        assert check_mesh(m) == []

    def test_area_conserved(self):
        m = unit_square_mesh(3)
        r = refine_uniform(m)
        before = signed_areas(m.vertices, m.triangles).sum()
        after = signed_areas(r.vertices, r.triangles).sum()
        assert abs(after - before) <= 1e-12 * before

    def test_mesh_size_halves_exactly(self):
        m = unit_square_mesh(2)
        r = refine_uniform(m)
        assert mesh_size(r) == 0.5 * mesh_size(m)

    def test_power_of_four_counts(self):
        m = unit_square_mesh(1)
        for k in range(1, 4):
            m = refine_uniform(m)
            assert m.n_triangles == 2 * 4 ** k

    def test_genealogy(self):
        m = unit_square_mesh(2)
        r = refine_uniform(m)
        assert np.array_equal(r.parent, np.repeat(np.arange(8), 4))
        # every new vertex is the midpoint of the recorded parent edge
        new = np.arange(m.n_vertices, r.n_vertices)
        parents = r.vertex_parents[new]
        expected = 0.5 * (m.vertices[parents[:, 0]] + m.vertices[parents[:, 1]])
        assert np.array_equal(r.vertices[new], expected)


class TestMarkedRefinement:
    def test_empty_marking_is_identity(self):
        m = unit_square_mesh(2)
        assert refine_marked(m, []) is m
        assert refine_marked(m, np.empty(0, dtype=np.int64)) is m

    @pytest.mark.parametrize("marked", [
        np.zeros(8, dtype=bool), np.eye(1, 8, 3, dtype=bool).ravel(), [1.7],
        np.array([1.0]), ["1"]],
        ids=["all_false_mask", "mask", "float", "integral_float", "string"])
    def test_non_integer_marking_rejected(self, marked):
        # a mask or a float would otherwise be read as triangle indices:
        # an all-False mask refines triangle 0 and [1.7] triangle 1
        with pytest.raises(MeshError, match="integer"):
            refine_marked(unit_square_mesh(2), marked)

    def test_integer_list_matches_array(self):
        m = unit_square_mesh(2)
        want = refine_marked(m, np.array([5, 3], dtype=np.int64))
        for marked in ([3, 5], (5, 3, 3), [np.int32(3), np.uint8(5)]):
            got = refine_marked(m, marked)
            assert np.array_equal(got.triangles, want.triangles)
            assert np.array_equal(got.parent, want.parent)

    def test_all_marked_lower_bound(self):
        m = unit_square_mesh(2)
        r = refine_marked(m, range(m.n_triangles))
        assert r.n_triangles >= 2 * m.n_triangles
        assert check_mesh(r) == []

    def test_single_mark_conforming_closure(self):
        m = unit_square_mesh(2)
        r = refine_marked(m, [3])
        assert check_mesh(r) == []
        assert r.n_triangles > m.n_triangles

    def test_out_of_range_rejected(self):
        m = unit_square_mesh(2)
        with pytest.raises(MeshError):
            refine_marked(m, [m.n_triangles])
        with pytest.raises(MeshError):
            refine_marked(m, [-1])

    def test_marked_triangles_are_gone(self):
        # every marked triangle must be bisected at least once
        m = unit_square_mesh(2)
        marked = [0, 5]
        r = refine_marked(m, marked)
        for t in marked:
            children = np.nonzero(r.parent == t)[0]
            assert len(children) >= 2

    def test_random_rounds_stay_conforming(self):
        rng = np.random.default_rng(7)
        m = unit_square_mesh(2)
        initial_angle = min_angle(m)
        for _ in range(30):
            k = rng.integers(1, 4)
            marked = rng.choice(m.n_triangles, size=k, replace=False)
            m = refine_marked(m, marked)
            assert check_mesh(m) == []
        assert min_angle(m) >= 0.5 * initial_angle - 1e-12

    # On this 6-triangle mesh, marks (0, 4) leave triangles 1, 3 and 5
    # whole, bisect 0 and 4 once and split 2 across all three edges; marks
    # (0, 1) bisect 0, 1, 3 and 4 once and add the left half's split to 5
    # and the right half's to 2.  The children of each parent come in a
    # fixed order, which the triangle numbering of the next level (and so
    # the marking tie-break and the assembly order) depends on.
    @pytest.mark.parametrize("marked,triangles,refinement_edge,parent", [
        ((0, 4),
         [[4, 9, 6], [9, 1, 6], [6, 3, 4], [4, 8, 7], [8, 0, 7], [1, 9, 7],
          [9, 4, 7], [2, 5, 4], [0, 8, 5], [8, 4, 5], [4, 3, 2]],
         [1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0],
         [0, 0, 1, 2, 2, 2, 2, 3, 4, 4, 5]),
        ((0, 1),
         [[4, 8, 6], [8, 1, 6], [3, 10, 6], [10, 4, 6], [0, 7, 4], [1, 8, 7],
          [8, 4, 7], [2, 5, 4], [5, 0, 4], [4, 10, 9], [10, 3, 9], [9, 2, 4]],
         [1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0],
         [0, 0, 1, 1, 2, 2, 2, 3, 4, 5, 5, 5]),
    ], ids=["whole-bisected-all_three", "left-right"])
    def test_bisection_child_order(self, marked, triangles, refinement_edge,
                                   parent):
        m = refine_marked(refine_marked(unit_square_mesh(1), [0]), [0, 2])
        assert m.triangles.tolist() == [[1, 6, 4], [6, 3, 4], [4, 0, 1],
                                        [2, 5, 4], [5, 0, 4], [4, 3, 2]]
        assert m.refinement_edge.tolist() == [1, 0, 0, 1, 0, 0]
        r = refine_marked(m, marked)
        assert r.triangles.tolist() == triangles
        assert r.refinement_edge.tolist() == refinement_edge
        assert r.parent.tolist() == parent

    def test_area_conserved_under_bisection(self):
        m = unit_square_mesh(2)
        r = refine_marked(m, [0, 1, 2])
        total = signed_areas(r.vertices, r.triangles).sum()
        assert abs(total - 1.0) <= 1e-12


def geometry_meshes():
    """A unit square, its uniform refinement and three successive marked
    refinements, each bisecting the two triangles nearest the origin."""
    m = unit_square_mesh(2)
    meshes = {"square": m, "uniform": refine_uniform(m)}
    for k in range(1, 4):
        centroids = m.vertices[m.triangles].mean(axis=1)
        m = refine_marked(m, np.argsort(np.linalg.norm(centroids, axis=1))[:2])
        meshes[f"marked{k}"] = m
    return meshes


GEOMETRY_MESHES = geometry_meshes()


class TestMeshGeometry:
    def test_basis_gradients_sum_to_zero(self):
        m = unit_square_mesh(3)
        assert np.abs(m.grad_lambda.sum(axis=1)).max() < 1e-13
        # the CR basis gradients -2 grad(lambda_i)
        assert np.abs((-2.0 * m.grad_lambda).sum(axis=1)).max() < 1e-13

    def test_area_total(self):
        m = unit_square_mesh(4)
        assert m.areas.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("name", GEOMETRY_MESHES)
    def test_areas_match_shoelace(self, name):
        m = GEOMETRY_MESHES[name]
        x, y = m.vertices[m.triangles].transpose(2, 0, 1)  # (nt, 3) each
        shoelace = 0.5 * (x * np.roll(y, -1, axis=1)
                          - np.roll(x, -1, axis=1) * y).sum(axis=1)
        assert m.areas.shape == (m.n_triangles,)
        assert np.abs(m.areas - shoelace).max() <= 1e-15 * shoelace.max()

    @pytest.mark.parametrize("name", GEOMETRY_MESHES)
    def test_grad_lambda_dual_to_edges(self, name):
        # grad(lambda_i) . (x_j - x_k) = delta_ij - delta_ik
        m = GEOMETRY_MESHES[name]
        coords = m.vertices[m.triangles]
        diff = coords[:, :, None, :] - coords[:, None, :, :]  # x_j - x_k
        got = np.einsum("tid,tjkd->tijk", m.grad_lambda, diff)
        eye = np.eye(3)
        want = eye[:, :, None] - eye[:, None, :]
        assert m.grad_lambda.shape == (m.n_triangles, 3, 2)
        assert np.abs(got - want).max() < 1e-13

    @pytest.mark.parametrize("field", ["areas", "grad_lambda"])
    def test_read_only(self, field):
        arr = getattr(refine_marked(unit_square_mesh(2), [0]), field)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


class TestExports:
    def test_svg_written(self, tmp_path):
        m = unit_square_mesh(2)
        path = tmp_path / "mesh.svg"
        export_svg(m, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<line") == m.n_edges

    def test_svg_bytes_match_per_edge_formula(self, tmp_path):
        # graded towards the origin, so the coordinates are not on a grid
        m = unit_square_mesh(4)
        for _ in range(6):
            centroids = m.vertices[m.triangles].mean(axis=1)
            m = refine_marked(m, np.flatnonzero(
                np.hypot(*centroids.T) < 0.3))
        size = 640
        lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
        span = max(float((hi - lo).max()), 1e-30)
        pad = 0.02 * span
        scale = size / (span + 2 * pad)
        lines = []
        for a, b in m.edges:
            (x1, y1), (x2, y2) = m.vertices[a], m.vertices[b]
            lines.append(
                f'<line x1="{(x1 - lo[0] + pad) * scale:.2f}" '
                f'y1="{size - (y1 - lo[1] + pad) * scale:.2f}" '
                f'x2="{(x2 - lo[0] + pad) * scale:.2f}" '
                f'y2="{size - (y2 - lo[1] + pad) * scale:.2f}"/>')
        expected = ("\n".join(
            [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             '<g stroke="#1a1a1a" stroke-width="0.8" '
             'fill="none" stroke-linecap="round">', *lines, "</g></svg>"])
            + "\n").encode("utf-8")
        path = tmp_path / "mesh.svg"
        export_svg(m, path)
        assert m.n_triangles > 200
        assert path.read_bytes() == expected

    def test_vtk_roundtrip_counts(self, tmp_path):
        m = unit_square_mesh(3)  # coordinates in thirds, then their midpoints
        for _ in range(2):
            m = refine_marked(m, np.arange(0, m.n_triangles, 2))
        path = tmp_path / "mesh.vtk"
        export_vtk(m, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        start = next(i for i, l in enumerate(lines) if l.startswith("POINTS"))
        assert int(lines[start].split()[1]) == m.n_vertices
        points = np.array([[float(v) for v in row.split()]
                           for row in lines[start + 1:start + 1 + m.n_vertices]])
        assert points.shape == (m.n_vertices, 3)
        assert np.array_equal(points[:, :2], m.vertices)
        assert not points[:, 2].any()
        cells_line = next(l for l in lines if l.startswith("CELLS"))
        assert int(cells_line.split()[1]) == m.n_triangles
