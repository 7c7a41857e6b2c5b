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

    def test_refined_n1_matches_n2_up_to_relabeling(self):
        refined = refine_uniform(unit_square_mesh(1))
        direct = unit_square_mesh(2)
        for got, want in zip(connectivity_fingerprint(refined),
                             connectivity_fingerprint(direct)):
            assert np.allclose(got, want, atol=1e-13)


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

    def test_area_conserved_under_bisection(self):
        m = unit_square_mesh(2)
        r = refine_marked(m, [0, 1, 2])
        total = signed_areas(r.vertices, r.triangles).sum()
        assert abs(total - 1.0) <= 1e-12


class TestExports:
    def test_svg_written(self, tmp_path):
        m = unit_square_mesh(2)
        path = tmp_path / "mesh.svg"
        export_svg(m, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<line") == m.n_edges

    def test_vtk_roundtrip_counts(self, tmp_path):
        m = unit_square_mesh(3)
        path = tmp_path / "mesh.vtk"
        export_vtk(m, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        points_line = next(l for l in lines if l.startswith("POINTS"))
        assert int(points_line.split()[1]) == m.n_vertices
        cells_line = next(l for l in lines if l.startswith("CELLS"))
        assert int(cells_line.split()[1]) == m.n_triangles
