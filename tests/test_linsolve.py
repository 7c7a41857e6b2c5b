import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plapminres import linsolve
from plapminres.forms import (
    NonlinearForms,
    assemble_duality_jacobian,
    assemble_operator_jacobian,
)
from plapminres.linsolve import (
    LinearSolveError,
    SaddleSystem,
    assemble_saddle,
    solve_symmetric_indefinite,
)
from plapminres.mesh import refine_marked, unit_square_mesh
from plapminres.newton import SolverOptions, cold_state, newton_solve
from plapminres.spaces import CR, P1, build_space
from tests.oracles import dense_saddle_solve, reference_saddle_matrix


def random_spd_blocks(rng, n, m):
    A = rng.standard_normal((n, n))
    G = sp.csr_matrix(A @ A.T + n * np.eye(n))
    B = sp.csr_matrix(rng.standard_normal((n, m)))
    return G, B, rng.standard_normal(n), rng.standard_normal(m)


def block_system(G, B, rhs_top, rhs_bottom):
    """Saddle system of explicit sparse blocks, without a mesh."""
    K = sp.bmat([[G, B], [B.T, None]], format="csc")
    return SaddleSystem(K, np.concatenate([rhs_top, rhs_bottom]), G.shape[0],
                        np.arange(K.shape[0]))


def random_spd_saddle(rng, n, m):
    return block_system(*random_spd_blocks(rng, n, m))


def graded_mesh():
    mesh = unit_square_mesh(4)
    for _ in range(4):
        mesh = refine_marked(mesh, np.arange(0, mesh.n_triangles, 3))
    return mesh


MESHES = {"uniform": lambda: unit_square_mesh(4), "graded": graded_mesh}


def newton_blocks(mesh, p, seed=0):
    """Spaces and random-state Jacobian element blocks on a mesh."""
    rng = np.random.default_rng(seed)
    test = build_space(mesh, CR)
    trial = build_space(mesh, P1)
    forms = NonlinearForms(p, trial, test, np.zeros(test.n_free),
                           np.zeros(trial.constrained_dofs.size))
    G = assemble_duality_jacobian(forms, rng.standard_normal(test.n_total))
    B = assemble_operator_jacobian(forms, rng.standard_normal(trial.n_total))
    return test, trial, G, B


def stored_entries(A):
    A = A.tocoo()
    return set(zip(A.row.tolist(), A.col.tolist()))


def assemble(test, trial, G, B):
    """K of the element blocks, read back in the natural order."""
    system = assemble_saddle(test, trial, G, B, np.zeros(test.n_free),
                             np.zeros(trial.n_free))
    order = system.order
    return system.K[order][:, order]


class TestAssembleSaddle:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", sorted(MESHES))
    def test_pattern_matches_reference_assembly(self, kind, p):
        test, trial, G, B = newton_blocks(MESHES[kind](), p)
        K = assemble(test, trial, G, B)
        want = reference_saddle_matrix(G, B, test, trial)
        # the reference also drops the G entries that cancel to zero; away
        # from p = 2 those are exactly the ones the pattern leaves out
        assert stored_entries(K) >= stored_entries(want)
        if p != 2.0 or kind == "uniform":
            assert K.nnz == want.nnz
        dense = want.toarray()
        assert np.abs(K.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_identity_block_layout(self):
        mesh = unit_square_mesh(2)
        test, trial, _, _ = newton_blocks(mesh, 2.0)
        eye = np.broadcast_to(np.eye(3), (mesh.n_triangles, 3, 3))
        K = assemble(test, trial, eye, np.zeros_like(eye)).toarray()
        n = test.n_free
        want = np.zeros((n + trial.n_free,) * 2)
        want[:n, :n] = 2.0 * np.eye(n)  # every free edge has two triangles
        assert np.array_equal(K, want)

    def test_symmetry(self):
        K = assemble(*newton_blocks(graded_mesh(), 1.6))
        assert abs(K - K.T).max() == 0.0

    def test_block_recovery(self):
        test, trial, G, B = newton_blocks(graded_mesh(), 2.5)
        K = assemble(test, trial, G, B)
        want = reference_saddle_matrix(G, B, test, trial)
        n = test.n_free
        assert np.array_equal(K[:n, n:].toarray(), want[:n, n:].toarray())

    def test_trailing_block_zero(self):
        test, trial, G, B = newton_blocks(unit_square_mesh(3), 1.5)
        K = assemble(test, trial, G, B)
        n = test.n_free
        assert K[n:, n:].nnz == 0

    def test_dimension_mismatch(self):
        test, trial, G, B = newton_blocks(unit_square_mesh(2), 2.0)
        with pytest.raises(ValueError):
            assemble_saddle(test, trial, G[1:], B, np.zeros(test.n_free),
                            np.zeros(trial.n_free))
        with pytest.raises(ValueError):
            assemble_saddle(test, trial, G, B, np.zeros(test.n_free),
                            np.zeros(trial.n_free + 1))


class TestSolve:
    def test_zero_rhs(self):
        rng = np.random.default_rng(3)
        system = block_system(sp.eye(4), sp.csr_matrix(rng.standard_normal((4, 2))),
                              np.zeros(4), np.zeros(2))
        dr, du, rel, fell_back = solve_symmetric_indefinite(system)
        assert np.array_equal(dr, np.zeros(4))
        assert np.array_equal(du, np.zeros(2))
        assert rel == 0.0
        assert not fell_back

    def test_three_by_three(self):
        G = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
        B = sp.csr_matrix(np.array([[1.0], [1.0]]))
        system = block_system(G, B, np.array([1.0, 1.0]), np.array([1.0]))
        dr, du, rel, _ = solve_symmetric_indefinite(system, rel_tol=1e-10)
        x = np.concatenate([dr, du])
        assert np.linalg.norm(system.K @ x - system.rhs) <= 1e-10 * np.linalg.norm(system.rhs)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        blocks = random_spd_blocks(rng, 30, 10)
        dr, du, _, _ = solve_symmetric_indefinite(block_system(*blocks))
        dr0, du0 = dense_saddle_solve(*blocks)
        scale = np.linalg.norm(np.concatenate([dr0, du0]))
        assert np.linalg.norm(dr - dr0) <= 1e-8 * scale
        assert np.linalg.norm(du - du0) <= 1e-8 * scale

    def test_residual_certificate_reported(self):
        rng = np.random.default_rng(5)
        system = random_spd_saddle(rng, 12, 5)
        _, _, rel, _ = solve_symmetric_indefinite(system, rel_tol=1e-10)
        assert 0.0 <= rel <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        system = random_spd_saddle(rng, 15, 6)
        a = solve_symmetric_indefinite(system)
        b = solve_symmetric_indefinite(system)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_singular_system_reports_failure(self):
        G = sp.csr_matrix((2, 2))  # zero block, B rank-deficient: singular K
        B = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        system = block_system(G, B, np.ones(2), np.ones(2))
        with pytest.raises(LinearSolveError):
            solve_symmetric_indefinite(system)


def superlu_defaults(options):
    """The factor options with SuperLU's own panel and supernode settings."""
    return {k: v for k, v in options.items() if k not in ("relax", "panel_size")}


class TestOrdering:
    """The minimum-degree ordering is computed once per mesh and baked into
    the pattern; every Newton step factors K in that order."""

    def test_fill_matches_fresh_minimum_degree(self):
        test, trial, G, B = newton_blocks(unit_square_mesh(8), 1.5)
        system = assemble_saddle(test, trial, G, B, np.zeros(test.n_free),
                                 np.zeros(trial.n_free))
        order = system.order
        assert np.array_equal(np.sort(order), np.arange(order.size))
        baked = spla.splu(system.K, **linsolve._SYMMETRIC_LU)
        fresh = spla.splu(system.K[order][:, order], **linsolve._ORDERING_LU)
        assert baked.nnz == fresh.nnz

    @pytest.mark.parametrize("make_mesh", [lambda: unit_square_mesh(8),
                                           graded_mesh], ids=["uniform", "graded"])
    def test_kernel_settings_keep_the_order(self, monkeypatch, make_mesh):
        mesh = make_mesh()
        test, trial = build_space(mesh, CR), build_space(mesh, P1)
        fake = _FailingSymmetricSpla(linsolve.spla, mode=None)
        monkeypatch.setattr(linsolve, "spla", fake)
        pattern = linsolve.saddle_pattern(test, trial)
        monkeypatch.undo()
        [K2] = fake.matrices
        default = spla.splu(K2, **superlu_defaults(linsolve._ORDERING_LU))
        assert np.array_equal(default.perm_c, pattern.order)

    def test_kernel_settings_store_no_more_fill(self):
        test, trial, G, B = newton_blocks(graded_mesh(), 1.5)
        rng = np.random.default_rng(12)
        system = assemble_saddle(test, trial, G, B, rng.standard_normal(test.n_free),
                                 rng.standard_normal(trial.n_free))
        tuned = spla.splu(system.K, **linsolve._SYMMETRIC_LU)
        default = spla.splu(system.K, **superlu_defaults(linsolve._SYMMETRIC_LU))
        assert tuned.nnz <= default.nnz
        *_, rel, fell_back = solve_symmetric_indefinite(system, 1e-10)
        assert rel <= 1e-10 and not fell_back

    def test_graded_solve_certified_in_natural_order(self):
        test, trial, G, B = newton_blocks(graded_mesh(), 1.5)
        rng = np.random.default_rng(10)
        top = rng.standard_normal(test.n_free)
        bottom = rng.standard_normal(trial.n_free)
        system = assemble_saddle(test, trial, G, B, top, bottom)
        dr, du, rel, fell_back = solve_symmetric_indefinite(system, 1e-10)
        assert not fell_back and rel <= 1e-10
        K = reference_saddle_matrix(G, B, test, trial)
        rhs = np.concatenate([top, bottom])
        residual = rhs - K @ np.concatenate([dr, du])
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)

    def test_refused_ordering_call_takes_colamd_order(self, monkeypatch):
        test, trial, G, B = newton_blocks(graded_mesh(), 1.5)
        fake = _FailingSymmetricSpla(linsolve.spla, "raise")
        monkeypatch.setattr(linsolve, "spla", fake)
        pattern = linsolve.saddle_pattern(test, trial)
        assert fake.calls == ["symmetric", "general"]
        monkeypatch.undo()
        assert np.array_equal(np.sort(pattern.order), np.arange(pattern.order.size))
        rng = np.random.default_rng(11)
        system = assemble_saddle(test, trial, G, B, rng.standard_normal(test.n_free),
                                 rng.standard_normal(trial.n_free))
        *_, rel, fell_back = solve_symmetric_indefinite(system, 1e-10)
        assert rel <= 1e-10 and not fell_back


class _FailingSymmetricSpla:
    """``scipy.sparse.linalg`` stand-in whose symmetric factorization fails.

    ``mode="raise"`` makes it raise like SuperLU on a zero pivot,
    ``mode="inaccurate"`` returns a factor whose solves miss the
    certificate; ``fail_general`` makes the COLAMD factorization raise too.
    Every call and every matrix it is given are recorded.
    """

    def __init__(self, spla, mode, fail_general=False):
        self._spla = spla
        self.mode = mode
        self.fail_general = fail_general
        self.calls = []
        self.matrices = []

    def splu(self, K, **kwargs):
        symmetric = kwargs.get("options", {}).get("SymmetricMode", False)
        self.calls.append("symmetric" if symmetric else "general")
        self.matrices.append(K)
        if symmetric and self.mode == "raise" or not symmetric and self.fail_general:
            raise RuntimeError("Factor is exactly singular")
        lu = self._spla.splu(K, **kwargs)
        if symmetric and self.mode == "inaccurate":
            return _PerturbedLU(lu)
        return lu


class _PerturbedLU:
    def __init__(self, lu):
        self.nnz = lu.nnz
        self._lu = lu

    def solve(self, rhs):
        return 1.01 * self._lu.solve(rhs)


def random_rhs_system(seed):
    test, trial, G, B = newton_blocks(graded_mesh(), 1.5)
    rng = np.random.default_rng(seed)
    return assemble_saddle(test, trial, G, B, rng.standard_normal(test.n_free),
                           rng.standard_normal(trial.n_free))


class TestFallback:
    @pytest.mark.parametrize("mode", ["raise", "inaccurate"])
    def test_general_factorization_certifies(self, monkeypatch, mode):
        system = random_rhs_system(7)
        fake = _FailingSymmetricSpla(linsolve.spla, mode)
        monkeypatch.setattr(linsolve, "spla", fake)
        dr, du, rel, fell_back = solve_symmetric_indefinite(system, 1e-10)
        assert fell_back
        assert fake.calls == ["symmetric", "general"]
        x = np.concatenate([dr, du])
        order = system.order
        assert rel <= 1e-10
        assert (np.linalg.norm(system.rhs[order] - system.K[order][:, order] @ x)
                <= 1e-10 * np.linalg.norm(system.rhs))

    @pytest.mark.parametrize("mode", ["raise", "inaccurate"])
    def test_both_failing_raises(self, monkeypatch, mode):
        system = random_rhs_system(8)
        fake = _FailingSymmetricSpla(linsolve.spla, mode, fail_general=True)
        monkeypatch.setattr(linsolve, "spla", fake)
        with pytest.raises(LinearSolveError):
            solve_symmetric_indefinite(system, 1e-10)
        assert fake.calls == ["symmetric", "general"]

    def test_symmetric_path_taken_by_default(self, monkeypatch):
        system = random_rhs_system(9)
        fake = _FailingSymmetricSpla(linsolve.spla, mode=None)
        monkeypatch.setattr(linsolve, "spla", fake)
        *_, fell_back = solve_symmetric_indefinite(system, 1e-10)
        assert not fell_back
        assert fake.calls == ["symmetric"]

    @pytest.mark.parametrize("fail_general", [False, True])
    def test_newton_counts_fallbacks(self, monkeypatch, fail_general):
        mesh = unit_square_mesh(3)
        test = build_space(mesh, CR)
        trial = build_space(mesh, P1)
        forms = NonlinearForms(2.5, trial, test, np.ones(test.n_free),
                               np.zeros(trial.constrained_dofs.size))
        # the mesh's ordering call runs unpatched; only the per-step
        # factorizations fail
        linsolve.saddle_pattern(test, trial)
        monkeypatch.setattr(linsolve, "spla", _FailingSymmetricSpla(
            linsolve.spla, "raise", fail_general))
        result = newton_solve(forms, cold_state(forms), SolverOptions())
        if fail_general:
            assert not result.converged and result.iterations == 0
            assert result.linear_fallbacks == 1
        else:
            assert result.converged
            assert result.linear_fallbacks == result.iterations > 1
        assert json.loads(result.as_json())["linear_fallbacks"] == result.linear_fallbacks
