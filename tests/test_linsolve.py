import numpy as np
import pytest
import scipy.sparse as sp

from plapminres.linsolve import (
    LinearSolveError,
    assemble_saddle,
    solve_symmetric_indefinite,
)
from tests.oracles import dense_saddle_solve


def random_spd_blocks(rng, n, m):
    A = rng.standard_normal((n, n))
    G = sp.csr_matrix(A @ A.T + n * np.eye(n))
    B = sp.csr_matrix(rng.standard_normal((n, m)))
    return G, B, rng.standard_normal(n), rng.standard_normal(m)


def random_spd_saddle(rng, n, m):
    return assemble_saddle(*random_spd_blocks(rng, n, m))


class TestAssembleSaddle:
    def test_identity_block_layout(self):
        system = assemble_saddle(sp.eye(2), sp.csr_matrix((2, 1)),
                                 np.zeros(2), np.zeros(1))
        K = system.K.toarray()
        want = np.zeros((3, 3))
        want[0, 0] = want[1, 1] = 1.0
        assert np.array_equal(K, want)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        system = random_spd_saddle(rng, 6, 3)
        K = system.K
        assert abs(K - K.T).max() == 0.0

    def test_block_recovery(self):
        rng = np.random.default_rng(1)
        G, B, top, bottom = random_spd_blocks(rng, 5, 2)
        system = assemble_saddle(G, B, top, bottom)
        block = system.K[:5, 5:].toarray()
        assert np.array_equal(block, B.toarray())

    def test_trailing_block_zero(self):
        rng = np.random.default_rng(2)
        system = random_spd_saddle(rng, 5, 2)
        assert abs(system.K[5:, 5:]).max() == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assemble_saddle(sp.eye(2), sp.csr_matrix((3, 1)),
                            np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError):
            assemble_saddle(sp.eye(2), sp.csr_matrix((2, 1)),
                            np.zeros(2), np.zeros(2))


class TestSolve:
    def test_zero_rhs(self):
        rng = np.random.default_rng(3)
        system = assemble_saddle(sp.eye(4), sp.csr_matrix(rng.standard_normal((4, 2))),
                                 np.zeros(4), np.zeros(2))
        dr, du, rel = solve_symmetric_indefinite(system)
        assert np.array_equal(dr, np.zeros(4))
        assert np.array_equal(du, np.zeros(2))
        assert rel == 0.0

    def test_three_by_three(self):
        G = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
        B = sp.csr_matrix(np.array([[1.0], [1.0]]))
        system = assemble_saddle(G, B, np.array([1.0, 1.0]), np.array([1.0]))
        dr, du, rel = solve_symmetric_indefinite(system, rel_tol=1e-10)
        x = np.concatenate([dr, du])
        assert np.linalg.norm(system.K @ x - system.rhs) <= 1e-10 * np.linalg.norm(system.rhs)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        blocks = random_spd_blocks(rng, 30, 10)
        dr, du, _ = solve_symmetric_indefinite(assemble_saddle(*blocks))
        dr0, du0 = dense_saddle_solve(*blocks)
        scale = np.linalg.norm(np.concatenate([dr0, du0]))
        assert np.linalg.norm(dr - dr0) <= 1e-8 * scale
        assert np.linalg.norm(du - du0) <= 1e-8 * scale

    def test_residual_certificate_reported(self):
        rng = np.random.default_rng(5)
        system = random_spd_saddle(rng, 12, 5)
        _, _, rel = solve_symmetric_indefinite(system, rel_tol=1e-10)
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
        system = assemble_saddle(G, B, np.ones(2), np.ones(2))
        with pytest.raises(LinearSolveError):
            solve_symmetric_indefinite(system)
