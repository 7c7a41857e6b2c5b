import json
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plapminres import driver, linsolve
from plapminres.driver import ProblemConfig, pre_adapt_mesh, run_study
from plapminres.estimate import ExactSolution
from plapminres.forms import (
    LoadSpec,
    NonlinearForms,
    assemble_duality_jacobian,
    assemble_load,
    assemble_operator_jacobian,
)
from plapminres.linsolve import (
    LinearSolveError,
    SaddleSystem,
    assemble_saddle,
    saddle_pattern,
    solve_symmetric_indefinite,
)
from plapminres.mesh import refine_marked, refine_uniform, unit_square_mesh
from plapminres.newton import (
    DiscreteState,
    SolverOptions,
    cold_state,
    newton_solve,
    nonlinear_residual,
)
from plapminres.spaces import CR, P1, all_element_gradients, build_space, triangle_rule
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


def pre_adapted_mesh():
    """The first mesh of an adaptive p = 1.5 study with three p = 2
    pre-adaptation steps (1 500 unknowns): graded enough that minimum
    degree puts some trial unknowns before all their test neighbours."""
    cfg = ProblemConfig(p_target=1.5, x0=(0.0, 0.0), initial_n=16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "PRE_ADAPT_STEPS", 3)
        return pre_adapt_mesh(cfg, unit_square_mesh(16))


def assert_trial_after_a_test_neighbour(pattern):
    """In the elimination order, every trial unknown comes after at least
    one of the test unknowns it couples to (its column holds only B)."""
    for col in pattern.order[pattern.n_test:]:
        rows = pattern.indices[pattern.indptr[col]:pattern.indptr[col + 1]]
        assert rows.min() < col


def assert_stable_layout(pattern):
    """The layout that keeps ``K.data`` bitwise stable: a canonical K, a
    values map with sorted and unique column indices in every row, 32-bit
    indices as SuperLU takes them, and read-only arrays throughout."""
    nt = pattern.mesh.n_triangles
    K = assemble_saddle(pattern, np.ones((nt, 2)), np.ones((nt, 3)),
                        np.zeros(pattern.n_test), np.zeros(pattern.n_trial)).K
    assert K.has_canonical_format
    values = pattern.values
    rows = np.repeat(np.arange(values.shape[0]), np.diff(values.indptr))
    assert np.all(np.diff(rows * values.shape[1] + values.indices) > 0)
    assert pattern.indptr.dtype == pattern.indices.dtype == np.int32
    assert pattern.upper.dtype == pattern.mirror.dtype == np.int32
    for arr in (pattern.indptr, pattern.indices, pattern.order, pattern.upper,
                pattern.mirror, values.data, values.indices, values.indptr):
        assert not arr.flags.writeable


MESHES = {"uniform": lambda: unit_square_mesh(4), "graded": graded_mesh}


def newton_weights(mesh, p, seed=0):
    """Forms and random-state Jacobian element weights on a mesh."""
    rng = np.random.default_rng(seed)
    test = build_space(mesh, CR)
    trial = build_space(mesh, P1)
    forms = NonlinearForms(p, trial, test, saddle_pattern(test, trial),
                           np.zeros(test.n_free),
                           np.zeros(trial.constrained_dofs.size))
    G = assemble_duality_jacobian(forms, all_element_gradients(
        test, rng.standard_normal(test.n_total)))
    B = assemble_operator_jacobian(forms, all_element_gradients(
        trial, rng.standard_normal(trial.n_total)))
    return forms, G, B


def stored_entries(A):
    A = A.tocoo()
    return set(zip(A.row.tolist(), A.col.tolist()))


def assemble(forms, G, B):
    """K of the element weights, read back in the natural order."""
    system = assemble_saddle(forms.pattern, G, B, np.zeros(forms.test.n_free),
                             np.zeros(forms.trial.n_free))
    order = system.order
    return system.K[order][:, order]


def loop_weight_matrix(mesh, test, trial, k):
    """Dense K of the unit weight k on every element, by plain loops over
    the triangles and their local basis functions."""
    grad_cr = -2.0 * mesh.grad_lambda
    n = test.n_free
    K = np.zeros((n + trial.n_free,) * 2)
    tensors = [None, None, [[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [0, 1]]]
    for t in range(mesh.n_triangles):
        for i, e in enumerate(mesh.triangle_edges[t]):
            row = test.free_index[e]
            if row < 0:
                continue
            c_i = grad_cr[t, i]
            for j in range(3):
                if k < 2:
                    col = test.free_index[mesh.triangle_edges[t, j]]
                    if col >= 0:
                        K[row, col] += c_i[k] * grad_cr[t, j, k]
                    continue
                col = trial.free_index[mesh.triangles[t, j]]
                if col >= 0:
                    b = c_i @ np.array(tensors[k], float) @ mesh.grad_lambda[t, j]
                    K[row, n + col] += b
                    K[n + col, row] += b
    return K


class TestAssembleSaddle:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", sorted(MESHES))
    def test_pattern_matches_reference_assembly(self, kind, p):
        forms, G, B = newton_weights(MESHES[kind](), p)
        K = assemble(forms, G, B)
        want = reference_saddle_matrix(G, B, forms.test, forms.trial)
        # the reference also drops the G entries that cancel to zero; away
        # from p = 2 those are exactly the ones the pattern leaves out
        assert stored_entries(K) >= stored_entries(want)
        if p != 2.0 or kind == "uniform":
            assert K.nnz == want.nnz
        dense = want.toarray()
        assert np.abs(K.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()
        assert abs(K - K.T).max() == 0.0

    @pytest.mark.parametrize("k", range(5))
    def test_weight_layout(self, k):
        mesh = graded_mesh()
        forms, _, _ = newton_weights(mesh, 2.0)
        weights = np.zeros((mesh.n_triangles, 5))
        weights[:, k] = 1.0
        K = assemble(forms, weights[:, :2], weights[:, 2:]).toarray()
        want = loop_weight_matrix(mesh, forms.test, forms.trial, k)
        assert np.abs(K - want).max() <= 1e-14 * np.abs(want).max()

    def test_symmetry(self):
        K = assemble(*newton_weights(graded_mesh(), 1.6))
        assert abs(K - K.T).max() == 0.0

    def test_block_recovery(self):
        forms, G, B = newton_weights(graded_mesh(), 2.5)
        K = assemble(forms, G, B)
        want = reference_saddle_matrix(G, B, forms.test, forms.trial)
        n = forms.test.n_free
        scale = np.abs(want[:n, n:]).max()
        # the values map and the element blocks round differently
        assert np.abs(K[:n, n:] - want[:n, n:]).max() <= 1e-14 * scale

    def test_trailing_block_zero(self):
        forms, G, B = newton_weights(unit_square_mesh(3), 1.5)
        K = assemble(forms, G, B)
        n = forms.test.n_free
        assert K[n:, n:].nnz == 0

    def test_dimension_mismatch(self):
        forms, G, B = newton_weights(unit_square_mesh(2), 2.0)
        pattern, n, m = forms.pattern, forms.test.n_free, forms.trial.n_free
        with pytest.raises(ValueError):
            assemble_saddle(pattern, G[1:], B, np.zeros(n), np.zeros(m))
        with pytest.raises(ValueError):
            assemble_saddle(pattern, B, G, np.zeros(n), np.zeros(m))
        with pytest.raises(ValueError):
            assemble_saddle(pattern, G, B, np.zeros(n), np.zeros(m + 1))

    def test_pattern_rejects_spaces_of_two_meshes(self):
        test = build_space(unit_square_mesh(2), CR)
        trial = build_space(unit_square_mesh(2), P1)
        with pytest.raises(ValueError, match="share one mesh"):
            saddle_pattern(test, trial)

    @pytest.mark.parametrize("make_mesh", [
        pytest.param(lambda: unit_square_mesh(8), id="uniform"),
        pytest.param(pre_adapted_mesh, id="pre_adapted")])
    def test_values_map_covers_the_lower_triangle(self, make_mesh):
        """The values map has rows for the lower-triangle slots only, and
        each strictly-upper slot copies the slot of its transpose."""
        mesh = make_mesh()
        test, trial = build_space(mesh, CR), build_space(mesh, P1)
        pattern = saddle_pattern(test, trial)
        size = pattern.n_test + pattern.n_trial
        cols = np.repeat(np.arange(size), np.diff(pattern.indptr))
        rows = pattern.indices
        upper = np.flatnonzero(rows < cols)
        assert np.array_equal(pattern.upper, upper)
        assert np.all(np.diff(pattern.values.indptr)[upper] == 0)
        assert np.all(np.diff(pattern.values.indptr)[rows >= cols] > 0)
        assert np.array_equal(rows[pattern.mirror], cols[upper])
        assert np.array_equal(cols[pattern.mirror], rows[upper])
        assert_stable_layout(pattern)
        rng = np.random.default_rng(13)
        nt = mesh.n_triangles
        K = assemble_saddle(pattern, rng.random((nt, 2)), rng.random((nt, 3)),
                            np.zeros(pattern.n_test),
                            np.zeros(pattern.n_trial)).K
        assert (K != K.T).nnz == 0
        assert np.all(K.data[upper] != 0.0)

    def test_pattern_build_peak_memory(self):
        """The build keeps one copy of the values-map triplets, a 32-bit
        entry inverse, and map rows for the lower triangle only: on the
        3 969-unknown uniform mesh its traced peak stays below 2.8 MB
        (2.62 MB measured; 3.36 MB with rows for both triangles, 4.02 MB
        with per-block triplets concatenated and ``np.unique``'s 64-bit
        inverse).  SuperLU's own allocations are not traced."""
        mesh = unit_square_mesh(2)
        for _ in range(4):
            mesh = refine_uniform(mesh)
        test, trial = build_space(mesh, CR), build_space(mesh, P1)
        assert test.n_free + trial.n_free == 3969
        saddle_pattern(test, trial)  # first-call allocations of the libraries
        tracemalloc.start()
        try:
            saddle_pattern(test, trial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.8e6


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
        dr, du, rel, _ = solve_symmetric_indefinite(system)
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
        _, _, rel, _ = solve_symmetric_indefinite(system)
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
        forms, G, B = newton_weights(unit_square_mesh(8), 1.5)
        system = assemble_saddle(forms.pattern, G, B,
                                 np.zeros(forms.test.n_free),
                                 np.zeros(forms.trial.n_free))
        order = system.order
        assert np.array_equal(np.sort(order), np.arange(order.size))
        baked = spla.splu(system.K, **linsolve._SYMMETRIC_LU)
        fresh = spla.splu(system.K[order][:, order], **linsolve._ORDERING_LU)
        assert baked.nnz == fresh.nnz

    @pytest.mark.parametrize("make_mesh, uniform", [
        pytest.param(lambda: unit_square_mesh(8), True, id="uniform"),
        pytest.param(graded_mesh, False, id="graded"),
        pytest.param(pre_adapted_mesh, False, id="pre_adapted")])
    def test_kernel_settings_keep_the_order(self, monkeypatch, make_mesh,
                                            uniform):
        mesh = make_mesh()
        test, trial = build_space(mesh, CR), build_space(mesh, P1)
        fake = _FailingSymmetricSpla(linsolve.spla, mode=None)
        monkeypatch.setattr(linsolve, "spla", fake)
        pattern = saddle_pattern(test, trial)
        monkeypatch.setattr(linsolve, "_ORDERING_LU",
                            superlu_defaults(linsolve._ORDERING_LU))
        default = saddle_pattern(test, trial)
        monkeypatch.undo()
        assert np.array_equal(default.order, pattern.order)
        assert_stable_layout(pattern)
        if uniform:  # no trial unknown moves: the order is MMD's own
            K2 = fake.matrices[0]
            assert np.array_equal(
                spla.splu(K2, **linsolve._ORDERING_LU).perm_c, pattern.order)

    def test_kernel_settings_store_no_more_fill(self):
        forms, G, B = newton_weights(graded_mesh(), 1.5)
        rng = np.random.default_rng(12)
        system = assemble_saddle(forms.pattern, G, B,
                                 rng.standard_normal(forms.test.n_free),
                                 rng.standard_normal(forms.trial.n_free))
        tuned = spla.splu(system.K, **linsolve._SYMMETRIC_LU)
        default = spla.splu(system.K, **superlu_defaults(linsolve._SYMMETRIC_LU))
        assert tuned.nnz <= default.nnz
        *_, rel, fell_back = solve_symmetric_indefinite(system)
        assert rel <= 1e-10 and not fell_back

    def test_graded_solve_certified_in_natural_order(self):
        forms, G, B = newton_weights(graded_mesh(), 1.5)
        rng = np.random.default_rng(10)
        top = rng.standard_normal(forms.test.n_free)
        bottom = rng.standard_normal(forms.trial.n_free)
        system = assemble_saddle(forms.pattern, G, B, top, bottom)
        dr, du, rel, fell_back = solve_symmetric_indefinite(system)
        assert not fell_back and rel <= 1e-10
        K = reference_saddle_matrix(G, B, forms.test, forms.trial)
        rhs = np.concatenate([top, bottom])
        residual = rhs - K @ np.concatenate([dr, du])
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)

    def test_graded_steps_take_diagonal_pivots_only(self):
        mesh = pre_adapted_mesh()
        for p in (1.5, 2.0):
            forms, G, B = newton_weights(mesh, p)
            assert_trial_after_a_test_neighbour(forms.pattern)
            system = assemble_saddle(forms.pattern, G, B,
                                     np.zeros(forms.test.n_free),
                                     np.zeros(forms.trial.n_free))
            order = system.order
            lu = spla.splu(system.K, **linsolve._SYMMETRIC_LU)
            assert np.array_equal(lu.perm_r, np.arange(order.size))
            if p == 1.5:  # at p = 2 the fill is the same either way
                raw = spla.splu(system.K[order][:, order],
                                **linsolve._ORDERING_LU)
                assert lu.nnz <= raw.nnz

    def test_refused_ordering_call_takes_colamd_order(self, monkeypatch):
        forms, G, B = newton_weights(graded_mesh(), 1.5)
        fake = _FailingSymmetricSpla(linsolve.spla, "raise")
        monkeypatch.setattr(linsolve, "spla", fake)
        pattern = saddle_pattern(forms.test, forms.trial)
        assert fake.calls == ["symmetric", "general"]
        monkeypatch.undo()
        assert np.array_equal(np.sort(pattern.order), np.arange(pattern.order.size))
        assert_trial_after_a_test_neighbour(pattern)
        rng = np.random.default_rng(11)
        system = assemble_saddle(pattern, G, B,
                                 rng.standard_normal(forms.test.n_free),
                                 rng.standard_normal(forms.trial.n_free))
        *_, rel, fell_back = solve_symmetric_indefinite(system)
        assert rel <= 1e-10 and not fell_back


class _FailingSymmetricSpla:
    """``scipy.sparse.linalg`` stand-in whose symmetric factorization fails.

    ``mode="raise"`` makes it raise like SuperLU on a zero pivot; the
    other modes return a factor whose solves miss the certificate:
    ``"inaccurate"`` scales them by 1.01, ``"nan"`` and ``"inf"`` return
    them non-finite, as a static-pivot breakdown may.  ``fail_general``
    makes the COLAMD factorization raise too.  Every call and every matrix
    it is given are recorded, and so is every solve with a perturbed
    factor, as ``"solve"``.
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
        if symmetric and self.mode in _PERTURBATIONS:
            return _PerturbedLU(lu, self.calls, _PERTURBATIONS[self.mode])
        return lu


_PERTURBATIONS = {
    "inaccurate": lambda x: 1.01 * x,
    "nan": lambda x: np.full_like(x, np.nan),
    "inf": lambda x: np.full_like(x, np.inf),
}


class _PerturbedLU:
    def __init__(self, lu, calls, perturb):
        self.nnz = lu.nnz
        self._lu = lu
        self._calls = calls
        self._perturb = perturb

    def solve(self, rhs):
        self._calls.append("solve")
        return self._perturb(self._lu.solve(rhs))


# the calls up to the COLAMD factorization: a perturbed symmetric factor
# is solved once before it
FALLBACK_CALLS = {"raise": ["symmetric", "general"],
                  **{mode: ["symmetric", "solve", "general"]
                     for mode in _PERTURBATIONS}}


def random_rhs_system(seed):
    forms, G, B = newton_weights(graded_mesh(), 1.5)
    rng = np.random.default_rng(seed)
    return assemble_saddle(forms.pattern, G, B,
                           rng.standard_normal(forms.test.n_free),
                           rng.standard_normal(forms.trial.n_free))


def _reject_constant(name):
    raise ValueError(f"telemetry is not valid JSON: {name}")


class TestFallback:
    @pytest.mark.parametrize("mode", list(FALLBACK_CALLS))
    def test_general_factorization_certifies(self, monkeypatch, mode):
        system = random_rhs_system(7)
        fake = _FailingSymmetricSpla(linsolve.spla, mode)
        monkeypatch.setattr(linsolve, "spla", fake)
        dr, du, rel, fell_back = solve_symmetric_indefinite(system)
        assert fell_back
        assert fake.calls == FALLBACK_CALLS[mode]
        # the general factorization takes the stored K as it is
        assert fake.matrices[1] is system.K
        x = np.concatenate([dr, du])
        order = system.order
        assert rel <= 1e-10
        assert (np.linalg.norm(system.rhs[order] - system.K[order][:, order] @ x)
                <= 1e-10 * np.linalg.norm(system.rhs))

    @pytest.mark.parametrize("mode", list(FALLBACK_CALLS))
    def test_both_failing_raises(self, monkeypatch, mode):
        system = random_rhs_system(8)
        fake = _FailingSymmetricSpla(linsolve.spla, mode, fail_general=True)
        monkeypatch.setattr(linsolve, "spla", fake)
        with pytest.raises(LinearSolveError):
            solve_symmetric_indefinite(system)
        assert fake.calls == FALLBACK_CALLS[mode]

    def test_symmetric_path_taken_by_default(self, monkeypatch):
        system = random_rhs_system(9)
        fake = _FailingSymmetricSpla(linsolve.spla, mode=None)
        monkeypatch.setattr(linsolve, "spla", fake)
        *_, fell_back = solve_symmetric_indefinite(system)
        assert not fell_back
        assert fake.calls == ["symmetric"]

    @pytest.mark.parametrize("fail_general", [False, True])
    def test_newton_counts_fallbacks(self, monkeypatch, fail_general):
        mesh = unit_square_mesh(3)
        test = build_space(mesh, CR)
        trial = build_space(mesh, P1)
        # the forms' pattern and the p = 2 start are computed unpatched, as
        # a continuation target starts; only the factorizations at p = 2.5
        # fail
        forms = NonlinearForms(2.5, trial, test, saddle_pattern(test, trial),
                               np.ones(test.n_free),
                               np.zeros(trial.constrained_dofs.size))
        start = newton_solve(replace(forms, p=2.0), cold_state(forms),
                             SolverOptions()).state
        monkeypatch.setattr(linsolve, "spla", _FailingSymmetricSpla(
            linsolve.spla, "raise", fail_general))
        result = newton_solve(forms, start, SolverOptions())
        if fail_general:
            assert not result.converged and result.iterations == 0
            assert result.linear_fallbacks == 1
        else:
            assert result.converged
            assert result.linear_fallbacks == result.iterations > 1
        payload = json.loads(result.as_json(), parse_constant=_reject_constant)
        assert payload["linear_fallbacks"] == result.linear_fallbacks
        if fail_general:
            assert payload["final_increment"] is None


class _CountingSpla:
    """``scipy.sparse.linalg`` stand-in counting factorizations and solves,
    from the calling thread and the helper thread of a uniform study."""

    def __init__(self, spla):
        self._spla = spla
        self._lock = threading.Lock()
        self.factorizations = 0
        self.solves = 0

    def splu(self, K, **kwargs):
        lu = self._spla.splu(K, **kwargs)
        with self._lock:
            self.factorizations += 1
        return _CountingLU(lu, self)


class _CountingLU:
    def __init__(self, lu, owner):
        self.perm_c = lu.perm_c  # what the once-per-mesh ordering call reads
        self._lu = lu
        self._owner = owner

    def solve(self, rhs):
        with self._owner._lock:
            self._owner.solves += 1
        return self._lu.solve(rhs)


class TestStudyTraffic:
    """In a study, every Newton system certifies on the one solve of its
    symmetric factorization: besides them, each mesh adds only its
    ordering call, which factors without solving."""

    @pytest.mark.parametrize("cfg", [
        ProblemConfig(p_target=3.0, x0=(-1.0, -1.0), initial_n=2,
                      strategy="uniform", max_levels=2),
        ProblemConfig(p_target=1.5, x0=(0.0, 0.0), initial_n=16,
                      strategy="adaptive", max_levels=2),
    ], ids=["uniform_p3", "adaptive_p1.5"])
    def test_one_solve_per_factorization(self, tmp_path, monkeypatch, cfg):
        counting = _CountingSpla(linsolve.spla)
        monkeypatch.setattr(linsolve, "spla", counting)
        out = tmp_path / "study"
        records = run_study(replace(cfg, output_dir=str(out)))
        assert len(records) == cfg.max_levels
        assert counting.solves > 0
        assert counting.factorizations - counting.solves == cfg.max_levels
        telem = [json.loads(line) for line in
                 (out / "telemetry.jsonl").read_text().splitlines()]
        assert telem
        assert all(t["linear_fallbacks"] == 0 for t in telem)


class TestColdCertificate:
    """A cold Newton step at p != 2 has r = 0, so G is about 1e-10 times the
    element area against B of order one: its relative residual can miss
    1e-10 in floating point, its backward error cannot."""

    @pytest.mark.parametrize("p", [2.5, 3.0, 3.5])
    @pytest.mark.parametrize("sigma", [0.95, 0.97, 0.99])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_certifies_in_one_solve(self, monkeypatch, n, sigma, p):
        x0 = (-1.0, -1.0)
        mesh = unit_square_mesh(n)
        test = build_space(mesh, CR)
        trial = build_space(mesh, P1)
        load = assemble_load(LoadSpec(sigma=sigma, x0=x0), test,
                             triangle_rule(10))
        boundary = ExactSolution(p, sigma, x0).value(
            mesh.vertices[trial.constrained_dofs])
        forms = NonlinearForms(p, trial, test, saddle_pattern(test, trial),
                               load, boundary)
        # the cold state with its Dirichlet data clamped in, as Newton does
        u = cold_state(forms).u
        u[trial.constrained_dofs] = boundary
        res = nonlinear_residual(forms, DiscreteState(u, np.zeros(test.n_total)))
        system = assemble_saddle(forms.pattern,
                                 assemble_duality_jacobian(forms, res.g_r),
                                 res.B, res.top, res.bottom)
        counting = _CountingSpla(linsolve.spla)
        monkeypatch.setattr(linsolve, "spla", counting)
        dr, du, _, fell_back = solve_symmetric_indefinite(system)
        assert not fell_back
        assert counting.factorizations == 1 and counting.solves == 1
        order = system.order
        K = system.K[order][:, order].toarray()
        b = system.rhs[order]
        x = np.concatenate([dr, du])
        eta = (np.abs(b - K @ x).max()
               / (np.abs(K).sum(axis=0).max() * np.abs(x).max()
                  + np.abs(b).max()))
        assert eta <= 1e-10
