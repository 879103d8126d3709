import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from hcplate.bloch import build_inclusion_operator
from hcplate.fem import elements as el
from hcplate.fem.assemble import (ScaledGradientSpec, assemble_bfs_h2,
                                  assemble_vector_h1, constant_reduced_field,
                                  translations_kernel)
from hcplate.fem.system import (DofMap, EigWorkspace, SolverError,
                                SparseOperatorPair, SpdFactor,
                                _m_orthonormalize, _max_row_sum,
                                detect_kernel, eigs_smallest, factorize,
                                solve_spd)
from hcplate.geometry import InclusionShape, build_cell_mesh, build_macro_mesh
from tensor_oracle import check_symmetry, isotropic_2d, quad_form

C2D = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]])  # lam=mu=1
BIH = np.diag([1.0, 1.0, 0.5])  # scalar biharmonic int |hess u|^2


def trivial_pair(K, M):
    dof = DofMap(K.shape[0], 1).finalize()
    return SparseOperatorPair(K=sp.csr_matrix(K), M=sp.csr_matrix(M), dof=dof)


def sympy_q1_membrane_stiffness():
    """Closed-form Q1 element stiffness by symbolic integration (oracle)."""
    import sympy as sy
    x, y = sy.symbols("x y")
    N = [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y]
    B = sy.zeros(3, 8)
    for a in range(4):
        B[0, 2 * a] = sy.diff(N[a], x)
        B[1, 2 * a + 1] = sy.diff(N[a], y)
        B[2, 2 * a] = sy.diff(N[a], y)
        B[2, 2 * a + 1] = sy.diff(N[a], x)
    C = sy.Matrix(C2D)
    Ke = sy.integrate(sy.integrate(B.T * C * B, (x, 0, 1)), (y, 0, 1))
    return np.array(Ke, dtype=float)


class TestQ1Elements:
    def test_stiffness_matches_symbolic_integration(self):
        Ke = el.q1_stiffness((1.0, 1.0), C2D, ncomp=2)
        assert_allclose(Ke, sympy_q1_membrane_stiffness(), atol=1e-12)

    def test_patch_linear_field_energy(self):
        # nodal interpolation of u = G x has constant strain; element energy
        # equals C sym(G):sym(G) times the element area
        G = np.array([[0.3, -0.1], [0.2, 0.5]])
        hx, hy = 0.5, 0.25
        Ke = el.q1_stiffness((hx, hy), C2D, ncomp=2)
        corners = np.array([[0, 0], [hx, 0], [hx, hy], [0, hy]], dtype=float)
        u = (corners @ G.T).ravel()
        eps = 0.5 * (G + G.T)
        exact = np.array([eps[0, 0], eps[1, 1], 2 * eps[0, 1]])
        assert_allclose(u @ Ke @ u, (exact @ C2D @ exact) * hx * hy, rtol=1e-13)

    def test_patch_3d_scaled_gradient(self):
        G = np.array([[0.3, -0.1, 0.4], [0.2, 0.5, -0.3], [0.1, 0.0, 0.6]])
        h = (0.5, 0.25, 0.125)
        delta = 0.4
        C = tn.isotropic(1.2, 0.8)
        Ke = el.q1_stiffness(h, C, third=("dz", 1.0 / delta), ncomp=3)
        corners = np.array([[i, j, k] for k in (0, h[2]) for (i, j) in
                            [(0, 0), (h[0], 0), (h[0], h[1]), (0, h[1])]],
                           dtype=float)
        u = (corners @ G.T).ravel()
        Gs = G @ np.diag([1.0, 1.0, 1.0 / delta])
        xi = 0.5 * (Gs + Gs.T)
        vol = h[0] * h[1] * h[2]
        assert_allclose(u @ Ke @ u, quad_form(C, xi) * vol, rtol=1e-12)

    def test_mass_total(self):
        Me = el.q1_mass((0.5, 0.25), rho=3.0, ncomp=2)
        ones = np.ones(8)
        # int rho |e1 + e2|^2 = rho * 2 * area
        assert_allclose(ones @ Me @ ones, 3.0 * 2 * 0.5 * 0.25, rtol=1e-13)


class TestBFSElements:
    def test_affine_in_kernel(self):
        Ke = el.bfs_stiffness((0.5, 0.25), BIH)
        # nodal DOFs of u = 2 + 3x - y: (w, wx, wy, wxy)
        dofs = []
        for (x, y) in [(0, 0), (0.5, 0), (0.5, 0.25), (0, 0.25)]:
            dofs += [2 + 3 * x - y, 3.0, -1.0, 0.0]
        u = np.array(dofs)
        assert_allclose(Ke @ u, 0.0, atol=1e-12)

    def test_pure_quadratic_energy(self):
        # u = x^2/2: hess = diag(1, 0); energy = D_1111 * area
        hx, hy = 0.5, 0.25
        D = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 0.5]])
        Ke = el.bfs_stiffness((hx, hy), D)
        dofs = []
        for (x, y) in [(0, 0), (hx, 0), (hx, hy), (0, hy)]:
            dofs += [x ** 2 / 2, x, 0.0, 0.0]
        u = np.array(dofs)
        assert_allclose(u @ Ke @ u, D[0, 0] * hx * hy, rtol=1e-12)

    def test_interpolates_bicubic_exactly(self):
        # value/derivative evaluation reproduces a full bicubic
        rng = np.random.RandomState(2)
        coef = rng.standard_normal((4, 4))

        def f(x, y):
            return sum(coef[i, j] * x ** i * y ** j for i in range(4) for j in range(4))

        def fx(x, y):
            return sum(i * coef[i, j] * x ** (i - 1) * y ** j
                       for i in range(1, 4) for j in range(4))

        def fy(x, y):
            return sum(j * coef[i, j] * x ** i * y ** (j - 1)
                       for i in range(4) for j in range(1, 4))

        def fxy(x, y):
            return sum(i * j * coef[i, j] * x ** (i - 1) * y ** (j - 1)
                       for i in range(1, 4) for j in range(1, 4))

        hx, hy = 0.7, 0.4
        dofs = []
        for (x, y) in [(0, 0), (hx, 0), (hx, hy), (0, hy)]:
            dofs += [f(x, y), fx(x, y), fy(x, y), fxy(x, y)]
        u = np.array(dofs)
        for pt in [(0.13, 0.31), (0.5, 0.2), (0.61, 0.07)]:
            N = el.bfs_eval((hx, hy), pt)[0]
            assert_allclose(N @ u, f(*pt), rtol=1e-11)


class TestAssembly:
    def test_periodic_constant_in_kernel(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8)
        pair = assemble_vector_h1(mesh, tn.isotropic(1, 1),
                                  space="periodic", ncomp=3)
        for c in range(3):
            v = constant_reduced_field(pair.dof, c)
            assert abs(pair.K @ v).max() < 1e-12

    def test_symmetry_and_mass_pd(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3, n_z=4)
        pair = assemble_vector_h1(mesh, tn.isotropic(1, 1),
                                  grad=ScaledGradientSpec(1.0),
                                  space="inclusion-zero-trace",
                                  restrict_to="soft", ncomp=3)
        check_symmetry(pair)
        rng = np.random.RandomState(0)
        for _ in range(3):
            x = rng.standard_normal(pair.n)
            assert x @ (pair.M @ x) > 0

    def test_mass_measures_domain(self):
        # total soft mass = rho0 * |Y0_disc| (per unit height of the prism)
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=16)
        pair = assemble_vector_h1(mesh, isotropic_2d(1, 1), density=2.0,
                                  space="free", restrict_to="soft", ncomp=2)
        v = constant_reduced_field(pair.dof, 0)
        assert_allclose(v @ pair.M @ v, 2.0 * mesh.soft_area_fraction(), rtol=1e-12)

    def test_empty_restriction_raises(self):
        mesh = build_cell_mesh(None, n=4)
        with pytest.raises(ValueError):
            assemble_vector_h1(mesh, tn.isotropic(1, 1), space="periodic",
                               restrict_to="soft", ncomp=3)


class TestSolveSpd:
    def test_zero_rhs(self):
        K = np.diag(np.arange(1.0, 6.0))
        pair = trivial_pair(K, np.eye(5))
        assert_allclose(solve_spd(pair, np.zeros(5)), 0.0)

    def test_matches_dense(self):
        rng = np.random.RandomState(4)
        A = rng.standard_normal((30, 30))
        K = A @ A.T + 30 * np.eye(30)
        pair = trivial_pair(K, np.eye(30))
        b = rng.standard_normal(30)
        assert_allclose(solve_spd(pair, b), np.linalg.solve(K, b), rtol=1e-10)

    def test_deflation_contract(self):
        # singular K with known kernel: solution orthogonal to kernel,
        # projected residual small
        rng = np.random.RandomState(5)
        A = rng.standard_normal((20, 19))
        K = A @ A.T  # rank 19
        w, v = np.linalg.eigh(K)
        kern = v[:, :1]
        pair = trivial_pair(K, np.eye(20))
        b = rng.standard_normal(20)
        b -= kern @ (kern.T @ b)
        x = solve_spd(pair, b, kernel=kern)
        assert abs(kern.T @ x).max() < 1e-10
        r = K @ x - b
        r -= kern @ (kern.T @ r)
        assert np.linalg.norm(r) < 1e-9 * np.linalg.norm(b)

    def test_deflation_with_kernel_component_in_rhs(self):
        # the unresolvable kernel part of the rhs is projected away: the
        # returned x is kernel-orthogonal with small projected residual
        rng = np.random.RandomState(6)
        A = rng.standard_normal((20, 19))
        K = A @ A.T
        w, v = np.linalg.eigh(K)
        kern = v[:, :1]
        pair = trivial_pair(K, np.eye(20))
        b = rng.standard_normal(20) + 3.0 * kern[:, 0]
        x = solve_spd(pair, b, kernel=kern)
        assert abs(kern.T @ x).max() < 1e-10
        r = K @ x - b
        r -= kern @ (kern.T @ r)
        assert np.linalg.norm(r) < 1e-9 * np.linalg.norm(b)


def _kernel(kind: str, n: int, k: int, rng) -> np.ndarray | None:
    """n x k kernel basis: dense orthonormal columns, or per-component
    constants of a k-component field with DOFs interleaved."""
    if k == 0:
        return None
    if kind == "dense":
        return np.linalg.qr(rng.standard_normal((n, k)))[0]
    V = np.zeros((n, k))
    V[np.arange(n), np.arange(n) % k] = 1.0
    return V / np.linalg.norm(V, axis=0)


@st.composite
def spd_systems(draw):
    """Random SPSD K with a known kernel, and a rhs with a kernel part."""
    k = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["dense", "components"]))
    n = draw(st.integers(2, 10)) * max(k, 1)
    ncols = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    V = _kernel(kind, n, k, rng)
    A = rng.standard_normal((n, n))
    K = A @ A.T + n * np.eye(n)
    if V is not None:
        P = np.eye(n) - V @ V.T
        K = P @ K @ P
    shape = (n,) if ncols is None else (n, ncols)
    b = rng.standard_normal(shape)
    if V is not None:
        b = b + V @ rng.standard_normal((k,) + shape[1:])
    return K, V, b


class TestFactorize:
    @settings(max_examples=60, deadline=None)
    @given(spd_systems())
    def test_matches_pseudoinverse(self, system):
        K, V, b = system
        tol = 1e-10
        x = factorize(sp.csr_matrix(K), V, tol).solve(b)
        assert x.shape == b.shape
        scale = np.linalg.norm(b, axis=0)
        r = K @ x - b
        if V is not None:
            assert abs(V.T @ x).max() <= 1e-10 * max(abs(x).max(), 1.0)
            r -= V @ (V.T @ r)
        assert (np.linalg.norm(r, axis=0) <= tol * scale).all()
        x_ref = np.linalg.pinv(K) @ b
        assert_allclose(x, x_ref, atol=1e-10 * abs(x_ref).max())

    def test_zero_columns(self):
        K = sp.diags(np.arange(1.0, 6.0))
        b = np.zeros((5, 2))
        b[:, 1] = 1.0
        x = factorize(K).solve(b)
        assert_allclose(x[:, 0], 0.0)
        assert_allclose(x[:, 1], 1.0 / np.arange(1.0, 6.0), rtol=1e-14)

    def test_unreachable_tolerance_raises(self):
        rng = np.random.RandomState(7)
        A = rng.standard_normal((12, 12))
        K = sp.csr_matrix(A @ A.T + np.eye(12))
        with pytest.raises(SolverError, match="after refinement"):
            factorize(K, tol=1e-30).solve(rng.standard_normal(12))

    def test_indefinite_matrix_refused(self):
        # the band Cholesky names the first leading minor that is not
        # positive, where a diagonal-pivot LU would go on
        K = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 1.0],
                                    [0.0, 1.0, 2.0]]))
        with pytest.raises(SolverError, match="leading minor of order 2"):
            factorize(K)

    def test_asymmetric_matrix_refused(self):
        # only the lower triangle is factored: the backward error against
        # the whole matrix is what certifies that it was the matrix
        K = sp.csr_matrix(np.array([[4.0, 1.0], [0.5, 3.0]]))
        with pytest.raises(SolverError, match="backward error"):
            factorize(K).solve(np.array([1.0, 1.0]))

    def test_unpinned_kernel_raises(self):
        # a singular matrix factored without its kernel is refused
        K = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(SolverError):
            factorize(K).solve(np.array([1.0, -1.0]))


class TestEigs:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_contract_norm_is_max_row_sum(self, dtype):
        # the contract's ||K||_inf, with empty rows, in CSR and COO
        rng = np.random.default_rng(3)
        A = sp.random(40, 40, density=0.1, format="lil", random_state=rng,
                      dtype=dtype)
        A[[0, 17, 39]] = 0
        ref = abs(A.toarray()).sum(axis=1).max()
        for fmt in ("csr", "coo"):
            assert_allclose(_max_row_sum(A.asformat(fmt)), ref, rtol=1e-15)
        assert _max_row_sum(sp.csr_matrix((5, 5))) == 0.0

    def test_diag_case(self):
        K = np.diag(np.arange(1.0, 11.0))
        pair = trivial_pair(K, np.eye(10))
        w, v = eigs_smallest(pair, 3, EigWorkspace(solver="dense"))
        assert_allclose(w, [1, 2, 3], atol=1e-12)

    def test_dense_vs_shift_invert(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=12, dim=3, n_z=4)
        pair = assemble_vector_h1(mesh, tn.isotropic(1, 1),
                                  grad=ScaledGradientSpec(1.0),
                                  space="inclusion-zero-trace",
                                  restrict_to="soft", ncomp=3)
        wd, _ = eigs_smallest(pair, 6, EigWorkspace(solver="dense"))
        ws, _ = eigs_smallest(pair, 6, EigWorkspace(solver="shift-invert"))
        assert_allclose(ws, wd, rtol=1e-8)

    def test_full_spectrum_trace_identity(self):
        rng = np.random.RandomState(6)
        A = rng.standard_normal((12, 12))
        K = A @ A.T + 12 * np.eye(12)
        pair = trivial_pair(K, np.eye(12))
        w, _ = eigs_smallest(pair, 12, EigWorkspace(solver="dense"))
        assert_allclose(w.sum(), np.trace(K), rtol=1e-8)

    def test_m_orthonormal(self):
        mesh = build_macro_mesh(1, 1, 6, 6)
        pair = assemble_vector_h1(mesh, isotropic_2d(1, 1),
                                  space="dirichlet", ncomp=2)
        w, v = eigs_smallest(pair, 5, EigWorkspace(solver="dense"))
        G = v.T @ (pair.M @ v)
        assert_allclose(G, np.eye(5), atol=1e-8)

    def test_request_too_many(self):
        pair = trivial_pair(np.eye(4), np.eye(4))
        with pytest.raises(ValueError):
            eigs_smallest(pair, 5)


@pytest.mark.usefixtures("fresh_memo")
class TestEigsFallbacks:
    """Only solver failures fall back to dense; anything else propagates."""

    @staticmethod
    def _pair():
        mesh = build_macro_mesh(1, 1, 6, 6)
        return assemble_vector_h1(mesh, isotropic_2d(1, 1),
                                  space="dirichlet", ncomp=2)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        pair = self._pair()
        wd, _ = eigs_smallest(pair, 3, EigWorkspace(solver="dense"))

        def no_convergence(*args, **kwargs):
            raise sp.linalg.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(sp.linalg, "eigsh", no_convergence)
        w, _ = eigs_smallest(pair, 3, EigWorkspace(solver="shift-invert"))
        assert_allclose(w, wd, rtol=1e-12)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad argument")
        monkeypatch.setattr(sp.linalg, "eigsh", broken)
        with pytest.raises(TypeError):
            eigs_smallest(self._pair(), 3, EigWorkspace(solver="shift-invert"))

    def test_detect_kernel_fallback_and_propagation(self, monkeypatch):
        # 1-D Neumann Laplacian above the dense size: kernel = constants
        n = 450
        K = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1], format="lil")
        K[0, 0] = K[n - 1, n - 1] = 1.0
        K = K.tocsr()

        def no_convergence(*args, **kwargs):
            raise sp.linalg.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(sp.linalg, "eigsh", no_convergence)
        basis = detect_kernel(K)
        assert basis.shape == (n, 1)
        assert_allclose(abs(basis[:, 0]), 1 / np.sqrt(n), rtol=1e-10)

        # above the fallback cap an ARPACK failure is a solver failure
        big = sp.diags([-np.ones(12000), 2 * np.ones(12001),
                        -np.ones(12000)], [-1, 0, 1], format="csr")
        with pytest.raises(SolverError, match="kernel detection failed"):
            detect_kernel(big)

        # a failure of eigsh's own LU of the shifted K never goes dense
        def lu_failure(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(sp.linalg, "eigsh", lu_failure)
        with pytest.raises(SolverError, match="factorization failed"):
            detect_kernel(K)

        def broken(*args, **kwargs):
            raise TypeError("bad argument")
        monkeypatch.setattr(sp.linalg, "eigsh", broken)
        with pytest.raises(TypeError):
            detect_kernel(K)


@pytest.mark.usefixtures("fresh_memo")
class TestEigPaths:
    """The size rule, the SPD-factor shift-invert and the backward-error
    contract of eigs_smallest."""

    @staticmethod
    def _spy(monkeypatch):
        """Record each call of scipy's dense eigh and of eigsh by name."""
        calls = []
        for mod, name in ((sla, "eigh"), (sp.linalg, "eigsh")):
            def spy(*args, _f=getattr(mod, name), _n=name, **kwargs):
                calls.append(_n)
                return _f(*args, **kwargs)
            monkeypatch.setattr(mod, name, spy)
        return calls

    @staticmethod
    def _membrane(n):
        mesh = build_macro_mesh(1, 1, n, n)
        return assemble_vector_h1(mesh, isotropic_2d(1, 1),
                                  space="dirichlet", ncomp=2)

    def test_path_counts_the_requested_modes(self, monkeypatch, demo_material,
                                             demo_shape):
        # validate's fine problem on demo_deltainf (1,248 DOFs, 3 modes) is
        # two x2 classes of 636 and 612 DOFs, 3 modes each: both go to
        # shift-invert; the whole pencil of the full_delta Bloch operator
        # (555 DOFs, 54 modes), the tests' oracle, stays dense
        from hcplate.finescale import build_fine_problem, fine_eigs
        fp = build_fine_problem(demo_material, demo_shape, h=0.5, epsilon=0.5,
                                cells_per_eps=6, n_z=4, parity="memb")
        assert [dof.n_free for dof in fp.class_dofs] == [636, 612]
        pair = build_inclusion_operator(demo_material, demo_shape, 16,
                                        "full_delta", delta=1.0, n_z=4)[1]
        assert pair.n == 555
        calls = self._spy(monkeypatch)
        fine_eigs(fp, 3, EigWorkspace())
        assert calls == ["eigsh", "eigsh"]
        calls.clear()
        eigs_smallest(pair, 54, EigWorkspace())
        assert calls == ["eigh"]

    def test_factor_error_propagates(self, monkeypatch):
        # a SolverError of the SPD factor inside ARPACK's operator is a
        # solver failure (exit 3), never a silent dense fallback
        def failing(self, b):
            raise SolverError("linear solve residual 4.2e-10 exceeds 1e-08 "
                              "after refinement")
        pair = self._membrane(16)
        monkeypatch.setattr(SpdFactor, "solve", failing)
        calls = self._spy(monkeypatch)
        with pytest.raises(SolverError, match="after refinement"):
            eigs_smallest(pair, 3, EigWorkspace())
        assert "eigh" not in calls

    @staticmethod
    def _semidefinite(n=40, na=10):
        """SPD K with a stiffness-only block: M = diag(0, I)."""
        A = np.random.RandomState(8).standard_normal((n, n))
        M = np.diag(np.r_[np.zeros(na), np.ones(n - na)])
        return trivial_pair(A @ A.T + n * np.eye(n), M), na

    def test_semidefinite_mass_takes_shift_invert(self, monkeypatch):
        # 40 DOFs, far below the dense size: the zero mass block sends the
        # pencil to shift-invert, whose pairs are those of the Schur
        # complement on the massive block
        pair, na = self._semidefinite()
        calls = self._spy(monkeypatch)
        w, v = eigs_smallest(pair, 4, EigWorkspace())
        assert calls == ["eigsh"]
        K = pair.K.toarray()
        S = K[na:, na:] - K[na:, :na] @ np.linalg.solve(K[:na, :na],
                                                        K[:na, na:])
        ref = sla.eigvalsh(S, subset_by_index=[0, 3])
        assert_allclose(w, ref, rtol=1e-10)
        assert_allclose(K[:na] @ v, 0.0, atol=1e-10 * abs(K @ v).max())

    def test_semidefinite_mass_refuses_dense(self, monkeypatch):
        pair, _ = self._semidefinite()
        with pytest.raises(SolverError, match="mass is singular"):
            eigs_smallest(pair, 4, EigWorkspace(solver="dense"))

        def no_convergence(*args, **kwargs):
            raise sp.linalg.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(sp.linalg, "eigsh", no_convergence)
        calls = self._spy(monkeypatch)
        with pytest.raises(SolverError, match="shift-invert eigensolver"):
            eigs_smallest(pair, 4, EigWorkspace())
        assert "eigh" not in calls

    def test_shift_invert_is_repeatable(self):
        # the seeded ARPACK start vector makes repeated solves bit-identical
        pair, ws = self._membrane(16), EigWorkspace(solver="shift-invert")
        w1, v1 = eigs_smallest(pair, 6, ws)
        w2, v2 = eigs_smallest(pair, 6, ws)
        assert (w1 == w2).all() and (v1 == v2).all()

    def test_perturbed_vector_refused(self, monkeypatch):
        original = sla.eigh

        def perturbed(*args, **kwargs):
            w, v = original(*args, **kwargs)
            return w, v + 1e-4 * np.random.RandomState(0).standard_normal(v.shape)
        monkeypatch.setattr(sla, "eigh", perturbed)
        with pytest.raises(SolverError, match="backward error"):
            eigs_smallest(self._membrane(6), 3, EigWorkspace(solver="dense"))

    def test_cholesky_qr_is_gram_schmidt(self):
        # V = Q R with Q M-orthonormal and R upper triangular, positive
        # diagonal: the factor Gram-Schmidt produces
        pair = self._membrane(6)
        V = np.random.RandomState(3).standard_normal((pair.n, 5))
        Q = _m_orthonormalize(V, pair.M)
        assert_allclose(Q.T @ (pair.M @ Q), np.eye(5), atol=1e-12)
        R = Q.T @ (pair.M @ V)
        assert_allclose(np.tril(R, -1), 0.0, atol=1e-12 * abs(R).max())
        assert (np.diag(R) > 0).all()
        assert_allclose(Q @ R, V, atol=1e-12 * abs(V).max())


class TestBiharmonic:
    def test_clamped_square_eigenvalue(self):
        # lowest eigenvalue of hess:hess on the clamped unit square; the
        # reference 1294.934 comes from a fine dense solve (independent of
        # the path tested here: conforming values decrease monotonically)
        vals = []
        for n in (4, 8, 16):
            mesh = build_macro_mesh(1, 1, n, n,
                                    gamma_spec=("left", "right", "bottom", "top"))
            pair = assemble_bfs_h2(mesh, BIH, space="dirichlet")
            w, _ = eigs_smallest(pair, 1, EigWorkspace(solver="dense"))
            vals.append(w[0])
        assert vals[0] >= vals[1] >= vals[2] >= 1294.0  # Galerkin monotone
        assert abs(vals[2] - 1294.934) / 1294.934 < 1e-3

    def test_periodic_bfs_constant_kernel(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8)
        pair = assemble_bfs_h2(mesh, BIH, space="periodic",
                               restrict_to="stiff")
        kernel = translations_kernel(pair.dof, [0])
        assert kernel is not None and kernel.shape[1] == 1
        assert abs(pair.K @ kernel[:, 0]).max() < 1e-10


class TestHermitian:
    def test_complex_form_hermitian_real_eigs(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8)
        pair = assemble_vector_h1(mesh, tn.isotropic(1, 1), eta=2.0,
                                  space="inclusion-zero-trace",
                                  restrict_to="soft", ncomp=3)
        H = pair.K
        assert abs(H - H.getH()).max() < 1e-12
        w, _ = eigs_smallest(pair, 4, EigWorkspace(solver="dense"))
        assert np.isrealobj(w)
        assert (w > 0).all()

    def test_complex_shift_invert_takes_the_band_factor(self, monkeypatch):
        # an 11-13 coupling breaks the x3 mirror, so the strip fiber stays
        # complex; above the dense size, shift-invert inverts it by the
        # complex band Cholesky of `factorize` and meets the dense pairs
        from hcplate.bloch import StripPencil
        C0 = tn.isotropic(1.0, 1.0)
        C0[0, 4] = C0[4, 0] = 0.3
        mat = tn.MaterialSpec(C0, tn.isotropic(1.0, 1.0), rho0=1.0)
        fiber = StripPencil.assemble(mat, build_cell_mesh(
            InclusionShape("disk", 0.26), n=28)).fiber(3.0)
        assert np.iscomplexobj(fiber.K) and fiber.n > 400
        opinvs, eigsh = [], sp.linalg.eigsh

        def spy(*args, **kwargs):
            opinvs.append(kwargs["OPinv"])
            return eigsh(*args, **kwargs)
        monkeypatch.setattr(sp.linalg, "eigsh", spy)
        w, v = eigs_smallest(fiber, 6, EigWorkspace(solver="shift-invert"))
        ref, _ = eigs_smallest(fiber, 6, EigWorkspace(solver="dense"))
        assert len(opinvs) == 1 and opinvs[0].dtype == np.complex128
        assert_allclose(w, ref, rtol=1e-10)
        assert np.iscomplexobj(v)


class TestGalerkinMonotonicity:
    def test_bloch_eigenvalue_nonincreasing(self):
        # square inclusion: the discrete Y0 is the same set at every n
        # divisible by 4, so the zero-trace spaces are genuinely nested
        prev = None
        for n in (8, 16, 32):
            mesh = build_cell_mesh(InclusionShape("square", 0.25), n=n)
            pair = assemble_vector_h1(mesh, isotropic_2d(1, 1),
                                      space="inclusion-zero-trace",
                                      restrict_to="soft", ncomp=2)
            w, _ = eigs_smallest(pair, 1, EigWorkspace())
            if prev is not None:
                assert w[0] <= prev + 1e-10
            prev = w[0]
