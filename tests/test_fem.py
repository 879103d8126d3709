import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from hcplate.fem import (EigWorkspace, ScaledGradientSpec,
                         assemble_bfs_h2, assemble_vector_h1,
                         constant_reduced_field, eigs_smallest, factorize,
                         solve_spd)
from hcplate.fem import elements as el
from hcplate.fem.system import DofMap, SolverError, SparseOperatorPair
from hcplate.geometry import InclusionShape, build_cell_mesh, build_macro_mesh

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
        assert_allclose(u @ Ke @ u, tn.quad_form(C, xi) * vol, rtol=1e-12)

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
            N = el.bfs_eval((hx, hy), pt, order=1)[0]
            assert_allclose(N @ u, f(*pt), rtol=1e-11)


class TestAssembly:
    def test_periodic_constant_in_kernel(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8)
        pair = assemble_vector_h1(mesh, tn.isotropic(1, 1),
                                  space="periodic-zero-mean", ncomp=3)
        for c in range(3):
            v = constant_reduced_field(pair.dof, c)
            assert abs(pair.K @ v).max() < 1e-12

    def test_symmetry_and_mass_pd(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3, n_z=4)
        pair = assemble_vector_h1(mesh, tn.isotropic(1, 1),
                                  grad=ScaledGradientSpec(1.0),
                                  space="inclusion-zero-trace",
                                  restrict_to="soft", ncomp=3)
        pair.check_symmetry()
        rng = np.random.RandomState(0)
        for _ in range(3):
            x = rng.standard_normal(pair.n)
            assert x @ (pair.M @ x) > 0

    def test_mass_measures_domain(self):
        # total soft mass = rho0 * |Y0_disc| (per unit height of the prism)
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=16)
        pair = assemble_vector_h1(mesh, tn.isotropic_2d(1, 1), density=2.0,
                                  space="free", restrict_to="soft", ncomp=2)
        v = constant_reduced_field(pair.dof, 0)
        assert_allclose(v @ pair.M @ v, 2.0 * mesh.soft_area_fraction(), rtol=1e-12)

    def test_empty_restriction_raises(self):
        mesh = build_cell_mesh(None, n=4)
        with pytest.raises(ValueError):
            assemble_vector_h1(mesh, tn.isotropic(1, 1), space="periodic",
                               restrict_to="soft", ncomp=3)

    def test_per_element_density(self):
        # total mass with a per-element density field equals the field sum
        # times the element area
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8)
        rng = np.random.RandomState(9)
        rho = 1.0 + rng.random(len(mesh.elements))
        pair = assemble_vector_h1(mesh, tn.isotropic_2d(1, 1), density=rho,
                                  space="free", restrict_to="all", ncomp=2)
        v = constant_reduced_field(pair.dof, 1)
        area = mesh.h ** 2
        assert_allclose(v @ pair.M @ v, rho.sum() * area, rtol=1e-12)


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
        pair.kernel = kern
        b = rng.standard_normal(20)
        b -= kern @ (kern.T @ b)
        x = solve_spd(pair, b, deflate_kernel=True)
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
        pair.kernel = kern
        b = rng.standard_normal(20) + 3.0 * kern[:, 0]
        x = solve_spd(pair, b, deflate_kernel=True)
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

    def test_unpinned_kernel_raises(self):
        # a singular matrix factored without its kernel is refused
        K = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(SolverError):
            factorize(K).solve(np.array([1.0, -1.0]))


class TestEigs:
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
        pair = assemble_vector_h1(mesh, tn.isotropic_2d(1, 1),
                                  space="dirichlet", ncomp=2)
        w, v = eigs_smallest(pair, 5, EigWorkspace(solver="dense"))
        G = v.T @ (pair.M @ v)
        assert_allclose(G, np.eye(5), atol=1e-8)

    def test_request_too_many(self):
        pair = trivial_pair(np.eye(4), np.eye(4))
        with pytest.raises(ValueError):
            eigs_smallest(pair, 5)

    def test_lobpcg_agrees(self):
        mesh = build_macro_mesh(1, 1, 10, 10)
        pair = assemble_vector_h1(mesh, tn.isotropic_2d(1, 1),
                                  space="dirichlet", ncomp=2)
        wd, _ = eigs_smallest(pair, 3, EigWorkspace(solver="dense"))
        wl, _ = eigs_smallest(pair, 3, EigWorkspace(solver="lobpcg", tol=1e-10,
                                                    maxiter=5000))
        assert_allclose(wl, wd, rtol=1e-6)


class TestBiharmonic:
    def test_clamped_square_eigenvalue(self):
        # lowest eigenvalue of hess:hess on the clamped unit square; the
        # reference 1294.934 comes from a fine dense solve (independent of
        # the path tested here: conforming values decrease monotonically)
        vals = []
        for n in (4, 8, 16):
            mesh = build_macro_mesh(1, 1, n, n,
                                    gamma_spec=("left", "right", "bottom", "top"))
            pair = assemble_bfs_h2(mesh, BIH, space="clamped")
            w, _ = eigs_smallest(pair, 1, EigWorkspace(solver="dense"))
            vals.append(w[0])
        assert vals[0] >= vals[1] >= vals[2] >= 1294.0  # Galerkin monotone
        assert abs(vals[2] - 1294.934) / 1294.934 < 1e-3

    def test_periodic_bfs_constant_kernel(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8)
        pair = assemble_bfs_h2(mesh, BIH, space="periodic-zero-mean",
                               restrict_to="stiff")
        assert pair.kernel is not None and pair.kernel.shape[1] == 1
        assert abs(pair.K @ pair.kernel[:, 0]).max() < 1e-10


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


class TestGalerkinMonotonicity:
    def test_bloch_eigenvalue_nonincreasing(self):
        # square inclusion: the discrete Y0 is the same set at every n
        # divisible by 4, so the zero-trace spaces are genuinely nested
        prev = None
        for n in (8, 16, 32):
            mesh = build_cell_mesh(InclusionShape("square", 0.25), n=n)
            pair = assemble_vector_h1(mesh, tn.isotropic_2d(1, 1),
                                      space="inclusion-zero-trace",
                                      restrict_to="soft", ncomp=2)
            w, _ = eigs_smallest(pair, 1, EigWorkspace())
            if prev is not None:
                assert w[0] <= prev + 1e-10
            prev = w[0]
