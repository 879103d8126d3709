import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from hcplate.fem import elements as el
from hcplate.fem.system import EigWorkspace, factorize
from hcplate.geometry import build_macro_mesh
from hcplate.macro import (build_bending_operator, build_membrane_operator,
                           macro_eigs)
from schur_oracle import SchurOracle, plain_tensor
from tensor_oracle import check_symmetry


@pytest.fixture(scope="module")
def mesh():
    return build_macro_mesh(1.0, 1.0, 6, 6)


def parts(op, V):
    """(a, b) parts of states of the bending pencil (first axis)."""
    return V[:op.n_static], V[op.n_static:]


class TestOperators:
    def test_zero_coupling_agreement(self, mesh):
        t = plain_tensor()
        op = build_bending_operator(t, mesh, 1.0)
        w, V = macro_eigs(op, 4)
        wd, _ = SchurOracle(t, mesh).eigs(4, 1.0)
        assert_allclose(w, wd, rtol=1e-9)
        assert abs(parts(op, V)[0]).max() == 0.0

    def test_coupling_lowers_energy(self, mesh):
        # min over a of the block energy is b^T S b <= b^T K_bb b
        t = plain_tensor(coupling=0.15)
        op = build_bending_operator(t, mesh, 1.0)
        oracle = SchurOracle(t, mesh)
        rng = np.random.RandomState(0)
        for _ in range(5):
            b = rng.standard_normal(oracle.nb)
            x = np.concatenate([oracle.inplane(b), b])
            e = x @ (op.pair.K @ x)
            assert_allclose(e, b @ oracle.S @ b, rtol=1e-10)
            assert e <= b @ oracle.K_bb @ b + 1e-12

    def test_coupled_form_positive_definite(self, mesh):
        t = plain_tensor(coupling=0.15)
        w, _ = macro_eigs(build_bending_operator(t, mesh, 1.0), 1)
        assert w[0] > 0
        assert_allclose(w, SchurOracle(t, mesh).eigs(1, 1.0)[0], rtol=1e-10)

    def test_schur_symmetric(self, mesh):
        # the block is symmetric, so the Schur form it applies on b is too
        op = build_bending_operator(plain_tensor(coupling=0.2), mesh, 1.0)
        assert check_symmetry(op.pair)

    def test_no_zero_modes_when_clamped(self, mesh):
        t = plain_tensor()
        memb = build_membrane_operator(t, mesh, 1.0)
        w, _ = macro_eigs(memb, 1)
        assert w[0] > 1e-6


class TestEigs:
    def test_dense_oracle(self, mesh):
        t = plain_tensor()
        op = build_membrane_operator(t, mesh, 2.0)
        wd, _ = macro_eigs(op, 5, EigWorkspace(solver="dense"))
        ws, _ = macro_eigs(op, 5, EigWorkspace(solver="shift-invert"))
        assert_allclose(ws, wd, rtol=1e-8)

    def test_scaling_covariance(self, mesh):
        w1, _ = macro_eigs(build_membrane_operator(plain_tensor(1.0), mesh, 1.0), 4)
        w3, _ = macro_eigs(build_membrane_operator(plain_tensor(3.0), mesh, 1.0), 4)
        assert_allclose(w3, 3.0 * w1, rtol=1e-10)

    def test_refined_demo_bending_operator(self, demo_tensor_delta1):
        # demo_bending's bending pencil on a 24x24 macro mesh (2,400 DOFs
        # in b, 8 modes; rho0 = rho1 = 1, so <rho> = 1) takes shift-invert
        # and passes the backward-error contract
        mesh = build_macro_mesh(1.0, 1.0, 24, 24)
        op = build_bending_operator(demo_tensor_delta1, mesh, 1.0)
        assert op.n - op.n_static == 2400
        w, _ = macro_eigs(op, 8)
        # dense reference: the Rayleigh quotients of sla.eigh's vectors of
        # the Schur form. Its eigenvalues carry an absolute error near
        # eps ||K|| (7e-9 relative on the smallest here); the quotients'
        # error is quadratic in the vector error
        oracle = SchurOracle(demo_tensor_delta1, mesh)
        S, M = oracle.S, oracle.M_b
        _, V = sla.eigh(S, M, subset_by_index=[0, 7])
        ref = np.einsum("ij,ij->j", V, S @ V) / np.einsum("ij,ij->j", V, M @ V)
        assert_allclose(w, ref, rtol=1e-10)

    def test_coupled_modes_match_schur_form(self):
        # the pencil's modes against the dense Schur complement at 8x8, with
        # <rho> = 1.3; the vectors' error scales with eps ||S|| / gap
        mesh = build_macro_mesh(1.0, 1.0, 8, 8)
        t = plain_tensor(coupling=0.15)
        op = build_bending_operator(t, mesh, 1.3)
        oracle = SchurOracle(t, mesh)
        w, V = macro_eigs(op, 6)
        wd, Vd = oracle.eigs(6, 1.3)
        assert_allclose(w, wd, rtol=1e-10)
        a, b = parts(op, V)
        signs = np.sign(np.einsum("ij,ij->j", b, oracle.M_b @ Vd))
        assert abs(b - signs * Vd).max() <= 1e-9 * abs(Vd).max()
        assert abs(a - oracle.inplane(b.T).T).max() <= 1e-10 * abs(a).max()

    def test_coupled_pencil_refined(self):
        # the coupled pencil at 32x32 (2,112 + 4,224 DOFs): shift-invert
        # through the sparse block, within the backward-error contract
        op = build_bending_operator(plain_tensor(coupling=0.15),
                                    build_macro_mesh(1.0, 1.0, 32, 32), 1.0)
        w, V = macro_eigs(op, 8)
        assert (np.diff(w) >= 0).all() and w[0] > 0
        # the in-plane part of each mode is the quasistatic response to b
        assert abs(op.pair.K[:op.n_static] @ V).max() \
            <= 1e-10 * abs(op.pair.K[op.n_static:] @ V).max()

    def test_mass_weighting(self, mesh):
        w1, _ = macro_eigs(build_membrane_operator(plain_tensor(), mesh, 1.0), 3)
        w2, _ = macro_eigs(build_membrane_operator(plain_tensor(), mesh, 2.0), 3)
        assert_allclose(w2, w1 / 2.0, rtol=1e-10)


class TestMembraneForBending:
    """The in-plane part a of the bending pencil's states: its modes and
    the solves of the block against the Schur form."""

    def test_zero_coupling_gives_zero(self, mesh):
        op = build_bending_operator(plain_tensor(), mesh, 1.0)
        rng = np.random.RandomState(1)
        r = np.concatenate([np.zeros(op.n_static),
                            rng.standard_normal(op.n - op.n_static)])
        a, _ = parts(op, factorize(op.pair.K).solve(r))
        assert abs(a).max() < 1e-12

    def test_affine_bending_in_cross_kernel(self):
        # hess(affine) = 0: the element coupling block annihilates affine
        # nodal data regardless of boundary conditions
        Ke = el.mixed_memb_bend((0.5, 0.25), 0.3 * np.eye(3))
        dofs = []
        for (x, y) in [(0, 0), (0.5, 0), (0.5, 0.25), (0, 0.25)]:
            dofs += [1.0 + 2.0 * x - 0.7 * y, 2.0, -0.7, 0.0]
        assert abs(Ke @ np.array(dofs)).max() < 1e-12

    def test_bounded_by_curvature(self, mesh):
        t = plain_tensor(coupling=0.2)
        op = build_bending_operator(t, mesh, 1.0)
        oracle = SchurOracle(t, mesh)
        _, V = macro_eigs(op, 3)
        a, b = parts(op, V)
        assert_allclose(a, oracle.inplane(b.T).T,
                        atol=1e-10 * abs(a).max())
        for k in range(3):
            ea = a[:, k] @ oracle.K_aa @ a[:, k]
            eb = b[:, k] @ oracle.K_bb @ b[:, k]
            assert ea <= 25.0 * eb   # C from the tensor norms, generous

    def test_reciprocity(self, mesh):
        # a^b(b, theta) = a^b(theta, b) through the block: solving it with
        # bending data alone applies S^-1
        t = plain_tensor(coupling=0.2)
        op = build_bending_operator(t, mesh, 1.0)
        lu, na = factorize(op.pair.K), op.n_static
        rng = np.random.RandomState(3)
        for _ in range(5):
            b, th = rng.standard_normal((2, op.n - na))
            Sb = lu.solve(np.concatenate([np.zeros(na), b]))[na:]
            Sth = lu.solve(np.concatenate([np.zeros(na), th]))[na:]
            assert abs(th @ Sb - b @ Sth) < 1e-10 * abs(th @ Sb)
            assert_allclose(Sb, np.linalg.solve(SchurOracle(t, mesh).S, b),
                            rtol=1e-10, atol=1e-10 * abs(Sb).max())
