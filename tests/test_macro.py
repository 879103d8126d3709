import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from hcplate.effective import EffectiveTensor
from hcplate.fem import elements as el
from hcplate.fem.system import EigWorkspace
from hcplate.geometry import build_macro_mesh
from hcplate.macro import (build_bending_operator, build_membrane_operator,
                           macro_eigs, membrane_solve_for_bending)


def plain_tensor(scale=1.0, coupling=0.0):
    Cr = tn.isotropic_2d(1.0, 1.0)
    return EffectiveTensor(regime="delta", memb=scale * Cr,
                           bend=scale * Cr / 12,
                           coupling=coupling * np.eye(3), delta=1.0)


@pytest.fixture(scope="module")
def mesh():
    return build_macro_mesh(1.0, 1.0, 6, 6)


class TestOperators:
    def test_zero_coupling_agreement(self, mesh):
        t = plain_tensor()
        dec = build_bending_operator(t, mesh, 1.0, coupled=False)
        cou = build_bending_operator(t, mesh, 1.0, coupled=True)
        wd, _ = macro_eigs(dec, 4)
        wc, _ = macro_eigs(cou, 4)
        assert_allclose(wc, wd, rtol=1e-9)

    def test_coupling_lowers_energy(self, mesh):
        t = plain_tensor(coupling=0.15)
        dec = build_bending_operator(t, mesh, 1.0, coupled=False)
        cou = build_bending_operator(t, mesh, 1.0, coupled=True)
        rng = np.random.RandomState(0)
        for _ in range(5):
            b = rng.standard_normal(cou.n)
            assert b @ (cou.pair.K @ b) <= b @ (dec.pair.K @ b) + 1e-12

    def test_coupled_form_positive_definite(self, mesh):
        t = plain_tensor(coupling=0.15)
        cou = build_bending_operator(t, mesh, 1.0, coupled=True)
        w, _ = macro_eigs(cou, 1)
        assert w[0] > 0

    def test_schur_symmetric(self, mesh):
        t = plain_tensor(coupling=0.2)
        cou = build_bending_operator(t, mesh, 1.0, coupled=True)
        S = cou.pair.K.toarray()
        assert abs(S - S.T).max() < 1e-10 * abs(S).max()

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
        # demo_bending's bending operator on a 24x24 macro mesh (2,400 DOFs,
        # 8 modes; rho0 = rho1 = 1, so <rho> = 1) takes shift-invert and
        # passes the backward-error contract
        op = build_bending_operator(demo_tensor_delta1,
                                    build_macro_mesh(1.0, 1.0, 24, 24), 1.0)
        assert op.n == 2400
        w, _ = macro_eigs(op, 8)
        # dense reference: the Rayleigh quotients of sla.eigh's vectors. Its
        # eigenvalues carry an absolute error near eps ||K|| (7e-9 relative
        # on the smallest here); the quotients' error is quadratic in the
        # vector error
        K, M = op.pair.K.toarray(), op.pair.M.toarray()
        _, V = sla.eigh(K, M, subset_by_index=[0, 7])
        ref = np.einsum("ij,ij->j", V, K @ V) / np.einsum("ij,ij->j", V, M @ V)
        assert_allclose(w, ref, rtol=1e-10)

    def test_mass_weighting(self, mesh):
        w1, _ = macro_eigs(build_membrane_operator(plain_tensor(), mesh, 1.0), 3)
        w2, _ = macro_eigs(build_membrane_operator(plain_tensor(), mesh, 2.0), 3)
        assert_allclose(w2, w1 / 2.0, rtol=1e-10)


class TestMembraneForBending:
    def test_zero_coupling_gives_zero(self, mesh):
        op = build_bending_operator(plain_tensor(), mesh, 1.0, coupled=True)
        rng = np.random.RandomState(1)
        b = rng.standard_normal(op.n)
        assert abs(membrane_solve_for_bending(op, b)).max() < 1e-12

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
        op = build_bending_operator(t, mesh, 1.0, coupled=True)
        rng = np.random.RandomState(2)
        for _ in range(3):
            b = rng.standard_normal(op.n)
            a = membrane_solve_for_bending(op, b)
            ea = a @ (op.memb_pair.K @ a)
            eb = b @ (op.pair.meta["raw_K"] @ b)
            assert ea <= 25.0 * eb   # C from the tensor norms, generous

    def test_reciprocity(self, mesh):
        # a^b(b, theta) = a^b(theta, b) through the Schur form
        t = plain_tensor(coupling=0.2)
        op = build_bending_operator(t, mesh, 1.0, coupled=True)
        rng = np.random.RandomState(3)
        for _ in range(5):
            b, th = rng.standard_normal((2, op.n))
            assert abs(b @ (op.pair.K @ th) - th @ (op.pair.K @ b)) \
                < 1e-10 * abs(b @ (op.pair.K @ th) + 1e-300)
