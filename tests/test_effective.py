import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from hcplate.effective import (effective_delta, effective_delta0,
                               effective_deltainf)
from hcplate.fem.system import SolverError
from hcplate.geometry import InclusionShape, build_cell_mesh

REFERENCE = Path(__file__).parent / "data" / "effective_reference.json"


@pytest.fixture(scope="module")
def mat():
    return tn.MaterialSpec(tn.isotropic(1, 1), tn.isotropic(1, 1), nu=0.2)


@pytest.fixture(scope="module")
def mat_aniso():
    rng = np.random.RandomState(12)
    B = rng.standard_normal((6, 6))
    C1 = B @ B.T + 8 * np.eye(6)
    return tn.MaterialSpec(tn.isotropic(1, 1), C1, nu=0.05)


class TestNoInclusionValidation:
    """With an empty soft set and constant coefficients the correctors are
    resolved analytically by the transverse reduction."""

    def test_delta_membrane_exact(self, mat):
        mesh = build_cell_mesh(None, n=4, dim=3, n_z=4)
        t = effective_delta(mat, mesh, delta=1.0)
        assert_allclose(t.memb, tn.isotropic_2d(1, 1), atol=1e-12)
        assert abs(t.coupling).max() < 1e-12

    def test_delta_bending_converges(self, mat):
        # the bending corrector is quadratic in x3: O(h_z^2) energy error
        errs = []
        for nz in (4, 8):
            mesh = build_cell_mesh(None, n=4, dim=3, n_z=nz)
            t = effective_delta(mat, mesh, delta=1.0)
            errs.append(abs(t.bend - tn.isotropic_2d(1, 1) / 12).max())
        assert errs[1] < 0.3 * errs[0]
        assert errs[0] < 0.01

    def test_delta_zero_loads(self, mat):
        mesh = build_cell_mesh(None, n=4, dim=3, n_z=2)
        t = effective_delta(mat, mesh, delta=2.0)
        A = np.zeros((2, 2))
        v = np.concatenate([tn.voigt_strain_2d(A), tn.voigt_strain_2d(A)])
        assert_allclose(v @ t.pair_form() @ v, 0.0)

    def test_delta0_exact(self, mat):
        mesh = build_cell_mesh(None, n=4)
        t = effective_delta0(mat, mesh)
        assert_allclose(t.memb, tn.isotropic_2d(1, 1), atol=1e-12)
        assert_allclose(t.bend, tn.isotropic_2d(1, 1) / 12, atol=1e-13)

    def test_deltainf_exact(self, mat):
        mesh = build_cell_mesh(None, n=4)
        t = effective_deltainf(mat, mesh)
        assert_allclose(t.memb, tn.isotropic_2d(1, 1), atol=1e-12)
        assert_allclose(t.bend, t.memb / 12, atol=1e-14)

    def test_deltainf_exact_anisotropic(self, mat_aniso):
        # minimizer w = 0, g = the iota1 minimizer: equals reduced_tensor
        mesh = build_cell_mesh(None, n=4)
        t = effective_deltainf(mat_aniso, mesh)
        assert_allclose(t.memb, tn.reduced_tensor(mat_aniso.C1), rtol=1e-10)


class TestPerforated:
    def test_coercive_and_below_bounds(self, mat, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=8, dim=3, n_z=4)
        t = effective_delta(mat, mesh, delta=1.0)
        assert t.eigenvalues().min() > 0
        d = np.diag(t.pair_form())
        assert (d > 0).all()
        assert (d <= np.diag(t.zero_corrector_bound) + 1e-12).all()

    def test_perforation_softens(self, mat, demo_shape):
        full = effective_delta(mat, build_cell_mesh(None, n=8, dim=3, n_z=4), 1.0)
        perf = effective_delta(mat, build_cell_mesh(demo_shape, n=8, dim=3,
                                                    n_z=4), 1.0)
        assert (np.diag(perf.memb) <= np.diag(full.memb) + 1e-12).all()
        assert np.diag(perf.memb).min() > 0

    def test_cross_block_planar_symmetric(self, mat, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=8, dim=3, n_z=4)
        t = effective_delta(mat, mesh, delta=1.0)
        assert abs(t.coupling).max() <= 1e-8 * abs(t.memb).max()

    def test_refinement_monotone(self, mat, demo_shape):
        prev = None
        for n in (8, 16):
            mesh = build_cell_mesh(demo_shape, n=n, dim=3, n_z=4)
            d = np.diag(effective_delta(mat, mesh, 1.0).pair_form())
            if prev is not None:
                assert (d <= prev + 1e-10).all()
            prev = d

    def test_frame_indifference_disk(self, mat, demo_shape):
        # 90-degree rotation representation on 2D Voigt: swap normal
        # components, flip the shear
        mesh = build_cell_mesh(demo_shape, n=8, dim=3, n_z=4)
        t = effective_delta(mat, mesh, delta=1.0)
        T = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, -1]])
        assert_allclose(T.T @ t.memb @ T, t.memb, atol=1e-9 * abs(t.memb).max())

    @pytest.mark.parametrize("regime", ["delta0", "deltainf"])
    def test_frame_indifference_other_regimes(self, mat, demo_shape, regime):
        mesh = build_cell_mesh(demo_shape, n=8)
        t = (effective_delta0 if regime == "delta0" else
             effective_deltainf)(mat, mesh)
        T = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, -1]])
        for block in (t.memb, t.bend):
            assert_allclose(T.T @ block @ T, block,
                            atol=1e-9 * abs(block).max())

    def test_delta_ordering_vs_inf(self, mat, demo_shape):
        m2 = build_cell_mesh(demo_shape, n=8)
        m3 = build_cell_mesh(demo_shape, n=8, dim=3, n_z=4)
        ti = effective_deltainf(mat, m2)
        td = effective_delta(mat, m3, delta=1e3)
        assert (np.diag(ti.memb) <= np.diag(td.memb) + 1e-6).all()

    def test_delta0_minimality(self, mat, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=16)
        t = effective_delta0(mat, mesh)
        Cr = tn.reduced_tensor(mat.C1)
        stiff = 1.0 - mesh.soft_area_fraction()
        # strictly below the zero-corrector stiff-part bound
        assert (np.diag(t.memb) < stiff * np.diag(Cr)).all()

    def test_rejects_bad_delta(self, mat, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=8, dim=3, n_z=4)
        with pytest.raises(ValueError):
            effective_delta(mat, mesh, delta=0.0)
        with pytest.raises(ValueError):
            effective_delta(mat, build_cell_mesh(demo_shape, n=8), delta=1.0)


def _joint_minimization_oracle(mat, mesh, A, B):
    """Full minimization over (phi1, phi2, g) of the vanishing-thickness
    corrector class, with g affine in x3 per in-plane quadrature point: an
    independent discretization of the joint problem (the production path
    never forms g; it eliminates the transverse strain pointwise through
    the reduced tensor)."""
    from hcplate.fem import assemble as fa
    from hcplate.fem import elements as el
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    C1 = mat.C1
    pm = fa.assemble_vector_h1(mesh, tn.isotropic_2d(1, 1),
                               space="periodic-zero-mean", restrict_to="stiff",
                               ncomp=2)
    pb = fa.assemble_bfs_h2(mesh, np.eye(3), space="periodic-zero-mean",
                            restrict_to="stiff")
    stiff_ids = np.flatnonzero(~mesh.element_soft)
    n1, n2 = pm.dof.n_free, pb.dof.n_free
    hsize = mesh.element_size()
    qpts, qwts = el.bfs_quadrature(hsize)   # exact for the Hessian terms
    nqp = len(qpts)
    ng = 6 * nqp * len(stiff_ids)
    ntot = n1 + n2 + ng
    gz, gw = np.polynomial.legendre.leggauss(2)
    gz, gw = 0.5 * gz, 0.5 * gw

    tri = ([], [], [])
    F = np.zeros(ntot)
    e0 = 0.0
    for ke, e in enumerate(stiff_ids):
        d1 = pm.dof.index[mesh.elements[e]].ravel()
        d2 = pb.dof.index[mesh.elements[e]].ravel()
        gofs = n1 + n2 + 6 * nqp * ke
        dofs = np.concatenate([d1, np.where(d2 >= 0, d2 + n1, -1),
                               np.arange(gofs, gofs + 6 * nqp)])
        Ke = np.zeros((len(dofs), len(dofs)))
        Fe = np.zeros(len(dofs))
        for q, (pt, w2) in enumerate(zip(qpts, qwts)):
            N, dNdx, dNdy, _ = el._q1_eval(hsize, pt)
            B1 = el.q1_b_matrix(N, dNdx, dNdy, np.zeros(4), 2)
            Bh = el.bfs_hessian_b(hsize, pt)
            for z, wz in zip(gz, gw):
                Bfull = np.zeros((6, len(dofs)))
                # in-plane block: sym grad phi1 - x3 hess phi2
                Bfull[0, :8] = B1[0]
                Bfull[1, :8] = B1[1]
                Bfull[5, :8] = B1[2]
                Bfull[0, 8:24] = -z * Bh[0]
                Bfull[1, 8:24] = -z * Bh[1]
                Bfull[5, 8:24] = -z * Bh[2]
                # transverse block: g = g0 + x3 g1 per component, per
                # in-plane quadrature point
                for c, row in ((0, 4), (1, 3), (2, 2)):
                    scale = 2.0 if row in (3, 4) else 1.0
                    Bfull[row, 24 + 6 * q + 2 * c] = scale
                    Bfull[row, 24 + 6 * q + 2 * c + 1] = scale * z
                pre = tn.voigt_strain(tn.iota(A - z * B))
                Ke += w2 * wz * (Bfull.T @ C1 @ Bfull)
                Fe -= w2 * wz * (Bfull.T @ (C1 @ pre))
                e0 += w2 * wz * (pre @ C1 @ pre)
        ok = dofs >= 0
        rows = np.repeat(dofs, len(dofs))
        cols = np.tile(dofs, len(dofs))
        keep = (rows >= 0) & (cols >= 0)
        tri[0].append(rows[keep])
        tri[1].append(cols[keep])
        tri[2].append(Ke.ravel()[keep])
        np.add.at(F, dofs[ok], Fe[ok])
    K = sp.coo_matrix((np.concatenate(tri[2]),
                       (np.concatenate(tri[0]), np.concatenate(tri[1]))),
                      shape=(ntot, ntot)).tocsc()
    # deflate the translation/constant kernels of the corrector spaces
    kerns = []
    for c in range(2):
        v = np.zeros(ntot)
        v[:n1] = fa.constant_reduced_field(pm.dof, c)
        kerns.append(v / np.linalg.norm(v))
    vb = np.zeros(ntot)
    vb[n1:n1 + n2] = fa.bfs_constants_kernel(pb.dof)[:, 0]
    kerns.append(vb / np.linalg.norm(vb))
    V = np.column_stack(kerns)
    Aug = sp.bmat([[K, sp.csc_matrix(V)], [sp.csc_matrix(V.T), None]],
                  format="csc")
    sol = spla.splu(Aug).solve(np.concatenate([F, np.zeros(V.shape[1])]))[:ntot]
    return e0 - F @ sol


class TestJointMinimizationEquivalence:
    """Oracle for the reduced form of the vanishing-thickness tensor: the
    joint minimization over (phi1, phi2, g) must agree with the pointwise
    transverse reduction."""

    def test_membrane_load(self, mat, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=8)
        t = effective_delta0(mat, mesh)
        A = np.array([[1.0, 0.3], [0.3, -0.4]])
        joint = _joint_minimization_oracle(mat, mesh, A, np.zeros((2, 2)))
        assert_allclose(joint, tn.quad_form_2d(t.memb, A), rtol=1e-9)

    def test_bending_load(self, mat, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=8)
        t = effective_delta0(mat, mesh)
        B = np.array([[0.7, -0.2], [-0.2, 1.1]])
        joint = _joint_minimization_oracle(mat, mesh, np.zeros((2, 2)), B)
        assert_allclose(joint, tn.quad_form_2d(t.bend, B), rtol=1e-9)


class TestReferenceTensors:
    """Pair forms on the demo disk cell (radius 0.26) stored from the
    bordered-kernel polarization path (21 single-load solves per tensor,
    COLAMD ordering) that preceded the pinned Gram-form solve. Keys are
    material/regime/n; delta = 1 cells use n_z = 4."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("regime", ["delta", "delta0", "deltainf"])
    @pytest.mark.parametrize("material", ["isotropic", "anisotropic"])
    def test_matches_reference(self, mat, mat_aniso, demo_shape, material,
                               regime, n):
        m = mat if material == "isotropic" else mat_aniso
        if regime == "delta":
            t = effective_delta(m, build_cell_mesh(demo_shape, n=n, dim=3,
                                                   n_z=4), 1.0)
        elif regime == "delta0":
            t = effective_delta0(m, build_cell_mesh(demo_shape, n=n))
        else:
            t = effective_deltainf(m, build_cell_mesh(demo_shape, n=n))
        want = np.array(json.loads(REFERENCE.read_text())
                        [f"{material}/{regime}/n{n}"])
        assert_allclose(t.pair_form(), want, rtol=0,
                        atol=1e-10 * abs(want).max())


class TestResidualContract:
    @pytest.mark.parametrize("shape", [InclusionShape("disk", 0.26),
                                       InclusionShape("square", 0.25)])
    def test_delta0_fine_cells_pass(self, mat, shape):
        # the n = 48 Hessian cell problems need the refinement step to get
        # below the 1e-9 residual limit
        t = effective_delta0(mat, build_cell_mesh(shape, n=48), tol=1e-9)
        assert t.eigenvalues().min() > 0
        assert (np.diag(t.pair_form())
                <= np.diag(t.zero_corrector_bound) + 1e-12).all()

    def test_deltainf_checks_its_residual(self, mat, demo_shape):
        with pytest.raises(SolverError):
            effective_deltainf(mat, build_cell_mesh(demo_shape, n=8),
                               tol=1e-30)

    @pytest.mark.parametrize("regime", ["delta", "delta0"])
    def test_other_regimes_check_their_residual(self, mat, demo_shape, regime):
        with pytest.raises(SolverError):
            if regime == "delta":
                effective_delta(mat, build_cell_mesh(demo_shape, n=8, dim=3,
                                                     n_z=2), 1.0, tol=1e-30)
            else:
                effective_delta0(mat, build_cell_mesh(demo_shape, n=8),
                                 tol=1e-30)
