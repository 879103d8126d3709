import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hcplate import geometry
from hcplate import tensors as tn
from cell_oracle import (full_cell_delta0, full_cell_deltainf,
                         full_prism_tensor)
from hcplate.effective import (effective_delta, effective_delta0,
                               effective_deltainf)
from hcplate.fem import system as fsys
from hcplate.fem.system import SolverError
from hcplate.geometry import (MIRRORS, InclusionShape, build_cell_mesh,
                              parity_pinned)
from tensor_oracle import (iota, isotropic_2d, quad_form_2d, voigt_strain,
                           voigt_strain_2d)

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
        assert_allclose(t.memb, isotropic_2d(1, 1), atol=1e-12)
        assert abs(t.coupling).max() < 1e-12

    def test_delta_bending_converges(self, mat):
        # the bending corrector is quadratic in x3: O(h_z^2) energy error
        errs = []
        for nz in (4, 8):
            mesh = build_cell_mesh(None, n=4, dim=3, n_z=nz)
            t = effective_delta(mat, mesh, delta=1.0)
            errs.append(abs(t.bend - isotropic_2d(1, 1) / 12).max())
        assert errs[1] < 0.3 * errs[0]
        assert errs[0] < 0.01

    def test_delta_zero_loads(self, mat):
        mesh = build_cell_mesh(None, n=4, dim=3, n_z=2)
        t = effective_delta(mat, mesh, delta=2.0)
        A = np.zeros((2, 2))
        v = np.concatenate([voigt_strain_2d(A), voigt_strain_2d(A)])
        assert_allclose(v @ t.pair_form() @ v, 0.0)

    def test_delta0_exact(self, mat):
        mesh = build_cell_mesh(None, n=4)
        t = effective_delta0(mat, mesh)
        assert_allclose(t.memb, isotropic_2d(1, 1), atol=1e-12)
        assert_allclose(t.bend, isotropic_2d(1, 1) / 12, atol=1e-13)

    def test_deltainf_exact(self, mat):
        mesh = build_cell_mesh(None, n=4)
        t = effective_deltainf(mat, mesh)
        assert_allclose(t.memb, isotropic_2d(1, 1), atol=1e-12)
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
    pm = fa.assemble_vector_h1(mesh, isotropic_2d(1, 1), space="periodic",
                               restrict_to="stiff", ncomp=2)
    pb = fa.assemble_bfs_h2(mesh, np.eye(3), space="periodic",
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
            Bh = el._bfs_at(hsize, pt[None])[3][0]
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
                pre = voigt_strain(iota(A - z * B))
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
    vb[n1:n1 + n2] = fa.translations_kernel(pb.dof, [0])[:, 0]
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
        assert_allclose(joint, quad_form_2d(t.memb, A), rtol=1e-9)

    def test_bending_load(self, mat, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=8)
        t = effective_delta0(mat, mesh)
        B = np.array([[0.7, -0.2], [-0.2, 1.1]])
        joint = _joint_minimization_oracle(mat, mesh, np.zeros((2, 2)), B)
        assert_allclose(joint, quad_form_2d(t.bend, B), rtol=1e-9)


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
        # the n = 48 Hessian cell problems stay within the 1e-9
        # backward-error contract
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


def _random_c1(seed: int, axes) -> np.ndarray:
    """A random SPD stiff tensor averaged over the mirrors of `axes`: it is
    invariant under exactly those (orthotropic for all three, monoclinic
    with C16 and C26 != 0 for x3 alone, anisotropic for none)."""
    B = np.random.RandomState(seed).standard_normal((6, 6))
    C1 = B @ B.T + 3.0 * np.eye(6)
    for a in axes:
        S = np.diag(tn.voigt_signs(a))
        C1 = 0.5 * (C1 + S @ C1 @ S)
    return C1


def _material(C1):
    nu = min(0.2, 0.5 * np.linalg.eigvalsh(tn.mandel(C1)).min())
    return tn.MaterialSpec(tn.isotropic(1.0, 1.0), C1, nu=nu)


_SYMMETRY = {"orthotropic": (0, 1, 2), "monoclinic": (2,),
             "anisotropic": ()}


@st.composite
def prism_cells(draw, symmetry):
    """A random stiff tensor C1 of the given symmetry ("orthotropic",
    "monoclinic": planar-symmetric with nonzero C16 and C26, "anisotropic"),
    an inclusion, delta and n_z (even unless drawn for the full path)."""
    C1 = _random_c1(draw(st.integers(0, 2 ** 31 - 1)), _SYMMETRY[symmetry])
    if symmetry == "monoclinic":
        assert abs(C1[0, 5]) > 0 and abs(C1[1, 5]) > 0
    shape = InclusionShape(draw(st.sampled_from(["disk", "square"])),
                           draw(st.floats(0.12, 0.3)))
    delta = draw(st.sampled_from([0.5, 1.0, 2.0]))
    n_z = draw(st.sampled_from([2, 3, 4] if symmetry == "anisotropic"
                               else [2, 4]))
    return _material(C1), build_cell_mesh(shape, n=8, dim=3, n_z=n_z), delta


def _assert_matches_full_prism(t, mat, mesh, delta):
    Q = full_prism_tensor(mat, mesh, delta).pair_form()
    assert_allclose(t.pair_form(), Q, rtol=0, atol=1e-12 * abs(Q).max())


_SOLVERS = {"delta": (lambda mat, mesh: effective_delta(mat, mesh, 1.0),
                      lambda mat, mesh: full_prism_tensor(mat, mesh, 1.0)),
            "delta0": (effective_delta0, full_cell_delta0),
            "deltainf": (effective_deltainf, full_cell_deltainf)}


@st.composite
def cells(draw):
    """A regime, a C1 invariant under a random subset of the mirrors, a
    disk or square inclusion, centred or off-centre, and an even or odd n
    (and n_z on the prism)."""
    regime = draw(st.sampled_from(sorted(_SOLVERS)))
    axes = draw(st.sampled_from([(0, 1, 2), (2,), (), (0,), (1, 2)]))
    mat = _material(_random_c1(draw(st.integers(0, 2 ** 31 - 1)), axes))
    center = draw(st.sampled_from([(0.5, 0.5), (0.45, 0.5), (0.5, 0.55),
                                   (0.45, 0.55)]))
    shape = InclusionShape(draw(st.sampled_from(["disk", "square"])),
                           draw(st.floats(0.12, 0.3)), center)
    n = draw(st.sampled_from([7, 8, 10]))
    if regime == "delta":
        mesh = build_cell_mesh(shape, n=n, dim=3,
                               n_z=draw(st.sampled_from([2, 3, 4])))
    else:
        mesh = build_cell_mesh(shape, n=n)
    return regime, mat, mesh


def _expected_refusals(mat, mesh, axes) -> dict:
    """Why each mirror of `axes` cannot be used, from its definition."""
    out = {}
    n = mesh.counts[0]
    soft = mesh.element_soft.reshape(-1, n, n)     # (x3, y2, y1)
    for a in axes:
        S = np.diag(tn.voigt_signs(a))
        if not np.allclose(S @ mat.C1 @ S, mat.C1, rtol=0,
                           atol=1e-12 * abs(mat.C1).max()):
            out[MIRRORS[a]] = "C1 not mirror-symmetric"
        elif (mesh.n_z if a == 2 else n) % 2:
            out[MIRRORS[a]] = "odd n_z" if a == 2 else "odd n"
        elif not np.array_equal(soft, np.flip(soft, 2 - a)):
            out[MIRRORS[a]] = "inclusion not mirror-symmetric"
    return out


def _same_class(mirrors) -> np.ndarray:
    """Pair-form columns (A11, A22, A12, B11, B22, B12) of one parity
    class: equal signs under every mirror used (the 12 entries flip under
    y1 and y2; the curvature columns, prestrain -x3 B, flip under x3)."""
    voigt = [1, 1, -1]
    signs = np.array([[(1 if j < 3 else -1) if m == "x3" else voigt[j % 3]
                       for m in mirrors] for j in range(6)]).reshape(6, -1)
    return (signs[:, None, :] == signs[None, :, :]).all(axis=-1)


def _no_detection(*args, **kwargs):
    raise AssertionError("detect_kernel called")


@contextmanager
def _no_kernel_detection():
    """Fail on a call of detect_kernel, or of an eigensolver it runs."""
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((fsys, "detect_kernel"), (fsys.sla, "eigh"),
                             (fsys.spla, "eigsh")):
            mp.setattr(module, name, _no_detection)
        yield


@pytest.mark.usefixtures("fresh_memo")
class TestMirrorSplit:
    """Cell tensors on the fundamental region of the mirrors against the
    full-cell oracles: the same tensor, cross-class entries of exact zeros,
    no kernel detection, and the mirrors and refusals recorded."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(["orthotropic", "monoclinic"]).flatmap(prism_cells))
    def test_split_matches_full_prism(self, cell):
        mat, mesh, delta = cell
        with _no_kernel_detection():
            t = effective_delta(mat, mesh, delta)
        orthotropic = tn.mirror_symmetric(mat.C1, 0)
        assert "x3" in t.provenance["mirrors"]
        assert len(t.provenance["classes"]) == (4 if orthotropic else 2)
        assert (t.coupling == 0.0).all()
        _assert_matches_full_prism(t, mat, mesh, delta)

    @settings(max_examples=6, deadline=None)
    @given(prism_cells("anisotropic"))
    def test_anisotropic_takes_full_prism(self, cell):
        mat, mesh, delta = cell
        t = effective_delta(mat, mesh, delta)
        assert t.provenance["mirrors"] == []
        assert t.provenance["mirrors_refused"]["x3"] \
            == "C1 not mirror-symmetric"
        assert abs(t.coupling).max() > 0.0
        _assert_matches_full_prism(t, mat, mesh, delta)

    @pytest.mark.parametrize("n_z, z_span, reason", [
        (3, (-0.5, 0.5), "odd n_z"),
        (4, (0.0, 1.0), "prism not on x3 in (-1/2, 1/2)")])
    def test_no_mirror_plane_takes_full_prism(self, mat, demo_shape, n_z,
                                              z_span, reason):
        mesh = build_cell_mesh(demo_shape, n=8, dim=3, n_z=n_z,
                               z_span=z_span)
        t = effective_delta(mat, mesh, 1.0)
        assert "x3" not in t.provenance["mirrors"]
        assert t.provenance["mirrors_refused"]["x3"] == reason
        _assert_matches_full_prism(t, mat, mesh, 1.0)

    def test_per_tensor_symmetry_check(self, mat_aniso):
        # the split reads C1 only: a planar-symmetric C1 splits even when
        # the soft tensor C0 is not
        mat = tn.MaterialSpec(mat_aniso.C1, tn.isotropic(1, 1), nu=0.05)
        assert not tn.mirror_symmetric(mat.C0, 2)
        assert tn.mirror_symmetric(mat.C1, 2)
        mesh = build_cell_mesh(InclusionShape("disk", 0.26), n=8, dim=3,
                               n_z=4)
        t = effective_delta(mat, mesh, 1.0)
        assert "x3" in t.provenance["mirrors"]
        _assert_matches_full_prism(t, mat, mesh, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(cells())
    def test_every_regime_matches_the_full_cell(self, cell):
        regime, mat, mesh = cell
        solve, oracle = _SOLVERS[regime]
        with _no_kernel_detection():
            t = solve(mat, mesh)
        want = oracle(mat, mesh)
        axes = (0, 1, 2) if regime == "delta" else (0, 1)
        refused = _expected_refusals(mat, mesh, axes)
        prov = t.provenance
        assert prov["mirrors_refused"] == refused
        assert prov["mirrors"] == [MIRRORS[a] for a in axes
                                   if MIRRORS[a] not in refused]
        labels = {"delta": "A11 A22 A12 B11 B22 B12",
                  "delta0": "A11 A22 A12 B11 B22 B12",
                  "deltainf": "g1 g2 g3 A11 A22 A12"}[regime].split()
        assert sorted(c for k in prov["classes"] for c in k["columns"]) \
            == sorted(labels)
        assert all(k["dofs"] > 0 for k in prov["classes"])
        scale = abs(want.pair_form()).max()
        for got, ref, rtol in ((t.memb, want.memb, 1e-12),
                               (t.coupling, want.coupling, 1e-12),
                               # the BFS cell sits on the 1e-9 contract
                               (t.bend, want.bend,
                                1e-10 if regime == "delta0" else 1e-12)):
            assert_allclose(got, ref, rtol=0, atol=rtol * scale)
        cross = ~_same_class(prov["mirrors"])
        assert (t.pair_form()[cross] == 0.0).all()
        assert (t.zero_corrector_bound[cross] == 0.0).all()

    @pytest.mark.parametrize("regime, axis, sign", [
        (r, a, s) for r in sorted(_SOLVERS) for s in (1, -1)
        for a in ((0, 1, 2) if r == "delta" else (0, 1))])
    def test_swapped_pins_are_caught(self, mat, regime, axis, sign):
        # a mutant that gives the classes of one sign under one mirror the
        # pins of the other sign fails the oracle check
        solve, oracle = _SOLVERS[regime]
        shape = InclusionShape("square", 0.2)
        mesh = build_cell_mesh(shape, n=8, **({"dim": 3, "n_z": 4}
                                              if regime == "delta" else {}))
        want = oracle(mat, mesh).pair_form()

        def swapped(carries, a, s):
            return parity_pinned(carries, a, -s if (a, s) == (axis, sign)
                                 else s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "parity_pinned", swapped)
            try:
                got = solve(mat, mesh).pair_form()
            except SolverError:
                return
        assert abs(got - want).max() > 1e-6 * abs(want).max()
