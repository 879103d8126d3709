import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from tensor_oracle import (VOIGT3, c0_red, iota, iota1, isotropic_2d,
                           quad_form, quad_form_2d)


def brute_force_reduced(C, A, n_grid=21, rounds=6):
    """Independent oracle: nested grid minimization over the transverse
    vector d of C[iota(A)+iota1(d)] : [iota(A)+iota1(d)]."""
    center = np.zeros(3)
    half = 4.0
    best = np.inf
    for _ in range(rounds):
        axes = [np.linspace(c - half, c + half, n_grid) for c in center]
        for d1 in axes[0]:
            for d2 in axes[1]:
                for d3 in axes[2]:
                    xi = iota(A) + iota1((d1, d2, d3))
                    val = quad_form(C, xi)
                    if val < best:
                        best, center = val, np.array([d1, d2, d3])
        half *= 2.5 / (n_grid - 1)
    return best


def random_spd_voigt(rng, scale=1.0):
    B = rng.standard_normal((6, 6))
    return scale * (B @ B.T + 6 * np.eye(6))


class TestEmbeddings:
    def test_iota_identity(self):
        assert_allclose(iota(np.eye(2)), np.diag([1.0, 1.0, 0.0]))

    def test_iota_zero(self):
        assert_allclose(iota(np.zeros((2, 2))), np.zeros((3, 3)))

    def test_iota_general(self):
        A = np.array([[1.0, 2.0], [2.0, 3.0]])
        expect = np.array([[1, 2, 0], [2, 3, 0], [0, 0, 0.0]])
        assert_allclose(iota(A), expect)

    def test_iota_3x2(self):
        M = np.arange(6.0).reshape(3, 2)
        out = iota(M)
        assert_allclose(out[:, :2], M)
        assert_allclose(out[:, 2], 0)

    def test_iota1_zero(self):
        assert_allclose(iota1((0, 0, 0)), np.zeros((3, 3)))

    def test_iota1_e1(self):
        out = iota1((1, 0, 0))
        expect = np.zeros((3, 3))
        expect[0, 2] = expect[2, 0] = 1.0
        assert_allclose(out, expect)

    def test_iota1_e3(self):
        assert_allclose(iota1((0, 0, 2)), np.diag([0, 0, 2.0]))


class TestVoigt:
    def test_quad_form_roundtrip_isotropic(self):
        # C xi : xi = lam tr(xi)^2 + 2 mu |xi|^2 against direct index summation
        rng = np.random.RandomState(0)
        lam, mu = 1.3, 0.7
        C = tn.isotropic(lam, mu)
        for _ in range(20):
            xi = rng.standard_normal((3, 3))
            xi = 0.5 * (xi + xi.T)
            direct = lam * np.trace(xi) ** 2 + 2 * mu * (xi * xi).sum()
            assert_allclose(quad_form(C, xi), direct, rtol=1e-13)

    def test_quad_form_roundtrip_random(self):
        # voigt quadratic form equals sum_ijkl C_ijkl xi_ij xi_kl
        rng = np.random.RandomState(1)
        C = random_spd_voigt(rng)
        # reconstruct the full tensor from the Voigt matrix
        full = np.zeros((3, 3, 3, 3))
        for a, (i, j) in enumerate(VOIGT3):
            for b, (k, l) in enumerate(VOIGT3):
                val = C[a, b]
                for ii, jj in ((i, j), (j, i)):
                    for kk, ll in ((k, l), (l, k)):
                        full[ii, jj, kk, ll] = val
        for _ in range(10):
            xi = rng.standard_normal((3, 3))
            xi = 0.5 * (xi + xi.T)
            direct = np.einsum("ijkl,ij,kl->", full, xi, xi)
            assert_allclose(quad_form(C, xi), direct, rtol=1e-12)


class TestReducedTensor:
    def test_isotropic_identity_closed_form(self):
        C = tn.isotropic(1.0, 1.0)
        Cr = tn.reduced_tensor(C)
        val = quad_form_2d(Cr, np.eye(2))
        assert_allclose(val, 20.0 / 3.0, atol=1e-12)

    def test_isotropic_shear(self):
        C = tn.isotropic(1.0, 1.0)
        Cr = tn.reduced_tensor(C)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(quad_form_2d(Cr, A), 4.0, atol=1e-12)

    def test_matches_brute_force(self):
        C = tn.isotropic(1.0, 1.0)
        Cr = tn.reduced_tensor(C)
        A = np.eye(2)
        assert_allclose(quad_form_2d(Cr, A),
                        brute_force_reduced(C, A), atol=1e-10)

    def test_matches_brute_force_anisotropic(self):
        rng = np.random.RandomState(7)
        C = random_spd_voigt(rng)
        Cr = tn.reduced_tensor(C)
        A = np.array([[0.4, -0.2], [-0.2, 1.1]])
        assert_allclose(quad_form_2d(Cr, A),
                        brute_force_reduced(C, A), rtol=1e-9)

    def test_planar_limit_is_restriction(self):
        # zero i3-couplings and a huge C3333 penalty: minimizer d -> 0
        C = tn.isotropic(1.0, 1.0)
        C[np.ix_([0, 1, 5], [2, 3, 4])] = 0.0
        C[np.ix_([2, 3, 4], [0, 1, 5])] = 0.0
        C[2, 2] = 1e12
        Cr = tn.reduced_tensor(C)
        assert_allclose(Cr, C[np.ix_([0, 1, 5], [0, 1, 5])], rtol=1e-9)

    def test_monotone_in_quadratic_form(self):
        # C <= C' implies C^r <= C^r' as quadratic forms
        rng = np.random.RandomState(3)
        for _ in range(10):
            C = random_spd_voigt(rng)
            D = C + random_spd_voigt(rng, 0.5)
            Cr, Dr = tn.reduced_tensor(C), tn.reduced_tensor(D)
            eig = np.linalg.eigvalsh(tn.mandel(Dr) - tn.mandel(Cr))
            assert eig.min() > -1e-10

    def test_closed_form_isotropic_matrix(self):
        lam, mu = 2.0, 0.5
        assert_allclose(tn.reduced_tensor(tn.isotropic(lam, mu)),
                        isotropic_2d(lam, mu), atol=1e-12)

    def test_positive_definite(self):
        rng = np.random.RandomState(11)
        Cr = tn.reduced_tensor(random_spd_voigt(rng))
        assert np.linalg.eigvalsh(tn.mandel(Cr)).min() > 0


class TestC0Red:
    def test_bend_is_memb_over_12(self):
        rng = np.random.RandomState(5)
        memb, bend = c0_red(random_spd_voigt(rng))
        assert_allclose(bend, memb / 12.0, rtol=1e-14)

    def test_isotropic_bend_value(self):
        memb, bend = c0_red(tn.isotropic(1.0, 1.0))
        assert_allclose(quad_form_2d(bend, np.eye(2)), 20.0 / 36.0, atol=1e-12)

    def test_zero_curvature(self):
        _, bend = c0_red(tn.isotropic(1.0, 1.0))
        assert_allclose(quad_form_2d(bend, np.zeros((2, 2))), 0.0)


class TestCoercivity:
    def test_isotropic_pass(self):
        rep = tn.check_coercivity(tn.isotropic(1.0, 1.0), nu=0.5)
        assert rep.passed
        assert_allclose(rep.min_eig, 2.0, atol=1e-12)
        assert_allclose(rep.max_eig, 5.0, atol=1e-12)

    def test_isotropic_fail_large_nu(self):
        assert not tn.check_coercivity(tn.isotropic(1.0, 1.0), nu=10.0).passed

    def test_zero_tensor_fails(self):
        assert not tn.check_coercivity(np.zeros((6, 6)), nu=0.1).passed


class TestMirrorSymmetric:
    def test_voigt_sign_table(self):
        # (11, 22, 33, 23, 13, 12): y1 flips 13 and 12, y2 flips 23 and
        # 12, x3 flips 23 and 13
        assert tn.voigt_signs(0).tolist() == [1, 1, 1, 1, -1, -1]
        assert tn.voigt_signs(1).tolist() == [1, 1, 1, -1, 1, -1]
        assert tn.voigt_signs(2).tolist() == [1, 1, 1, -1, -1, 1]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), axis=st.integers(0, 2))
    def test_matches_the_reflected_tensor(self, seed, axis):
        # the mirror R acts on Voigt strains as S = diag(voigt_signs): C is
        # invariant when S C S = C, and (C + S C S) / 2 always is
        B = np.random.RandomState(seed).standard_normal((6, 6))
        C = B @ B.T
        S = np.diag(tn.voigt_signs(axis))
        assert not tn.mirror_symmetric(C, axis)
        assert tn.mirror_symmetric(0.5 * (C + S @ C @ S), axis)

    def test_material_classes(self):
        iso = tn.isotropic(1.0, 2.0)
        assert all(tn.mirror_symmetric(iso, a) for a in range(3))
        mono = iso.copy()
        mono[0, 5] = mono[5, 0] = 0.3       # C16: x3 only
        assert [tn.mirror_symmetric(mono, a) for a in range(3)] \
            == [False, False, True]
        mono[1, 5] = mono[5, 1] = 0.0
        mono[0, 5] = mono[5, 0] = 1e-13     # below the relative tolerance
        assert all(tn.mirror_symmetric(mono, a) for a in range(3))


class TestMaterialSpec:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(
            '{"C0": {"isotropic": {"lambda": 1.0, "mu": 1.0}},'
            ' "C1": {"isotropic": {"lambda": 2.0, "mu": 1.5}},'
            ' "rho0": 1.0, "rho1": 2.0, "nu": 0.2}')
        mat = tn.load_material(path)
        assert_allclose(mat.C1, tn.isotropic(2.0, 1.5))
        assert mat.rho1 == 2.0
        assert all(tn.mirror_symmetric(C, a) for C in (mat.C0, mat.C1)
                   for a in range(3))

    def test_upper_triangle_input(self):
        C = tn.isotropic(1.0, 1.0)
        entries = [C[i, j] for i in range(6) for j in range(i, 6)]
        mat = tn.material_from_dict({"C0": entries, "C1": entries, "nu": 0.2})
        assert_allclose(mat.C0, C)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            tn.MaterialSpec(tn.isotropic(1, 1), tn.isotropic(1, 1), rho0=-1.0)

    def test_rejects_noncoercive(self):
        with pytest.raises(ValueError):
            tn.MaterialSpec(np.zeros((6, 6)), tn.isotropic(1, 1), nu=0.2)
