import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hcplate.effective import effective_delta
from hcplate.geometry import build_cell_mesh
from hcplate.macro import build_membrane_operator, macro_eigs
from hcplate.zhikov import (NonScalarBetaError, PoleProximityError,
                            ZhikovFunction, limit_spectrum, zhikov_from_bloch)
from hcplate.commands import _beta_samples
from hcplate.zhikov import POLE_GUARD, zhikov_variant
from zhikov_oracle import (beta_loop, beta_oracle, beta_prime, beta_prime_fd,
                           beta_scalar)


def scalarized(zf):
    return dataclasses.replace(zf, means=zf.means[:, :1])


@pytest.fixture(scope="module")
def macro_setup(demo_material, demo_shape, demo_macro_mesh, demo_zhikov):
    mesh3 = build_cell_mesh(demo_shape, n=16, dim=3, n_z=4)
    tensor = effective_delta(demo_material, mesh3, delta=1.0)
    op = build_membrane_operator(tensor, demo_macro_mesh, demo_zhikov.rho_bar)
    mu_w, _ = macro_eigs(op, 8)
    return op, mu_w


class TestBetaEval:
    def test_zero_at_zero(self, demo_zhikov):
        assert_allclose(demo_zhikov.eval(0.0), 0.0)

    def test_leading_order(self, demo_zhikov):
        lam = 1e-6
        B = demo_zhikov.eval(lam) / lam
        assert abs(B - demo_zhikov.rho_bar * np.eye(2)).max() < 1e-4

    def test_symmetric_matrix(self, demo_zhikov):
        lam = demo_zhikov.poles[0] / 3
        B = demo_zhikov.eval(lam)
        assert_allclose(B, B.T)

    def test_pole_guard(self, demo_zhikov):
        with pytest.raises(PoleProximityError):
            demo_zhikov.eval(demo_zhikov.poles[0] + 1e-12)

    def test_negative_diverging_right_of_pole(self, demo_zhikov):
        # immediately right of the first coupled pole the smallest
        # eigenvalue of beta is negative and runs to -infinity
        eta1 = demo_zhikov.poles[0]
        prev = 0.0
        for k in (2, 3, 4, 5):
            lam = eta1 * (1 + 10.0 ** (-k))
            low = np.linalg.eigvalsh(demo_zhikov.eval(lam)).min()
            assert low < 0
            assert low < prev
            prev = low

    def test_prime_bounded_below(self, demo_zhikov):
        zf = demo_zhikov
        for lam in (0.3 * zf.poles[0], 0.7 * zf.poles[0],
                    0.5 * (zf.poles[0] + zf.poles[1])):
            if abs(zf.poles - lam).min() < 1e-3:
                continue
            P = beta_prime_fd(zf, lam)
            assert np.linalg.eigvalsh(P).min() >= zf.rho1_mass - 1e-6

    def test_monotone_between_poles(self, demo_zhikov):
        zf = demo_zhikov
        lam1, lam2 = 0.2 * zf.poles[0], 0.6 * zf.poles[0]
        inc = zf.eval(lam2) - zf.eval(lam1)
        bound = zf.rho1_mass * (lam2 - lam1)
        assert np.linalg.eigvalsh(inc).min() >= bound - 1e-9


@pytest.fixture(scope="module", params=["full", "memb", "bend"])
def variant(request, demo_material, demo_bloch_full):
    comps = {"full": None, "memb": (0, 1), "bend": (2,)}[request.param]
    zf = zhikov_variant(demo_bloch_full, demo_material, comps)
    assert zf.variant == request.param
    return zf


class TestBetaOnGrid:
    def test_matches_pole_by_pole_sum(self, variant):
        # near a root of beta its entries cancel, and neither summation
        # order is accurate relative to them: the error is measured against
        # the size of the summed terms, lambda <rho> + sum_n |w_n| |m_n|^2
        zf = variant
        lam, B = _beta_samples(zf, 1000)
        assert B.shape == (len(lam), zf.k, zf.k)
        w = lam[:, None] ** 2 / np.abs(zf.poles - lam[:, None])
        terms = lam * zf.rho_bar + w @ (zf.means ** 2).max(axis=1)
        for x, b, t in zip(lam, B, terms):
            assert abs(b - beta_loop(zf, x)).max() <= 1e-14 * t

    def test_exactly_symmetric(self, variant):
        _, B = _beta_samples(variant, 1000)
        assert (B == B.swapaxes(1, 2)).all()

    def test_scalar_keeps_matrix_shape(self, variant):
        assert variant.eval(0.5 * variant.poles[0]).shape == (variant.k,) * 2

    def test_one_bad_lambda_raises(self, variant):
        lam = np.linspace(0.0, variant.poles[0] / 2, 9)
        with pytest.raises(ValueError, match="lambda >= 0"):
            variant.eval(np.append(lam, -1e-3))
        at_pole = np.insert(lam, 4, variant.poles[-1])
        with pytest.raises(PoleProximityError):
            variant.eval(at_pole.reshape(2, 5))

    def test_samples_drop_only_the_point_on_a_pole(self, variant):
        # the 400 cell midpoints miss the last pole (two thirds of
        # lambda_max) by a sixth of a cell; a first pole moved onto one of
        # them costs that point alone
        n = 400
        grid = (np.arange(n) + 0.5) * (variant.lambda_max / n)
        assert np.abs(grid - variant.poles[-1]).min() >= \
            0.99 * variant.lambda_max / (6 * n)
        k = int(np.argmin(np.abs(grid - variant.poles[0])))
        zf = dataclasses.replace(
            variant, poles=np.concatenate([[grid[k]], variant.poles[1:]]))
        assert zf.lambda_max == variant.lambda_max
        assert (np.abs(grid[:, None] - zf.poles) < POLE_GUARD).sum() == 1
        lam, B = _beta_samples(zf, n)
        assert np.array_equal(lam, np.delete(grid, k))
        assert len(B) == n - 1


class TestBetaOracle:
    def test_cross_validation(self, demo_material, demo_shape, demo_zhikov):
        zf = demo_zhikov
        eta1 = zf.poles[0]
        lams = [0.2 * eta1, 0.5 * eta1, 0.8 * eta1,
                0.5 * (eta1 + zf.poles[2]), 1.1 * zf.poles[2]]
        for lam in lams:
            if abs(zf.poles - lam).min() < 0.1 * eta1:
                continue
            Bo = beta_oracle(demo_material, demo_shape, 16, "memb_delta",
                             lam, delta=1.0, n_z=4)
            Be = zf.eval(lam)
            assert abs(Be - Bo).max() <= 0.01 * abs(Bo).max()

    def test_oracle_symmetric(self, demo_material, demo_shape, demo_zhikov):
        lam = demo_zhikov.poles[0] / 2
        B = beta_oracle(demo_material, demo_shape, 16, "memb_delta", lam,
                        delta=1.0, n_z=4)
        assert abs(B - B.T).max() < 1e-9

    def test_small_lambda_linear(self, demo_material, demo_shape, demo_zhikov):
        lam = 1e-4
        B = beta_oracle(demo_material, demo_shape, 16, "memb_delta", lam,
                        delta=1.0, n_z=4)
        assert abs(B / lam - demo_zhikov.rho_bar * np.eye(2)).max() < 1e-2

    def test_truncation_monotone(self, demo_material, demo_shape, demo_bloch_memb):
        # |beta_eval_N - beta_oracle| decreases as N grows
        zf_full = zhikov_from_bloch(demo_bloch_memb, demo_material)
        lams = np.array([0.3, 0.5, 0.7, 0.9, 1.3]) * zf_full.poles[0]
        oracles = [beta_oracle(demo_material, demo_shape, 16, "memb_delta",
                               lam, delta=1.0, n_z=4) for lam in lams]
        errs = []
        for N in (6, 14, 30):
            keep = demo_bloch_memb.eigenvalues <= demo_bloch_memb.eigenvalues[N - 1] + 1e-9
            poles = zf_full.poles[zf_full.poles <= demo_bloch_memb.eigenvalues[N - 1] + 1e-9]
            zf = dataclasses.replace(zf_full, poles=poles,
                                     means=zf_full.means[:len(poles)])
            errs.append(max(abs(zf.eval(l) - o).max()
                            for l, o in zip(lams, oracles)))
        assert errs[0] >= errs[1] >= errs[2]


class TestVariantClassification:
    def test_bending_variant_drops_membrane_poles(self, demo_material,
                                                  demo_bloch_full):
        # tracking only the transverse mean must re-classify: membrane-parity
        # modes (zero transverse mean) leave the pole list entirely
        from hcplate.zhikov import zhikov_variant
        bs = demo_bloch_full
        zf_bend = zhikov_variant(bs, demo_material, components=(2,))
        assert zf_bend.k == 1
        m3 = bs.weighted_means[:, 2]
        thresh = 1e-7 * bs.rho0_area_mass
        expected_poles = bs.eigenvalues[np.abs(m3) > thresh]
        # every pole carries a nonzero transverse mean
        for eta in zf_bend.poles:
            assert np.min(np.abs(expected_poles - eta)) < 1e-12 * (1 + eta)
        # pole count + uncoupled count = mode count
        assert len(zf_bend.poles) + len(zf_bend.uncoupled) == bs.n_modes
        # and beta never carries zero-residue poles
        assert (np.abs(zf_bend.means) > thresh).all()

    def test_full_variant_matches_bloch_classification(self, demo_material,
                                                       demo_bloch_full):
        from hcplate.zhikov import zhikov_from_bloch
        zf = zhikov_from_bloch(demo_bloch_full, demo_material)
        eta, _ = demo_bloch_full.coupled()
        assert_allclose(zf.poles, eta)


class TestLimitSpectrum:
    def test_roots_match_targets(self, demo_zhikov, macro_setup):
        # the pencil eigenvalues are accurate relative to lambda, so the beta
        # residual scales with the (analytic) slope, which blows up next to
        # poles
        zf = scalarized(demo_zhikov)
        _, mu_w = macro_setup
        targets = demo_zhikov.rho_bar * mu_w
        spec = limit_spectrum(zf, targets)
        assert any(p["kind"] == "beta_root" for p in spec.points)
        for p in spec.points:
            if p["kind"] != "beta_root":
                continue
            lam = p["lambda"]
            val = beta_scalar(zf, lam)
            slope = float(beta_prime(zf, lam)[0, 0])
            tol = max(1e-8 * (1 + abs(p["matched_mu"])),
                      3e-10 * (1 + lam) * slope)
            assert abs(val - p["matched_mu"]) <= tol

    def test_one_root_below_first_pole_per_target(self, demo_zhikov, macro_setup):
        zf = scalarized(demo_zhikov)
        _, mu_w = macro_setup
        targets = demo_zhikov.rho_bar * mu_w[:4]
        spec = limit_spectrum(zf, targets)
        eta1 = zf.poles[0]
        below = [p for p in spec.points
                 if p["kind"] == "beta_root" and p["lambda"] < eta1]
        assert len(below) == 4

    def test_no_coupling_classical_spectrum(self, demo_zhikov):
        # all modes alpha-type: spectrum reduces to lambda <rho> = mu_k,
        # with the lambda cap inferred from the targets (beta is linear)
        zf = dataclasses.replace(scalarized(demo_zhikov),
                                 poles=np.empty(0), means=np.empty((0, 1)),
                                 uncoupled=np.array([0.5]))
        targets = np.array([1.0, 2.5])
        spec = limit_spectrum(zf, targets)
        roots = sorted(p["lambda"] for p in spec.points
                       if p["kind"] == "beta_root")
        assert_allclose(roots, targets / zf.rho_bar, rtol=1e-9)
        assert any(p["kind"] == "uncoupled" and p["lambda"] == 0.5
                   for p in spec.points)

    def test_gap_left_endpoints_are_poles(self, demo_zhikov, macro_setup):
        zf = scalarized(demo_zhikov)
        _, mu_w = macro_setup
        spec = limit_spectrum(zf, demo_zhikov.rho_bar * mu_w)
        pole_set = np.concatenate([[0.0], zf.poles])
        for a, b in spec.gaps:
            assert np.min(np.abs(pole_set - a)) < 1e-8 * (1 + a)
            assert b > a
            inside = [p for p in spec.points if a + 1e-9 < p["lambda"] < b - 1e-9]
            assert not inside

    def test_uncoupled_points_included(self, demo_zhikov, macro_setup):
        zf = scalarized(demo_zhikov)
        _, mu_w = macro_setup
        spec = limit_spectrum(zf, demo_zhikov.rho_bar * mu_w)
        expected = [a for a in zf.uncoupled if a <= spec.meta["lambda_max"]]
        got = sorted(p["lambda"] for p in spec.points if p["kind"] == "uncoupled")
        # uncoupled eigenvalues may coincide with roots only accidentally
        assert len(got) >= len(expected) - 2

    def test_empty_macro_spectrum_rejected(self, demo_zhikov):
        with pytest.raises(ValueError):
            limit_spectrum(scalarized(demo_zhikov), [])

    def test_interval_for_thin_cells(self, demo_zhikov, macro_setup):
        zf = scalarized(demo_zhikov)
        _, mu_w = macro_setup
        m0 = 0.8 * zf.poles[0]
        spec = limit_spectrum(zf, demo_zhikov.rho_bar * mu_w, m0=m0)
        assert spec.intervals == [(m0, np.inf)]
        assert spec.contains(1.7 * zf.poles[0])

    def test_full_variant_matches_scalarized(self, demo_zhikov, macro_setup):
        # isotropic disk: beta = beta_11 I, so the 2-component membrane
        # variant gives the points of its first component, with every
        # degenerate pole pair merged into one pencil row
        _, mu_w = macro_setup
        targets = demo_zhikov.rho_bar * mu_w
        full = limit_spectrum(demo_zhikov, targets)
        one = limit_spectrum(scalarized(demo_zhikov), targets)
        assert_allclose(full.point_values(), one.point_values(), rtol=1e-12)
        assert full.meta["path"] == "arrowhead"
        assert full.meta["gram_anisotropy"] <= 1e-7
        assert full.meta["merged_clusters"] >= 1
        assert full.meta["pencil_size"] == \
            len(demo_zhikov.poles) + 1 - full.meta["merged_clusters"]


def synthetic(poles, means, rho_bar=1.0, rho1_mass=0.5):
    return ZhikovFunction(variant="memb" if len(means[0]) == 2 else "bend",
                          poles=np.array(poles, dtype=float),
                          means=np.array(means, dtype=float), rho_bar=rho_bar,
                          rho1_mass=rho1_mass, uncoupled=np.empty(0))


class TestPoleClusters:
    TARGETS = np.array([0.7, 2.0, 5.5])

    def test_repeated_pole_is_one_pole(self):
        # means (a, b) on two copies of eta act as one pole of residue
        # a^2 + b^2 (dyadic values, so the residues agree exactly)
        a, b, eta = 0.375, 0.5, 3.0
        pair = limit_spectrum(synthetic([1.0, eta, eta, 6.0],
                                        [[0.25], [a], [b], [0.125]]),
                              self.TARGETS)
        single = limit_spectrum(synthetic([1.0, eta, 6.0],
                                          [[0.25], [0.625], [0.125]]),
                                self.TARGETS)
        assert pair.points == single.points
        assert not np.any(np.isclose(pair.point_values(), eta, rtol=1e-9))
        assert pair.meta["merged_clusters"] == 1
        assert pair.meta["pencil_size"] == 4
        assert pair.gaps == single.gaps

    def test_roots_interlace_poles(self):
        zf = synthetic([1.0, 3.0, 6.0], [[0.25], [0.5], [0.125]])
        spec = limit_spectrum(zf, self.TARGETS)
        for p in spec.points:
            a, b = p["pole_interval"]
            assert a < p["lambda"] < b
            assert abs(beta_scalar(zf, p["lambda"]) - p["matched_mu"]) \
                <= 1e-9 * (1 + p["matched_mu"]) * float(beta_prime(zf, p["lambda"])[0, 0])

    def test_anisotropic_gram_refused(self):
        # one in-plane mean direction per pole: beta_11 != beta_22
        zf = synthetic([1.0, 3.0], [[0.25, 0.0], [0.0, 0.5]])
        with pytest.raises(NonScalarBetaError, match="pole cluster 1"):
            limit_spectrum(zf, self.TARGETS)

    def test_isotropic_pair_accepted(self):
        # orthogonal means of equal norm on a degenerate pair: Gram c I
        pair = [[0.375, 0.0], [0.0, 0.375]]
        spec = limit_spectrum(synthetic([3.0, 3.0], pair), self.TARGETS)
        assert spec.meta["gram_anisotropy"] == 0.0
        pair[1][1] = 0.5
        with pytest.raises(NonScalarBetaError, match="pole cluster 0"):
            limit_spectrum(synthetic([3.0, 3.0], pair), self.TARGETS)
