import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from hcplate.config import parse_load
from hcplate.geometry import build_macro_mesh
from hcplate.limits import (LoadSpec, RegimeConfig, RegimeError,
                            _micro_load_vector, build_limit_model,
                            load_moments, micro_modal_loads, modal_system,
                            solve_limit_resolvent, static_micro)
from bloch_oracle import (cluster_rotation, whole_load, whole_modes,
                          whole_pencil)
from grand_oracle import solve_bending_resolvent_data
from schur_oracle import SchurOracle


@pytest.fixture(scope="module")
def mm():
    return build_macro_mesh(1.0, 1.0, 4, 4)


@pytest.fixture(scope="module")
def model_r2(demo_material, demo_shape, mm):
    return build_limit_model(RegimeConfig(1.0, "eps", 0), demo_material,
                             demo_shape, mm, cell_n=8, n_z=4, n_modes=10)


@pytest.fixture(scope="module")
def model_r3(demo_material, demo_shape, mm):
    return build_limit_model(RegimeConfig(1.0, "eps_h", 2), demo_material,
                             demo_shape, mm, cell_n=8, n_z=4, n_modes=10)


# the nine (delta, mu, tau, kappa) rows of the README table, delta = 1 and
# kappa = 1 standing for the open intervals
TABLE_ROWS = {
    (1.0, "eps", 2, None), (1.0, "eps", 0, None), (1.0, "eps_h", 2, None),
    (0.0, "eps", 0, np.inf), (0.0, "eps", 0, 1.0), (0.0, "eps", 0, 0.0),
    (0.0, "eps2", 2, None), (np.inf, "eps", 0, None),
    (np.inf, "eps_h", 2, None)}


class TestRegimeTable:
    def test_nine_supported_rows(self, supported_rows):
        assert len(supported_rows) == 9
        assert len({r.key for r in supported_rows}) == 9
        assert {(r.delta, r.mu, r.tau, r.kappa)
                for r in supported_rows} == TABLE_ROWS

    def test_admits_exactly_the_table_rows(self):
        # every other combination of these values is refused with
        # RegimeError, never admitted or failing otherwise
        admitted = set()
        for mu, tau, delta, kappa in itertools.product(
                ("eps", "eps_h", "eps2", "bogus"), (0, 1, 2),
                (0.0, 1.0, np.inf, -1.0, np.nan),
                (None, 0.0, 1.0, np.inf, np.nan)):
            try:
                RegimeConfig(delta, mu, tau, kappa)
            except RegimeError:
                continue
            admitted.add((delta, mu, tau, kappa))
        assert admitted == TABLE_ROWS

    @pytest.mark.parametrize("args", [
        (np.inf, "eps2", 2, None),
        (1.0, "eps2", 2, None),
        (0.0, "eps_h", 2, None),
        (np.inf, "eps", 2, None),
        (0.0, "eps", 2, None),
        (1.0, "eps", 0, 1.0),       # kappa only for delta = 0
        (0.0, "eps", 0, None),      # delta = 0 membrane needs kappa
        (1.0, "eps_h", 0, None),
        (-1.0, "eps", 0, None),
    ])
    def test_rejected_rows(self, args):
        with pytest.raises(RegimeError):
            RegimeConfig(*args)


class TestLoadSpec:
    def test_constant_transverse_moments(self):
        t0, t1 = LoadSpec(amplitude=(0, 0, 1)).transverse_moments()
        assert_allclose([t0, t1], [1.0, 0.0], atol=1e-14)

    def test_x3_moments(self):
        t0, t1 = LoadSpec(amplitude=(1, 0, 0), transverse="x3").transverse_moments()
        assert_allclose([t0, t1], [0.0, 1.0 / 12.0], atol=1e-14)

    def test_moment_loads(self, model_r2):
        fbar, xmom = load_moments(model_r2, LoadSpec(amplitude=(1, 0, 0),
                                                     transverse="x3"))
        assert_allclose(fbar, 0.0, atol=1e-14)
        assert_allclose(xmom, [1.0 / 12.0, 0.0], atol=1e-14)

    def test_profiles_vectorized(self, demo_shape):
        """Every profile on a coordinate array equals the profile point by
        point: the LoadSpec defaults and named profiles, and the config's
        sine/sin profiles."""
        cfg = {"load": {"macro": {"kind": "sine", "k1": 2, "k2": 1, "L1": 1.5},
                        "time": {"kind": "sin", "omega": 3.0},
                        "transverse": "x3", "cell": "soft"}}
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, (2, 5, 7))
        z = rng.uniform(-0.5, 0.5, (5, 7))
        for ld in (parse_load(cfg), LoadSpec(),
                   LoadSpec(macro=lambda x: 1.0 + x[0] * x[1],
                            transverse=lambda z: z ** 2,
                            cell=lambda y: np.cos(y[0]) + y[1],
                            time=lambda t: np.cos(3.0 * t) + t)):
            coords_first = [ld.macro_fn(), ld.cell_fn(demo_shape)]
            for f in coords_first:
                pointwise = [[f(x[:, i, j]) for j in range(7)] for i in range(5)]
                assert_allclose(f(x), pointwise, rtol=1e-15, atol=0)
            for f in (ld.transverse_fn(), ld.time_fn()):
                pointwise = [[f(z[i, j]) for j in range(7)] for i in range(5)]
                assert_allclose(f(z), pointwise, rtol=1e-15, atol=0)
        soft = parse_load(cfg).cell_fn(demo_shape)(x)
        assert soft.shape == (5, 7)
        assert_allclose(soft, demo_shape.contains(np.moveaxis(x, 0, -1)))

    def test_soft_supported_zero_mean_load(self, model_r2):
        # in-plane load on the inclusion with zero x3-mean: no macro
        # functional, nonzero micro load
        ld = LoadSpec(amplitude=(1.0, 0.0, 0.0), transverse="x3", cell="soft")
        fbar, _ = load_moments(model_r2, ld)
        assert_allclose(fbar, 0.0, atol=1e-14)
        ell = micro_modal_loads(model_r2, ld)
        assert abs(ell).max() > 1e-6


class TestResolventRows:
    def test_zero_load_zero_state(self, model_r2):
        st = solve_limit_resolvent(model_r2, 2.0, LoadSpec(amplitude=(0, 0, 0)))
        assert abs(st.a).max() == 0.0
        assert abs(st.b).max() == 0.0
        assert abs(st.micro).max() == 0.0

    def test_all_rows_run(self, demo_material, demo_shape, mm,
                          supported_rows):
        for r in supported_rows:
            model = build_limit_model(r, demo_material, demo_shape, mm,
                                      cell_n=8, n_z=4, n_modes=8)
            st = solve_limit_resolvent(model, 2.0,
                                       LoadSpec(amplitude=(0.3, 0.2, 1.0)))
            assert st.micro is not None

    def test_rejects_nonpositive_lambda(self, model_r2):
        with pytest.raises(ValueError):
            solve_limit_resolvent(model_r2, 0.0, LoadSpec())

    def test_matches_grand_coupled_system(self, model_r2, mm):
        # the modal elimination is the exact Schur complement of the
        # monolithic coupled system
        from grand_oracle import _real_time_system
        lam = 2.0
        ld = LoadSpec(amplitude=(1.0, 0.5, 0.7))
        system = _real_time_system(model_r2, ld)
        u = spla.splu((system.K + lam * system.M).tocsc()).solve(system.F0)
        st = solve_limit_resolvent(model_r2, lam, ld)
        na = model_r2.op.pair.n
        nn = mm.n_nodes
        assert_allclose(model_r2.op.pair.dof.expand(u[:na]), st.a,
                        atol=1e-12)
        assert_allclose(u[na:na + nn], st.b, atol=1e-12)
        assert_allclose(u[na + nn:].reshape(-1, nn), st.micro, atol=1e-12)

    def test_large_lambda_mass_asymptotics(self, model_r2):
        # (K + lam M) x = F: for huge lam the stiffness is negligible and
        # the solution approaches lam^-1 times the pure mass solution
        from grand_oracle import _real_time_system
        lam = 1e6
        ld = LoadSpec(amplitude=(1.0, 0.4, 0.0))
        system = _real_time_system(model_r2, ld)
        u = spla.splu((system.K + lam * system.M).tocsc()).solve(system.F0)
        u_mass = spla.splu(system.M.tocsc()).solve(system.F0) / lam
        assert np.linalg.norm(u - u_mass) <= 0.01 * np.linalg.norm(u_mass)

    def test_real_time_degenerate_b(self, model_r2):
        # planar-symmetric material, even in-plane load, f3 = 0: the
        # algebraic out-of-plane equation forces b = 0 exactly
        st = solve_limit_resolvent(model_r2, 2.0, LoadSpec(amplitude=(1, 1, 0)))
        assert abs(st.b).max() < 1e-14
        assert abs(st.a).max() > 0

    def test_plate_row_micro_decoupled(self, demo_material, demo_shape, mm):
        # tau=2, mu=eps: the micro solve ignores the macro data entirely
        model = build_limit_model(RegimeConfig(1.0, "eps", 2), demo_material,
                                  demo_shape, mm, cell_n=8, n_z=4, n_modes=8)
        base = LoadSpec(amplitude=(0.5, 0.2, 0.0))
        st1 = solve_limit_resolvent(model, 2.0, base)
        bumped = LoadSpec(amplitude=(0.5, 0.2, 5.0))   # macro f3 changes only
        st2 = solve_limit_resolvent(model, 2.0, bumped)
        assert_allclose(st1.micro, st2.micro, atol=1e-14)
        assert abs(st1.b - st2.b).max() > 1e-8

    def test_bending_data_resolvent_matches_grand(self, model_r3):
        from grand_oracle import _bending_kron_system
        system = _bending_kron_system(model_r3, LoadSpec(amplitude=(0, 0, 0)))
        nb = system.meta["nb"]
        N = len(model_r3.bloch.eigenvalues)
        rng = np.random.RandomState(4)
        z = rng.standard_normal(system.n)
        lam = 3.1
        u = spla.splu((system.K + lam * system.M).tocsc()).solve(system.M @ z)
        x, c = solve_bending_resolvent_data(model_r3, lam,
                                            system.lift(z[:nb]),
                                            z[nb:].reshape(N, nb))
        a, b = x[:system.meta["na"]], x[system.meta["na"]:]
        assert_allclose(np.concatenate([b, c.ravel()]), u, atol=1e-9)
        assert_allclose(a, system.meta["schur"].inplane(b), atol=1e-12)


def assert_nodal_fields(model, st, a, b):
    """The nodal a and b of a resolvent state against reduced references,
    to 1e-10 of max |b|. (The reduced twist coefficients are the worst
    conditioned: the block's condition number is 1e7, and there the Schur
    oracle itself is only good to about 2e-10.)"""
    op = model.op
    b_nodal = op.pair.dof.expand(b)[:, 0]
    a_nodal = op.memb_dof.expand(a)
    scale = abs(b_nodal).max()
    assert abs(a_nodal).max() > 1e-2 * scale   # the coupling is not negligible
    assert abs(st.b - b_nodal).max() <= 1e-10 * scale
    assert abs(st.a - a_nodal).max() <= 1e-10 * scale


class TestCoupledPlateResolvents:
    """Bending rows whose tensor has a real cross block (0.15) against the
    dense Schur oracle."""

    def test_plate_row(self, coupled_rows):
        model = coupled_rows["eps"]
        load = LoadSpec(amplitude=(0.4, -0.3, 1.0),
                        macro=lambda x: 1.0 + x[0] * x[1],
                        transverse=lambda z: 1.0 + z)
        lam = 2.0
        st = solve_limit_resolvent(model, lam, load)
        oracle = SchurOracle(model.tensor, model.macro_mesh)
        F = modal_system(model, load).F0
        a, b = oracle.resolvent(lam * model.rho_bar, F[:oracle.na],
                                F[oracle.na:])
        assert_nodal_fields(model, st, a, b)

    def test_eps_h_row(self, coupled_rows):
        from grand_oracle import _bending_kron_system
        model = coupled_rows["eps_h"]
        load = LoadSpec(amplitude=(0.0, 0.0, 1.0),
                        macro=lambda x: 1.0 + x[0] * x[1])
        lam = 2.0
        system = _bending_kron_system(model, load)
        u = spla.splu((system.K + lam * system.M).tocsc()).solve(system.F0)
        b = u[system.blocks["b"]]
        st = solve_limit_resolvent(model, lam, load)
        assert_nodal_fields(model, st, system.meta["schur"].inplane(b), b)


@pytest.fixture()
def load():
    return LoadSpec(amplitude=(0.0, 0.0, 1.0), cell="one")


class TestDelta0Branches:

    def test_kappa_inf_identity(self, demo_material, demo_shape, mm, load):
        model = build_limit_model(RegimeConfig(0.0, "eps", 0, kappa=np.inf),
                                  demo_material, demo_shape, mm, cell_n=8,
                                  n_z=4, n_modes=8)
        lam = 2.0
        st = solve_limit_resolvent(model, lam, load)
        # on Y1: <rho> b = lambda^-1 * stiff-average of fbar_3
        assert_allclose(st.b, 1.0 / (lam * model.rho_bar), rtol=1e-12)
        # on Y0: rho0 u3 = lambda^-1 (fbar_3 - stiff average)
        assert_allclose(st.u3_cell, 0.0, atol=1e-14)

    def test_kappa_zero_identity(self, demo_material, demo_shape, mm, load):
        model = build_limit_model(RegimeConfig(0.0, "eps", 0, kappa=0.0),
                                  demo_material, demo_shape, mm, cell_n=8,
                                  n_z=4, n_modes=8)
        lam = 2.0
        st = solve_limit_resolvent(model, lam, load)
        assert_allclose(st.b_cell, 1.0 / (lam * demo_material.rho1), rtol=1e-12)
        assert_allclose(st.u3_cell, 1.0 / (lam * demo_material.rho0), rtol=1e-12)

    def test_kappa_finite_cell_solve(self, demo_material, demo_shape, mm, load):
        model = build_limit_model(RegimeConfig(0.0, "eps", 0, kappa=2.0),
                                  demo_material, demo_shape, mm, cell_n=8,
                                  n_z=4, n_modes=8)
        st = solve_limit_resolvent(model, 2.0, load)
        assert st.meta["b_cell_kind"] == "periodic_bfs"
        dof = st.meta["b_cell_dof"]
        full = dof.expand(st.b_cell)
        # the artificial normalization: b vanishes on the soft interior
        interior = model.cell_mesh.inclusion_interior_nodes
        assert abs(full[interior]).max() < 1e-14
        assert abs(full).max() > 0

    def test_modal_system_load_fields(self, model_r2):
        load = LoadSpec(amplitude=(0, 0, 1))
        system = modal_system(model_r2, load)
        assert_allclose(system.mac, model_r2.macro_nodal(load))
        assert_allclose(system.ell, micro_modal_loads(model_r2, load))
        cp = system.coupling
        assert cp is model_r2.coupling
        assert system.f_micro.shape == (cp.N, cp.nm)
        assert_allclose(load_moments(model_r2, load)[1], 0.0, atol=1e-14)


class TestModelCoupling:
    def test_replace_builds_its_own_coupling(self, model_r3):
        import dataclasses
        from hcplate.macro import build_bending_operator
        from schur_oracle import plain_tensor
        before = model_r3.coupling
        tensor = plain_tensor(coupling=0.15)
        op = build_bending_operator(tensor, model_r3.macro_mesh,
                                    model_r3.rho_bar)
        clone = dataclasses.replace(model_r3, tensor=tensor, op=op)
        assert clone.coupling.K0 is op.pair.K
        assert model_r3.coupling is before
        assert before.K0 is model_r3.op.pair.K

    def test_plate_row_has_no_modes(self, coupled_rows):
        plate = coupled_rows["eps"].coupling
        hc = coupled_rows["eps_h"].coupling
        assert plate.N == 0 and plate.n == plate.n0
        assert hc.N == len(coupled_rows["eps_h"].bloch.eigenvalues)
        assert plate.n0 == hc.n0


# a load that no mirror maps to itself: its cell profile has neither y
# mirror, its transverse profile neither x3 parity
ASYMMETRIC = LoadSpec(amplitude=(0.7, -0.4, 1.0),
                      transverse=lambda z: 1.0 + 2.0 * z,
                      cell=lambda y: 1.0 + y[0] + 2.0 * y[1] ** 2)


class TestMicroLoadsOnTheWholePencil:
    """The modal loads, folded onto each mirror class, match the Bloch
    operator's whole pencil (dense `eigh`) under a load that no mirror maps
    to itself; inside a multiplicity cluster the oracle's basis is rotated
    onto the library's, so a lone mode is matched up to its sign."""

    @staticmethod
    def _oracle(model, bs, amplitude=None):
        pair, w, V = whole_pencil(bs, model.mat, model.regime.delta)
        n = bs.n_modes
        assert_allclose(bs.eigenvalues, w[:n], rtol=1e-10)
        U = whole_modes(bs, pair.dof)
        Q = cluster_rotation(w[:n], V[:, :n], pair.M, U)
        assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-10)
        F = whole_load(_micro_load_vector(bs, model.shape, ASYMMETRIC,
                                          amplitude), pair.dof)
        return Q.T @ (V[:, :n].T @ F)

    @pytest.mark.parametrize("regime, tag", [
        (RegimeConfig(1.0, "eps", 0), "full_delta"),
        (RegimeConfig(0.0, "eps", 0, np.inf), "memb_delta0"),
        (RegimeConfig(0.0, "eps2", 2), "bend_delta0"),
        (RegimeConfig(np.inf, "eps", 0), "full_deltainf")])
    def test_micro_modal_loads(self, demo_material, demo_shape, mm, regime,
                               tag):
        model = build_limit_model(regime, demo_material, demo_shape, mm,
                                  cell_n=12, n_z=4, n_modes=12)
        assert model.bloch.operator_tag == tag
        want = self._oracle(model, model.bloch)
        got = micro_modal_loads(model, ASYMMETRIC)
        assert abs(want).max() > 0
        assert_allclose(got, want, rtol=0, atol=1e-12 * abs(want).max())

    @pytest.mark.parametrize("regime, tag", [
        (RegimeConfig(1.0, "eps", 2), "full_delta"),
        (RegimeConfig(0.0, "eps2", 2), "memb_delta0")])
    def test_static_micro(self, demo_material, demo_shape, mm, regime, tag):
        model = build_limit_model(regime, demo_material, demo_shape, mm,
                                  cell_n=12, n_z=4, n_modes=12)
        bs = model.static_bloch
        assert bs.operator_tag == tag
        ell = self._oracle(model, bs, (*ASYMMETRIC.amplitude[:2], 0.0))
        want = np.outer(ell / bs.eigenvalues, model.macro_nodal(ASYMMETRIC))
        got = static_micro(model, ASYMMETRIC)
        assert_allclose(got, want, rtol=0, atol=1e-12 * abs(want).max())
