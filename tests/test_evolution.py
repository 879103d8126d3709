import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid

from grand_oracle import (SecondOrderSystem, _bending_kron_system,
                          _real_time_system, grand_midpoint,
                          solve_bending_resolvent_data)
from hcplate import macro
from hcplate.evolution import (_macro_modal_reduction, evolve,
                               evolve_memory_bending, step_count)
from hcplate.fem.system import EigWorkspace, factorize
from hcplate.geometry import build_macro_mesh
from hcplate.limits import (LoadSpec, RegimeConfig, RegimeError,
                            build_limit_model, modal_system,
                            solve_limit_resolvent, static_micro)
from hcplate.macro import macro_eigs
from schur_oracle import SchurOracle


@pytest.fixture(scope="module")
def mm():
    return build_macro_mesh(1.0, 1.0, 4, 4)


@pytest.fixture(scope="module")
def model_r1(demo_material, demo_shape, mm):
    return build_limit_model(RegimeConfig(1.0, "eps", 2), demo_material,
                             demo_shape, mm, cell_n=8, n_z=4, n_modes=8)


@pytest.fixture(scope="module")
def model_r3(demo_material, demo_shape, mm):
    return build_limit_model(RegimeConfig(1.0, "eps_h", 2), demo_material,
                             demo_shape, mm, cell_n=8, n_z=4, n_modes=8)


@pytest.fixture(scope="module")
def model_r2(demo_material, demo_shape, mm):
    return build_limit_model(RegimeConfig(1.0, "eps", 0), demo_material,
                             demo_shape, mm, cell_n=8, n_z=4, n_modes=8)


def zero_load():
    return LoadSpec(amplitude=(0.0, 0.0, 0.0))


class TestSingleMode:
    def test_cos_solution_and_dt2_order(self, model_r1):
        mu, W = macro_eigs(model_r1.op, 1)
        w1 = W[:, 0]
        T = 2 * np.pi / np.sqrt(mu[0])
        errs = []
        for dt in (T / 200, T / 400):
            traj = evolve(model_r1, zero_load(), T, dt,
                          u0=w1.copy(), v0=np.zeros_like(w1))
            op = model_r1.op
            proj = traj.fields["b"] @ (model_r1.rho_bar *
                                       (op.pair.M @ w1)[op.n_static:])
            errs.append(abs(proj - np.cos(np.sqrt(mu[0]) * traj.times)).max())
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_quasistatic_membrane_tracks_bending(self, model_r1):
        mu, W = macro_eigs(model_r1.op, 1)
        traj = evolve(model_r1, zero_load(),
                      0.3, 1e-3, u0=W[:, 0], v0=np.zeros(model_r1.op.n))
        oracle = SchurOracle(model_r1.tensor, model_r1.macro_mesh)
        for j in (0, len(traj.times) // 2, -1):
            expect = oracle.inplane(traj.fields["b"][j])
            assert_allclose(traj.fields["a"][j], expect, atol=1e-12)


class TestCoupledPlate:
    """long_time_bending with a real cross block (0.15): the quasistatic
    in-plane field rides in the state [a | b]."""

    def test_free_vibration_matches_schur_form(self, coupled_rows):
        model = coupled_rows["eps"]
        oracle = SchurOracle(model.tensor, model.macro_mesh)
        _, W = oracle.eigs(3, model.rho_bar)
        b0 = W @ np.array([0.7, -0.2, 0.1])
        v0 = W @ np.array([0.0, 0.5, -0.3])
        system = SecondOrderSystem(
            M=sp.csr_matrix(model.rho_bar * oracle.M_b),
            K=sp.csr_matrix(oracle.S), F0=np.zeros(oracle.nb),
            time_fn=zero_load().time_fn(), blocks={})
        T, dt = 0.2, 1e-3
        U, _, energy = grand_midpoint(system, b0, v0, T, dt)
        traj = evolve(model, zero_load(), T, dt,
                      u0=np.concatenate([np.zeros(oracle.na), b0]),
                      v0=np.concatenate([np.zeros(oracle.na), v0]))
        scale = abs(U).max()
        a = oracle.inplane(U)
        assert abs(a).max() > 1e-2 * scale
        assert abs(traj.fields["b"] - U).max() <= 1e-10 * scale
        assert abs(traj.fields["a"] - a).max() <= 1e-10 * scale
        assert abs(traj.energy - energy).max() <= 1e-10 * abs(energy).max()

    def test_static_solution_is_at_rest(self, coupled_rows):
        # an in-plane load alone drives b through the cross block; started
        # at the static solution K u_s = F = [F_a | F_b], the state stays
        model = coupled_rows["eps"]
        load = LoadSpec(amplitude=(0.4, -0.3, 0.0))
        u_s = factorize(model.op.pair.K).solve(
            modal_system(model, load).F0)
        traj = evolve(model, load, 0.2, 1e-3, u0=u_s,
                      v0=np.zeros_like(u_s))
        na = model.op.n_static
        for part, ref in ((traj.fields["a"], u_s[:na]),
                          (traj.fields["b"], u_s[na:])):
            assert abs(ref).max() > 0
            assert abs(part - ref).max() <= 1e-10 * abs(ref).max()


class TestConservation:
    def test_free_energy_constant_bending(self, model_r3):
        system = _bending_kron_system(model_r3, zero_load())
        mu, W = _macro_modal_reduction(model_r3, 1)
        u0 = np.zeros(system.n)
        u0[:system.meta["nb"]] = W[:, 0]
        traj = evolve(model_r3, zero_load(), 1.0, 1e-3,
                      u0=system.lift(u0), v0=system.lift(np.zeros(system.n)))
        assert traj.energy_drift() <= 1e-10

    def test_free_energy_constant_real_time(self, model_r2):
        system = _real_time_system(model_r2, zero_load())
        rng = np.random.RandomState(7)
        u0 = 0.1 * rng.standard_normal(system.n)
        traj = evolve(model_r2, zero_load(), 1.0, 1e-3,
                      u0=u0, v0=np.zeros(system.n))
        assert traj.energy_drift() <= 1e-10

    def test_energy_inequality_with_loads(self, model_r3):
        # sqrt(E(t)) <= e^t (sqrt(E0) + int ||f||_{M^-1}); the generator
        # bound allows the exponential, the quadrature the rest
        ld = LoadSpec(amplitude=(0, 0, 1.0), time=lambda t: np.sin(3 * t))
        system = _bending_kron_system(model_r3, ld)
        traj = evolve(model_r3, ld, 1.0, 1e-3)
        Minv_F = spla.splu(system.M.tocsc()).solve(system.F0)
        fnorm = np.sqrt(system.F0 @ Minv_F)
        for j in (100, 500, 1000):
            t = traj.times[j]
            rhs = np.exp(t) * (0.0 + fnorm * t)
            assert np.sqrt(traj.energy[j, 2]) <= rhs + 1e-12


class TestSweepMemory:
    def test_peak_grows_by_what_a_step_returns(self, model_r2):
        # per step the sweep keeps the macro state, one norm per micro mode
        # and three energies, and evolve one time: no micro or velocity
        # path, no post-sweep energy pass and no copy of a path
        load = LoadSpec(amplitude=(0.3, -0.2, 1.0), time=np.cos)
        evolve(model_r2, load, 0.01, 1e-3)   # builds the coupling
        peaks = []
        for T in (0.2, 2.0):
            tracemalloc.start()
            try:
                evolve(model_r2, load, T, 1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        cp = model_r2.coupling
        assert cp.N * cp.nm > cp.n0      # a micro path would break the bound
        per_step = 8 * (cp.n0 + cp.N + 3 + 1)
        assert peaks[1] - peaks[0] <= 1800 * per_step + 2 ** 16


class TestRestart:
    def test_continues_from_the_final_state(self, model_r2):
        # without a load the equations are autonomous: a sweep continued
        # from a trajectory's end state is the second half of a longer one
        rng = np.random.RandomState(3)
        u0, v0 = 0.1 * rng.standard_normal((2, model_r2.coupling.n))
        whole = evolve(model_r2, zero_load(), 0.2, 1e-3, u0=u0, v0=v0)
        first = evolve(model_r2, zero_load(), 0.1, 1e-3, u0=u0, v0=v0)
        rest = evolve(model_r2, zero_load(), 0.1, 1e-3, u0=first.final[0],
                      v0=first.final[1])
        pairs = [(rest.fields[k], whole.fields[k][100:]) for k in whole.fields]
        pairs += list(zip(rest.final, whole.final))
        pairs += [(rest.micro_norms, whole.micro_norms[100:]),
                  (rest.energy, whole.energy[100:])]
        for got, ref in pairs:
            assert abs(got - ref).max() <= 1e-12 * abs(ref).max()

    def test_continues_a_forced_run_from_its_end_time(self, model_r2):
        # under a time-dependent load, a run continued from a trajectory's
        # end state with t0 at its end time is the second half of a longer
        # one: the sweep's midpoint times and the recorded times start at t0
        load = LoadSpec(amplitude=(0.3, -0.2, 1.0),
                        time=lambda t: np.cos(7.0 * t) + t)
        whole = evolve(model_r2, load, 0.2, 1e-3)
        first = evolve(model_r2, load, 0.1, 1e-3)
        rest = evolve(model_r2, load, 0.1, 1e-3, u0=first.final[0],
                      v0=first.final[1], t0=0.1)
        assert_allclose(rest.times, whole.times[100:], rtol=0, atol=1e-15)
        pairs = list(zip(rest.final, whole.final))
        pairs += [(rest.energy, whole.energy[100:])]
        for got, ref in pairs:
            assert abs(got - ref).max() <= 1e-12 * abs(ref).max()

    def test_bending_a_starts_quasistatic_at_t0(self, model_r1):
        # the plate row's in-plane a starts at the value that b and the
        # load fix at t0: K_aa a = F_a g(t0) - K_ab b
        g = lambda t: np.cos(7.0 * t) + t       # noqa: E731
        load = LoadSpec(amplitude=(0.3, -0.2, 1.0), time=g)
        system = modal_system(model_r1, load)
        ns, K = model_r1.op.n_static, system.coupling.K0
        u0 = 0.1 * np.random.RandomState(5).standard_normal(system.n)
        traj = evolve(model_r1, load, 0.01, 1e-3, u0=u0, t0=0.3)
        assert traj.times[0] == 0.3
        F = g(0.3) * system.F0[:ns]
        r = K[:ns, :ns] @ traj.fields["a"][0] + K[:ns, ns:] @ u0[ns:] - F
        assert abs(F).max() > 0.1 * abs(g(0.0) * system.F0[:ns]).max() > 0
        assert abs(r).max() <= 1e-10 * abs(F).max()


class TestMemoryKernel:
    def test_agrees_with_coupled_solve(self, model_r3):
        system = _bending_kron_system(model_r3, zero_load())
        mu, W = _macro_modal_reduction(model_r3, 2)
        nb = system.meta["nb"]
        u0 = np.zeros(system.n)
        u0[:nb] = 0.7 * W[:, 0] - 0.2 * W[:, 1]
        traj = evolve(model_r3, zero_load(), 1.0, 1e-3,
                      u0=system.lift(u0), v0=system.lift(np.zeros(system.n)))
        times, modal = evolve_memory_bending(
            model_r3, zero_load(), 1.0, 1e-3, n_macro_modes=2,
            b0_modal=[0.7, -0.2])
        Mb = model_r3.coupling.Ms
        for k in range(2):
            proj = traj.fields["b"] @ (Mb @ W[:, k])
            assert abs(proj - modal[:, k]).max() <= 1e-6

    def test_macro_modes_take_model_solver(self, model_r3, monkeypatch):
        # the macro modal reduction solves with the model's eigensolver
        # settings, like the model's Bloch spectra
        ws = EigWorkspace(tol=5e-9, solver="shift-invert", seed=7)
        seen, real = [], macro.eigs_smallest
        monkeypatch.setattr(macro, "eigs_smallest", lambda pair, N, w=None:
                            seen.append(w) or real(pair, N, w))
        _macro_modal_reduction(dataclasses.replace(model_r3, ws=ws), 2)
        assert seen == [ws]

    def test_forced_agreement(self, model_r3):
        ld = LoadSpec(amplitude=(0, 0, 1.0), time=lambda t: np.cos(2 * t))
        traj = evolve(model_r3, ld, 0.5, 5e-4)
        times, modal = evolve_memory_bending(model_r3, ld, 0.5, 5e-4,
                                             n_macro_modes=3)
        mu, W = _macro_modal_reduction(model_r3, 3)
        Mb = model_r3.coupling.Ms
        # the load has a component outside the 3-mode macro span; compare
        # only the projections driven by the projected load
        from hcplate.limits import load_moments
        fbar, _ = load_moments(model_r3, ld)
        Rb = model_r3.bend_rect
        mac = model_r3.macro_nodal(ld)
        F = Rb @ (fbar[2] * mac)
        coeffs = W.T @ F
        # modes whose load projection dominates the residual participate
        for k in range(3):
            proj = traj.fields["b"] @ (Mb @ W[:, k])
            assert abs(proj - modal[:, k]).max() <= 1e-6 * max(1.0, abs(modal[:, k]).max())


class TestLaplaceConsistency:
    @pytest.mark.parametrize("lam", [2.0, 5.0])
    def test_resolvent_is_laplace_transform(self, model_r3, lam):
        system = _bending_kron_system(model_r3, zero_load())
        nb, na = system.meta["nb"], system.meta["na"]
        N = len(model_r3.bloch.eigenvalues)
        mu, W = _macro_modal_reduction(model_r3, 1)
        u0 = system.lift(np.zeros(system.n))
        u0[na:na + nb] = W[:, 0]
        T, dt = 16.0 / lam, 1e-3
        traj = evolve(model_r3, zero_load(), T, dt,
                      u0=u0, v0=np.zeros_like(u0))
        wts = np.exp(-lam * traj.times)
        integral = trapezoid(wts[:, None] * traj.fields["b"], traj.times,
                             axis=0)
        x_res, _ = solve_bending_resolvent_data(model_r3, lam ** 2,
                                                lam * u0[:na + nb],
                                                np.zeros((N, nb)))
        b_res = x_res[na:]
        rel = np.linalg.norm(integral - b_res) / np.linalg.norm(b_res)
        assert rel <= 1e-4

    @pytest.mark.parametrize("regime", [
        RegimeConfig(1.0, "eps", 0), RegimeConfig(1.0, "eps", 2),
        RegimeConfig(1.0, "eps_h", 2), RegimeConfig(0.0, "eps2", 2)],
        ids=lambda r: r.kind)
    def test_every_kind_from_rest(self, demo_material, demo_shape, mm,
                                  regime):
        # from rest under a time-constant load, int_0^T e^{-st} u dt is
        # (K + s^2 M)^-1 F / s, the resolvent at lambda = s^2 over s; the
        # cut-off at T = 16/s bounds the mass-only b of real_time
        model = build_limit_model(regime, demo_material, demo_shape, mm,
                                  cell_n=8, n_z=4, n_modes=6)
        load = LoadSpec(amplitude=(0.4, -0.3, 1.0))
        s = 2.0
        traj = evolve(model, load, 16.0 / s, 2e-3)
        macro = np.hstack([traj.fields["a"], traj.fields["b"]])
        a, b = model.nodal(trapezoid(np.exp(-s * traj.times)[:, None] * macro,
                                     traj.times, axis=0))
        st = solve_limit_resolvent(model, s ** 2, load)
        scale = max(abs(st.a).max(), abs(st.b).max()) / s
        assert abs(a - st.a / s).max() <= 1e-4 * scale
        assert abs(b - st.b / s).max() <= 1e-4 * scale


class TestVariantDispatch:
    def test_deltainf_real_time_needs_flat_profile(self, demo_material,
                                                   demo_shape, mm):
        model = build_limit_model(RegimeConfig(np.inf, "eps", 0),
                                  demo_material, demo_shape, mm, cell_n=8,
                                  n_modes=6)
        with pytest.raises(RegimeError):
            evolve(model, LoadSpec(amplitude=(1, 0, 0), transverse="x3"),
                   0.1, 1e-2)

    def test_delta0_hc_variant_runs(self, demo_material, demo_shape, mm):
        model = build_limit_model(RegimeConfig(0.0, "eps2", 2), demo_material,
                                  demo_shape, mm, cell_n=8, n_modes=6)
        load = LoadSpec(amplitude=(0.2, 0, 1.0),
                        time=lambda t: np.cos(3.0 * t))
        traj = evolve(model, load, 0.05, 1e-3)
        assert traj.fields["b"].shape[0] == 51
        # the static micro field is kept as its two factors, a field per
        # unit profile (N, n_nodes) and the profile at the recorded times
        static = traj.meta["micro_inplane"]
        profile = traj.meta["micro_inplane_profile"]
        assert static.shape == (model.static_bloch.n_modes, len(mm.nodes))
        assert profile.shape == (51,)
        product = profile[:, None, None] * static
        ref = np.cos(3.0 * traj.times)[:, None, None] \
            * static_micro(model, load)
        assert abs(product - ref).max() <= 1e-15 * abs(ref).max()
        # micro_norms are the sweep's bending modes; the in-plane field's
        # are |profile| times the norm of each mode's field
        assert traj.micro_norms.shape == (51, model.bloch.n_modes)
        norms = np.outer(abs(profile), np.linalg.norm(static, axis=1))
        ref = np.linalg.norm(ref, axis=2)
        assert abs(norms - ref).max() <= 1e-15 * abs(ref).max()

    def test_plate_row_micro_norms(self, model_r1):
        # the plate row has no micro modes: its micro_norms are those of
        # its static in-plane field, the load's profile times one field
        load = LoadSpec(amplitude=(0.2, -0.1, 1.0),
                        time=lambda t: np.cos(3.0 * t))
        traj = evolve(model_r1, load, 0.05, 1e-3)
        assert model_r1.coupling.N == 0
        ref = np.linalg.norm(np.cos(3.0 * traj.times)[:, None, None]
                             * static_micro(model_r1, load), axis=2)
        assert traj.micro_norms.shape == (51, model_r1.static_bloch.n_modes)
        assert abs(traj.micro_norms - ref).max() <= 1e-15 * abs(ref).max()

    def test_nonpositive_dt(self, model_r2):
        with pytest.raises(ValueError):
            evolve(model_r2, zero_load(), 0.1, -1e-3)

    def test_horizon_is_a_whole_number_of_steps(self, model_r2, model_r3):
        assert [step_count(T, 1e-3) for T in (0.1, 0.3, 0.5, 1.0)] == \
            [100, 300, 500, 1000]
        assert step_count(0.0, 1e-3) == 0
        with pytest.raises(ValueError, match="whole number of steps"):
            evolve(model_r2, zero_load(), 0.1, 0.03)
        with pytest.raises(ValueError, match="whole number of steps"):
            evolve_memory_bending(model_r3, zero_load(), 0.1, 0.03)
