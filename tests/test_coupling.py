"""The structured macro-micro elimination (hcplate.coupling) against the
monolithic grand systems of tests/grand_oracle.py and against resolvent
outputs stored from the explicit-elimination implementation."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from grand_oracle import (_bending_kron_system, _real_time_system,
                          grand_midpoint, memory_kernel_sum,
                          solve_bending_resolvent_data)
from hcplate import tensors as tn
from hcplate.bloch import cluster_starts
from hcplate.coupling import ModalCoupling
from hcplate.evolution import evolve, evolve_memory_bending, step_count
from hcplate.geometry import InclusionShape, build_macro_mesh
from hcplate.limits import (LoadSpec, RegimeConfig, build_limit_model,
                            solve_limit_resolvent)

REFERENCE = Path(__file__).parent / "data" / "resolvent_reference.json"


def rel_err(x, ref):
    return abs(np.asarray(x) - ref).max() / max(abs(ref).max(), 1e-300)


@pytest.fixture(scope="module")
def mm():
    return build_macro_mesh(1.0, 1.0, 4, 4)


@pytest.fixture(scope="module")
def model_hc(demo_material, demo_shape, mm):
    return build_limit_model(RegimeConfig(1.0, "eps_h", 2), demo_material,
                             demo_shape, mm, cell_n=8, n_z=4, n_modes=8)


@pytest.fixture(scope="module")
def model_rt(demo_material, demo_shape, mm):
    return build_limit_model(RegimeConfig(1.0, "eps", 0), demo_material,
                             demo_shape, mm, cell_n=8, n_z=4, n_modes=8)


@pytest.fixture(scope="module")
def model_rt_inf(demo_material, demo_shape, mm):
    return build_limit_model(RegimeConfig(np.inf, "eps", 0), demo_material,
                             demo_shape, mm, cell_n=8, n_z=4, n_modes=8)


@pytest.fixture(scope="module")
def model_d0hc(demo_material, demo_shape, mm):
    return build_limit_model(RegimeConfig(0.0, "eps2", 2), demo_material,
                             demo_shape, mm, cell_n=8, n_z=4, n_modes=8)


def forced_load():
    return LoadSpec(amplitude=(0.4, -0.3, 1.0),
                    macro=lambda x: 1.0 + x[0] * x[1],
                    time=lambda t: np.cos(3.0 * t) + t)


class TestAgainstGrandMidpoint:
    """evolve steps the eliminated system; the grand sweep is the oracle.
    evolve keeps the macro paths, the micro modes' norms at every step and
    the end state; each end state is checked in full at three horizons."""

    @pytest.mark.parametrize("variant,build,model_name", [
        ("strong_hc_bending", _bending_kron_system, "model_hc"),
        ("real_time", _real_time_system, "model_rt"),
        ("real_time", _real_time_system, "model_rt_inf"),
        ("delta0_hc", _bending_kron_system, "model_d0hc")])
    def test_trajectory_and_energy(self, variant, build, model_name, request):
        model = request.getfixturevalue(model_name)
        assert model.regime.kind == variant
        load = forced_load()
        system = build(model, load)
        rng = np.random.RandomState(11)
        u0 = rng.standard_normal(system.n)
        v0 = rng.standard_normal(system.n)
        T, dt = 0.2, 2e-3
        U, V, energy = grand_midpoint(system, u0, v0, T, dt)
        traj = evolve(model, load, T, dt, u0=system.lift(u0),
                      v0=system.lift(v0))
        blocks = system.blocks
        for name in ("a", "b"):
            if blocks.get(name) is not None:
                assert rel_err(traj.fields[name], U[:, blocks[name]]) <= 1e-10
        schur = system.meta.get("schur")
        if schur is not None:
            # the bending pencil's in-plane part, eliminated by the oracle
            b = U[:, blocks["b"]]
            a = schur.inplane(b)
            assert abs(traj.fields["a"] - a).max() <= 1e-10 * abs(b).max()
        norms = np.stack([np.linalg.norm(U[:, s], axis=1)
                          for s in blocks["micro"]], axis=1)
        assert rel_err(traj.micro_norms, norms) <= 1e-10
        assert rel_err(traj.energy, energy) <= 1e-10
        assert traj.meta["state_dofs"] == len(system.lift(u0))
        assert traj.meta["factored_dofs"] < system.n
        # the end state: a, b and every c_n, and the velocity of the
        # oracle's state (the bending variants' a carries no mass)
        na = system.meta.get("na", 0)
        for t_end in (0.05, 0.1, T):
            j = step_count(t_end, dt)
            u_end, v_end = evolve(model, load, t_end, dt, u0=system.lift(u0),
                                  v0=system.lift(v0)).final
            ref = system.lift(U[j])
            if schur is not None:
                ref[:na] = schur.inplane(U[j, blocks["b"]])
            assert rel_err(u_end, ref) <= 1e-10
            assert rel_err(v_end[na:], V[j]) <= 1e-10

    def test_memory_recursion_matches_duhamel_sum(self, model_hc):
        load = forced_load()
        args = (model_hc, load, 0.3, 1e-3)
        kw = dict(n_macro_modes=3, b0_modal=[0.5, -0.2, 0.1],
                  v0_modal=[0.0, 0.3, -0.1])
        _, modal = evolve_memory_bending(*args, **kw)
        _, ref = memory_kernel_sum(*args, **kw)
        assert rel_err(modal, ref) <= 1e-12


def _materials():
    iso = tn.MaterialSpec(tn.isotropic(1.0, 1.0), tn.isotropic(1.0, 1.0),
                          rho0=1.0, rho1=1.0, nu=0.2)
    C1 = tn.isotropic(1.0, 1.0).copy()
    C1[0, 0] *= 3.0
    ortho = tn.MaterialSpec(tn.isotropic(1.0, 1.0), C1, rho0=1.3, rho1=0.8,
                            nu=0.2)
    return {"iso": iso, "ortho": ortho}


def _loads():
    return {
        "flat": LoadSpec(amplitude=(0.3, 0.2, 1.0)),
        "shaped": LoadSpec(amplitude=(0.5, -0.4, 0.8),
                           macro=lambda x: np.sin(np.pi * x[0]) + x[1],
                           transverse="x3", cell="soft"),
    }


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def cluster_error(got, ref, bs) -> float:
    """Largest difference of per-mode fields (one row per mode of the
    Bloch spectrum bs): row by row for a simple mode, and for a cluster
    of multiple eigenvalues, whose basis is any rotation of another, as
    the scale-normalized difference of the Grams C_S^T C_S."""
    got, ref = np.asarray(got), np.asarray(ref)
    starts = cluster_starts(bs.eigenvalues)
    err = 0.0
    for lo, hi in zip(starts, np.append(starts[1:], len(ref))):
        if hi - lo == 1:
            err = max(err, abs(got[lo] - ref[lo]).max())
        else:
            G, G_ref = (C[lo:hi].T @ C[lo:hi] for C in (got, ref))
            err = max(err, abs(G - G_ref).max()
                      / max(abs(ref[lo:hi]).max(), 1e-300))
    return err


@pytest.mark.parametrize("case", [("iso", "shaped", 2.0),
                                  ("ortho", "flat", 0.7)])
def test_resolvents_match_explicit_elimination(case, reference,
                                               supported_rows):
    """All nine rows on a 3x3 macro mesh, n=8 cells, 8 modes, against the
    outputs of the hand-written eliminations (isotropic with a shaped load,
    orthotropic stiff phase with a flat load). Inside a cluster of
    multiple Bloch eigenvalues the per-mode micro fields depend on the
    basis LAPACK returns; there the cluster's Gram is compared."""
    mname, lname, lam = case
    mat, load = _materials()[mname], _loads()[lname]
    mm = build_macro_mesh(1.0, 1.0, 3, 3)
    for r in supported_rows:
        model = build_limit_model(r, mat, InclusionShape("disk", 0.26), mm,
                                  cell_n=8, n_z=4, n_modes=8)
        st = solve_limit_resolvent(model, lam, load)
        ref = reference["rows"][f"{mname}/{lname}/{r.key}"]
        fields = {key: np.array(ref[key]) for key in
                  ("a", "b", "micro", "b_cell", "u3_cell", "micro_inplane")
                  if ref[key] is not None}
        # errors are measured against the largest field of the row: a field
        # that vanishes by symmetry is round-off, and its own scale is noise
        scale = max(abs(f).max() for f in fields.values())
        # the per-mode fields and the spectra of their modes
        modal = {"micro": model.bloch if model.coupling.N
                 else model.static_bloch,
                 "micro_inplane": model.static_bloch}
        for key in ("a", "b", "micro", "b_cell", "u3_cell", "micro_inplane"):
            got = st.meta.get(key) if key == "micro_inplane" \
                else getattr(st, key)
            if key not in fields:
                if key == "a" and r.tau == 2:
                    # a bending row without a cross block (delta = 0, inf):
                    # the pencil's in-plane part stays exactly zero
                    assert not np.any(got), r.key
                else:
                    assert got is None, (r.key, key)
                continue
            # the kappa in (0, inf) cell solve (condition 1.6e7) was a
            # pivoting LU with relative residual up to 1.4e-10; it is
            # checked against its exact solution below
            tol = 1e-8 if key == "b_cell" and r.kappa == 1.0 else 1e-10
            if key in modal:
                err = cluster_error(got, fields[key], modal[key]) / scale
            else:
                err = abs(np.asarray(got) - fields[key]).max() / scale
            assert err <= tol, (r.key, key, err)
            if abs(fields[key]).max() <= 1e-12 * scale:
                # a field that vanishes by symmetry stays at round-off
                assert abs(np.asarray(got)).max() <= 1e-12 * scale, (r.key, key)
        if r.mu == "eps_h" and r.delta == 1.0:
            na = model.op.n_static
            nb = model.op.n - na
            N = len(model.bloch.eigenvalues)
            rng = np.random.RandomState(5)
            z0 = np.concatenate([np.zeros(na), rng.standard_normal(nb)])
            x, c = solve_bending_resolvent_data(
                model, lam, z0, rng.standard_normal((N, nb)))
            b = x[na:]
            data = reference["data"][mname]
            assert rel_err(b, np.array(data["b"])) <= 1e-10
            assert rel_err(c, np.array(data["c"])) <= 1e-10


def test_kappa_cell_solve_exact_for_flat_load():
    # a cell-constant load drives the constant field t0 f3 / (lambda rho1)
    mat, load, lam = _materials()["ortho"], _loads()["flat"], 0.7
    model = build_limit_model(RegimeConfig(0.0, "eps", 0, kappa=1.0), mat,
                              InclusionShape("disk", 0.26),
                              build_macro_mesh(1.0, 1.0, 3, 3), cell_n=8,
                              n_modes=8)
    st = solve_limit_resolvent(model, lam, load)
    dof = st.meta["b_cell_dof"]
    vals = dof.expand(st.b_cell)[dof.index[:, 0] >= 0]
    exact = load.amplitude[2] / (lam * mat.rho1)
    assert abs(vals[:, 0] - exact).max() <= 1e-10 * exact
    assert abs(vals[:, 1:]).max() <= 1e-10 * exact


def _synthetic(seed, k, N, third_zero):
    """Random coupling with a dense grand (M, K); third_zero makes the
    third mean vanish, so G = sum gamma_n m_n m_n^T is singular."""
    rng = np.random.RandomState(seed)
    n0, nm = 7, 5
    B = rng.standard_normal((nm, nm))
    Ms = B @ B.T + nm * np.eye(nm)
    R = [rng.standard_normal((n0, nm)) for _ in range(k)]
    means = rng.standard_normal((N, k))
    if third_zero:
        means[:, -1] = 0.0
    eta = rng.uniform(0.5, 5.0, N)
    Msinv = np.linalg.inv(Ms)
    Cs = [sum(means[n, c] * R[c] for c in range(k)) for n in range(N)]
    D = rng.standard_normal((n0, n0))
    M0 = sum(C @ Msinv @ C.T for C in Cs) + D @ D.T + np.eye(n0)
    E = rng.standard_normal((n0, n0))
    K0 = E @ E.T
    cp = ModalCoupling(
        M0=sp.csr_matrix(M0), K0=sp.csr_matrix(K0), Ms=sp.csr_matrix(Ms),
        T=sp.csr_matrix(np.vstack([Msinv @ Rc.T for Rc in R])), eta=eta,
        means=means)
    M = np.block([[M0] + Cs] + [[Cs[n].T] + [Ms if m == n else 0 * Ms
                                             for m in range(N)]
                                for n in range(N)])
    K = np.block([[K0] + [np.zeros((n0, nm))] * N]
                 + [[np.zeros((nm, n0))] + [eta[n] * Ms if m == n else 0 * Ms
                                            for m in range(N)]
                    for n in range(N)])
    return cp, M, K


@pytest.mark.parametrize("seed,k,N,third_zero", [(0, 3, 6, False),
                                                 (1, 3, 4, True),
                                                 (2, 2, 1, False),
                                                 (3, 3, 2, False)])
def test_synthetic_coupling_against_dense_grand(seed, k, N, third_zero):
    cp, M, K = _synthetic(seed, k, N, third_zero)
    rng = np.random.RandomState(100 + seed)
    x0, c = rng.standard_normal(cp.n0), rng.standard_normal((N, cp.nm))
    u = np.concatenate([x0, c.ravel()])
    Ms = cp.Ms.toarray()
    m0, mc = cp.mass(x0, c)
    assert_allclose(np.concatenate([m0, (mc @ Ms).ravel()]), M @ u,
                    atol=1e-11 * abs(M @ u).max())
    k0, kc = cp.stiff(x0, c)
    assert_allclose(np.concatenate([k0, (kc @ Ms).ravel()]), K @ u,
                    atol=1e-11 * abs(K @ u).max())
    for alpha, beta in ((1.0, 0.3), (2.5, 1.0), (0.7, 0.0)):
        r0 = rng.standard_normal(cp.n0)
        rho = rng.standard_normal((N, cp.nm))
        x, cc = cp.shift(alpha, beta).solve(r0, rho)
        ref = np.linalg.solve(alpha * M + beta * K,
                              np.concatenate([r0, (rho @ Ms).ravel()]))
        got = np.concatenate([x, cc.ravel()])
        assert rel_err(got, ref) <= 1e-10
    e = cp.energies(x0, c, 2 * x0, -c, *cp.mass(2 * x0, -c))
    v = np.concatenate([2 * x0, -c.ravel()])
    assert_allclose(e, [0.5 * v @ M @ v, 0.5 * u @ K @ u,
                        0.5 * (v @ M @ v + u @ K @ u)], rtol=1e-11)


def test_shift_rejects_nonpositive_alpha():
    cp, _, _ = _synthetic(0, 3, 2, False)
    with pytest.raises(ValueError):
        cp.shift(0.0, 1.0)
