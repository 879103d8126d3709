"""Test oracle: the monolithic (N+1)-block grand systems of the coupled
evolutions, their implicit-midpoint sweep, and the memory kernel as an
explicit discrete Duhamel sum.

The library eliminates the inclusion modes instead of assembling these
systems (hcplate.coupling); the tests check the structured solves, sweeps
and recursions against the plain forms kept here. The bending systems act
on b alone, with the in-plane field eliminated through the dense Schur
complement of tests/schur_oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hcplate.evolution import _macro_modal_reduction, _oscillator_propagator
from hcplate.limits import (LimitModel, LoadSpec, load_moments,
                            micro_modal_loads)
from hcplate.macro import nodal_traces, scalar_mass
from schur_oracle import SchurOracle


@dataclass
class SecondOrderSystem:
    """M u'' + K u = F0 * time(t), with block structure bookkeeping."""
    M: sp.csr_matrix
    K: sp.csr_matrix
    F0: np.ndarray
    time_fn: object
    blocks: dict
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def energy(self, u, v) -> tuple[float, float]:
        return 0.5 * float(v @ (self.M @ v)), 0.5 * float(u @ (self.K @ u))

    def lift(self, u: np.ndarray) -> np.ndarray:
        """u in the state layout of `evolve`, which carries the in-plane
        part a that the bending systems eliminate in front (as zeros)."""
        return np.concatenate([np.zeros(self.meta.get("na", 0)), u])


def grand_midpoint(system: SecondOrderSystem, u0, v0, T: float, dt: float):
    """Implicit midpoint on the grand system: one sparse LU of M + dt^2/4 K
    (one step of iterative refinement per solve), grand matvecs per step.
    Returns (U, V, energy) per step."""
    nsteps = int(round(T / dt))
    A = (system.M + 0.25 * dt ** 2 * system.K).tocsc()
    lu = spla.splu(A)
    Mm = system.M - 0.25 * dt ** 2 * system.K
    u, v = np.array(u0, dtype=float), np.array(v0, dtype=float)
    U, V = [u.copy()], [v.copy()]
    for j in range(nsteps):
        F = system.F0 * system.time_fn((j + 0.5) * dt)
        b = Mm @ v + dt * (F - system.K @ u)
        v_new = lu.solve(b)
        v_new += lu.solve(b - A @ v_new)
        u = u + 0.5 * dt * (v + v_new)
        v = v_new
        U.append(u.copy())
        V.append(v.copy())
    U, V = np.array(U), np.array(V)
    energy = np.array([system.energy(a, b) for a, b in zip(U, V)])
    return U, V, np.column_stack([energy, energy.sum(axis=1)])


def _bending_kron_system(model: LimitModel, load: LoadSpec) -> SecondOrderSystem:
    """Grand system of the high-contrast bending variants on [b | c_1 ...
    c_N], with the Schur complement S as the macro stiffness: the micro
    modal coefficient fields share the bending (BFS) space, so all blocks
    factor over the scalar bending mass."""
    schur = SchurOracle(model.tensor, model.macro_mesh)
    bs = model.bloch
    eta = bs.eigenvalues
    m3 = bs.weighted_means[:, -1]
    N = len(eta)
    rho = model.rho_bar
    Mb, Kb = sp.csr_matrix(schur.M_b), sp.csr_matrix(schur.S)
    G = np.zeros((N + 1, N + 1))
    G[0, 0] = rho
    G[0, 1:] = m3
    G[1:, 0] = m3
    G[1:, 1:] = np.eye(N)
    Mfull = sp.kron(sp.csr_matrix(G), Mb, format="csr")
    E = np.zeros((N + 1, N + 1))
    E[0, 0] = 1.0
    Kfull = sp.kron(sp.csr_matrix(E), Kb, format="csr") \
        + sp.kron(sp.diags(np.concatenate([[0.0], eta])), Mb, format="csr")

    mac = model.macro_nodal(load)
    fbar, _ = load_moments(model, load)
    Rb = model.bend_rect
    ell = micro_modal_loads(model, load)
    F0 = np.concatenate([Rb @ (fbar[2] * mac)]
                        + [Rb @ (ell[n] * mac) for n in range(N)])
    blocks = {"b": slice(0, Mb.shape[0]),
              "micro": [slice((n + 1) * Mb.shape[0], (n + 2) * Mb.shape[0])
                        for n in range(N)]}
    return SecondOrderSystem(M=Mfull, K=Kfull, F0=F0, time_fn=load.time_fn(),
                             blocks=blocks,
                             meta={"eta": eta, "m3": m3, "nb": Mb.shape[0],
                                   "na": schur.na, "schur": schur})


def _real_time_system(model: LimitModel, load: LoadSpec) -> SecondOrderSystem:
    """Coupled membrane system for tau = 0: in-plane macro + algebraic
    out-of-plane + micro modes, all with nodal micro coefficient fields."""
    bs = model.bloch
    eta = bs.eigenvalues
    means = bs.weighted_means
    k = means.shape[1]
    N = len(eta)
    op = model.op
    rho = model.rho_bar
    Ms = scalar_mass(model.macro_mesh)
    # M^{ab} = T_a^T Ms T_b pairs component a of one reduced field with
    # component b of another; R_a = T_a^T Ms
    T = nodal_traces(op.pair.dof)
    Ra = [(Tc.T @ Ms).tocsr() for Tc in T]
    comp_mass = {(a, b): (T[a].T @ Ms @ T[b]).tocsr()
                 for a in range(len(T)) for b in range(len(T))}
    na = op.pair.n
    nn = model.macro_mesh.n_nodes
    third = k == 3

    nb = nn if third else 0
    n_total = na + nb + N * nn
    rows, cols, vals = [], [], []

    def put(A, r0, c0):
        A = sp.coo_matrix(A)
        rows.append(A.row + r0)
        cols.append(A.col + c0)
        vals.append(A.data)

    # mass
    put(rho * (comp_mass[(0, 0)] + comp_mass[(1, 1)]), 0, 0)
    if third:
        put(rho * Ms, na, na)
    for n in range(N):
        c0 = na + nb + n * nn
        put(Ms, c0, c0)
        cross_a = means[n, 0] * Ra[0] + means[n, 1] * Ra[1]
        put(cross_a, 0, c0)
        put(cross_a.T, c0, 0)
        if third:
            put(means[n, 2] * Ms, na, c0)
            put(means[n, 2] * Ms, c0, na)
    M = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_total, n_total)).tocsr()

    rows, cols, vals = [], [], []
    put(op.pair.K, 0, 0)
    for n in range(N):
        c0 = na + nb + n * nn
        put(eta[n] * Ms, c0, c0)
    K = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_total, n_total)).tocsr()

    mac = model.macro_nodal(load)
    fbar, _ = load_moments(model, load)
    ell = micro_modal_loads(model, load)
    F0 = np.zeros(n_total)
    F0[:na] = Ra[0] @ (fbar[0] * mac) + Ra[1] @ (fbar[1] * mac)
    if third:
        F0[na:na + nn] = Ms @ (fbar[2] * mac)
    for n in range(N):
        c0 = na + nb + n * nn
        F0[c0:c0 + nn] = Ms @ (ell[n] * mac)
    blocks = {"a": slice(0, na),
              "b": slice(na, na + nb) if third else None,
              "micro": [slice(na + nb + n * nn, na + nb + (n + 1) * nn)
                        for n in range(N)]}
    return SecondOrderSystem(M=M, K=K, F0=F0, time_fn=load.time_fn(),
                             blocks=blocks, meta={"eta": eta, "third": third})


def memory_kernel_sum(model: LimitModel, load: LoadSpec, T: float, dt: float,
                      n_macro_modes: int = 4, b0_modal=None, v0_modal=None):
    """evolve_memory_bending with the micro states evaluated as the explicit
    discrete Duhamel sum sum_{i<j} P_n^(j-1-i) r_n d_n[i]: O(steps^2 N) per
    macro mode. Returns (times, modal b trajectory)."""
    bs = model.bloch
    eta = bs.eigenvalues
    m3 = bs.weighted_means[:, -1]
    N = len(eta)
    rho = model.rho_bar
    mu, W = _macro_modal_reduction(model, n_macro_modes)

    mac = model.macro_nodal(load)
    fbar, _ = load_moments(model, load)
    Rb = model.bend_rect
    ell = micro_modal_loads(model, load)
    tf = load.time_fn()
    Fb_k = W.T @ (Rb @ (fbar[2] * mac))
    mac_k = W.T @ (Rb @ mac)

    nsteps = int(round(T / dt))
    times = np.arange(nsteps + 1) * dt
    gammas = np.array([1.0 / (1.0 + 0.25 * dt ** 2 * e) for e in eta])
    mstar = rho - float(np.sum(gammas * m3 ** 2))

    W_ker = np.zeros((N, nsteps + 1, 2))
    P_all = []
    for n in range(N):
        P, r = _oscillator_propagator(eta[n], dt)
        P_all.append(P)
        w = r.copy()
        for j in range(nsteps + 1):
            W_ker[n, j] = w
            w = P @ w
    P1row = np.array([P[1] for P in P_all])

    out = np.zeros((nsteps + 1, n_macro_modes))
    for k in range(n_macro_modes):
        Sk = rho * mu[k]
        b = 0.0 if b0_modal is None else float(b0_modal[k])
        vb = 0.0 if v0_modal is None else float(v0_modal[k])
        out[0, k] = b
        Aeff = mstar + 0.25 * dt ** 2 * Sk
        drives = np.zeros((N, nsteps))
        for j in range(nsteps):
            gmid = tf((j + 0.5) * dt)
            if j > 0:
                ker = W_ker[:, j - 1::-1, :][:, :j, :]
                cs = np.einsum("njq,nj->nq", ker, drives[:, :j])
            else:
                cs = np.zeros((N, 2))
            dv_hist = (np.einsum("nq,nq->n", P1row, cs) - cs[:, 1]
                       + gammas * dt * (ell * mac_k[k] * gmid))
            rhs = dt * (Fb_k[k] * gmid) - dt * Sk * b \
                - 0.5 * dt ** 2 * Sk * vb - float(m3 @ dv_hist)
            dvb = rhs / Aeff
            drives[:, j] = dt * ell * mac_k[k] * gmid - m3 * dvb
            vb = vb + dvb
            b = b + dt * (vb - 0.5 * dvb)
            out[j + 1, k] = b
    return times, out


def solve_bending_resolvent_data(model: LimitModel, lam: float,
                                 z0: np.ndarray, z_c: np.ndarray):
    """(A + lambda)^-1 applied to state-shaped data (z0, z_c), z0 = [a | b],
    for the high-contrast bending rows: the rhs is the energy-space pairing
    of z (a carries no mass, so only b enters), and the micro modes are
    eliminated exactly (Schur complement of the grand modal system).
    Returns ([a | b] reduced, c (N, nb))."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    cp = model.coupling
    return cp.shift(lam, 1.0).solve(*cp.mass(z0, z_c))
