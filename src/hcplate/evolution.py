"""Limit evolution equations: implicit-midpoint time stepping of the
coupled macro-micro second-order systems, quasistatic reconstruction of the
slaved components, and the discrete memory-kernel (convolution quadrature)
elimination of the micro modes.

Variants (one per supported long-time/real-time scaling row):

* long_time_bending : hyperbolic plate bending, quasistatic in-plane and
  micro components re-solved each step;
* real_time         : the full coupled membrane system (with the algebraic
  out-of-plane component carried as a massive, stiffness-free field);
* strong_hc_bending : coupled bending + inclusion modes (memory effects);
* delta0_hc         : the vanishing-thickness-ratio analogue with plate-like
  inclusions; in-plane micro components are quasistatic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem.system import factorize
from .limits import (LimitModel, LoadSpec, RegimeError,
                     compute_load_functional, micro_modal_loads)

_VARIANT_ROWS = {
    "long_time_bending": lambda r: r.mu == "eps" and r.tau == 2,
    "real_time": lambda r: r.mu == "eps" and r.tau == 0,
    "strong_hc_bending": lambda r: r.mu == "eps_h",
    "delta0_hc": lambda r: r.mu == "eps2",
}


@dataclass
class Trajectory:
    times: np.ndarray
    fields: dict                 # name -> snapshot array (steps, ...)
    energy: np.ndarray           # columns: kinetic, elastic, total
    meta: dict = field(default_factory=dict)

    @property
    def macro(self) -> np.ndarray:
        return self.fields.get("b", self.fields.get("a"))

    @property
    def micro(self):
        return self.fields.get("micro")

    def energy_drift(self) -> float:
        """Max deviation from the initial energy, relative to the peak
        energy (equals the usual relative drift for free vibrations)."""
        tot = self.energy[:, 2]
        ref = max(abs(tot).max(), 1e-300)
        return float(abs(tot - tot[0]).max() / ref)


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


def implicit_midpoint(system: SecondOrderSystem, u0, v0, T: float, dt: float,
                      record=None):
    """Symplectic implicit-midpoint sweep; exactly conserves the quadratic
    energy for time-independent loads set to zero."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    nsteps = int(round(T / dt))
    lu = factorize(system.M + 0.25 * dt ** 2 * system.K)
    Mm = system.M - 0.25 * dt ** 2 * system.K
    u, v = u0.copy(), v0.copy()
    out_u = [u.copy()]
    out_v = [v.copy()]
    for j in range(nsteps):
        t_mid = (j + 0.5) * dt
        F = system.F0 * system.time_fn(t_mid)
        v_new = lu.solve(Mm @ v + dt * (F - system.K @ u))
        u = u + 0.5 * dt * (v + v_new)
        v = v_new
        out_u.append(u.copy())
        out_v.append(v.copy())
    return np.array(out_u), np.array(out_v)


def _bending_kron_system(model: LimitModel, load: LoadSpec) -> SecondOrderSystem:
    """Grand system of the high-contrast bending variants: the micro modal
    coefficient fields share the bending (BFS) space, so all blocks factor
    over the scalar bending mass."""
    op = model.bend_op
    bs = model.bloch
    eta = bs.eigenvalues
    m3 = bs.weighted_means[:, -1]
    N = len(eta)
    rho = model.rho_bar
    Mb, Kb = op.pair.M, op.pair.K
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
    fbar, _ = load_moments_of(model, load)
    Rb = model.bend_rect()
    ell = micro_modal_loads(model, load)
    F0 = np.concatenate([Rb @ (fbar[2] * mac)]
                        + [Rb @ (ell[n] * mac) for n in range(N)])
    blocks = {"b": slice(0, Mb.shape[0]),
              "micro": [slice((n + 1) * Mb.shape[0], (n + 2) * Mb.shape[0])
                        for n in range(N)]}
    return SecondOrderSystem(M=Mfull, K=Kfull, F0=F0, time_fn=load.time_fn(),
                             blocks=blocks,
                             meta={"eta": eta, "m3": m3, "nb": Mb.shape[0]})


def load_moments_of(model, load):
    from .limits import load_moments
    return load_moments(model, load)


def _real_time_system(model: LimitModel, load: LoadSpec) -> SecondOrderSystem:
    """Coupled membrane system for tau = 0: in-plane macro + algebraic
    out-of-plane + micro modes, all with nodal micro coefficient fields."""
    from .zhikov import _membrane_component_masses
    r = model.regime
    bs = model.bloch
    eta = bs.eigenvalues
    means = bs.weighted_means
    k = means.shape[1]
    N = len(eta)
    op = model.memb_op
    rho = model.rho_bar
    Ms = model.Ms()
    Ra = model.memb_rects()
    comp_mass = _membrane_component_masses(op.pair, model.macro_mesh)
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
    put(rho * sp.csr_matrix(comp_mass[(0, 0)] + comp_mass[(1, 1)]), 0, 0)
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
    fbar, _ = load_moments_of(model, load)
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


def evolve(model: LimitModel, variant: str, load: LoadSpec, T: float,
           dt: float | None = None, u0: np.ndarray | None = None,
           v0: np.ndarray | None = None) -> Trajectory:
    """Implicit-midpoint trajectory of the regime's limit evolution.

    u0/v0 are initial data in the variant's state layout (defaults: zero);
    the quasistatic components of long_time_bending / delta0_hc are
    reconstructed per recorded step and stored in the trajectory meta.
    """
    if variant not in _VARIANT_ROWS:
        raise RegimeError(f"unknown evolution variant {variant!r}")
    if not _VARIANT_ROWS[variant](model.regime):
        raise RegimeError(f"variant {variant!r} does not match regime "
                          f"{model.regime.key}")
    dt = dt if dt is not None else T / 1000.0

    if variant == "long_time_bending":
        op = model.bend_op
        data = compute_load_functional(model, load)
        rhs_b = data["bend_rhs"].copy()
        if op.K_cross is not None:
            # membrane reaction to the in-plane load enters the bending force
            a_f = op.membrane_lu().solve(data["memb_rhs"])
            rhs_b += op.K_cross.T @ a_f
        system = SecondOrderSystem(
            M=model.rho_bar * op.pair.M, K=op.pair.K, F0=rhs_b,
            time_fn=load.time_fn(), blocks={"b": slice(0, op.pair.n)},
            meta={})
    elif variant == "real_time":
        if model.regime.delta == np.inf and load.transverse != "one":
            raise RegimeError("real-time evolution for very thin cells is "
                              "implemented for x3-constant load profiles")
        system = _real_time_system(model, load)
    else:
        system = _bending_kron_system(model, load)

    n = system.n
    u0 = np.zeros(n) if u0 is None else u0
    v0 = np.zeros(n) if v0 is None else v0
    U, V = implicit_midpoint(system, u0, v0, T, dt)
    nsteps = U.shape[0]
    times = np.arange(nsteps) * dt
    energy = np.empty((nsteps, 3))
    for j in range(nsteps):
        kin, ela = system.energy(U[j], V[j])
        energy[j] = (kin, ela, kin + ela)

    fields = {}
    for name in ("a", "b"):
        s = system.blocks.get(name)
        if s is not None:
            fields[name] = U[:, s]
    if system.blocks.get("micro"):
        fields["micro"] = np.stack(
            [np.array([U[j, s] for s in system.blocks["micro"]])
             for j in range(nsteps)])
    meta = {"variant": variant, "dt": dt, "system": system}
    if variant == "long_time_bending":
        # quasistatic components per step (the partially quasistatic
        # structure of the long-time plate row)
        data = compute_load_functional(model, load)
        tf = load.time_fn()
        ell_star = micro_modal_loads(
            model, load, amplitude=(load.amplitude[0], load.amplitude[1], 0.0))
        mac = data["macro_nodal"]
        fields["micro"] = np.stack(
            [np.outer(ell_star / model.bloch.eigenvalues, mac) * tf(t)
             for t in times])
        if model.bend_op.K_cross is not None:
            op = model.bend_op
            a_f = op.membrane_lu().solve(data["memb_rhs"])
            meta["a_quasistatic"] = np.stack(
                [op.membrane_lu().solve(-(op.K_cross @ U[j])) + a_f * tf(times[j])
                 for j in range(nsteps)])
    if variant == "delta0_hc" and model.bloch_memb_static is not None:
        from .limits import _micro_load_vector, _model_with_bloch
        bm = model.bloch_memb_static
        ell_m = bm.modal_coefficients(_micro_load_vector(
            _model_with_bloch(model, bm), load))
        tf = load.time_fn()
        mac = model.macro_nodal(load)
        meta["micro_inplane"] = np.stack(
            [np.outer(ell_m / bm.eigenvalues, mac) * tf(t) for t in times])
    return Trajectory(times=times, fields=fields, energy=energy, meta=meta)


# ---------------------------------------------------------------------------
# discrete memory-kernel (convolution quadrature) elimination

def _macro_modal_reduction(model: LimitModel, n_macro_modes: int):
    """M_b-orthonormal macro bending modes and their stiffness values."""
    from .macro import macro_eigs
    mu, W = macro_eigs(model.bend_op, n_macro_modes)
    # macro_eigs normalizes against rho_bar * M_b; rescale to M_b-orthonormal
    W = W * np.sqrt(model.rho_bar)
    return mu, W


def _oscillator_propagator(eta: float, dt: float):
    """One implicit-midpoint step of c'' + eta c = g: (c, v) -> P (c, v) +
    r * (dt * g_mid + d) with d the algebraic drive."""
    s = 0.25 * dt ** 2 * eta
    g = 1.0 / (1.0 + s)
    P = np.array([[1.0 - 0.5 * dt ** 2 * eta * g, 0.5 * dt * (1.0 + g * (1.0 - s))],
                  [-dt * eta * g, g * (1.0 - s)]])
    r = np.array([0.5 * dt * g, g])
    return P, r


def evolve_memory_bending(model: LimitModel, load: LoadSpec, T: float,
                          dt: float, n_macro_modes: int = 4,
                          b0_modal=None, v0_modal=None):
    """Memory-form solution of the strong high-contrast bending evolution:
    the micro modal coefficients are eliminated by the exact discrete
    Duhamel formula of the implicit-midpoint one-step method, leaving a
    scalar Volterra recursion (a convolution quadrature whose weights are
    generated by the oscillator propagator) per macro bending mode.

    Returns (times, modal b trajectory (steps, n_macro_modes)).
    """
    bs = model.bloch
    eta = bs.eigenvalues
    m3 = bs.weighted_means[:, -1]
    N = len(eta)
    rho = model.rho_bar
    mu, W = _macro_modal_reduction(model, n_macro_modes)

    mac = model.macro_nodal(load)
    fbar, _ = load_moments_of(model, load)
    Rb = model.bend_rect()
    ell = micro_modal_loads(model, load)
    tf = load.time_fn()

    # project the load and the kron mass onto each macro mode: for mode k,
    # the (1+N) block system has mass [[rho, m3^T],[m3, I]], stiffness
    # diag(mu_k rho, eta_n), macro load W_k . F_b, micro loads ell_n * that
    # macro projection of mac
    Fb_k = W.T @ (Rb @ (fbar[2] * mac))
    mac_k = W.T @ (Rb @ mac)

    nsteps = int(round(T / dt))
    times = np.arange(nsteps + 1) * dt
    gammas = np.array([1.0 / (1.0 + 0.25 * dt ** 2 * e) for e in eta])
    mstar = rho - float(np.sum(gammas * m3 ** 2))   # effective midpoint mass

    # kernel weights: powers of the oscillator propagator applied to its
    # drive column, w_n[j] = P_n^j r_n; the micro state at step j is then
    # the discrete Duhamel convolution sum_{i<j} w_n[j-1-i] d_n[i]
    W_ker = np.zeros((N, nsteps + 1, 2))
    P_all = []
    for n in range(N):
        P, r = _oscillator_propagator(eta[n], dt)
        P_all.append(P)
        w = r.copy()
        for j in range(nsteps + 1):
            W_ker[n, j] = w
            w = P @ w
    P1row = np.array([P[1] for P in P_all])        # velocity row of P_n

    out = np.zeros((nsteps + 1, n_macro_modes))
    for k in range(n_macro_modes):
        Sk = rho * mu[k]
        b = 0.0 if b0_modal is None else float(b0_modal[k])
        vb = 0.0 if v0_modal is None else float(v0_modal[k])
        out[0, k] = b
        Aeff = mstar + 0.25 * dt ** 2 * Sk
        drives = np.zeros((N, nsteps))             # d_n[i], filled as we go
        for j in range(nsteps):
            gmid = tf((j + 0.5) * dt)
            if j > 0:
                # convolution evaluation of the micro states (c, v) at step j
                ker = W_ker[:, j - 1::-1, :][:, :j, :]       # (N, j, 2)
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
            b = b + dt * (vb - 0.5 * dvb)   # = b + dt/2 (v_old + v_new)
            out[j + 1, k] = b
    return times, out
