"""Limit evolution equations: implicit-midpoint time stepping of the
coupled macro-micro second-order systems and quasistatic reconstruction of
the slaved components.

The variant is the model's row kind in hcplate.limits.ROWS (real_time,
long_time_bending, strong_hc_bending, delta0_hc). Each steps the row's
ModalSystem from hcplate.limits.modal_system (the long-time plate row
with no modes): a step solves one macro-size system and updates the modes
as arrays. The bending variants step the bending pencil over [a | b],
whose in-plane part a carries stiffness only: each step enforces its
equation at the midpoint.
A row's static micro field (limits.static_micro) follows the load's time
profile.
The memory-kernel form of the strong high-contrast bending row is the
same modal system on its first macro bending modes
(limits.macro_mode_system), stepped by the same implicit_midpoint: the
micro modes eliminated from each step are its convolution quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem.system import factorize
from .geometry import ConfigurationError
from .limits import (LimitModel, LoadSpec, ModalSystem, macro_mode_system,
                     modal_system, static_micro)
from .macro import macro_eigs


@dataclass
class Trajectory:
    times: np.ndarray
    fields: dict                 # "a", "b" -> macro path (steps+1, ...)
    micro_norms: np.ndarray      # (steps+1, N): |c_n| of each state
    final: tuple                 # (u, v) at T in the layout [a | b | c]
    energy: np.ndarray           # columns: kinetic, elastic, total
    meta: dict = field(default_factory=dict)

    def energy_drift(self) -> float:
        """Max deviation from the initial energy, relative to the peak
        energy (equals the usual relative drift for free vibrations)."""
        tot = self.energy[:, 2]
        ref = max(abs(tot).max(), 1e-300)
        return float(abs(tot - tot[0]).max() / ref)


def step_count(T: float, dt: float) -> int:
    """The number of steps of size dt that end at T; a T that is not a
    whole number of steps (to 1e-9 relative) is refused."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(round(T / dt))
    if abs(T / dt - n) > 1e-9 * abs(T / dt):
        raise ValueError(f"T = {T} is not a whole number of steps dt = {dt}")
    return n


def implicit_midpoint(system: ModalSystem, u0, v0, T: float, dt: float,
                      t0: float = 0.0):
    """Symplectic implicit-midpoint sweep over [t0, t0 + T]; exactly
    conserves the quadratic energy for time-independent loads set to zero.
    The load's time profile is read at the step midpoints. Each step solves
    M + dt^2/4 K once at macro size, updates the micro modes as arrays and
    forms the grand mass times the new velocity from the system it solved,
    which the next step and the new state's kinetic energy share.

    Returns ((X, norms), energy, (x, c, v, w), factor): the macro path
    (steps+1, n0), each mode's coefficient norm per state (steps+1, N),
    the kinetic, elastic and total energy per state (steps+1, 3), the
    state and velocity at T and the step factorization.
    """
    nsteps = step_count(T, dt)
    cp = system.coupling
    s = 0.25 * dt ** 2
    sh = cp.shift(1.0, s)
    x, c = (np.array(p, dtype=float) for p in cp.split(u0))
    v, w = (np.array(p, dtype=float) for p in cp.split(v0))
    X = np.empty((nsteps + 1, cp.n0))
    Cn = np.empty((nsteps + 1, cp.N))
    E = np.empty((nsteps + 1, 3))
    r0, rho = cp.mass(v, w)
    X[0], Cn[0] = x, np.linalg.norm(c, axis=1)
    E[0] = cp.energies(x, c, v, w, r0, rho)
    gs = system.time_fn(t0 + (np.arange(nsteps) + 0.5) * dt)
    for j, g in enumerate(gs, 1):
        # (M - s K) v + dt (F - K u) = M v - K (s v + dt u) + dt F
        k0, kc = cp.stiff(s * v + dt * x, s * w + dt * c)
        b0 = r0 - k0 + dt * g * system.F0
        bc = rho - kc + dt * g * system.f_micro
        v_new, w_new = sh.solve(b0, bc)
        x = x + 0.5 * dt * (v + v_new)
        c = c + 0.5 * dt * (w + w_new)
        v, w = v_new, w_new
        # (M + s K) v = b, so M v = b - s K v
        k0, kc = cp.stiff(v, w)
        r0, rho = b0 - s * k0, bc - s * kc
        X[j], Cn[j] = x, np.linalg.norm(c, axis=1)
        E[j] = cp.energies(x, c, v, w, r0, rho)
    return (X, Cn), E, (x, c, v, w), sh.factor


def evolve(model: LimitModel, load: LoadSpec, T: float,
           dt: float | None = None, u0: np.ndarray | None = None,
           v0: np.ndarray | None = None, t0: float = 0.0) -> Trajectory:
    """Implicit-midpoint trajectory of the regime's limit evolution over
    [t0, t0 + T]; the variant is the row kind of model.regime.

    u0/v0 are initial data in the variant's state layout [a | b | c_1 ...
    c_N] (defaults: zero), with fields "a" and "b" of the trajectory the
    two macro parts. In the bending variants a is the quasistatic in-plane
    field of the bending pencil: u0's a is replaced by the value that b and
    the load fix at t0 (K_aa a = F_a g(t0) - K_ab b), and v0's a plays
    no part. The trajectory keeps the times, the macro paths, each mode's
    coefficient norm per state ("micro_norms") and the end state (u, v) in
    the layout of u0 and v0 ("final"), which a later call with t0 at the
    end time continues (a bending row's a going back to its quasistatic
    value there). The static micro field of long_time_bending /
    delta0_hc is the load's time profile times one (N, n_nodes) field: a
    row without micro modes records |profile| times each mode's norm as
    its micro_norms, the others keep the two factors in meta
    ("micro_inplane", "micro_inplane_profile").
    """
    variant = model.regime.kind
    if variant == "real_time" and model.regime.delta == np.inf \
            and load.transverse != "one":
        raise ConfigurationError("real-time evolution for very thin cells "
                                 "is implemented for x3-constant load "
                                 "profiles")
    dt = dt if dt is not None else T / 1000.0

    system = modal_system(model, load)
    cp = system.coupling
    u0 = np.zeros(system.n) if u0 is None else np.array(u0, dtype=float)
    v0 = np.zeros(system.n) if v0 is None else v0
    ns = model.op.n_static
    if ns:
        K = cp.K0
        u0[:ns] = factorize(K[:ns, :ns], order=cp.order0[:ns]).solve(
            float(load.time_fn()(t0)) * system.F0[:ns]
            - K[:ns, ns:] @ u0[ns:cp.n0])
    (X, norms), energy, (x, c, v, w), factor = implicit_midpoint(
        system, u0, v0, T, dt, t0)
    times = t0 + np.arange(X.shape[0]) * dt

    na = model.na
    fields = {"a": X[:, :na]}
    if X.shape[1] > na:
        fields["b"] = X[:, na:]
    meta = {"variant": variant, "dt": dt, "state_dofs": system.n,
            "factored_dofs": factor.A.shape[0],
            "factor_fill": factor.fill, "factor_ordering": factor.ordering}
    static = static_micro(model, load)
    if static is not None:
        profile = load.time_fn()(times)
        if cp.N:
            meta["micro_inplane"] = static
            meta["micro_inplane_profile"] = profile
        else:
            norms = np.outer(abs(profile), np.linalg.norm(static, axis=1))
    final = (np.concatenate([x, c.ravel()]), np.concatenate([v, w.ravel()]))
    return Trajectory(times=times, fields=fields, micro_norms=norms,
                      final=final, energy=energy, meta=meta)


# ---------------------------------------------------------------------------
# the memory-kernel form: the modal system on its macro bending modes

def _macro_modal_reduction(model: LimitModel, n_macro_modes: int):
    """M_b-orthonormal macro bending modes and their stiffness values: the
    b parts of the bending pencil's modes, which are the modes of its
    Schur complement on b."""
    op = model.op
    mu, W = macro_eigs(op, n_macro_modes, model.ws)
    # macro_eigs normalizes against rho_bar * M_b; rescale to M_b-orthonormal
    W = W[op.n_static:] * np.sqrt(model.rho_bar)
    return mu, W


def evolve_memory_bending(model: LimitModel, load: LoadSpec, T: float,
                          dt: float, n_macro_modes: int = 4,
                          b0_modal=None, v0_modal=None):
    """Memory-form solution of the strong high-contrast bending evolution:
    the row's modal system on its first n_macro_modes macro bending modes
    (limits.macro_mode_system), stepped by implicit_midpoint from micro
    modes at rest. Eliminating the micro modes of each step is the exact
    discrete Duhamel form of the memory kernel, a convolution quadrature
    per macro mode (C. Lubich, Numer. Math. 52, 1988).

    Returns (times, modal b trajectory (steps+1, n_macro_modes)).
    """
    mu, W = _macro_modal_reduction(model, n_macro_modes)
    system = macro_mode_system(model, load, mu, W)
    u0, v0 = np.zeros((2, system.n))
    u0[:n_macro_modes] = 0.0 if b0_modal is None else b0_modal
    v0[:n_macro_modes] = 0.0 if v0_modal is None else v0_modal
    (X, _), _, _, _ = implicit_midpoint(system, u0, v0, T, dt)
    return np.arange(X.shape[0]) * dt, X
