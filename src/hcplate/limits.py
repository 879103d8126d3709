"""Coupled macro-micro limit systems: regime table, separable loads, the
resolvent solves for every supported scaling row, and the limit evolution
equations with an implicit-midpoint integrator.

The micro field is represented in the truncated inclusion modal basis: its
coefficients are nodal fields on the macro mesh, and the inclusion
eigenvalue/mean data turn every coupled solve into a macro system with a
frequency-dependent effective mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import tensors as tn
from .bloch import BlochSpectrum, bloch_spectrum
from .effective import (EffectiveTensor, effective_delta, effective_delta0,
                        effective_deltainf)
from .fem import assemble as fa
from .fem import elements as el
from .fem.system import EigWorkspace, factorize
from .geometry import CellMesh, InclusionShape, MacroMesh, build_cell_mesh
from .macro import (MacroOperator, build_bending_operator,
                    build_membrane_operator)

_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(16)


class RegimeError(ValueError):
    """Scaling combination not supported by the asymptotic table."""


@dataclass(frozen=True)
class RegimeConfig:
    """One row of the scaling table: thickness/period ratio delta, contrast
    exponent mu_h, spectrum/time scaling tau, and (for vanishing delta) the
    secondary ratio kappa = lim h / eps^2."""
    delta: float
    mu: str                      # "eps" | "eps_h" | "eps2"
    tau: int                     # 0 | 2
    kappa: float | None = None

    def __post_init__(self):
        if self.mu not in ("eps", "eps_h", "eps2"):
            raise RegimeError(f"unknown contrast scaling {self.mu!r}")
        if self.tau not in (0, 2):
            raise RegimeError("tau must be 0 or 2")
        if self.delta < 0 or np.isnan(self.delta):
            raise RegimeError("delta must be in [0, inf]")
        finite = 0.0 < self.delta < np.inf
        if self.mu == "eps" and self.tau == 2:
            if not finite:
                raise RegimeError("mu=eps with tau=2 needs delta in (0, inf)")
            self._no_kappa()
        elif self.mu == "eps" and self.tau == 0:
            if self.delta == 0.0:
                if self.kappa is None or self.kappa < 0 or np.isnan(self.kappa):
                    raise RegimeError("delta=0 membrane scaling needs kappa in [0, inf]")
            else:
                self._no_kappa()
        elif self.mu == "eps_h":
            if self.tau != 2 or not self.delta > 0:
                raise RegimeError("mu=eps*h is supported only with tau=2 and delta > 0")
            self._no_kappa()
        elif self.mu == "eps2":
            if self.tau != 2 or self.delta != 0.0:
                raise RegimeError("mu=eps^2 is supported only with tau=2 and delta = 0")
            self._no_kappa()

    def _no_kappa(self):
        if self.kappa is not None:
            raise RegimeError(f"kappa is meaningful only for delta=0, mu=eps, "
                              f"tau=0 (got kappa={self.kappa})")

    @property
    def key(self) -> str:
        d = {0.0: "delta0", np.inf: "deltainf"}.get(self.delta, "deltaf")
        k = ""
        if self.kappa is not None:
            k = {0.0: "_kappa0", np.inf: "_kappainf"}.get(self.kappa, "_kappaf")
        return f"{d}_{self.mu}_tau{self.tau}{k}"

    @classmethod
    def supported_rows(cls, delta_value: float = 1.0, kappa_value: float = 1.0):
        """All nine supported (delta, mu, tau, kappa) rows of the table."""
        return [
            cls(delta_value, "eps", 2),
            cls(delta_value, "eps", 0),
            cls(delta_value, "eps_h", 2),
            cls(0.0, "eps", 0, kappa=np.inf),
            cls(0.0, "eps", 0, kappa=kappa_value),
            cls(0.0, "eps", 0, kappa=0.0),
            cls(0.0, "eps2", 2),
            cls(np.inf, "eps", 0),
            cls(np.inf, "eps_h", 2),
        ]


def _profile(spec, default=1.0):
    if spec is None:
        return lambda x: default
    if callable(spec):
        return spec
    raise TypeError("profile must be a callable or None")


@dataclass
class LoadSpec:
    """Separable body load f(x, y) = amplitude * macro(x^) * transverse(x3)
    * cell(y), optionally modulated by time(t) in evolution problems."""
    amplitude: tuple[float, float, float] = (0.0, 0.0, 1.0)
    macro: object = None           # callable on x^ in omega, default 1
    transverse: object = "one"     # "one" | "x3" | callable on x3
    cell: object = "one"           # "one" | "soft" | callable on y
    time: object = None            # callable on t, default 1

    def macro_fn(self):
        return _profile(self.macro)

    def transverse_fn(self):
        if self.transverse == "one":
            return lambda z: 1.0
        if self.transverse == "x3":
            return lambda z: z
        return _profile(self.transverse)

    def cell_fn(self, shape: InclusionShape | None):
        if self.cell == "one":
            return lambda y: 1.0
        if self.cell == "soft":
            if shape is None:
                raise ValueError("soft-supported load needs an inclusion")
            return lambda y: 1.0 if shape.contains(np.atleast_2d(y))[0] else 0.0
        return _profile(self.cell)

    def time_fn(self):
        return _profile(self.time)

    def transverse_moments(self) -> tuple[float, float]:
        """(int_I t(x3) dx3, int_I x3 t(x3) dx3) by 16-point Gauss."""
        t = self.transverse_fn()
        z = 0.5 * _GAUSS_T
        w = 0.5 * _GAUSS_W
        vals = np.array([t(zz) for zz in z])
        return float(w @ vals), float(w @ (z * vals))

    def cell_means(self, cell_mesh: CellMesh) -> tuple[float, float, float]:
        """Discrete (int_Y cell, int_Y1 cell, int_Y0 cell) by centroid rule."""
        c = self.cell_fn(cell_mesh.shape)
        cent = cell_mesh.centroids()[:, :2]
        if cell_mesh.dim == 3:
            per_layer = len(cell_mesh.elements) // cell_mesh.n_z
            cent = cent[:per_layer]
            soft = cell_mesh.element_soft[:per_layer]
        else:
            soft = cell_mesh.element_soft
        vals = np.array([c(y) for y in cent]) / cell_mesh.n ** 2
        return float(vals.sum()), float(vals[~soft].sum()), float(vals[soft].sum())


# ---------------------------------------------------------------------------
# macro-mesh mass helpers for the nodal-data convention

def scalar_mass(mesh: MacroMesh) -> sp.csr_matrix:
    """Full-node scalar mass matrix (no constraints): pairs nodal data."""
    Me = el.q1_mass(mesh.element_size(), 1.0, ncomp=1)
    n = mesh.n_nodes
    tri = ([], [], [])
    conn = mesh.elements
    fa.scatter(conn, Me, n, tri)
    return fa.triplets_to_csr(tri, n)


def interp_mass_rect(mesh: MacroMesh, dof, comp: int) -> sp.csr_matrix:
    """Rect mass: rows = reduced DOFs of one component, cols = mesh nodes;
    realizes int g . theta for nodally interpolated data g."""
    Me = el.q1_mass(mesh.element_size(), 1.0, ncomp=1)
    rows = dof.index[mesh.elements][:, :, comp]
    cols = mesh.elements
    return fa.assemble_rect_block(rows, cols, Me, (dof.n_free, mesh.n_nodes))


def bfs_interp_mass_rect(mesh: MacroMesh, dof) -> sp.csr_matrix:
    Me = el.mixed_mass_bfs_q1(mesh.element_size())
    rows = dof.element_dofs(mesh.elements)
    cols = mesh.elements
    return fa.assemble_rect_block(rows, cols, Me, (dof.n_free, mesh.n_nodes))


def bfs_gradload_rects(mesh: MacroMesh, dof):
    Gx, Gy = el.mixed_gradload_bfs_q1(mesh.element_size())
    rows = dof.element_dofs(mesh.elements)
    cols = mesh.elements
    shape = (dof.n_free, mesh.n_nodes)
    return (fa.assemble_rect_block(rows, cols, Gx, shape),
            fa.assemble_rect_block(rows, cols, Gy, shape))


# ---------------------------------------------------------------------------

@dataclass
class LimitModel:
    """Everything a regime row needs: effective tensor, inclusion modal
    basis, macro operators, and the mass plumbing between them."""
    regime: RegimeConfig
    mat: tn.MaterialSpec
    shape: InclusionShape
    cell_mesh: CellMesh
    macro_mesh: MacroMesh
    tensor: EffectiveTensor
    bloch: BlochSpectrum
    rho_bar: float
    memb_op: MacroOperator | None = None
    bend_op: MacroOperator | None = None
    bloch_memb_static: BlochSpectrum | None = None   # delta=0 bending row
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    # -- mass plumbing (built lazily) ------------------------------------
    def Ms(self) -> sp.csr_matrix:
        if "Ms" not in self._cache:
            self._cache["Ms"] = scalar_mass(self.macro_mesh)
        return self._cache["Ms"]

    def memb_rects(self):
        if "Ra" not in self._cache:
            dof = self.memb_op.pair.dof
            self._cache["Ra"] = [interp_mass_rect(self.macro_mesh, dof, c)
                                 for c in range(2)]
        return self._cache["Ra"]

    def bend_rect(self):
        if "Rb" not in self._cache:
            self._cache["Rb"] = bfs_interp_mass_rect(self.macro_mesh,
                                                     self.bend_op.pair.dof)
        return self._cache["Rb"]

    def bend_gradrects(self):
        if "Gb" not in self._cache:
            self._cache["Gb"] = bfs_gradload_rects(self.macro_mesh,
                                                   self.bend_op.pair.dof)
        return self._cache["Gb"]

    def macro_nodal(self, load: LoadSpec) -> np.ndarray:
        f = load.macro_fn()
        return np.array([f(x) for x in self.macro_mesh.nodes])

    def bend_nodal_values(self, b_red: np.ndarray) -> np.ndarray:
        """Nodal values of a reduced BFS field (zeros on clamped nodes)."""
        return self.bend_op.pair.dof.expand(b_red)[:, 0]

    def memb_nodal_values(self, a_red: np.ndarray) -> np.ndarray:
        return self.memb_op.pair.dof.expand(a_red)


@dataclass
class LimitState:
    regime: RegimeConfig
    a: np.ndarray | None = None          # (n_nodes, 2) in-plane macro field
    b: np.ndarray | None = None          # (n_nodes,) out-of-plane macro field
    micro: np.ndarray | None = None      # (N_modes, n_nodes) modal coefficients
    b_red: np.ndarray | None = None      # reduced BFS coefficients when bending
    a_red: np.ndarray | None = None
    b_cell: np.ndarray | None = None     # kappa in (0,inf): cell BFS field / unit macro
    u3_cell: np.ndarray | None = None    # delta=0 rows: soft-centroid u3 / unit macro
    t: float = 0.0
    meta: dict = field(default_factory=dict)


def _micro_load_vector(model: LimitModel, load: LoadSpec,
                       amplitude=None) -> np.ndarray:
    """Assembled inclusion load of the (transverse x cell)-profiled body
    force against the Bloch test space (per unit macro profile)."""
    bs = model.bloch
    mesh = bs.mesh
    amp = np.asarray(load.amplitude if amplitude is None else amplitude, float)
    tfun = load.transverse_fn()
    cfun = load.cell_fn(model.shape)
    hsize = mesh.element_size()
    soft_ids = np.flatnonzero(mesh.element_soft)
    ncomp = bs.pair.dof.ncomp

    if ncomp == 4:   # scalar BFS micro space: value + moment loads
        t0, t1 = load.transverse_moments()
        out = np.zeros(bs.pair.dof.n_free)

        def fe_val(origin):
            return el.bfs_value_load(hsize, lambda pt: cfun(origin[:2] + np.asarray(pt)))

        def fe_grad(origin):
            return el.bfs_gradient_load(
                hsize, lambda pt: amp[:2] * cfun(origin[:2] + np.asarray(pt)))

        out += amp[2] * t0 * fa.assemble_pointwise_load(mesh, bs.pair.dof,
                                                        fe_val, soft_ids)
        out -= t1 * fa.assemble_pointwise_load(mesh, bs.pair.dof, fe_grad, soft_ids)
        return out

    use = amp[:ncomp]
    if mesh.dim == 3:
        def fe(origin):
            return el.q1_vector_load(
                hsize,
                lambda pt: use * tfun(origin[2] + pt[2]) * cfun(origin[:2] + np.asarray(pt[:2])),
                ncomp=ncomp)
    else:
        t0, _ = load.transverse_moments()

        def fe(origin):
            return el.q1_vector_load(
                hsize, lambda pt: use * t0 * cfun(origin[:2] + np.asarray(pt[:2])),
                ncomp=ncomp)
    vec = fa.assemble_pointwise_load(mesh, bs.pair.dof, fe, soft_ids)
    return bs.scale * vec


def micro_modal_loads(model: LimitModel, load: LoadSpec, amplitude=None) -> np.ndarray:
    """Modal coefficients l_n = (load profile, phi_n) per unit macro value."""
    return model.bloch.modal_coefficients(
        _micro_load_vector(model, load, amplitude))


def load_moments(model: LimitModel, load: LoadSpec):
    """(<f-bar> components, <x3 f-bar_*> components) per unit macro value."""
    t0, t1 = load.transverse_moments()
    cy, _, _ = load.cell_means(model.cell_mesh)
    amp = np.asarray(load.amplitude, float)
    return amp * t0 * cy, amp[:2] * t1 * cy


def compute_load_functional(model: LimitModel, load: LoadSpec) -> dict:
    """Discrete right-hand-side data for the regime: macro load vectors and
    micro modal loads, all per unit time profile."""
    fbar, xmom = load_moments(model, load)
    mac = model.macro_nodal(load)
    out = {"fbar": fbar, "x3_moment": xmom, "macro_nodal": mac}
    if model.memb_op is not None:
        Ra = model.memb_rects()
        out["memb_rhs"] = Ra[0] @ (fbar[0] * mac) + Ra[1] @ (fbar[1] * mac)
    if model.bend_op is not None:
        Rb = model.bend_rect()
        rhs_b = Rb @ (fbar[2] * mac)
        Gx, Gy = model.bend_gradrects()
        rhs_b -= Gx @ (xmom[0] * mac) + Gy @ (xmom[1] * mac)
        out["bend_rhs"] = rhs_b
    out["micro_modal"] = micro_modal_loads(model, load)
    return out


def build_limit_model(regime: RegimeConfig, mat: tn.MaterialSpec,
                      shape: InclusionShape, macro_mesh: MacroMesh,
                      cell_n: int = 16, n_z: int = 4, n_modes: int = 30,
                      ws: EigWorkspace | None = None) -> LimitModel:
    """Assemble the regime-appropriate tensors, modal basis, and macro
    operators on the given meshes."""
    d = regime.delta
    if 0.0 < d < np.inf:
        cell_mesh = build_cell_mesh(shape, n=cell_n, dim=3, n_z=n_z)
        tensor = effective_delta(mat, cell_mesh, d)
        bs = bloch_spectrum(mat, shape, cell_n, "full_delta", n_modes,
                            delta=d, n_z=n_z, ws=ws)
    elif d == 0.0:
        cell_mesh = build_cell_mesh(shape, n=cell_n)
        tensor = effective_delta0(mat, cell_mesh)
        tag = "bend_delta0" if regime.mu == "eps2" else "memb_delta0"
        bs = bloch_spectrum(mat, shape, cell_n, tag, n_modes, ws=ws)
    else:
        cell_mesh = build_cell_mesh(shape, n=cell_n)
        tensor = effective_deltainf(mat, cell_mesh)
        bs = bloch_spectrum(mat, shape, cell_n, "full_deltainf", n_modes, ws=ws)

    frac = cell_mesh.soft_area_fraction()
    rho_bar = mat.rho1 * (1.0 - frac) + mat.rho0 * frac
    model = LimitModel(regime=regime, mat=mat, shape=shape,
                       cell_mesh=cell_mesh, macro_mesh=macro_mesh,
                       tensor=tensor, bloch=bs, rho_bar=rho_bar)

    needs_memb = (regime.tau == 0) or (regime.mu == "eps" and regime.tau == 2)
    needs_bend = (regime.tau == 2)
    if needs_memb:
        model.memb_op = build_membrane_operator(tensor, macro_mesh, rho_bar)
    if needs_bend:
        coupled = 0.0 < d < np.inf
        model.bend_op = build_bending_operator(tensor, macro_mesh, rho_bar,
                                               coupled=coupled)
    if regime.mu == "eps2":
        model.bloch_memb_static = bloch_spectrum(mat, shape, cell_n,
                                                 "memb_delta0", n_modes, ws=ws)
    return model


# ---------------------------------------------------------------------------
# resolvent solves

def _modal_R(eta, means, lam) -> np.ndarray:
    k = means.shape[1]
    R = np.zeros((k, k))
    for e, m in zip(eta, means):
        R += np.outer(m, m) / (e + lam)
    return R


def _modal_F(eta, means, ell, lam) -> np.ndarray:
    out = np.zeros(means.shape[1])
    for e, m, l in zip(eta, means, ell):
        out += l * m / (e + lam)
    return out


def _solve_membrane_coupled(model: LimitModel, lam: float, load: LoadSpec,
                            third_coupled: bool) -> LimitState:
    """Membrane rows (tau = 0): macro membrane + algebraic out-of-plane
    + micro modes, eliminated into a single sparse solve.

    third_coupled: whether the micro means carry a third component
    (delta > 0); for delta = 0 the out-of-plane branch is handled separately.
    """
    bs = model.bloch
    eta = bs.eigenvalues
    means = bs.weighted_means
    ell = micro_modal_loads(model, load)
    mac = model.macro_nodal(load)
    fbar, _ = load_moments(model, load)
    rho = model.rho_bar
    op = model.memb_op
    K = op.pair.K
    Ra = model.memb_rects()
    from .zhikov import _membrane_component_masses
    comp_mass = model._cache.setdefault(
        "comp_mass", _membrane_component_masses(op.pair, model.macro_mesh))

    R = _modal_R(eta, means, lam)
    F = _modal_F(eta, means, ell, lam)
    if third_coupled:
        D = rho - lam * R[2, 2]
        W = rho * np.eye(2) - lam * R[:2, :2] \
            - lam ** 2 * np.outer(R[:2, 2], R[2, :2]) / D
        g3_term = (fbar[2] / lam - F[2]) / D
        rhs_nodal = [fbar[c] * mac - lam * F[c] * mac
                     + lam ** 2 * R[c, 2] * g3_term * mac for c in range(2)]
    else:
        W = rho * np.eye(2) - lam * R[:2, :2]
        rhs_nodal = [fbar[c] * mac - lam * F[c] * mac for c in range(2)]

    Keff = K + lam * (W[0, 0] * sp.csr_matrix(comp_mass[(0, 0)])
                      + W[1, 1] * sp.csr_matrix(comp_mass[(1, 1)])
                      + W[0, 1] * sp.csr_matrix(comp_mass[(0, 1)]
                                                + comp_mass[(0, 1)].T))
    rhs = Ra[0] @ rhs_nodal[0] + Ra[1] @ rhs_nodal[1]
    a_red = spla.splu(Keff.tocsc()).solve(rhs)
    a_nodal = op.pair.dof.expand(a_red)

    # reconstruct the algebraic out-of-plane field and the micro modes
    if third_coupled:
        b_nodal = (fbar[2] / lam - F[2]) * mac / D \
            + lam * (a_nodal @ R[2, :2]) / D
        coef = np.column_stack([a_nodal, b_nodal])
    else:
        b_nodal = None
        coef = a_nodal
    micro = np.empty((len(eta), model.macro_mesh.n_nodes))
    for n in range(len(eta)):
        micro[n] = (ell[n] * mac - lam * coef @ means[n]) / (eta[n] + lam)
    return LimitState(regime=model.regime, a=a_nodal, b=b_nodal, micro=micro,
                      a_red=a_red, meta={"lambda": lam})


def _delta0_third_component(model: LimitModel, lam: float, load: LoadSpec,
                            state: LimitState) -> LimitState:
    """Out-of-plane branches of the delta = 0 membrane row."""
    kappa = model.regime.kappa
    mesh = model.cell_mesh
    mat = model.mat
    t0, _ = load.transverse_moments()
    amp3 = load.amplitude[2]
    cfun = load.cell_fn(model.shape)
    cent = mesh.centroids()
    soft = mesh.element_soft
    cell_soft = np.array([cfun(y) for y in cent[soft]])
    cell_stiff = np.array([cfun(y) for y in cent[~soft]])
    mac = model.macro_nodal(load)
    rho = model.rho_bar

    if kappa == np.inf:
        # <rho> b + rho0 u3 = P0(fbar_3)/lambda: on Y1 the projection is the
        # stiff-average of fbar_3, on Y0 it keeps fbar_3 itself
        f_avg = amp3 * t0 * cell_stiff.mean()
        state.b = f_avg / (lam * rho) * mac
        state.u3_cell = (amp3 * t0 * cell_soft - f_avg) / (lam * mat.rho0)
    elif kappa == 0.0:
        state.b = None
        state.b_cell = amp3 * t0 * cell_stiff / (lam * mat.rho1)   # on Y1
        state.u3_cell = amp3 * t0 * cell_soft / (lam * mat.rho0)
        state.meta["b_cell_kind"] = "stiff_centroids"
    else:
        # cell bending solve on the torus, stiff part only, with the
        # artificial normalization b = 0 on Y0
        Cr = tn.reduced_tensor(mat.C1)
        pb = fa.assemble_bfs_h2(mesh, Cr, density=mat.rho1,
                                space="periodic-zero-mean",
                                restrict_to="stiff", kernel="none")
        Kc = (kappa ** 2 / 12.0) * pb.K + lam * pb.M
        hsize = mesh.element_size()

        def fe(origin):
            return el.bfs_value_load(
                hsize, lambda pt: amp3 * t0 * cfun(origin[:2] + np.asarray(pt)))

        rhs = fa.assemble_pointwise_load(mesh, pb.dof, fe, np.flatnonzero(~soft))
        beta = spla.splu(Kc.tocsc()).solve(rhs)
        state.b_cell = beta
        state.u3_cell = amp3 * t0 * cell_soft / (lam * mat.rho0)
        state.meta["b_cell_dof"] = pb.dof
        state.meta["b_cell_kind"] = "periodic_bfs"
    return state


def _solve_bending_coupled(model: LimitModel, lam: float, load: LoadSpec,
                           static_inplane_micro: bool) -> LimitState:
    """Bending rows (tau = 2, high contrast): macro bending with the
    micro-dressed mass; only third-component means couple."""
    bs = model.bloch
    eta = bs.eigenvalues
    m3 = bs.weighted_means[:, -1]      # scalar variant or third component
    ell = micro_modal_loads(model, load)
    mac = model.macro_nodal(load)
    fbar, xmom = load_moments(model, load)
    rho = model.rho_bar
    op = model.bend_op
    Rb = model.bend_rect()

    r33 = np.sum(m3 ** 2 / (eta + lam))
    F3 = np.sum(m3 * ell / (eta + lam))
    Keff = op.pair.K + lam * (rho - lam * r33) * op.pair.M
    # macro load of the high-contrast bending rows: transverse average only
    # (the x3 moments act through the micro equations where applicable)
    rhs = Rb @ (fbar[2] * mac) - lam * (Rb @ (F3 * mac))
    b_red = spla.splu(sp.csc_matrix(Keff)).solve(rhs)
    b_nodal = op.pair.dof.expand(b_red)[:, 0]

    micro = np.empty((len(eta), model.macro_mesh.n_nodes))
    for n in range(len(eta)):
        micro[n] = (ell[n] * mac - lam * m3[n] * b_nodal) / (eta[n] + lam)
    state = LimitState(regime=model.regime, b=b_nodal, b_red=b_red,
                       micro=micro, meta={"lambda": lam})
    if op.K_cross is not None:
        from .macro import membrane_solve_for_bending
        a_red = membrane_solve_for_bending(op, b_red)
        state.a_red = a_red
        state.a = op.memb_pair.dof.expand(a_red)
    if static_inplane_micro and model.bloch_memb_static is not None:
        # the in-plane micro equation is fully static and decoupled
        bm = model.bloch_memb_static
        ell_m = bm.modal_coefficients(_micro_load_vector(
            _model_with_bloch(model, bm), load))
        state.meta["micro_inplane"] = np.outer(ell_m / bm.eigenvalues, mac)
    return state


def _model_with_bloch(model: LimitModel, bs: BlochSpectrum) -> LimitModel:
    clone = replace(model, bloch=bs)
    clone._cache = {}
    return clone


def _solve_plate_resolvent(model: LimitModel, lam: float, load: LoadSpec) -> LimitState:
    """Uncoupled plate row (delta finite, mu = eps, tau = 2): joint
    membrane/bending macro solve, static micro driven by in-plane loads."""
    op_b = model.bend_op
    op_a = model.memb_op
    mac = model.macro_nodal(load)
    fbar, xmom = load_moments(model, load)
    Ra = model.memb_rects()
    Rb = model.bend_rect()
    Gx, Gy = model.bend_gradrects()
    rhs_a = Ra[0] @ (fbar[0] * mac) + Ra[1] @ (fbar[1] * mac)
    rhs_b = Rb @ (fbar[2] * mac) - Gx @ (xmom[0] * mac) - Gy @ (xmom[1] * mac)

    rho = model.rho_bar
    if op_b.K_cross is not None:
        K_bb = op_b.pair.meta["raw_K"]
        A = sp.bmat([[op_a.pair.K, op_b.K_cross],
                     [op_b.K_cross.T, K_bb + lam * rho * op_b.pair.M]],
                    format="csc")
        na = op_a.pair.n
        sol = spla.splu(A).solve(np.concatenate([rhs_a, rhs_b]))
        a_red, b_red = sol[:na], sol[na:]
    else:
        a_red = factorize(op_a.pair.K).solve(rhs_a)
        Keff = op_b.pair.K + lam * rho * op_b.pair.M
        b_red = spla.splu(sp.csc_matrix(Keff)).solve(rhs_b)

    # micro: static, driven by the in-plane load components only
    bs = model.bloch
    amp = (load.amplitude[0], load.amplitude[1], 0.0)
    ell = micro_modal_loads(model, load, amplitude=amp)
    micro = np.outer(ell / bs.eigenvalues, mac)
    return LimitState(regime=model.regime, a=op_a.pair.dof.expand(a_red),
                      b=op_b.pair.dof.expand(b_red)[:, 0], micro=micro,
                      a_red=a_red, b_red=b_red, meta={"lambda": lam})


def solve_bending_resolvent_data(model: LimitModel, lam: float,
                                 z_b: np.ndarray, z_c: np.ndarray):
    """(A + lambda)^-1 applied to state-shaped data (z_b, z_c) for the
    high-contrast bending rows: the rhs is the energy-space pairing of z,
    and the micro modes are eliminated exactly (Schur complement of the
    grand modal system).  Returns (b_red, c (N, nb))."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    bs = model.bloch
    eta = bs.eigenvalues
    m3 = bs.weighted_means[:, -1]
    rho = model.rho_bar
    op = model.bend_op
    Mb, S = op.pair.M, op.pair.K
    r33 = np.sum(m3 ** 2 / (eta + lam))
    rhs = rho * (Mb @ z_b) + Mb @ (z_c.T @ m3)
    rhs = rhs - lam * Mb @ ((m3 / (eta + lam)) @ (z_c + np.outer(m3, z_b)))
    Keff = S + lam * (rho - lam * r33) * Mb
    b = spla.splu(sp.csc_matrix(Keff)).solve(rhs)
    c = (z_c + np.outer(m3, z_b) - lam * np.outer(m3, b)) / (eta + lam)[:, None]
    return b, c


def solve_limit_resolvent(model: LimitModel, lam: float, load: LoadSpec) -> LimitState:
    """Discrete solution of the regime's coupled limit resolvent system."""
    if lam <= 0:
        raise ValueError("resolvent parameter lambda must be positive")
    r = model.regime
    if r.mu == "eps" and r.tau == 2:
        return _solve_plate_resolvent(model, lam, load)
    if r.tau == 0:
        if r.delta == 0.0:
            state = _solve_membrane_coupled(model, lam, load, third_coupled=False)
            return _delta0_third_component(model, lam, load, state)
        return _solve_membrane_coupled(model, lam, load, third_coupled=True)
    # bending high-contrast rows
    return _solve_bending_coupled(model, lam, load,
                                  static_inplane_micro=(r.mu == "eps2"))
