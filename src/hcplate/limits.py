"""Coupled macro-micro limit systems: the regime table, separable loads,
the limit model of a scaling row, its grand modal system and the resolvent
solve. The limit evolution equations that step the same modal system live
in hcplate.evolution.

Each supported row is declared once, in ROWS: its contrast and time
scalings (mu, tau), the delta classes it admits and the one whose kappa
selects the out-of-plane branch, the Bloch operators of its micro modes
and of its dispersion function, its macro pencil, the macro field its
modes live on, and whether its spectrum is the macro eigenvalues alone.
RegimeConfig admits a regime only by lookup in that table. The micro
field is represented in the truncated inclusion modal basis: its
coefficients are nodal fields on the macro mesh, and the inclusion
eigenvalue/mean data turn every coupled solve into a macro system with a
frequency-dependent effective mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import tensors as tn
from .bloch import BlochSpectrum, bloch_spectrum
from .coupling import ModalCoupling
from .effective import (EffectiveTensor, effective_delta, effective_delta0,
                        effective_deltainf)
from .fem import assemble as fa
from .fem import elements as el
from .fem.system import EigWorkspace, factorize, slab_order
from .geometry import GridMesh, InclusionShape, build_cell_mesh
from .macro import (MacroOperator, build_bending_operator,
                    build_membrane_operator, nodal_traces, scalar_mass)
from .memo import memoized

_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(16)


class RegimeError(ValueError):
    """Scaling combination not supported by the asymptotic table."""


@dataclass(frozen=True)
class RegimeConfig:
    """One row of the scaling table: thickness/period ratio delta, contrast
    exponent mu_h, spectrum/time scaling tau, and (for vanishing delta) the
    secondary ratio kappa = lim h / eps^2. A regime exists only as a row of
    ROWS: its (mu, tau) name the row, which admits the delta classes of its
    Bloch operators and asks for kappa in the class kappa_at alone."""
    delta: float
    mu: str                      # "eps" | "eps_h" | "eps2"
    tau: int                     # 0 | 2
    kappa: float | None = None

    def __post_init__(self):
        row = self.row
        if not self.delta >= 0:
            raise RegimeError("delta must be in [0, inf]")
        if self.delta_class not in row.bloch:
            raise RegimeError(f"row {self.kind} admits the delta classes "
                              f"{sorted(row.bloch)}, not {self.delta_class}")
        if (self.kappa is not None) != (self.delta_class == row.kappa_at) \
                or self.kappa is not None and not self.kappa >= 0:
            raise RegimeError(f"kappa in [0, inf] is needed exactly for "
                              f"delta class {row.kappa_at} of row {self.kind} "
                              f"(got kappa={self.kappa})")

    @property
    def delta_class(self) -> str:
        return {0.0: "delta0", np.inf: "deltainf"}.get(self.delta, "deltaf")

    @property
    def kind(self) -> str:
        """The row's kind in ROWS, which is also its evolution variant."""
        for kind, row in ROWS.items():
            if (row.mu, row.tau) == (self.mu, self.tau):
                return kind
        raise RegimeError(f"no scaling row with mu={self.mu!r}, "
                          f"tau={self.tau!r}")

    @property
    def row(self) -> Row:
        return ROWS[self.kind]

    @property
    def bloch_operator(self) -> str:
        """Inclusion operator whose modes carry the micro field."""
        return self.row.bloch[self.delta_class]

    @property
    def dispersion_operator(self) -> str:
        """Inclusion operator of the dispersion function beta."""
        return self.row.dispersion[self.delta_class]

    @property
    def key(self) -> str:
        k = ""
        if self.kappa is not None:
            k = {0.0: "_kappa0", np.inf: "_kappainf"}.get(self.kappa, "_kappaf")
        return f"{self.delta_class}_{self.mu}_tau{self.tau}{k}"


@dataclass(frozen=True)
class Row:
    """One kind of scaling row: its contrast and time scalings (mu, tau),
    and how it is built. The Bloch operators are keyed by the delta classes
    of RegimeConfig that the row admits; kappa_at is the class whose kappa
    selects the out-of-plane branch. A bending row's modes couple through
    the transverse mean alone, a membrane row's through every mean."""
    mu: str
    tau: int
    bloch: dict              # micro modes of the model
    dispersion: dict         # dispersion function beta
    macro: str               # "membrane" | "bending" pencil
    macro_only: bool = False         # spectrum: the macro eigenvalues alone
    static_bloch: str | None = None  # modes of a static in-plane micro field
    kappa_at: str | None = None

    @property
    def modes_on(self) -> str:
        """The macro field the modes live on: a of the membrane, b of the
        bending pencil."""
        return "a" if self.macro == "membrane" else "b"


ROWS = {
    "real_time": Row(
        "eps", 0,
        bloch={"deltaf": "full_delta", "delta0": "memb_delta0",
               "deltainf": "full_deltainf"},
        dispersion={"deltaf": "memb_delta", "delta0": "memb_delta0",
                    "deltainf": "memb_deltainf"},
        macro="membrane", kappa_at="delta0"),
    # the plate row: high contrast leaves no trace in the order-h^2 limit;
    # the micro field is static, driven by the in-plane loads
    "long_time_bending": Row(
        "eps", 2,
        bloch={"deltaf": "full_delta"}, dispersion={"deltaf": "full_delta"},
        macro="bending", macro_only=True, static_bloch="full_delta"),
    "strong_hc_bending": Row(
        "eps_h", 2,
        bloch={"deltaf": "full_delta", "deltainf": "full_deltainf"},
        dispersion={"deltaf": "full_delta", "deltainf": "full_deltainf"},
        macro="bending"),
    # plate-like inclusions; their in-plane micro equation is static
    "delta0_hc": Row(
        "eps2", 2,
        bloch={"delta0": "bend_delta0"}, dispersion={"delta0": "bend_delta0"},
        macro="bending", static_bloch="memb_delta0"),
}


def _profile(spec, coords_first: bool):
    """The profile spec (a callable or None for 1) on coordinate arrays:
    values broadcast to the point shape, x.shape[1:] when the coordinates
    come first (x[0], x[1] of macro(x) and cell(y)), else x.shape."""
    if spec is None:
        spec = _one
    elif not callable(spec):
        raise TypeError("profile must be a callable or None")

    def at(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[1:] if coords_first else x.shape, spec(x),
                       dtype=float)
    return at


def _one(x):
    return 1.0


@dataclass
class LoadSpec:
    """Separable body load f(x, y) = amplitude * macro(x^) * transverse(x3)
    * cell(y), optionally modulated by time(t) in evolution problems.

    Profiles are numpy-vectorized: macro(x) and cell(y) take coordinate
    arrays with the coordinates first (x[0], x[1] arrays of any one shape),
    transverse(z) and time(t) arrays of points."""
    amplitude: tuple[float, float, float] = (0.0, 0.0, 1.0)
    macro: object = None           # callable on x^ in omega, default 1
    transverse: object = "one"     # "one" | "x3" | callable on x3
    cell: object = "one"           # "one" | "soft" | callable on y
    time: object = None            # callable on t, default 1

    def macro_fn(self):
        return _profile(self.macro, True)

    def transverse_fn(self):
        if self.transverse == "one":
            return _profile(None, False)
        if self.transverse == "x3":
            return _profile(lambda z: z, False)
        return _profile(self.transverse, False)

    def cell_fn(self, shape: InclusionShape | None):
        if self.cell == "one":
            return _profile(None, True)
        if self.cell == "soft":
            if shape is None:
                raise ValueError("soft-supported load needs an inclusion")
            return _profile(lambda y: shape.contains(np.moveaxis(y, 0, -1)),
                            True)
        return _profile(self.cell, True)

    def time_fn(self):
        return _profile(self.time, False)

    def transverse_moments(self) -> tuple[float, float]:
        """(int_I t(x3) dx3, int_I x3 t(x3) dx3) by 16-point Gauss."""
        z = 0.5 * _GAUSS_T
        w = 0.5 * _GAUSS_W
        vals = self.transverse_fn()(z)
        return float(w @ vals), float(w @ (z * vals))

    def cell_means(self, cell_mesh: GridMesh) -> tuple[float, float, float]:
        """Discrete (int_Y cell, int_Y1 cell, int_Y0 cell) by centroid rule."""
        c = self.cell_fn(cell_mesh.shape)
        layer = len(cell_mesh.elements) // max(cell_mesh.n_z, 1)   # n^2
        cent = cell_mesh.centroids()[:layer, :2]
        soft = cell_mesh.element_soft[:layer]
        vals = c(cent.T) / layer
        return float(vals.sum()), float(vals[~soft].sum()), float(vals[soft].sum())


@dataclass
class LimitModel:
    """Everything a regime row needs: the effective tensor, the inclusion
    modal basis, the row's macro pencil `op` (membrane, or bending over
    [a | b]) and its grand modal system's `coupling`, built on first use.
    The cached properties live in the instance, so a copy made with
    dataclasses.replace builds its own."""
    regime: RegimeConfig
    mat: tn.MaterialSpec
    shape: InclusionShape
    cell_mesh: GridMesh
    macro_mesh: GridMesh
    tensor: EffectiveTensor
    bloch: BlochSpectrum
    rho_bar: float
    op: MacroOperator
    static_bloch: BlochSpectrum | None = None   # the row's static micro modes
    ws: EigWorkspace | None = None     # settings of the model's eigensolves

    @property
    def na(self) -> int:
        """Size of the part a of the macro state [a | b]: the membrane
        operator, or the bending pencil's in-plane part."""
        return self.op.n_static or self.op.n

    def nodal(self, x0: np.ndarray):
        """Nodal a (n_nodes, 2) and b (n_nodes,) of a macro state [a | b];
        b is None for a membrane state without the out-of-plane field."""
        op, na = self.op, self.na
        if op.kind == "memb":
            return op.pair.dof.expand(x0[:na]), (x0[na:] if len(x0) > na
                                                  else None)
        return op.memb_dof.expand(x0[:na]), op.pair.dof.expand(x0[na:])[:, 0]

    @cached_property
    def bend_rect(self) -> sp.csr_matrix:
        """int g phi_i of nodal data g against the bending space of b."""
        mesh = self.macro_mesh
        return fa.assemble_rect_block(
            mesh, self.op.pair.dof, None,
            el.mixed_mass_bfs_q1(mesh.element_size()))

    @cached_property
    def coupling(self) -> ModalCoupling:
        """The row's grand modal system, state [a | b | c_1 ... c_N].
        Membrane rows: nodal micro fields coupled through every mean, with
        the algebraic out-of-plane field b (mass only) when the means carry
        a third component. Bending rows: the bending pencil, with the micro
        fields in the reduced bending space of b, coupled through the last
        (out-of-plane) mean; the in-plane part a carries stiffness only, and
        the plate row keeps the macro block alone (N = 0)."""
        op, bs = self.op, self.bloch
        if op.kind == "bend":
            N = 0 if self.regime.row.macro_only else len(bs.eigenvalues)
            na = op.n_static
            Mb = op.pair.M[na:, na:]
            return ModalCoupling(
                M0=self.rho_bar * op.pair.M, K0=op.pair.K, Ms=Mb,
                T=sp.eye(op.n - na, op.n, k=na, format="csr"),  # b of [a | b]
                eta=bs.eigenvalues[:N], means=bs.weighted_means[:N, -1:],
                order0=op.pair.order, order_s=op.pair.dof.key)
        Ms = scalar_mass(self.macro_mesh)
        means = bs.weighted_means
        nn = self.macro_mesh.n_nodes
        # T_c expands component c of the state to nodal values; b is nodal
        # already
        T = sp.vstack(nodal_traces(op.pair.dof), format="csr")
        K0, order0 = op.pair.K, op.pair.order
        ranks = slab_order(*self.macro_mesh.grid)
        if means.shape[1] == 3:
            T = sp.block_diag([T, sp.eye(nn)], format="csr")
            K0 = sp.block_diag([K0, sp.csr_matrix((nn, nn))], format="csr")
            order0 = np.concatenate([order0, ranks])
        # sum_c T_c^T Ms T_c; sorted rows fix the order of every M0 matvec sum
        M0 = sp.csr_matrix(T.T @ sp.kron(sp.eye(means.shape[1]), Ms) @ T)
        return ModalCoupling(M0=self.rho_bar * M0.sorted_indices(), K0=K0,
                             Ms=Ms, T=T, eta=bs.eigenvalues, means=means,
                             order0=order0, order_s=ranks)

    def macro_nodal(self, load: LoadSpec) -> np.ndarray:
        return load.macro_fn()(self.macro_mesh.nodes.T)


@dataclass
class LimitState:
    regime: RegimeConfig
    a: np.ndarray | None = None          # (n_nodes, 2) in-plane macro field
    b: np.ndarray | None = None          # (n_nodes,) out-of-plane macro field
    micro: np.ndarray | None = None      # (N_modes, n_nodes) modal coefficients
    b_cell: np.ndarray | None = None     # kappa in (0,inf): cell BFS field / unit macro
    u3_cell: np.ndarray | None = None    # delta=0 rows: soft-centroid u3 / unit macro
    meta: dict = field(default_factory=dict)


def _micro_load_vector(bs: BlochSpectrum, shape: InclusionShape,
                       load: LoadSpec, amplitude=None) -> np.ndarray:
    """Nodal inclusion load (nodes, components) on the cell of bs of the
    (transverse x cell)-profiled body force (per unit macro profile)."""
    mesh = bs.mesh
    amp = np.asarray(load.amplitude if amplitude is None else amplitude, float)
    cfun = load.cell_fn(shape)
    hsize = mesh.element_size()
    soft_ids = np.flatnonzero(mesh.element_soft)
    if len(bs.carries) == 4:   # scalar BFS micro space: value + moment loads
        t0, t1 = load.transverse_moments()
        c = cfun(fa.quadrature_points(mesh, soft_ids,
                                      el.bfs_quadrature(hsize)[0]))
        fe = amp[2] * t0 * el.bfs_value_load(hsize, c) \
            - t1 * el.bfs_gradient_load(hsize, amp[:2] * c[..., None])
    else:
        x = fa.quadrature_points(mesh, soft_ids, el.q1_quadrature(hsize)[0])
        t = load.transverse_fn()(x[2]) if mesh.dim == 3 \
            else load.transverse_moments()[0]
        # (components, elements, points) -> (elements, points, components)
        values = amp[:len(bs.carries), None, None] * t * cfun(x[:2])
        fe = el.q1_vector_load(hsize, np.moveaxis(values, 0, -1))
    return fa.assemble_pointwise_load(mesh, None, fe, soft_ids).reshape(
        mesh.n_nodes, -1)


def micro_modal_loads(model: LimitModel, load: LoadSpec) -> np.ndarray:
    """Modal coefficients l_n = (load profile, phi_n) per unit macro value."""
    return model.bloch.modal_coefficients(
        _micro_load_vector(model.bloch, model.shape, load))


def load_moments(model: LimitModel, load: LoadSpec):
    """(<f-bar> components, <x3 f-bar_*> components) per unit macro value."""
    t0, t1 = load.transverse_moments()
    cy, _, _ = load.cell_means(model.cell_mesh)
    amp = np.asarray(load.amplitude, float)
    return amp * t0 * cy, amp[:2] * t1 * cy


@memoized
def cell_tensor(mat: tn.MaterialSpec, shape: InclusionShape | None,
                delta: float, n: int, n_z: int = 4
                ) -> tuple[GridMesh, EffectiveTensor]:
    """The cell mesh and effective tensor of the thickness/period ratio
    delta: prism cell problems for delta in (0, inf), in-plane ones on the
    unit cell for delta = 0 and delta = inf."""
    if 0.0 < delta < np.inf:
        mesh = build_cell_mesh(shape, n=n, dim=3, n_z=n_z)
        return mesh, effective_delta(mat, mesh, delta)
    mesh = build_cell_mesh(shape, n=n)
    if delta == 0.0:
        return mesh, effective_delta0(mat, mesh)
    return mesh, effective_deltainf(mat, mesh)


def build_macro_operator(regime: RegimeConfig, tensor: EffectiveTensor,
                         macro_mesh: GridMesh, rho_bar: float) -> MacroOperator:
    """The row's macro pencil: membrane, or bending over [a | b]."""
    build = (build_membrane_operator if regime.row.macro == "membrane"
             else build_bending_operator)
    return build(tensor, macro_mesh, rho_bar)


def build_limit_model(regime: RegimeConfig, mat: tn.MaterialSpec,
                      shape: InclusionShape, macro_mesh: GridMesh,
                      cell_n: int = 16, n_z: int = 4, n_modes: int = 30,
                      ws: EigWorkspace | None = None) -> LimitModel:
    """Assemble the regime-appropriate tensors, modal basis, and macro
    operators on the given meshes."""
    delta = regime.delta
    cell_mesh, tensor = cell_tensor(mat, shape, delta, cell_n, n_z)
    bs = bloch_spectrum(mat, shape, cell_n, regime.bloch_operator, n_modes,
                        delta=delta, n_z=n_z, ws=ws)

    frac = cell_mesh.soft_area_fraction()
    rho_bar = mat.rho1 * (1.0 - frac) + mat.rho0 * frac
    op = build_macro_operator(regime, tensor, macro_mesh, rho_bar)
    # the static micro field's modes (bs itself when the tags agree)
    tag = regime.row.static_bloch
    static = None if tag is None else bloch_spectrum(
        mat, shape, cell_n, tag, n_modes, delta=delta, n_z=n_z, ws=ws)
    return LimitModel(regime=regime, mat=mat, shape=shape,
                      cell_mesh=cell_mesh, macro_mesh=macro_mesh,
                      tensor=tensor, bloch=bs, rho_bar=rho_bar, op=op,
                      static_bloch=static, ws=ws)


# ---------------------------------------------------------------------------
# the row's grand modal system and its resolvent

@dataclass
class ModalSystem:
    """M u'' + K u = F time(t) for the grand (M, K) of a ModalCoupling; the
    load has a macro dual part F0 and micro primal parts f_micro (N, nm).
    mac is the load's nodal macro profile and ell its micro modal loads
    per unit macro value (empty without micro modes)."""
    coupling: ModalCoupling
    F0: np.ndarray
    f_micro: np.ndarray
    time_fn: object
    mac: np.ndarray
    ell: np.ndarray

    @property
    def n(self) -> int:
        return self.coupling.n


def modal_system(model: LimitModel, load: LoadSpec) -> ModalSystem:
    """The row's grand system (model.coupling) under the load: the membrane
    rows load the in-plane field, the algebraic out-of-plane one and their
    nodal micro modes; the plate row its bending pencil alone under the
    block load [F_a | F_b], F_b with the x3 moments of the in-plane load;
    the high-contrast bending rows load b and the micro modes in its
    bending space through the transverse average only (the x3 moments act
    through the micro equations)."""
    cp = model.coupling
    fbar, xmom = load_moments(model, load)
    mac = model.macro_nodal(load)
    ell = micro_modal_loads(model, load) if cp.N else np.zeros(0)
    if model.op.kind == "memb":
        F0 = cp.couple(np.outer(fbar[:cp.means.shape[1]], mac))
        f_micro = np.outer(ell, mac)
    elif cp.N:
        Rmac = model.bend_rect @ mac
        F0 = np.concatenate([np.zeros(model.na), fbar[2] * Rmac])
        f_micro = np.outer(ell, cp.to_micro(Rmac))
    else:
        # [F_a | F_b]: the in-plane traces times the scalar mass, and the
        # transverse load less the gradient loads of the x3 moments
        mesh = model.macro_mesh
        Ms = scalar_mass(mesh)
        Ra = [(T.T @ Ms).tocsr() for T in nodal_traces(model.op.memb_dof)]
        Gx, Gy = (fa.assemble_rect_block(mesh, model.op.pair.dof, None, G)
                  for G in el.mixed_gradload_bfs_q1(mesh.element_size()))
        F0 = np.concatenate([
            Ra[0] @ (fbar[0] * mac) + Ra[1] @ (fbar[1] * mac),
            model.bend_rect @ (fbar[2] * mac) - Gx @ (xmom[0] * mac)
            - Gy @ (xmom[1] * mac)])
        f_micro = np.zeros((0, cp.nm))
    return ModalSystem(cp, F0, f_micro, load.time_fn(), mac, ell)


def static_micro(model: LimitModel, load: LoadSpec) -> np.ndarray | None:
    """The row's static in-plane micro field per unit time profile, modal
    coefficients (N, n_nodes) driven by the in-plane load components; None
    for a row without one. A row without micro modes in its grand system
    (the plate row) reports it as its micro field, the others as
    "micro_inplane"."""
    bs = model.static_bloch
    if bs is None:
        return None
    amp = (load.amplitude[0], load.amplitude[1], 0.0)
    ell = bs.modal_coefficients(_micro_load_vector(bs, model.shape, load, amp))
    return np.outer(ell / bs.eigenvalues, model.macro_nodal(load))


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
    cell_soft = cfun(cent[soft].T)
    cell_stiff = cfun(cent[~soft].T)
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
                                space="periodic", restrict_to="stiff")
        Kc = (kappa ** 2 / 12.0) * pb.K + lam * pb.M
        hsize = mesh.element_size()
        stiff_ids = np.flatnonzero(~soft)
        y = fa.quadrature_points(mesh, stiff_ids, el.bfs_quadrature(hsize)[0])
        fe = el.bfs_value_load(hsize, amp3 * t0 * cfun(y))
        rhs = fa.assemble_pointwise_load(mesh, pb.dof, fe, stiff_ids)
        state.b_cell = factorize(Kc, order=pb.order).solve(rhs)
        state.u3_cell = amp3 * t0 * cell_soft / (lam * mat.rho0)
        state.meta["b_cell_dof"] = pb.dof
        state.meta["b_cell_kind"] = "periodic_bfs"
    return state


def solve_limit_resolvent(model: LimitModel, lam: float, load: LoadSpec) -> LimitState:
    """Discrete solution of the regime's coupled limit resolvent system:
    one macro-size solve of the row's modal system, the micro modes
    reported as nodal fields driven by the nodal macro fields."""
    if lam <= 0:
        raise ValueError("resolvent parameter lambda must be positive")
    system = modal_system(model, load)
    cp = system.coupling
    sh = cp.shift(lam, 1.0)
    a, b = model.nodal(sh.solve_macro(system.F0, system.f_micro))
    state = LimitState(regime=model.regime, a=a, b=b, meta={"lambda": lam})
    if cp.N:
        # the means' components are the trailing ones of (a_1, a_2, b)
        fields = np.vstack([a.T] + ([b] if b is not None else []))
        state.micro = sh.micro(np.outer(system.ell, system.mac),
                               fields[-cp.means.shape[1]:])
    static = static_micro(model, load)
    if static is not None:
        if cp.N:
            state.meta["micro_inplane"] = static
        else:
            state.micro = static
    if model.regime.kappa is not None:
        state = _delta0_third_component(model, lam, load, state)
    return state
