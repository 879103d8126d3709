"""Homogenized plate tensors from corrector cell problems.

Every tensor is the quadratic form (A, B) -> min over correctors of a stiff-
part energy with prestrain iota(A - x3 B). The three regimes differ in the
corrector class:

* delta in (0, inf): periodic vector correctors on the prism I x Y with the
  transversally scaled gradient (grad_y | delta^-1 d3). When C1 is
  invariant under the mirror x3 -> -x3 and the prism has an even number of
  layers, the membrane correctors are even under the mirror and the
  curvature ones odd: each class is solved on the half prism x3 in
  (0, 1/2) with its odd components pinned on x3 = 0, and the membrane-
  bending coupling block is exactly 0. Otherwise the full prism is solved;
* delta = 0: in-plane gradient correctors for the membrane block and
  periodic Hessian (C^1) correctors for the bending block, built on the
  transverse-reduced tensor C1^r;
* delta = inf: in-plane correctors of a 3-vector plus a constant transverse
  strain vector g, eliminated through a 3x3 Schur complement.

The minimum is a Gram form: with F the loads of the unit prestrains (one
column each, engineering Voigt) and E0 their zero-corrector energies, the
tensor is Q = E0 - F^T K^+ F, from one multi-column solve per corrector
class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import tensors as tn
from .fem import assemble as fa
from .fem import elements as el
from .fem.system import factorize
from .geometry import CellMesh, build_cell_mesh, half_prism

# unit in-plane engineering strains (11, 22, 12) as 6-Voigt columns
_IN_PLANE = [0, 1, 5]
_UNIT = np.eye(6)[:, _IN_PLANE]

# delta = inf: the C_inf strain of (w, g, A) is D sym iota(grad w) + _BC c
# with c = (g, A), g the constant transverse strain vector and A the unit
# in-plane prestrains; D doubles the transverse shear rows, whose entries
# are g_a + d_a w3
_D_INF = np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 1.0])
_BC = np.zeros((6, 6))
_BC[2, 2] = 1.0
_BC[3, 1] = 2.0
_BC[4, 0] = 2.0
_BC[:, 3:] = _UNIT


@dataclass
class EffectiveTensor:
    regime: str                  # "delta" | "delta0" | "deltainf"
    memb: np.ndarray             # 3x3 2D Voigt
    bend: np.ndarray
    coupling: np.ndarray
    delta: float | None = None
    zero_corrector_bound: np.ndarray | None = None   # 6x6 pair form
    provenance: dict = field(default_factory=dict)

    def pair_form(self) -> np.ndarray:
        """6x6 Voigt matrix of the quadratic form on (A, B)."""
        return np.block([[self.memb, self.coupling],
                         [self.coupling.T, self.bend]])

    def eigenvalues(self) -> np.ndarray:
        """Tensor eigenvalues of the pair form (Frobenius metric)."""
        S = np.diag([1, 1, np.sqrt(2), 1, 1, np.sqrt(2.0)])
        return np.linalg.eigvalsh(S @ self.pair_form() @ S)

    def to_dict(self) -> dict:
        out = {
            "regime": self.regime,
            "memb": self.memb.tolist(),
            "bend": self.bend.tolist(),
            "coupling": self.coupling.tolist(),
            "provenance": self.provenance,
        }
        if self.delta is not None:
            out["delta"] = self.delta
        return out


def _corrector_min(pair, F: np.ndarray, E0: np.ndarray,
                   tol: float) -> np.ndarray:
    """E0 - F^T K^+ F: the unit-load energies minimized over correctors."""
    Q = E0 - F.T @ factorize(pair.K, pair.kernel, tol,
                             order=pair.order).solve(F)
    return 0.5 * (Q + Q.T)


def _prism_min(mat: tn.MaterialSpec, mesh: CellMesh, delta: float, cols,
               tol: float, pin=None):
    """The zero-corrector energies E0 of the prestrain columns `cols` of
    (A | -x3 B) on a prism mesh, their minimum E0 - F^T K^+ F over the
    correctors, and the corrector DOF count. On a half prism `pin` is the
    parity constraint; the translations it leaves free span the kernel."""
    pair = fa.assemble_vector_h1(
        mesh, mat.C1, grad=fa.ScaledGradientSpec(delta), space="periodic",
        restrict_to="stiff", ncomp=3,
        extra_constraints=() if pin is None else (pin,))
    pair.kernel = fa.translations_kernel(
        pair.dof, [c for c in range(3) if pin is None or c not in pin[1]])
    hsize = mesh.element_size()
    stiff_ids = np.flatnonzero(~mesh.element_soft)
    per_layer = mesh.n ** 2
    qpts, qwts = el.q1_quadrature(hsize)
    # per-layer prestrain at the Gauss points (it only depends on x3)
    x3 = mesh.nodes[mesh.elements[::per_layer, 0], 2][:, None] + qpts[:, 2]
    P = np.concatenate([np.broadcast_to(_UNIT, (*x3.shape, 6, 3)),
                        -x3[..., None, None] * _UNIT], axis=-1)[..., cols]
    fe = el.q1_prestrain_load(hsize, mat.C1, P, third=("dz", 1.0 / delta))
    layer_of = stiff_ids // per_layer
    F = fa.assemble_pointwise_load(mesh, pair.dof, fe[layer_of], stiff_ids)
    weight = np.bincount(layer_of, minlength=mesh.n_z)[:, None] * qwts
    E0 = np.tensordot(weight, np.swapaxes(P, -1, -2) @ mat.C1 @ P, 2)
    E0 = 0.5 * (E0 + E0.T)
    return E0, _corrector_min(pair, F, E0, tol), pair.n


def effective_delta(mat: tn.MaterialSpec, mesh3d: CellMesh, delta: float,
                    tol: float = 1e-9) -> EffectiveTensor:
    """C^hom for delta in (0, inf): prism cell problems over the stiff part,
    on the two half prisms of the x3 mirror when it splits them, else on
    the full prism; `provenance["mirror"]` says which, and why."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError("delta must be a positive finite number")
    if mesh3d.dim != 3:
        raise ValueError("delta-regime cell problems need a prism mesh")
    if not tn.planar_symmetric(mat.C1):
        full = "C1 is not planar-symmetric"
    elif mesh3d.n_z % 2:
        full = "odd n_z"
    elif tuple(mesh3d.z_span) != (-0.5, 0.5):
        full = "prism not on x3 in (-1/2, 1/2)"
    else:
        full = None
    prov = {"n": mesh3d.n, "n_z": mesh3d.n_z, "tol": tol,
            "mirror": "full" if full else "split"}
    if full:
        E0, Q, dofs = _prism_min(mat, mesh3d, delta, slice(None), tol)
        prov.update(mirror_reason=full, dofs=[dofs])
    else:
        # membrane columns on the "memb" half, curvature columns on the
        # "bend" half, one factorization alive at a time; each half holds
        # half of its class's energies, and the classes do not couple
        E0, Q = np.zeros((6, 6)), np.zeros((6, 6))
        build = partial(build_cell_mesh, mesh3d.shape, mesh3d.n, 3)
        prov["dofs"] = []
        for parity, cols in (("memb", slice(0, 3)), ("bend", slice(3, 6))):
            half, pin = half_prism(build, mesh3d.n_z, parity)
            e0, q, dofs = _prism_min(mat, half, delta, cols, tol, pin)
            E0[cols, cols], Q[cols, cols] = 2.0 * e0, 2.0 * q
            prov["dofs"].append(dofs)
    return EffectiveTensor(
        regime="delta", delta=delta, memb=Q[:3, :3], bend=Q[3:, 3:],
        coupling=Q[:3, 3:], zero_corrector_bound=E0, provenance=prov)


def effective_delta0(mat: tn.MaterialSpec, mesh2d: CellMesh,
                     tol: float = 1e-9) -> EffectiveTensor:
    """C^{hom,r} for delta = 0: 2D membrane and Hessian cell problems with
    the transverse-reduced stiff tensor; the bending block carries 1/12."""
    if mesh2d.dim != 2:
        raise ValueError("delta=0 cell problems are two-dimensional")
    Cr = tn.reduced_tensor(mat.C1)
    stiff_frac = 1.0 - mesh2d.soft_area_fraction()
    hsize = mesh2d.element_size()
    E0 = np.count_nonzero(~mesh2d.element_soft) * hsize[0] * hsize[1] * Cr
    unit = np.eye(3)

    pm = fa.assemble_vector_h1(mesh2d, Cr, space="periodic-zero-mean",
                               restrict_to="stiff", ncomp=2)
    fe = el.q1_prestrain_load(hsize, Cr, unit, ncomp=2)
    F = fa.assemble_element_load(mesh2d, pm.dof, {"stiff": fe}, "stiff")
    memb = _corrector_min(pm, F, E0, tol)

    pb = fa.assemble_bfs_h2(mesh2d, Cr, space="periodic-zero-mean",
                            restrict_to="stiff")
    fe = el.bfs_prestrain_load(hsize, Cr, unit)
    F = fa.assemble_element_load(mesh2d, pb.dof, {"stiff": fe}, "stiff")
    bend = _corrector_min(pb, F, E0, tol) / 12.0
    return EffectiveTensor(
        regime="delta0", memb=memb, bend=bend, coupling=np.zeros((3, 3)),
        zero_corrector_bound=_flat_zero_corrector_bound(mat.C1, stiff_frac),
        provenance={"n": mesh2d.n, "tol": tol})


def _flat_zero_corrector_bound(C1: np.ndarray, stiff_frac: float) -> np.ndarray:
    """Zero-corrector pair form  |Y1| * int_I C1 iota(A - x3 B):iota(A - x3 B)
    = |Y1| (C1 iota(A):iota(A) + C1 iota(B):iota(B)/12) for x3-flat cells."""
    C = C1[np.ix_(_IN_PLANE, _IN_PLANE)]
    zero = np.zeros((3, 3))
    return stiff_frac * np.block([[C, zero], [zero, C / 12.0]])


def effective_deltainf(mat: tn.MaterialSpec, mesh2d: CellMesh,
                       tol: float = 1e-9) -> EffectiveTensor:
    """C^{hom,h} for delta = inf; bending equals the membrane block over 12
    (the x3-odd corrector split is exact in this regime)."""
    if mesh2d.dim != 2:
        raise ValueError("delta=inf cell problems are two-dimensional")
    hsize = mesh2d.element_size()
    pw = fa.assemble_vector_h1(mesh2d, _D_INF @ mat.C1 @ _D_INF,
                               space="periodic-zero-mean",
                               restrict_to="stiff", ncomp=3)
    fe = el.q1_prestrain_load(hsize, _D_INF @ mat.C1, _BC)
    F = fa.assemble_element_load(mesh2d, pw.dof, {"stiff": fe}, "stiff")
    E0 = np.count_nonzero(~mesh2d.element_soft) * hsize[0] * hsize[1] \
        * (_BC.T @ mat.C1 @ _BC)
    # minimize over w (pinned solve), then over g (3x3 Schur complement
    # S = K_gg - K_wg^T K_ww^+ K_wg)
    T = _corrector_min(pw, F, E0, tol)
    S, T_gA = T[:3, :3], T[:3, 3:]
    memb = T[3:, 3:] - T_gA.T @ np.linalg.solve(S, T_gA)
    memb = 0.5 * (memb + memb.T)
    stiff_frac = 1.0 - mesh2d.soft_area_fraction()
    return EffectiveTensor(
        regime="deltainf", memb=memb, bend=memb / 12.0,
        coupling=np.zeros((3, 3)),
        zero_corrector_bound=_flat_zero_corrector_bound(mat.C1, stiff_frac),
        provenance={"n": mesh2d.n, "tol": tol})
