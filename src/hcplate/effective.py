"""Homogenized plate tensors from corrector cell problems.

Every tensor is the quadratic form (A, B) -> min over correctors of a stiff-
part energy with prestrain iota(A - x3 B). The three regimes differ in the
corrector class:

* delta in (0, inf): periodic vector correctors on the prism I x Y with the
  transversally scaled gradient (grad_y | delta^-1 d3);
* delta = 0: in-plane gradient correctors for the membrane block and
  periodic Hessian (C^1) correctors for the bending block, built on the
  transverse-reduced tensor C1^r;
* delta = inf: in-plane correctors of a 3-vector plus a constant transverse
  strain vector g, eliminated through a 3x3 Schur complement.

The minimum is a Gram form: with F the loads of the unit prestrains (one
column each, engineering Voigt) and E0 their zero-corrector energies, the
tensor is Q = E0 - F^T K^+ F, from one multi-column solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensors as tn
from .fem import assemble as fa
from .fem import elements as el
from .fem.system import factorize
from .geometry import CellMesh

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


def effective_delta(mat: tn.MaterialSpec, mesh3d: CellMesh, delta: float,
                    tol: float = 1e-9) -> EffectiveTensor:
    """C^hom for delta in (0, inf): prism cell problems over the stiff part."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError("delta must be a positive finite number")
    if mesh3d.dim != 3:
        raise ValueError("delta-regime cell problems need a prism mesh")
    pair = fa.assemble_vector_h1(
        mesh3d, mat.C1, grad=fa.ScaledGradientSpec(delta),
        space="periodic-zero-mean", restrict_to="stiff", ncomp=3)
    hsize = mesh3d.element_size()
    stiff_ids = np.flatnonzero(~mesh3d.element_soft)
    per_layer = mesh3d.n ** 2
    qpts, qwts = el.q1_quadrature(hsize)
    # per-layer prestrain at the Gauss points (it only depends on x3):
    # columns the unit membrane strains A, then the unit curvatures B
    x3 = mesh3d.nodes[mesh3d.elements[::per_layer, 0], 2][:, None] + qpts[:, 2]
    P = np.concatenate([np.broadcast_to(_UNIT, (*x3.shape, 6, 3)),
                        -x3[..., None, None] * _UNIT], axis=-1)
    fe = el.q1_prestrain_load(hsize, mat.C1, P, third=("dz", 1.0 / delta))
    layer_of = stiff_ids // per_layer
    F = fa.assemble_pointwise_load(mesh3d, pair.dof, fe[layer_of], stiff_ids)
    weight = np.bincount(layer_of, minlength=mesh3d.n_z)[:, None] * qwts
    # summed term by term, layer by layer: the coupling block is round-off
    E0 = sum((weight[..., None, None]
              * (np.swapaxes(P, -1, -2) @ mat.C1 @ P)).reshape(-1, 6, 6))
    E0 = 0.5 * (E0 + E0.T)
    Q = _corrector_min(pair, F, E0, tol)
    return EffectiveTensor(
        regime="delta", delta=delta, memb=Q[:3, :3], bend=Q[3:, 3:],
        coupling=Q[:3, 3:], zero_corrector_bound=E0,
        provenance={"n": mesh3d.n, "n_z": mesh3d.n_z, "tol": tol})


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
