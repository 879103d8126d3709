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
tensor is Q = E0 - F^T K^+ F.

Each cell problem is solved on the fundamental region of the mirrors it
has (y1 -> 1 - y1, y2 -> 1 - y2, and x3 -> -x3 on the prism; C1 invariant,
see `geometry.mirror_refusal` for the mesh). A load column's sign under a
mirror is its Voigt sign, times -1 under x3 for the curvature columns; the
columns of one sign vector form a parity class (`geometry.MirrorClasses`).
K (no mass) and F are assembled once on the region, and each class is
solved on the principal submatrix of K on the DOFs of its pinned DOF map
(`MirrorClasses.pinned`: the region's, without the components that its
signs pin on the mirror planes). Region energies are 2^-m of the cell's
for m mirrors, and entries between classes are exactly 0. With no mirror
the region is the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensors as tn
from .fem import assemble as fa
from .fem import elements as el
from .fem.system import factorize
from .geometry import BFS_CARRIES, Q1_CARRIES, GridMesh, MirrorClasses

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

# load columns: (label, Voigt entry of the prestrain, odd in x3)
_A = [("A11", 0, False), ("A22", 1, False), ("A12", 5, False)]
_B = [("B11", 0, True), ("B22", 1, True), ("B12", 5, True)]
_G = [("g1", 4, False), ("g2", 3, False), ("g3", 2, False)]


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


def _mirrors(C1: np.ndarray, mesh: GridMesh, axes, columns, tol: float):
    """The classes of the mirrors of `axes` that the cell problem has, each
    load column's sign under a mirror the Voigt sign of its prestrain, times
    -1 under x3 for a prestrain odd in x3; and the tensor's provenance,
    whose class records (`MirrorClasses.pinned`) `_class_min` completes."""
    mc = MirrorClasses(mesh, axes, {"C1": C1}, signs=[
        tuple(tn.voigt_signs(a)[v] * (-1 if odd and a == 2 else 1)
              for a in axes) for _, v, odd in columns])
    return mc, {"n": mesh.counts[0],
                **({"n_z": mesh.n_z} if mesh.dim == 3 else {}),
                "mirrors": mc.record["mirrors"],
                "mirrors_refused": mc.record["mirrors_refused"], "tol": tol,
                "classes": mc.record["classes"]}


def _class_min(pair, mc: MirrorClasses, F: np.ndarray, E0: np.ndarray,
               columns, carries, kernel_comps, tol: float):
    """The cell's Q = E0 - F^T K^+ F from the region's K, F and E0 of the
    load columns, one class of `mc` at a time, with the translations of the
    `kernel_comps` that it leaves free as its kernel; returns Q and the
    cell's E0, and names the columns in each class's record."""
    scale = 2.0 ** len(mc.axes)
    Q, E = np.zeros_like(E0), np.zeros_like(E0)
    for k, dof in enumerate(mc.pinned(pair.dof, carries)):
        cols = mc.members[k]
        pins = sum(mc.pins(k, carries), [])
        kernel = fa.translations_kernel(
            dof, [c for c in kernel_comps if c not in pins])
        ids = mc.ids(pair.dof, dof)
        f = F[np.ix_(ids, cols)]
        sub = pair.restrict(ids)
        x = factorize(sub.K, kernel, tol, order=sub.order).solve(f)
        del sub                 # one class's K at a time
        block = np.ix_(cols, cols)
        E[block] = scale * E0[block]
        Q[block] = E[block] - scale * (f.T @ x)
        mc.record["classes"][-1]["columns"] = [columns[j][0] for j in cols]
    return 0.5 * (Q + Q.T), E


def effective_delta(mat: tn.MaterialSpec, mesh3d: GridMesh, delta: float,
                    tol: float = 1e-9) -> EffectiveTensor:
    """C^hom for delta in (0, inf): prism cell problems over the stiff part
    with the prestrains (A | -x3 B)."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError("delta must be a positive finite number")
    if mesh3d.dim != 3:
        raise ValueError("delta-regime cell problems need a prism mesh")
    mc, prov = _mirrors(mat.C1, mesh3d, (0, 1, 2), _A + _B, tol)
    mesh = mc.region
    pair = fa.assemble_vector_h1(
        mesh, mat.C1, grad=fa.ScaledGradientSpec(delta), density=None,
        space="periodic", restrict_to="stiff", ncomp=3)
    hsize = mesh.element_size()
    stiff_ids = np.flatnonzero(~mesh.element_soft)
    per_layer = len(mesh.elements) // mesh.n_z
    qpts, qwts = el.q1_quadrature(hsize)
    # per-layer prestrain at the Gauss points (it only depends on x3)
    x3 = mesh.nodes[mesh.elements[::per_layer, 0], 2][:, None] + qpts[:, 2]
    P = np.concatenate([np.broadcast_to(_UNIT, (*x3.shape, 6, 3)),
                        -x3[..., None, None] * _UNIT], axis=-1)
    fe = el.q1_prestrain_load(hsize, mat.C1, P, third=("dz", 1.0 / delta))
    layer_of = stiff_ids // per_layer
    F = fa.assemble_pointwise_load(mesh, pair.dof, fe[layer_of], stiff_ids)
    weight = np.bincount(layer_of, minlength=mesh.n_z)[:, None] * qwts
    E0 = np.tensordot(weight, np.swapaxes(P, -1, -2) @ mat.C1 @ P, 2)
    Q, E0 = _class_min(pair, mc, F, 0.5 * (E0 + E0.T), _A + _B, Q1_CARRIES,
                       range(3), tol)
    return EffectiveTensor(
        regime="delta", delta=delta, memb=Q[:3, :3], bend=Q[3:, 3:],
        coupling=Q[:3, 3:], zero_corrector_bound=E0,
        provenance=prov)


def effective_delta0(mat: tn.MaterialSpec, mesh2d: GridMesh,
                     tol: float = 1e-9) -> EffectiveTensor:
    """C^{hom,r} for delta = 0: 2D membrane and Hessian cell problems with
    the transverse-reduced stiff tensor; the bending block carries 1/12."""
    if mesh2d.dim != 2:
        raise ValueError("delta=0 cell problems are two-dimensional")
    Cr = tn.reduced_tensor(mat.C1)
    stiff_frac = 1.0 - mesh2d.soft_area_fraction()
    # on the cell the curvature columns have the strain columns' signs
    mc, prov = _mirrors(mat.C1, mesh2d, (0, 1), _A, tol)
    mesh = mc.region
    hsize = mesh.element_size()
    E0 = np.count_nonzero(~mesh.element_soft) * hsize[0] * hsize[1] * Cr
    unit = np.eye(3)

    pm = fa.assemble_vector_h1(mesh, Cr, density=None, space="periodic",
                               restrict_to="stiff", ncomp=2)
    fe = el.q1_prestrain_load(hsize, Cr, unit, ncomp=2)
    F = fa.assemble_element_load(mesh, pm.dof, {"stiff": fe}, "stiff")
    memb, _ = _class_min(pm, mc, F, E0, _A, Q1_CARRIES[:2], range(2), tol)

    pb = fa.assemble_bfs_h2(mesh, Cr, density=None, space="periodic",
                            restrict_to="stiff")
    fe = el.bfs_prestrain_load(hsize, Cr, unit)
    F = fa.assemble_element_load(mesh, pb.dof, {"stiff": fe}, "stiff")
    bend, _ = _class_min(pb, mc, F, E0, _B, BFS_CARRIES, [0], tol)
    return EffectiveTensor(
        regime="delta0", memb=memb, bend=bend / 12, coupling=np.zeros((3, 3)),
        zero_corrector_bound=_flat_zero_corrector_bound(mat.C1, stiff_frac),
        provenance=prov)


def _flat_zero_corrector_bound(C1: np.ndarray, stiff_frac: float) -> np.ndarray:
    """Zero-corrector pair form  |Y1| * int_I C1 iota(A - x3 B):iota(A - x3 B)
    = |Y1| (C1 iota(A):iota(A) + C1 iota(B):iota(B)/12) for x3-flat cells."""
    C = C1[np.ix_(_IN_PLANE, _IN_PLANE)]
    zero = np.zeros((3, 3))
    return stiff_frac * np.block([[C, zero], [zero, C / 12.0]])


def effective_deltainf(mat: tn.MaterialSpec, mesh2d: GridMesh,
                       tol: float = 1e-9) -> EffectiveTensor:
    """C^{hom,h} for delta = inf; bending equals the membrane block over 12
    (the x3-odd corrector split is exact in this regime)."""
    if mesh2d.dim != 2:
        raise ValueError("delta=inf cell problems are two-dimensional")
    mc, prov = _mirrors(mat.C1, mesh2d, (0, 1), _G + _A, tol)
    mesh = mc.region
    hsize = mesh.element_size()
    pw = fa.assemble_vector_h1(mesh, _D_INF @ mat.C1 @ _D_INF, density=None,
                               space="periodic", restrict_to="stiff", ncomp=3)
    fe = el.q1_prestrain_load(hsize, _D_INF @ mat.C1, _BC)
    F = fa.assemble_element_load(mesh, pw.dof, {"stiff": fe}, "stiff")
    E0 = np.count_nonzero(~mesh.element_soft) * hsize[0] * hsize[1] \
        * (_BC.T @ mat.C1 @ _BC)
    # minimize over w (class solves), then over g (3x3 Schur complement
    # S = K_gg - K_wg^T K_ww^+ K_wg)
    T, _ = _class_min(pw, mc, F, E0, _G + _A, Q1_CARRIES, range(3), tol)
    S, T_gA = T[:3, :3], T[:3, 3:]
    memb = T[3:, 3:] - T_gA.T @ np.linalg.solve(S, T_gA)
    memb = 0.5 * (memb + memb.T)
    stiff_frac = 1.0 - mesh2d.soft_area_fraction()
    return EffectiveTensor(
        regime="deltainf", memb=memb, bend=memb / 12.0,
        coupling=np.zeros((3, 3)),
        zero_corrector_bound=_flat_zero_corrector_bound(mat.C1, stiff_frac),
        provenance=prov)
