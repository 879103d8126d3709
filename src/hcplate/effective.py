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
        Q = np.zeros((6, 6))
        Q[:3, :3] = self.memb
        Q[3:, 3:] = self.bend
        Q[:3, 3:] = self.coupling
        Q[3:, :3] = self.coupling.T
        return Q

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


def _corrector_min(K, kernel, F: np.ndarray, E0: np.ndarray,
                   tol: float) -> np.ndarray:
    """E0 - F^T K^+ F: the unit-load energies minimized over correctors."""
    Q = E0 - F.T @ factorize(K, kernel, tol).solve(F)
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
    layer_of = stiff_ids // (mesh3d.n ** 2)
    z0 = mesh3d.nodes[mesh3d.elements[stiff_ids][:, 0], 2]
    third = ("dz", 1.0 / delta)
    qpts, qwts = el.q1_quadrature(hsize)

    def prestrain(x3):
        # columns: unit membrane strains A, then unit curvatures B
        return np.hstack([_UNIT, -x3 * _UNIT])

    # per-layer element loads (the prestrain only depends on x3)
    F = np.zeros((pair.dof.n_free, 6))
    E0 = np.zeros((6, 6))
    for k in np.unique(layer_of):
        sel = stiff_ids[layer_of == k]
        z_org = z0[layer_of == k][0]
        fe = el.q1_prestrain_load(hsize, mat.C1,
                                  lambda pt: prestrain(z_org + pt[2]),
                                  third=third)
        eds = pair.dof.element_dofs(mesh3d.elements[sel])
        ok = eds >= 0
        np.add.at(F, eds[ok], np.broadcast_to(fe, (len(sel), *fe.shape))[ok])
        for pt, w in zip(qpts, qwts):
            P = prestrain(z_org + pt[2])
            E0 += len(sel) * w * (P.T @ mat.C1 @ P)
    E0 = 0.5 * (E0 + E0.T)
    Q = _corrector_min(pair.K, pair.kernel, F, E0, tol)
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
    fe = el.q1_prestrain_load(hsize, Cr, lambda pt: unit, ncomp=2)
    F = fa.assemble_element_load(mesh2d, pm.dof, {"stiff": fe}, "stiff")
    memb = _corrector_min(pm.K, pm.kernel, F, E0, tol)

    pb = fa.assemble_bfs_h2(mesh2d, Cr, space="periodic-zero-mean",
                            restrict_to="stiff")
    fe = el.bfs_prestrain_load(hsize, Cr, lambda pt: unit)
    F = fa.assemble_element_load(mesh2d, pb.dof, {"stiff": fe}, "stiff")
    bend = _corrector_min(pb.K, pb.kernel, F, E0, tol) / 12.0
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


def _deltainf_system(mat: tn.MaterialSpec, mesh2d: CellMesh):
    """Sparse w-block K_ww, its coupling K_wc to the constant strains
    c = (g, A) (g the transverse strain vector, A the unit in-plane
    prestrains) and the constant-strain block K_cc."""
    pair = fa.assemble_vector_h1(mesh2d, mat.C1, space="periodic-zero-mean",
                                 restrict_to="stiff", ncomp=3)
    hsize = mesh2d.element_size()
    stiff_ids = np.flatnonzero(~mesh2d.element_soft)

    # element blocks: B_w the 6-Voigt strain of (w1, w2, w3) in the C_inf
    # form (entry (2,3) is g2 + d2 w3), B_c the map of c = (g, A)
    nw = 12
    Bc = np.zeros((6, 6))
    Bc[2, 2] = 1.0
    Bc[3, 1] = 2.0
    Bc[4, 0] = 2.0
    Bc[:, 3:] = _UNIT
    Kww_e = np.zeros((nw, nw))
    Kwc_e = np.zeros((nw, 6))
    Kcc = np.zeros((6, 6))
    for pt, w in zip(*el.q1_quadrature(hsize)):
        N, dNdx, dNdy, _ = el._q1_eval(hsize, pt)
        Bw = np.zeros((6, nw))
        Bw[0, 0::3] = dNdx
        Bw[1, 1::3] = dNdy
        Bw[3, 2::3] = 2.0 * dNdy
        Bw[4, 2::3] = 2.0 * dNdx
        Bw[5, 0::3] = dNdy
        Bw[5, 1::3] = dNdx
        Kww_e += w * (Bw.T @ mat.C1 @ Bw)
        Kwc_e += w * (Bw.T @ mat.C1 @ Bc)
        Kcc += w * (Bc.T @ mat.C1 @ Bc)
    # pair.K carries sym iota(grad w) with half shear weights on the
    # transverse rows; K_ww uses the C_inf strain instead
    eds = pair.dof.element_dofs(mesh2d.elements[stiff_ids])
    Kww = fa.triplets_to_csr(fa.scatter(eds, Kww_e, pair.dof.n_free),
                             pair.dof.n_free)
    Kwc = fa.assemble_element_load(mesh2d, pair.dof, {"stiff": Kwc_e}, "stiff")
    return pair, Kww, Kwc, len(stiff_ids) * Kcc


def effective_deltainf(mat: tn.MaterialSpec, mesh2d: CellMesh,
                       tol: float = 1e-9) -> EffectiveTensor:
    """C^{hom,h} for delta = inf; bending equals the membrane block over 12
    (the x3-odd corrector split is exact in this regime)."""
    if mesh2d.dim != 2:
        raise ValueError("delta=inf cell problems are two-dimensional")
    pair, Kww, Kwc, Kcc = _deltainf_system(mat, mesh2d)
    # minimize over w (pinned solve), then over g (3x3 Schur complement
    # S = K_gg - K_wg^T K_ww^+ K_wg)
    T = _corrector_min(Kww, pair.kernel, Kwc, Kcc, tol)
    S, T_gA = T[:3, :3], T[:3, 3:]
    memb = T[3:, 3:] - T_gA.T @ np.linalg.solve(S, T_gA)
    memb = 0.5 * (memb + memb.T)
    stiff_frac = 1.0 - mesh2d.soft_area_fraction()
    return EffectiveTensor(
        regime="deltainf", memb=memb, bend=memb / 12.0,
        coupling=np.zeros((3, 3)),
        zero_corrector_bound=_flat_zero_corrector_bound(mat.C1, stiff_frac),
        provenance={"n": mesh2d.n, "tol": tol})
