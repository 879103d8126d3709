"""Test oracles: the cell tensors of the three regimes from the full cell.

The library solves each parity class of load columns on the fundamental
region of the cell's mirrors (hcplate.effective); the tests check that
path against the one Gram solve per corrector space over the whole cell
(the full prism x3 in (-1/2, 1/2) for delta in (0, inf)) kept here, with
the translation (BFS: constant) kernels of the periodic spaces.
"""

from __future__ import annotations

import numpy as np

from hcplate import tensors as tn
from hcplate.effective import _BC, _D_INF, _UNIT, EffectiveTensor
from hcplate.fem import assemble as fa
from hcplate.fem import elements as el
from hcplate.fem.system import factorize


def full_prism_tensor(mat, mesh3d, delta: float,
                      tol: float = 1e-9) -> EffectiveTensor:
    """C^hom for delta in (0, inf) from all six unit prestrains (A | -x3 B)
    on the full prism: Q = E0 - F^T K^+ F."""
    pair = fa.assemble_vector_h1(
        mesh3d, mat.C1, grad=fa.ScaledGradientSpec(delta),
        space="periodic", restrict_to="stiff", ncomp=3)
    pair.kernel = fa.translations_kernel(pair.dof)
    hsize = mesh3d.element_size()
    stiff_ids = np.flatnonzero(~mesh3d.element_soft)
    per_layer = mesh3d.counts[0] ** 2
    qpts, qwts = el.q1_quadrature(hsize)
    x3 = mesh3d.nodes[mesh3d.elements[::per_layer, 0], 2][:, None] + qpts[:, 2]
    P = np.concatenate([np.broadcast_to(_UNIT, (*x3.shape, 6, 3)),
                        -x3[..., None, None] * _UNIT], axis=-1)
    fe = el.q1_prestrain_load(hsize, mat.C1, P, third=("dz", 1.0 / delta))
    layer_of = stiff_ids // per_layer
    F = fa.assemble_pointwise_load(mesh3d, pair.dof, fe[layer_of], stiff_ids)
    weight = np.bincount(layer_of, minlength=mesh3d.n_z)[:, None] * qwts
    E0 = sum((weight[..., None, None]
              * (np.swapaxes(P, -1, -2) @ mat.C1 @ P)).reshape(-1, 6, 6))
    E0 = 0.5 * (E0 + E0.T)
    Q = _gram(pair, F, E0, tol)
    return EffectiveTensor(
        regime="delta", delta=delta, memb=Q[:3, :3], bend=Q[3:, 3:],
        coupling=Q[:3, 3:], zero_corrector_bound=E0)


def _gram(pair, F, E0, tol):
    Q = E0 - F.T @ factorize(pair.K, pair.kernel, tol,
                             order=pair.order).solve(F)
    return 0.5 * (Q + Q.T)


def full_cell_delta0(mat, mesh2d, tol: float = 1e-9) -> EffectiveTensor:
    """C^{hom,r} for delta = 0 from the Q1 membrane and BFS Hessian cell
    problems on the whole torus, with the transverse-reduced tensor."""
    Cr = tn.reduced_tensor(mat.C1)
    hsize = mesh2d.element_size()
    E0 = np.count_nonzero(~mesh2d.element_soft) * hsize[0] * hsize[1] * Cr
    unit = np.eye(3)
    pm = fa.assemble_vector_h1(mesh2d, Cr, space="periodic",
                               restrict_to="stiff", ncomp=2)
    pm.kernel = fa.translations_kernel(pm.dof)
    fe = el.q1_prestrain_load(hsize, Cr, unit, ncomp=2)
    F = fa.assemble_element_load(mesh2d, pm.dof, {"stiff": fe}, "stiff")
    memb = _gram(pm, F, E0, tol)
    pb = fa.assemble_bfs_h2(mesh2d, Cr, space="periodic",
                            restrict_to="stiff")
    pb.kernel = fa.translations_kernel(pb.dof, [0])
    fe = el.bfs_prestrain_load(hsize, Cr, unit)
    F = fa.assemble_element_load(mesh2d, pb.dof, {"stiff": fe}, "stiff")
    bend = _gram(pb, F, E0, tol) / 12.0
    return EffectiveTensor(regime="delta0", memb=memb, bend=bend,
                           coupling=np.zeros((3, 3)))


def full_cell_deltainf(mat, mesh2d, tol: float = 1e-9) -> EffectiveTensor:
    """C^{hom,h} for delta = inf from the 3-vector cell problem on the whole
    torus, with g eliminated through the 3x3 Schur complement."""
    hsize = mesh2d.element_size()
    pw = fa.assemble_vector_h1(mesh2d, _D_INF @ mat.C1 @ _D_INF,
                               space="periodic", restrict_to="stiff",
                               ncomp=3)
    pw.kernel = fa.translations_kernel(pw.dof)
    fe = el.q1_prestrain_load(hsize, _D_INF @ mat.C1, _BC)
    F = fa.assemble_element_load(mesh2d, pw.dof, {"stiff": fe}, "stiff")
    E0 = np.count_nonzero(~mesh2d.element_soft) * hsize[0] * hsize[1] \
        * (_BC.T @ mat.C1 @ _BC)
    T = _gram(pw, F, E0, tol)
    S, T_gA = T[:3, :3], T[:3, 3:]
    memb = T[3:, 3:] - T_gA.T @ np.linalg.solve(S, T_gA)
    memb = 0.5 * (memb + memb.T)
    return EffectiveTensor(regime="deltainf", memb=memb, bend=memb / 12.0,
                           coupling=np.zeros((3, 3)))
