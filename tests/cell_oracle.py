"""Test oracle: the delta-regime cell tensor from the full-thickness prism.

The library solves the membrane and curvature load cases on two half
prisms when the x3 mirror splits them (hcplate.effective.effective_delta);
the tests check that split, and its full-prism fallback, against the one
Gram solve over x3 in (-1/2, 1/2) kept here.
"""

from __future__ import annotations

import numpy as np

from hcplate.effective import _UNIT, EffectiveTensor
from hcplate.fem import assemble as fa
from hcplate.fem import elements as el
from hcplate.fem.system import factorize


def full_prism_tensor(mat, mesh3d, delta: float,
                      tol: float = 1e-9) -> EffectiveTensor:
    """C^hom for delta in (0, inf) from all six unit prestrains (A | -x3 B)
    on the full prism: Q = E0 - F^T K^+ F."""
    pair = fa.assemble_vector_h1(
        mesh3d, mat.C1, grad=fa.ScaledGradientSpec(delta),
        space="periodic-zero-mean", restrict_to="stiff", ncomp=3)
    hsize = mesh3d.element_size()
    stiff_ids = np.flatnonzero(~mesh3d.element_soft)
    per_layer = mesh3d.n ** 2
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
    Q = E0 - F.T @ factorize(pair.K, pair.kernel, tol,
                             order=pair.order).solve(F)
    Q = 0.5 * (Q + Q.T)
    return EffectiveTensor(
        regime="delta", delta=delta, memb=Q[:3, :3], bend=Q[3:, 3:],
        coupling=Q[:3, 3:], zero_corrector_bound=E0)
