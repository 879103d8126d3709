"""Test oracle: an inclusion operator's whole pencil
(`hcplate.bloch.build_inclusion_operator`), which the library no longer
assembles, and the class modes of a `BlochSpectrum` carried onto it.

The library solves and holds each mode on its mirror class's DOFs of the
fundamental region; the tests unfold them onto the cell here, against the
whole pencil's DOF map, and compare with dense `eigh` of that pencil.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from hcplate.bloch import build_inclusion_operator
from hcplate.fem.system import cluster_starts


def whole_pencil(bs, mat, delta=None):
    """The whole pencil of bs's operator on bs's cell (not for the parity
    operators, whose whole pencil lives on the half prism) and its dense
    eigenpairs."""
    cell = bs.mesh
    _, pair, _, scale = build_inclusion_operator(
        mat, cell.shape, cell.counts[0], bs.operator_tag, delta=delta,
        n_z=cell.n_z, cell=cell)
    assert scale == 1.0
    w, v = sla.eigh(pair.K.toarray(), pair.M.toarray())
    return pair, w, v


def whole_modes(bs, dof) -> np.ndarray:
    """bs's modes as columns on the DOFs of a whole-pencil map `dof` of its
    cell: each class's vectors unfolded onto the cell and weighted."""
    V = np.zeros((dof.n_free, bs.n_modes))
    free = dof.index >= 0
    weight = bs.mirrors.weight(bs.mesh)
    for k, (v, d) in enumerate(zip(bs.vectors, bs.dofs)):
        nodal = bs.mirrors.unfold(k, v, d, bs.carries, bs.mesh)
        V[np.ix_(dof.index[free], bs.classes == k)] = weight * nodal[free]
    return V


def whole_load(nodal: np.ndarray, dof) -> np.ndarray:
    """A nodal load (nodes, components) on the DOFs of `dof`."""
    free = dof.index >= 0
    out = np.zeros(dof.n_free)
    np.add.at(out, dof.index[free], nodal[free])
    return out


def cluster_rotation(w, V, M, U) -> np.ndarray:
    """The block-diagonal Q with U = V Q inside each multiplicity cluster
    of the eigenvalues w (both M-orthonormal): Q_C = V_C^T M U_C."""
    n = len(w)
    Q = np.zeros((n, n))
    ends = np.append(cluster_starts(w), n)
    for a, b in zip(ends[:-1], ends[1:]):
        Q[a:b, a:b] = V[:, a:b].T @ (M @ U[:, a:b])
    return Q
