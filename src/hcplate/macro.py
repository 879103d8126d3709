"""Macroscopic operators on the mid-plane: the membrane operator, the
bending operator with its nonlocal membrane coupling (realized as an exact
discrete Schur complement), their eigenpairs, and the nodal traces and
masses that pair reduced fields with nodal data."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .effective import EffectiveTensor
from .fem import assemble as fa
from .fem import elements as el
from .fem.system import (EigWorkspace, SparseOperatorPair, eigs_smallest,
                         factorize)
from .geometry import MacroMesh

COUPLING_NEGLIGIBLE = 1e-12


@dataclass
class MacroOperator:
    kind: str                       # "memb" | "bend" | "bend_coupled"
    pair: SparseOperatorPair        # stiffness is the Schur form for coupled
    rho_bar: float                  # <rho> mass weight
    mesh: MacroMesh
    tensor: EffectiveTensor | None = None
    # coupled-bending internals: membrane factorization and the cross block
    memb_pair: SparseOperatorPair | None = field(default=None, repr=False)
    K_cross: sp.csr_matrix | None = field(default=None, repr=False)
    _memb_lu: object = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.pair.n

    def membrane_lu(self):
        if self._memb_lu is None:
            self._memb_lu = factorize(self.memb_pair.K)
        return self._memb_lu


def build_membrane_operator(tensor: EffectiveTensor, mesh: MacroMesh,
                            rho_bar: float) -> MacroOperator:
    pair = fa.assemble_vector_h1(mesh, tensor.memb, space="dirichlet", ncomp=2)
    return MacroOperator(kind="memb", pair=pair, rho_bar=rho_bar,
                         mesh=mesh, tensor=tensor)


def _assemble_cross_block(mesh: MacroMesh, Cmb, memb_dof, bend_dof):
    Ke = el.mixed_memb_bend(mesh.element_size(), Cmb)
    rows = memb_dof.element_dofs(mesh.elements)
    cols = bend_dof.element_dofs(mesh.elements)
    return fa.assemble_rect_block(rows, cols, Ke,
                                  (memb_dof.n_free, bend_dof.n_free))


def build_bending_operator(tensor: EffectiveTensor, mesh: MacroMesh,
                           rho_bar: float, coupled: bool | None = None) -> MacroOperator:
    """Clamped-plate bending operator; when the effective tensor has a
    membrane-bending cross block the quasistatic in-plane response is folded
    in as the Schur complement S = K_bb - K_ab^T K_aa^-1 K_ab."""
    bend_pair = fa.assemble_bfs_h2(mesh, tensor.bend, space="clamped")
    has_coupling = abs(tensor.coupling).max() > COUPLING_NEGLIGIBLE * \
        max(abs(tensor.memb).max(), 1e-300)
    if coupled is None:
        coupled = has_coupling
    if not coupled:
        return MacroOperator(kind="bend", pair=bend_pair, rho_bar=rho_bar,
                             mesh=mesh, tensor=tensor)
    memb_pair = fa.assemble_vector_h1(mesh, tensor.memb, space="dirichlet",
                                      ncomp=2)
    K_ab = _assemble_cross_block(mesh, tensor.coupling, memb_pair.dof,
                                 bend_pair.dof)
    lu = factorize(memb_pair.K)
    # one membrane solve per bending basis column (desk-scale dense sweep)
    X = lu.solve(K_ab.toarray())
    S = bend_pair.K.toarray() - K_ab.T @ X
    S = 0.5 * (S + S.T)
    meta = dict(bend_pair.meta)
    meta["raw_K"] = bend_pair.K
    pair = SparseOperatorPair(K=sp.csr_matrix(S), M=bend_pair.M,
                              dof=bend_pair.dof, meta=meta)
    op = MacroOperator(kind="bend_coupled", pair=pair, rho_bar=rho_bar,
                       mesh=mesh, tensor=tensor, memb_pair=memb_pair,
                       K_cross=K_ab)
    op._memb_lu = lu
    return op


def macro_eigs(op: MacroOperator, N: int, ws: EigWorkspace | None = None):
    """Eigenpairs of the stiffness against the <rho>-weighted mass."""
    if N < 1:
        raise ValueError("need at least one eigenvalue")
    weighted = SparseOperatorPair(K=op.pair.K, M=op.rho_bar * op.pair.M,
                                  dof=op.pair.dof)
    return eigs_smallest(weighted, N, ws)


def scalar_mass(mesh: MacroMesh) -> sp.csr_matrix:
    """Full-node scalar mass matrix (no constraints): pairs nodal data."""
    Me = el.q1_mass(mesh.element_size(), 1.0, ncomp=1)
    n = mesh.n_nodes
    return fa.assemble_rect_block(mesh.elements, mesh.elements, Me, (n, n))


def nodal_traces(dof) -> list[sp.csr_matrix]:
    """Per component c the 0/1 matrix T_c (nodes x reduced DOFs) with T_c u
    the nodal values of component c of u (zero on constrained nodes)."""
    T = []
    for c in range(dof.ncomp):
        nodes = np.flatnonzero(dof.index[:, c] >= 0)
        T.append(sp.csr_matrix((np.ones(len(nodes)),
                                (nodes, dof.index[nodes, c])),
                               shape=(dof.n_nodes, dof.n_free)))
    return T


def membrane_solve_for_bending(op: MacroOperator, b: np.ndarray) -> np.ndarray:
    """Quasistatic in-plane field driven by a bending field through the
    tensor cross block: K_aa a = -K_ab b."""
    if op.K_cross is None:
        memb_n = op.memb_pair.n if op.memb_pair is not None else 0
        return np.zeros(memb_n)
    return op.membrane_lu().solve(-(op.K_cross @ b))
