"""Macroscopic operators on the mid-plane: the membrane operator, the
bending operator as one sparse block pencil over [a | b] (an in-plane part
a with stiffness only, coupled to the bending part b through the tensor's
cross block), their eigenpairs, and the nodal traces and masses that pair
reduced fields with nodal data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .effective import EffectiveTensor
from .fem import assemble as fa
from .fem import elements as el
from .fem.system import EigWorkspace, SparseOperatorPair, eigs_smallest
from .geometry import GridMesh


@dataclass
class MacroOperator:
    """A macro stiffness/mass pencil on reduced DOFs. The bending pencil
    acts on [a | b]: K = [[K_aa, K_ab], [K_ab^T, K_bb]], M = diag(0, M_b),
    so the in-plane part a is quasi-static; pair.dof maps b (the membrane
    pencil: a) and memb_dof maps a."""
    kind: str                       # "memb" | "bend"
    pair: SparseOperatorPair
    rho_bar: float                  # <rho> mass weight
    memb_dof: object = None         # bending: DOF map of the part a

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def n_static(self) -> int:
        """Leading stiffness-only DOFs: the bending pencil's part a."""
        return 0 if self.memb_dof is None else self.memb_dof.n_free


def build_membrane_operator(tensor: EffectiveTensor, mesh: GridMesh,
                            rho_bar: float) -> MacroOperator:
    pair = fa.assemble_vector_h1(mesh, tensor.memb, space="dirichlet", ncomp=2)
    return MacroOperator(kind="memb", pair=pair, rho_bar=rho_bar)


def build_bending_operator(tensor: EffectiveTensor, mesh: GridMesh,
                           rho_bar: float) -> MacroOperator:
    """Clamped-plate bending pencil over [a | b]: the membrane block K_aa,
    the cross block K_ab of the tensor's membrane-bending coupling and the
    bending block K_bb, with the mass on b alone."""
    memb = fa.assemble_vector_h1(mesh, tensor.memb, space="dirichlet",
                                 ncomp=2)
    bend = fa.assemble_bfs_h2(mesh, tensor.bend, space="dirichlet")
    K_ab = fa.assemble_rect_block(
        mesh, memb.dof, bend.dof,
        el.mixed_memb_bend(mesh.element_size(), tensor.coupling))
    # keys of [a | b]: a node's a- and b-DOFs are factored together
    pair = SparseOperatorPair(
        K=sp.bmat([[memb.K, K_ab], [K_ab.T, bend.K]], format="csr"),
        M=sp.block_diag([sp.csr_matrix(memb.K.shape), bend.M], format="csr"),
        dof=bend.dof, order=np.concatenate([memb.dof.key, bend.dof.key]))
    return MacroOperator(kind="bend", pair=pair, rho_bar=rho_bar,
                         memb_dof=memb.dof)


def macro_eigs(op: MacroOperator, N: int, ws: EigWorkspace | None = None):
    """Eigenpairs of the stiffness against the <rho>-weighted mass; the
    bending pencil's vectors are [a | b], with a the quasistatic response
    to b."""
    if N < 1:
        raise ValueError("need at least one eigenvalue")
    weighted = SparseOperatorPair(K=op.pair.K, M=op.rho_bar * op.pair.M,
                                  dof=op.pair.dof, order=op.pair.order)
    return eigs_smallest(weighted, N, ws)


def scalar_mass(mesh: GridMesh) -> sp.csr_matrix:
    """Full-node scalar mass matrix (no constraints): pairs nodal data."""
    return fa.assemble_rect_block(
        mesh, None, None, el.q1_mass(mesh.element_size(), 1.0, ncomp=1))


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
