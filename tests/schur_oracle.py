"""Test oracle: the coupled bending operator as the dense Schur complement
S = K_bb - K_ab^T K_aa^-1 K_ab of the plate's membrane, cross and bending
blocks, with the in-plane field eliminated by dense solves.

The library keeps the sparse block pencil over [a | b] instead
(hcplate.macro.build_bending_operator); the tests check its eigenpairs,
resolvents and trajectories against the reduced forms kept here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.linalg as sla

from hcplate.effective import EffectiveTensor
from hcplate.fem import assemble as fa
from hcplate.fem import elements as el
from hcplate.macro import build_bending_operator
from tensor_oracle import isotropic_2d


def plain_tensor(scale=1.0, coupling=0.0) -> EffectiveTensor:
    """Isotropic plate tensor with a membrane-bending cross block
    coupling * I."""
    Cr = isotropic_2d(1.0, 1.0)
    return EffectiveTensor(regime="delta", memb=scale * Cr,
                           bend=scale * Cr / 12,
                           coupling=coupling * np.eye(3), delta=1.0)


def with_tensor(model, tensor):
    """A copy of a bending-row limit model whose macro plate has another
    effective tensor."""
    return replace(model, tensor=tensor, op=build_bending_operator(
        tensor, model.macro_mesh, model.rho_bar))


class SchurOracle:
    """Dense blocks of the clamped plate on a macro mesh, assembled block by
    block, and the Schur complement S on the bending field b."""

    def __init__(self, tensor, mesh):
        memb = fa.assemble_vector_h1(mesh, tensor.memb, space="dirichlet",
                                     ncomp=2)
        bend = fa.assemble_bfs_h2(mesh, tensor.bend, space="dirichlet")
        K_ab = fa.assemble_rect_block(
            mesh, memb.dof, bend.dof,
            el.mixed_memb_bend(mesh.element_size(), tensor.coupling))
        self.K_aa, self.K_ab = memb.K.toarray(), K_ab.toarray()
        self.K_bb, self.M_b = bend.K.toarray(), bend.M.toarray()
        # X = K_aa^-1 K_ab: one membrane solve per bending basis column
        self.X = np.linalg.solve(self.K_aa, self.K_ab)
        S = self.K_bb - self.K_ab.T @ self.X
        self.S = 0.5 * (S + S.T)

    @property
    def na(self) -> int:
        return self.K_aa.shape[0]

    @property
    def nb(self) -> int:
        return self.K_bb.shape[0]

    def inplane(self, b, f_a=None) -> np.ndarray:
        """The quasistatic in-plane field K_aa a = f_a - K_ab b, for b on the
        last axis."""
        a = -(np.asarray(b) @ self.X.T)
        return a if f_a is None else a + np.linalg.solve(self.K_aa, f_a)

    def eigs(self, N: int, rho_bar: float):
        """Smallest N pairs of (S, rho_bar M_b), vectors M-orthonormal. The
        values are the Rayleigh quotients of LAPACK's vectors: its own
        values carry an absolute error near eps ||S||, the quotients' error
        is quadratic in the vector error."""
        _, V = sla.eigh(self.S, rho_bar * self.M_b,
                        subset_by_index=[0, N - 1])
        return np.einsum("ij,ij->j", V, self.S @ V), V

    def resolvent(self, mass: float, f_a, f_b):
        """(a, b) solving [[K_aa, K_ab], [K_ab^T, K_bb + mass M_b]] (a, b)
        = (f_a, f_b) through (S + mass M_b) b = f_b - K_ab^T K_aa^-1 f_a."""
        b = np.linalg.solve(self.S + mass * self.M_b, f_b - self.X.T @ f_a)
        return self.inplane(b, f_a), b
