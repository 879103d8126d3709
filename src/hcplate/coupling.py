"""Structured elimination of the inclusion modes from the coupled
macro-micro limit systems.

Every coupled limit system has a macro block (M0, K0) and N micro modal
coefficient fields c_n, each with mass Ms. The grand mass and stiffness are

    M = [[M0,    C_1, ..., C_N],          K = diag(K0, eta_1 Ms, ..., eta_N Ms),
         [C_n^T, Ms delta_nm  ]],

with the mass coupling C_n = sum_c m_nc R_c. The modes enter only through
the eigenvalues eta_n and the weighted means m_n, so a shift alpha M + beta K
eliminates them exactly: what remains is a macro system with the
frequency-dependent effective mass of the Zhikov function. Each R_c is the
micro mass seen through a sparse trace T_c = Ms^-1 R_c^T (the identity, or
the nodal expansion of one macro component), so that Schur complement is
sparse. The k rects R_c sit side by side in one (n0, k nm) matrix and the
k traces are stacked in one (k nm, n0) matrix, so coupling and tracing are
one sparse product each. Micro data are kept in primal form (coefficient
fields, the grand rows times Ms^-1): stepping and back-substitution are
array operations on (N, nm) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem.system import SpdFactor, factorize


@dataclass
class ModalCoupling:
    M0: sp.csr_matrix            # macro mass
    K0: sp.csr_matrix            # macro stiffness
    Ms: sp.csr_matrix            # mass of one micro coefficient field
    T: sp.csr_matrix             # [T_1; ...; T_k] (k nm, n0): sparse traces
    eta: np.ndarray              # (N,) inclusion eigenvalues
    means: np.ndarray            # (N, k) weighted means m_n
    order0: np.ndarray | None = None   # factorization keys: macro DOFs
    order_s: np.ndarray | None = None  # and the DOFs of one micro field
    R: sp.csr_matrix = field(init=False, repr=False)  # [R_1 ... R_k]
    _ms_lu: SpdFactor | None = field(default=None, repr=False)

    def __post_init__(self):
        # R_c = T_c^T Ms, side by side: (n0, k nm)
        k = self.T.shape[0] // self.nm
        self.R = (self.T.T @ sp.kron(sp.eye(k), self.Ms)).tocsr()

    @property
    def n0(self) -> int:
        return self.M0.shape[0]

    @property
    def nm(self) -> int:
        return self.Ms.shape[0]

    @property
    def N(self) -> int:
        return len(self.eta)

    @property
    def n(self) -> int:
        """Size of the grand state [x0 | c_1 ... c_N]."""
        return self.n0 + self.N * self.nm

    def split(self, u: np.ndarray):
        return u[:self.n0], u[self.n0:].reshape(self.N, self.nm)

    def to_micro(self, dual: np.ndarray) -> np.ndarray:
        """Ms^-1 applied to micro-space dual data (last axis)."""
        if self._ms_lu is None:
            self._ms_lu = factorize(self.Ms, order=self.order_s)
        X = np.asarray(dual)
        flat = X.reshape(-1, X.shape[-1]).T
        return self._ms_lu.solve(flat).T.reshape(X.shape)

    def trace(self, x0: np.ndarray) -> np.ndarray:
        """The macro field seen by the micro space, (k, nm)."""
        return (self.T @ x0).reshape(-1, self.nm)

    def couple(self, Z: np.ndarray) -> np.ndarray:
        """sum_c R_c Z_c for micro fields Z (k, nm): macro dual."""
        return self.R @ Z.ravel()

    def mass(self, x0, c):
        """Grand mass times (x0, c): (macro dual, micro primal)."""
        return (self.M0 @ x0
                + self.couple(np.einsum("nk,nm->km", self.means, c)),
                np.einsum("nk,km->nm", self.means, self.trace(x0)) + c)

    def stiff(self, x0, c):
        """Grand stiffness times (x0, c): (macro dual, micro primal)."""
        return self.K0 @ x0, self.eta[:, None] * c

    def energies(self, x0, c, v0, w, r0, rho) -> np.ndarray:
        """Kinetic, elastic and total energy of the state (x0, c) with
        velocity (v0, w), given (r0, rho) = mass(v0, w): one K0 and one Ms
        product."""
        Z = self.Ms @ np.concatenate([w, self.eta[:, None] * c]).T
        kin = 0.5 * (v0 @ r0 + np.vdot(rho.T, Z[:, :self.N]))
        ela = 0.5 * (x0 @ (self.K0 @ x0) + np.vdot(c.T, Z[:, self.N:]))
        return np.array([kin, ela, kin + ela])

    def gram(self, alpha: float, beta: float) -> np.ndarray:
        """sum_n m_n m_n^T / (alpha + beta eta_n), shape (k, k)."""
        g = 1.0 / (alpha + beta * self.eta)
        return (self.means * g[:, None]).T @ self.means

    def shift(self, alpha: float, beta: float) -> "ShiftedCoupling":
        """Factor alpha M + beta K with the micro modes eliminated: the Schur
        complement alpha M0 + beta K0 - alpha^2 sum_cd G_cd R_c T_d (that
        is R (G kron I) T), with G = gram(alpha, beta), is SPD and of macro
        size."""
        if not (alpha > 0 and beta >= 0):
            raise ValueError("the shift needs alpha > 0 and beta >= 0")
        GT = sp.kron(self.gram(alpha, beta), sp.eye(self.nm)) @ self.T
        S = alpha * self.M0 + beta * self.K0 - alpha ** 2 * (self.R @ GT)
        return ShiftedCoupling(self, alpha, beta,
                               factorize(S, order=self.order0))


@dataclass
class ShiftedCoupling:
    """alpha M + beta K of a ModalCoupling, factored at macro size."""
    coupling: ModalCoupling
    alpha: float
    beta: float
    factor: SpdFactor

    @property
    def gamma(self) -> np.ndarray:
        return 1.0 / (self.alpha + self.beta * self.coupling.eta)

    def solve_macro(self, r0: np.ndarray, rho: np.ndarray) -> np.ndarray:
        """Macro part of the solution for macro dual data r0 and micro
        primal data rho (N, nm)."""
        cp = self.coupling
        z = np.einsum("nk,nm->km", self.gamma[:, None] * cp.means, rho)
        return self.factor.solve(r0 - self.alpha * cp.couple(z))

    def micro(self, rho: np.ndarray, traced: np.ndarray) -> np.ndarray:
        """Micro back-substitution c_n = (rho_n - alpha m_n . traced) /
        (alpha + beta eta_n), traced (k, nm) the macro field seen by the
        micro space."""
        cp = self.coupling
        return self.gamma[:, None] * (rho - self.alpha * (cp.means @ traced))

    def solve(self, r0: np.ndarray, rho: np.ndarray):
        """(x0, c) solving (alpha M + beta K)(x0, c) = (r0, Ms rho)."""
        x0 = self.solve_macro(r0, rho)
        return x0, self.micro(rho, self.coupling.trace(x0))
