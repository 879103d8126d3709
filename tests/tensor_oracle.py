"""Test oracle: closed forms of the tensor algebra in hcplate.tensors and
a symmetry check of assembled operators.

The library stores tensors as Voigt matrices and never evaluates a strain
pointwise; the tests compare its reduced tensors, element matrices and
effective tensors with the index-level forms kept here.
"""

from __future__ import annotations

import numpy as np

from hcplate.fem.system import SolverError
from hcplate.tensors import reduced_tensor

VOIGT3 = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


def voigt_strain(xi: np.ndarray) -> np.ndarray:
    """Engineering Voigt vector of a symmetric 3x3 matrix."""
    return np.array([xi[0, 0], xi[1, 1], xi[2, 2],
                     2.0 * xi[1, 2], 2.0 * xi[0, 2], 2.0 * xi[0, 1]])


def voigt_strain_2d(a: np.ndarray) -> np.ndarray:
    """Engineering Voigt vector of a symmetric 2x2 matrix."""
    return np.array([a[0, 0], a[1, 1], 2.0 * a[0, 1]])


def quad_form(C: np.ndarray, xi: np.ndarray) -> float:
    """C xi : xi for a 6x6 Voigt tensor and a symmetric 3x3 matrix."""
    v = voigt_strain(xi)
    return float(v @ C @ v)


def quad_form_2d(C: np.ndarray, a: np.ndarray) -> float:
    v = voigt_strain_2d(a)
    return float(v @ C @ v)


def isotropic_2d(lam: float, mu: float) -> np.ndarray:
    """Plane-stress-type reduction of the isotropic tensor, in closed form
    (equals reduced_tensor(isotropic(lam, mu)))."""
    lam_r = 2.0 * lam * mu / (lam + 2.0 * mu)
    C = np.zeros((3, 3))
    C[:2, :2] = lam_r
    C[:2, :2] += 2.0 * mu * np.eye(2)
    C[2, 2] = mu
    return C


def iota(M: np.ndarray) -> np.ndarray:
    """Embed a 2x2 or 3x2 matrix into R^{3x3} by zero-padding."""
    M = np.asarray(M, dtype=float)
    out = np.zeros((3, 3))
    if M.shape == (2, 2):
        out[:2, :2] = M
    elif M.shape == (3, 2):
        out[:, :2] = M
    else:
        raise ValueError(f"iota expects a 2x2 or 3x2 matrix, got {M.shape}")
    return out


def iota1(a) -> np.ndarray:
    """Symmetric 3x3 matrix with a1, a2 on the transverse row/column and a3
    in the (3,3) slot; zero in-plane block."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError("iota1 expects a 3-vector")
    out = np.zeros((3, 3))
    out[0, 2] = out[2, 0] = a[0]
    out[1, 2] = out[2, 1] = a[1]
    out[2, 2] = a[2]
    return out


def c0_red(C0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Membrane/bending split of the transverse-reduced inclusion tensor:
    (C0^r, C0^r / 12). The 1/12 is the second x3-moment of the through-
    thickness profile."""
    memb = reduced_tensor(C0)
    return memb, memb / 12.0


def check_symmetry(pair, tol=1e-12) -> bool:
    """Raise SolverError unless K and M of an operator pair are Hermitian
    to tol relative to their largest entry."""
    for A in (pair.K, pair.M):
        d = abs(A - A.getH()).max()
        if d > tol * max(1.0, abs(A).max()):
            raise SolverError(f"assembled matrix asymmetric by {d:.2e}")
    return True
