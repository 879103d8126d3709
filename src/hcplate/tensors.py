"""Elasticity tensor algebra: Voigt storage, reduced tensors, materials.

Conventions used across the package:

* 3D tensors act on symmetric 3x3 matrices and are stored as symmetric 6x6
  Voigt matrices in the order (11, 22, 33, 23, 13, 12) with engineering
  (factor-2) shear strains, so that C xi : xi = v @ C @ v for the Voigt
  vector v = (xi_11, xi_22, xi_33, 2 xi_23, 2 xi_13, 2 xi_12).
* 2D (reduced) tensors act on symmetric 2x2 matrices and are stored as 3x3
  Voigt matrices in the order (11, 22, 12), same shear convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# engineering <-> tensor (Mandel) rescaling of the shear rows/columns
_MANDEL_W3 = np.diag([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])
_MANDEL_W2 = np.diag([1.0, 1.0, np.sqrt(2.0)])


def mandel(C: np.ndarray) -> np.ndarray:
    """Rescale a Voigt matrix so its eigenvalues are those of the tensor
    viewed as an operator on symmetric matrices (Frobenius inner product)."""
    W = _MANDEL_W3 if C.shape[0] == 6 else _MANDEL_W2
    return W @ C @ W


def isotropic(lam: float, mu: float) -> np.ndarray:
    """6x6 Voigt matrix of the isotropic tensor lam*tr(e)I + 2 mu e."""
    C = np.zeros((6, 6))
    C[:3, :3] = lam
    C[:3, :3] += 2.0 * mu * np.eye(3)
    C[3:, 3:] = mu * np.eye(3)
    return C


# index split of the 6-Voigt components into in-plane (11, 22, 12) and
# transverse (33, 23, 13) groups; transverse ones are spanned by iota1
_INPLANE = np.array([0, 1, 5])
_TRANSVERSE = np.array([2, 3, 4])


def reduced_tensor(C: np.ndarray) -> np.ndarray:
    """Pointwise transverse-strain elimination: the 3x3 Voigt matrix of
    A |-> min_d C[iota(A) + iota1(d)] : [iota(A) + iota1(d)], where
    iota(A) pads A to 3x3 with zeros and iota1(d) is the symmetric matrix
    with d on the transverse entries (13, 23, 33).

    Computed as the Schur complement of the transverse block. Raises if the
    transverse block is singular (would violate coercivity).
    """
    C = np.asarray(C, dtype=float)
    if C.shape != (6, 6):
        raise ValueError("reduced_tensor expects a 6x6 Voigt matrix")
    Cpp = C[np.ix_(_INPLANE, _INPLANE)]
    Cpq = C[np.ix_(_INPLANE, _TRANSVERSE)]
    Cqq = C[np.ix_(_TRANSVERSE, _TRANSVERSE)]
    if np.linalg.cond(Cqq) > 1e12:
        raise ValueError("singular transverse block: tensor is not coercive")
    Cr = Cpp - Cpq @ np.linalg.solve(Cqq, Cpq.T)
    return 0.5 * (Cr + Cr.T)


@dataclass
class CoercivityReport:
    passed: bool
    min_eig: float
    max_eig: float
    lower_margin: float   # min_eig - nu
    upper_margin: float   # 1/nu - max_eig (diagnostic only)
    upper_ok: bool


def check_coercivity(C: np.ndarray, nu: float) -> CoercivityReport:
    """Compare tensor eigenvalues against the coercivity constant nu.

    The verdict keys on the lower (coercivity) bound nu <= min_eig with
    min_eig > 0; the comparison of max_eig against 1/nu is reported as a
    diagnostic margin.
    """
    eigs = np.linalg.eigvalsh(mandel(np.asarray(C, dtype=float)))
    lo, hi = float(eigs[0]), float(eigs[-1])
    upper_margin = (1.0 / nu - hi) if nu > 0 else -np.inf
    passed = lo > 0.0 and lo >= nu
    return CoercivityReport(passed=passed, min_eig=lo, max_eig=hi,
                            lower_margin=lo - nu, upper_margin=upper_margin,
                            upper_ok=upper_margin >= 0.0)


@dataclass
class MaterialSpec:
    """Physical input: stiff/soft elasticity tensors, densities, coercivity.

    C0 is the (unscaled) soft-inclusion tensor; the high-contrast factor
    mu_h^2 is applied by the fine-scale oracle, never stored here.
    """
    C0: np.ndarray
    C1: np.ndarray
    rho0: float = 1.0
    rho1: float = 1.0
    nu: float = 0.1

    def __post_init__(self):
        self.C0 = np.asarray(self.C0, dtype=float)
        self.C1 = np.asarray(self.C1, dtype=float)
        for name, C in (("C0", self.C0), ("C1", self.C1)):
            if C.shape != (6, 6):
                raise ValueError(f"{name} must be a 6x6 Voigt matrix")
            if not np.allclose(C, C.T, atol=1e-12 * max(1.0, abs(C).max())):
                raise ValueError(f"{name} must be symmetric")
        if self.rho0 <= 0 or self.rho1 <= 0:
            raise ValueError("densities must be positive")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        for name, C in (("C0", self.C0), ("C1", self.C1)):
            if not check_coercivity(C, self.nu).passed:
                raise ValueError(f"{name} fails the coercivity check at nu={self.nu}")


def voigt_signs(axis: int) -> np.ndarray:
    """Sign of each Voigt entry (11, 22, 33, 23, 13, 12) under the mirror of
    `axis` (y1 = 0, y2 = 1, x3 = 2): (-1)^(number of its indices = axis)."""
    pairs = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
    return np.array([(-1) ** pair.count(axis) for pair in pairs])


MIRROR_TOL = 1e-12   # relative size of a coupling that counts as zero


def mirror_symmetric(C: np.ndarray, axis: int, tol: float = MIRROR_TOL) -> bool:
    """True when the Voigt tensor C is invariant under the mirror of `axis`:
    no coupling between the entries it flips (y1: 13, 12; y2: 23, 12; x3:
    23, 13) and the others, up to tol relative to its largest entry."""
    s = voigt_signs(axis)
    return abs(C[np.ix_(s > 0, s < 0)]).max() <= tol * max(1.0, abs(C).max())


def _voigt_from_upper(entries) -> np.ndarray:
    vals = list(entries)
    if len(vals) != 21:
        raise ValueError("expected 21 upper-triangle Voigt entries")
    C = np.zeros((6, 6))
    C[np.triu_indices(6)] = vals
    return C + np.triu(C, 1).T


def _tensor_from_json(node) -> np.ndarray:
    if isinstance(node, dict) and "isotropic" in node:
        iso = node["isotropic"]
        return isotropic(float(iso["lambda"]), float(iso["mu"]))
    return _voigt_from_upper(node)


def material_from_dict(d: dict) -> MaterialSpec:
    return MaterialSpec(
        C0=_tensor_from_json(d["C0"]),
        C1=_tensor_from_json(d["C1"]),
        rho0=float(d.get("rho0", 1.0)),
        rho1=float(d.get("rho1", 1.0)),
        nu=float(d.get("nu", 0.1)),
    )


def load_material(path) -> MaterialSpec:
    """Read a material JSON file ({"C0": ..., "C1": ..., "rho0": ..., ...})."""
    with open(path) as fh:
        return material_from_dict(json.load(fh))
