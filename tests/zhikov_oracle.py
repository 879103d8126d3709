"""Test oracle: the dispersion function beta(lambda) without modal
truncation, and the scalar value and derivatives of a truncated one.

The library evaluates beta from the inclusion modes
(hcplate.zhikov.ZhikovFunction.eval) and finds the limit-spectrum points
as pencil eigenvalues; the tests check both against the direct shifted
solve and the closed-form derivative kept here.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from hcplate.bloch import build_inclusion_operator, mean_load_vectors
from hcplate.fem.system import SolverError


def beta_oracle(mat, shape, n: int, operator_tag: str, lam: float,
                delta: float | None = None, n_z: int = 4) -> np.ndarray:
    """Truncation-free evaluation: solve (A - lambda) b_i = e_i on the
    discrete inclusion operator and return lambda <rho> I + lambda^2
    <rho0 (transverse-averaged b_i)_j>. The shifted operator is indefinite,
    so this is a plain LU, not the library's SPD factorization."""
    mesh, pair, tracked, _ = build_inclusion_operator(
        mat, shape, n, operator_tag, delta=delta, n_z=n_z)
    frac = mesh.soft_area_fraction()
    rho_bar = mat.rho1 * (1.0 - frac) + mat.rho0 * frac
    L = mean_load_vectors(pair, tracked)
    A = (pair.K - lam * pair.M).tocsc()
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SolverError(f"lambda={lam} is on the discrete spectrum: {exc}") from exc
    B = lu.solve(L)
    resid = abs(A @ B - L).max()
    if resid > 1e-8 * max(abs(L).max(), 1e-300):
        raise SolverError(f"shifted solve at lambda={lam} ill-conditioned "
                          f"(residual {resid:.2e}): near the discrete spectrum")
    k = len(tracked)
    out = lam * rho_bar * np.eye(k) + lam ** 2 * (L.T @ B)
    return 0.5 * (out + out.T)


def beta_loop(zf, lam: float) -> np.ndarray:
    """The truncated beta at one lambda, summed pole by pole."""
    out = lam * zf.rho_bar * np.eye(zf.k)
    for eta, m in zip(zf.poles, zf.means):
        out += lam ** 2 / (eta - lam) * np.outer(m, m)
    return out


def beta_scalar(zf, lam: float) -> float:
    """beta(lambda) of a 1-component dispersion function."""
    if zf.k != 1:
        raise ValueError("scalar evaluation needs a 1-component variant")
    return float(zf.eval(lam)[0, 0])


def beta_prime(zf, lam: float) -> np.ndarray:
    """Analytic derivative of the truncated beta."""
    out = zf.rho_bar * np.eye(zf.k)
    for eta, m in zip(zf.poles, zf.means):
        out += lam * (2 * eta - lam) / (eta - lam) ** 2 * np.outer(m, m)
    return out


def beta_prime_fd(zf, lam: float, h: float = 1e-6) -> np.ndarray:
    """Central-difference derivative of the truncated beta."""
    step = h * (1.0 + lam)
    return (zf.eval(lam + step) - zf.eval(lam - step)) / (2 * step)
