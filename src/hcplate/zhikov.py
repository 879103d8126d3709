"""Frequency-dispersion (Zhikov) function and limit-spectrum assembly.

beta(lambda) = lambda <rho> I + sum_n lambda^2/(eta_n - lambda) m_n m_n^T
over the coupled inclusion eigenvalues; limit-spectrum points solve
beta(lambda) = mu against the macro eigenvalue targets, one root per pole
interval and target (beta is strictly increasing between poles).  Band gaps
open immediately right of each coupled pole, where beta is negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .bloch import BlochSpectrum, build_inclusion_operator, mean_load_vectors
from .fem.system import SolverError
from .macro import component_masses, nodal_traces, scalar_mass

ROOT_TOL = 1e-10       # |dlambda| <= ROOT_TOL * (1 + lambda)
CLUSTER_TOL = 1e-8


class PoleProximityError(ValueError):
    pass


@dataclass
class ZhikovFunction:
    variant: str                 # "full" | "memb" | "bend"
    poles: np.ndarray            # coupled eigenvalues, ascending
    means: np.ndarray            # (n_poles, k) weighted-mean vectors
    rho_bar: float               # <rho> = rho1 |Y1| + rho0 |Y0|
    rho1_mass: float             # <rho1> (monotonicity floor of beta')
    uncoupled: np.ndarray        # alpha-type eigenvalues of the same operator
    truncation: int = 0
    pole_guard: float = 1e-8
    source_tag: str = ""

    @property
    def k(self) -> int:
        return self.means.shape[1]

    @property
    def lambda_max(self) -> float:
        """Modal truncation invalidates beta beyond the computed poles."""
        return 1.5 * self.poles[-1] if len(self.poles) else np.inf

    def eval(self, lam: float) -> np.ndarray:
        """Truncated modal evaluation of the dispersion function (the matrix
        lambda <rho> I + sum_n lambda^2/(eta_n - lambda) m_n m_n^T)."""
        if lam < 0:
            raise ValueError("beta is evaluated at lambda >= 0")
        if len(self.poles) and abs(self.poles - lam).min() < self.pole_guard:
            raise PoleProximityError(f"lambda={lam} within {self.pole_guard} of a pole")
        out = lam * self.rho_bar * np.eye(self.k)
        for eta, m in zip(self.poles, self.means):
            out += lam ** 2 / (eta - lam) * np.outer(m, m)
        return out

    def eval_scalar(self, lam: float) -> float:
        if self.k != 1:
            raise ValueError("scalar evaluation needs a 1-component variant")
        return float(self.eval(lam)[0, 0])

    def prime_fd(self, lam: float, h: float = 1e-6) -> np.ndarray:
        step = h * (1.0 + lam)
        return (self.eval(lam + step) - self.eval(lam - step)) / (2 * step)

    def prime(self, lam: float) -> np.ndarray:
        """Analytic derivative (used to scale root residuals near poles)."""
        out = self.rho_bar * np.eye(self.k)
        for eta, m in zip(self.poles, self.means):
            out += lam * (2 * eta - lam) / (eta - lam) ** 2 * np.outer(m, m)
        return out


def zhikov_variant(bs: BlochSpectrum, mat, components=None,
                   pole_guard: float = 1e-8) -> ZhikovFunction:
    """Zhikov data for a sub-variant tracking only some mean components
    (e.g. the transverse component for the bending rows).  Poles are the
    eigenvalues whose multiplicity cluster carries a nonzero mean in the
    tracked components; everything else joins the uncoupled set."""
    from .bloch import _classify
    comps = list(range(bs.weighted_means.shape[1])) if components is None \
        else list(components)
    means = bs.weighted_means[:, comps]
    labels = _classify(bs.eigenvalues, means, bs.rho0_area_mass)
    keep = [i for i, lab in enumerate(labels) if lab == "coupled"]
    drop = [i for i, lab in enumerate(labels) if lab == "uncoupled"]
    frac = bs.mesh.soft_area_fraction()
    rho_bar = mat.rho1 * (1.0 - frac) + mat.rho0 * frac
    variant = {1: "bend", 2: "memb", 3: "full"}[len(comps)]
    return ZhikovFunction(variant=variant, poles=bs.eigenvalues[keep],
                          means=means[keep], rho_bar=rho_bar,
                          rho1_mass=mat.rho1 * (1.0 - frac),
                          uncoupled=bs.eigenvalues[drop],
                          truncation=bs.n_modes, pole_guard=pole_guard,
                          source_tag=bs.operator_tag)


def zhikov_from_bloch(bs: BlochSpectrum, mat, pole_guard: float = 1e-8) -> ZhikovFunction:
    """Assemble the Zhikov data of one inclusion operator variant (all
    tracked components)."""
    return zhikov_variant(bs, mat, components=None, pole_guard=pole_guard)


def beta_oracle(mat, shape, n: int, operator_tag: str, lam: float,
                delta: float | None = None, n_z: int = 4) -> np.ndarray:
    """Truncation-free evaluation: solve (A - lambda) b_i = e_i on the
    discrete inclusion operator and return lambda <rho> I + lambda^2
    <rho0 (transverse-averaged b_i)_j>."""
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


@dataclass
class LimitSpectrum:
    points: list                 # dicts: lambda, kind, matched_mu, pole_interval
    intervals: list              # [(m0, inf)] when present
    gaps: list                   # (a, b) open intervals free of spectrum
    meta: dict = field(default_factory=dict)

    def point_values(self) -> np.ndarray:
        return np.array(sorted(p["lambda"] for p in self.points))

    def contains(self, lam: float, tol: float = 1e-9) -> bool:
        pts = self.point_values()
        if len(pts) and abs(pts - lam).min() <= tol * (1.0 + abs(lam)):
            return True
        return any(a <= lam <= b for a, b in self.intervals)

    def to_dict(self) -> dict:
        return {
            "points": [
                {k: (v if not isinstance(v, tuple) else list(v))
                 for k, v in p.items()} for p in self.points],
            "intervals": [[a, "inf" if np.isinf(b) else b]
                          for a, b in self.intervals],
            "gaps": [[a, b] for a, b in self.gaps],
            "meta": self.meta,
        }


def _bisect_increasing(f, lo: float, hi: float):
    flo, fhi = f(lo), f(hi)
    if flo > 0 or fhi < 0:
        return None
    while hi - lo > ROOT_TOL * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _interval_root(f_scalar, a: float, b: float, guard: float):
    """Root of the increasing f in the open pole interval (a, b); widens the
    bracket geometrically toward the poles where f blows up."""
    span = b - a
    lo = a + max(guard * 10, 1e-12 * span)
    hi = b - max(guard * 10, 1e-12 * span)
    if hi <= lo:
        return None
    for _ in range(60):
        if f_scalar(lo) <= 0 or lo <= a + guard * 2:
            break
        lo = a + (lo - a) * 0.25
    for _ in range(60):
        if f_scalar(hi) >= 0 or hi >= b - guard * 2:
            break
        hi = b - (b - hi) * 0.25
    return _bisect_increasing(f_scalar, lo, hi)


def _dedup(points):
    out = []
    for p in sorted(points, key=lambda q: q["lambda"]):
        if out and abs(p["lambda"] - out[-1]["lambda"]) <= \
                CLUSTER_TOL * (1.0 + abs(p["lambda"])):
            continue
        out.append(p)
    return out


def _find_gaps(points, pole_list, lam_cap, m0=None):
    """Band gaps: maximal point-free open intervals whose left endpoint is 0
    or a coupled pole; the essential interval [m0, inf) closes any gap."""
    pts = np.array(sorted(p["lambda"] for p in points))
    starts = [0.0]
    for p in sorted(pole_list):
        if p < lam_cap and (not starts or p - starts[-1] > CLUSTER_TOL * (1.0 + p)):
            starts.append(float(p))
    gaps = []
    for a in starts:
        above = pts[pts > a + CLUSTER_TOL * (1.0 + a)]
        cap = min(lam_cap, m0) if m0 is not None else lam_cap
        if len(above) and above[0] <= cap:
            b = above[0]
        elif m0 is not None and a < m0 <= lam_cap:
            b = m0
        else:
            continue  # unresolved beyond this pole: not reported as a gap
        if b - a > CLUSTER_TOL * (1.0 + a):
            gaps.append((a, b))
    return gaps


def limit_spectrum(zf: ZhikovFunction, mu_targets, lambda_max: float | None = None,
                   m0: float | None = None, meta: dict | None = None) -> LimitSpectrum:
    """Scalar-path limit spectrum: beta-roots per (pole interval, macro
    target) plus the uncoupled set, plus [m0, inf) for very thin cells.

    mu_targets are in beta units: <rho> times the weighted macro eigenvalues.
    Requires a variant whose beta is scalar (material symmetry); use
    limit_spectrum_matrix otherwise.
    """
    if zf.k != 1:
        raise ValueError("scalar path needs a scalar Zhikov variant; "
                         "symmetric materials give beta = beta_11 I")
    mu_targets = np.sort(np.asarray(mu_targets, dtype=float))
    if mu_targets.size == 0:
        raise ValueError("macro spectrum is empty")
    lam_cap = min(lambda_max or zf.lambda_max, zf.lambda_max)
    if not np.isfinite(lam_cap):
        # no coupled poles: beta is linear, every root sits at mu/<rho>
        lam_cap = 2.0 * mu_targets.max() / zf.rho_bar
    bounds = [0.0] + [p for p in zf.poles if p < lam_cap] + [lam_cap]
    points = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        for mu in mu_targets:
            root = _interval_root(lambda lam: zf.eval_scalar(lam) - mu,
                                  a, b, zf.pole_guard)
            if root is not None:
                points.append({"lambda": float(root), "kind": "beta_root",
                               "matched_mu": float(mu),
                               "pole_interval": (float(a), float(b))})
    for alpha in zf.uncoupled:
        if alpha <= lam_cap:
            points.append({"lambda": float(alpha), "kind": "uncoupled",
                           "matched_mu": None, "pole_interval": None})
    points = _dedup(points)
    intervals = [(float(m0), np.inf)] if m0 is not None else []
    gaps = _find_gaps(points, list(zf.poles), lam_cap, m0)
    info = {"lambda_max": lam_cap, "truncation": zf.truncation,
            "variant": zf.variant, "path": "scalar"}
    info.update(meta or {})
    return LimitSpectrum(points=points, intervals=intervals, gaps=gaps, meta=info)


def limit_spectrum_matrix(zf: ZhikovFunction, macro_pair, macro_mesh,
                          mu_count: int, lambda_max: float | None = None,
                          grid_per_interval: int = 24,
                          m0: float | None = None,
                          meta: dict | None = None) -> LimitSpectrum:
    """Matrix-path limit spectrum: tracks the eigenvalue curves mu_j^lambda
    of the pencil (M_beta(lambda), K) on a lambda grid and bisects the
    crossings mu_j = 1 (each curve is increasing between poles)."""
    if zf.k != 2:
        raise ValueError("matrix path implemented for the 2x2 membrane variant")
    K = macro_pair.K.toarray()
    comp_mass = component_masses(nodal_traces(macro_pair.dof),
                                 scalar_mass(macro_mesh))

    def mu_curves(lam):
        B = zf.eval(lam)
        Mb = (B[0, 0] * comp_mass[(0, 0)] + B[1, 1] * comp_mass[(1, 1)]
              + B[0, 1] * (comp_mass[(0, 1)] + comp_mass[(0, 1)].T))
        vals = sla.eigh(Mb.toarray(), K, eigvals_only=True)
        return vals[::-1][:mu_count]  # descending: mu_1 >= mu_2 >= ...

    lam_cap = min(lambda_max or zf.lambda_max, zf.lambda_max)
    bounds = [0.0] + [p for p in zf.poles if p < lam_cap] + [lam_cap]
    points = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo = a + max(zf.pole_guard * 10, 1e-9 * (b - a))
        hi = b - max(zf.pole_guard * 10, 1e-9 * (b - a))
        if hi <= lo:
            continue
        grid = np.linspace(lo, hi, grid_per_interval)
        curves = np.array([mu_curves(l) for l in grid])
        for j in range(mu_count):
            f = lambda lam, j=j: mu_curves(lam)[j] - 1.0
            col = curves[:, j] - 1.0
            for g in range(len(grid) - 1):
                if col[g] <= 0 < col[g + 1]:
                    root = _bisect_increasing(f, grid[g], grid[g + 1])
                    if root is not None:
                        points.append({"lambda": float(root),
                                       "kind": "beta_root",
                                       "matched_mu": int(j + 1),
                                       "pole_interval": (float(a), float(b))})
            # crossings can hide between the pole guards and the grid ends
            if col[0] > 0 and a > 0:
                root = _bisect_increasing(f, a + zf.pole_guard * 2, grid[0])
                if root is not None:
                    points.append({"lambda": float(root), "kind": "beta_root",
                                   "matched_mu": int(j + 1),
                                   "pole_interval": (float(a), float(b))})
            if col[-1] <= 0 and b < lam_cap:
                root = _bisect_increasing(f, grid[-1], b - zf.pole_guard * 2)
                if root is not None:
                    points.append({"lambda": float(root), "kind": "beta_root",
                                   "matched_mu": int(j + 1),
                                   "pole_interval": (float(a), float(b))})
    for alpha in zf.uncoupled:
        if alpha <= lam_cap:
            points.append({"lambda": float(alpha), "kind": "uncoupled",
                           "matched_mu": None, "pole_interval": None})
    points = _dedup(points)
    intervals = [(float(m0), np.inf)] if m0 is not None else []
    gaps = _find_gaps(points, list(zf.poles), lam_cap, m0)
    info = {"lambda_max": lam_cap, "truncation": zf.truncation,
            "variant": zf.variant, "path": "matrix"}
    info.update(meta or {})
    return LimitSpectrum(points=points, intervals=intervals, gaps=gaps, meta=info)
