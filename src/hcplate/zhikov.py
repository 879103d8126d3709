"""Frequency-dispersion (Zhikov) function and limit-spectrum assembly.

beta(lambda) = lambda <rho> I + sum_n lambda^2/(eta_n - lambda) m_n m_n^T
over the coupled inclusion eigenvalues; limit-spectrum points solve
beta(lambda) = mu against the macro eigenvalue targets.  For a scalar beta
this rational eigenvalue problem linearizes, per target, to an arrowhead
pencil whose eigenvalues are the roots, one per pole interval (Su and Bai,
SIAM J. Matrix Anal. Appl. 32, 2011).  Band gaps open immediately right of
each coupled pole, where beta is negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .bloch import MEAN_ZERO_FACTOR, BlochSpectrum, cluster_starts

CLUSTER_TOL = 1e-8
POLE_GUARD = 1e-8   # beta is refused this close to a pole


class PoleProximityError(ValueError):
    pass


class NonScalarBetaError(ValueError):
    """beta is not a multiple of I: some pole cluster's Gram matrix
    sum m m^T is anisotropic, so beta(lambda) = mu is a matrix problem."""


@dataclass
class ZhikovFunction:
    variant: str                 # "full" | "memb" | "bend"
    poles: np.ndarray            # coupled eigenvalues, ascending
    means: np.ndarray            # (n_poles, k) weighted-mean vectors
    rho_bar: float               # <rho> = rho1 |Y1| + rho0 |Y0|
    rho1_mass: float             # <rho1> (monotonicity floor of beta')
    uncoupled: np.ndarray        # alpha-type eigenvalues of the same operator
    truncation: int = 0

    @property
    def k(self) -> int:
        return self.means.shape[1]

    @property
    def lambda_max(self) -> float:
        """Modal truncation invalidates beta beyond the computed poles."""
        return 1.5 * self.poles[-1] if len(self.poles) else np.inf

    def eval(self, lam) -> np.ndarray:
        """Truncated modal evaluation of the dispersion function (the matrix
        lambda <rho> I + sum_n lambda^2/(eta_n - lambda) m_n m_n^T) at a
        scalar or an array of lambda, shape (..., k, k).

        The weights lambda^2/(eta_n - lambda) of the whole array meet the
        upper triangles of the per-pole products m_n m_n^T in one
        contraction; the lower triangle is a copy, so every matrix is
        exactly symmetric. Any lambda < 0 raises ValueError, any lambda
        within POLE_GUARD of a pole PoleProximityError."""
        lam = np.asarray(lam, dtype=float)
        if (lam < 0).any():
            raise ValueError("beta is evaluated at lambda >= 0")
        near = np.abs(lam[..., None] - self.poles) < POLE_GUARD
        if near.any():
            raise PoleProximityError(f"lambda={lam[near.any(-1)].flat[0]} "
                                     f"within {POLE_GUARD} of a pole")
        iu = np.triu_indices(self.k)
        w = lam[..., None] ** 2 / (self.poles - lam[..., None])
        out = lam[..., None, None] * self.rho_bar * np.eye(self.k)
        out[..., iu[0], iu[1]] += w @ (self.means[:, iu[0]]
                                       * self.means[:, iu[1]])
        out[..., iu[1], iu[0]] = out[..., iu[0], iu[1]]
        return out



def zhikov_variant(bs: BlochSpectrum, mat, components=None) -> ZhikovFunction:
    """Zhikov data for a sub-variant tracking only some mean components
    (e.g. the transverse component for the bending rows).  Poles are the
    eigenvalues whose multiplicity cluster carries a nonzero mean in the
    tracked components; everything else joins the uncoupled set."""
    from .bloch import _classify
    comps = list(range(bs.weighted_means.shape[1])) if components is None \
        else list(components)
    means = bs.weighted_means[:, comps]
    labels = _classify(bs.eigenvalues, means, bs.rho0_area_mass)
    keep = np.array(labels) == "coupled"
    frac = bs.mesh.soft_area_fraction()
    rho_bar = mat.rho1 * (1.0 - frac) + mat.rho0 * frac
    variant = {1: "bend", 2: "memb", 3: "full"}[len(comps)]
    return ZhikovFunction(variant=variant, poles=bs.eigenvalues[keep],
                          means=means[keep], rho_bar=rho_bar,
                          rho1_mass=mat.rho1 * (1.0 - frac),
                          uncoupled=bs.eigenvalues[~keep],
                          truncation=bs.n_modes)


def zhikov_from_bloch(bs: BlochSpectrum, mat) -> ZhikovFunction:
    """Assemble the Zhikov data of one inclusion operator variant (all
    tracked components)."""
    return zhikov_variant(bs, mat)


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


def _merged_poles(zf: ZhikovFunction):
    """One pole per multiplicity cluster of zf.poles: (poles, residues,
    (first, last) pole of each cluster, number of clusters merged, worst
    Gram anisotropy in units of <rho0>).

    Each cluster's Gram matrix G = sum m m^T must be a multiple of I; its
    residue is tr G / k.  Merging keeps the pencil free of the spurious
    lambda = eta that every extra copy of an equal pole would add."""
    starts = cluster_starts(zf.poles)
    ends = np.append(starts, len(zf.poles))[1:]
    gram = np.add.reduceat(np.einsum("ni,nj->nij", zf.means, zf.means),
                           starts, axis=0)
    residues = np.trace(gram, axis1=1, axis2=2) / zf.k
    aniso = np.abs(gram - residues[:, None, None] * np.eye(zf.k)).max(
        axis=(1, 2), initial=0.0) / (zf.rho_bar - zf.rho1_mass)
    if (aniso > MEAN_ZERO_FACTOR).any():
        c = int(np.argmax(aniso))
        raise NonScalarBetaError(
            f"beta is not scalar: pole cluster {c} (eta = "
            f"{zf.poles[starts[c]]:.6g}, {ends[c] - starts[c]} modes) has Gram "
            f"anisotropy {aniso[c]:.3g} <rho0>, above {MEAN_ZERO_FACTOR:g} "
            "<rho0>; the limit spectrum needs a material symmetry that makes "
            "beta scalar")
    poles = np.add.reduceat(zf.poles, starts) / (ends - starts)
    bounds = (zf.poles[starts], zf.poles[ends - 1])
    return (poles, residues, bounds, int((ends - starts > 1).sum()),
            float(aniso.max(initial=0.0)))


def limit_spectrum(zf: ZhikovFunction, mu_targets, lambda_max: float | None = None,
                   m0: float | None = None, meta: dict | None = None) -> LimitSpectrum:
    """Limit spectrum of a scalar beta: the roots of beta(lambda) = mu per
    (pole interval, macro target), plus the uncoupled set, plus [m0, inf)
    for very thin cells.

    mu_targets are in beta units: <rho> times the weighted macro eigenvalues.
    For one target mu and the merged poles eta_i with residues r_i, the
    roots are the eigenvalues of the arrowhead pencil K = diag(mu, eta),
    M = [[<rho>, s^T], [s, I]] with s_i = sqrt(r_i); M is SPD because
    <rho> - sum r_i >= <rho1> > 0, and by interlacing its i-th eigenvalue
    is the root in pole interval i.  Raises NonScalarBetaError when beta is
    not a multiple of I.
    """
    mu_targets = np.sort(np.asarray(mu_targets, dtype=float))
    if mu_targets.size == 0:
        raise ValueError("macro spectrum is empty")
    poles, residues, (first, last), merged, aniso = _merged_poles(zf)
    lam_cap = min(lambda_max or zf.lambda_max, zf.lambda_max)
    if not np.isfinite(lam_cap):
        # no coupled poles: beta is linear, every root sits at mu/<rho>
        lam_cap = 2.0 * mu_targets.max() / zf.rho_bar
    n = len(poles) + 1
    K = np.diag(np.concatenate([[0.0], poles]))
    M = np.eye(n)
    M[0, 0] = zf.rho_bar
    M[0, 1:] = M[1:, 0] = np.sqrt(residues)
    lefts = np.concatenate([[0.0], last])
    rights = np.minimum(np.append(first, lam_cap), lam_cap)
    points = []
    for mu in mu_targets:
        K[0, 0] = mu
        roots = sla.eigh(K, M, eigvals_only=True)
        for i in np.flatnonzero(roots <= lam_cap):
            points.append({"lambda": float(roots[i]), "kind": "beta_root",
                           "matched_mu": float(mu),
                           "pole_interval": (float(lefts[i]),
                                             float(rights[i]))})
    for alpha in zf.uncoupled:
        if alpha <= lam_cap:
            points.append({"lambda": float(alpha), "kind": "uncoupled",
                           "matched_mu": None, "pole_interval": None})
    points = _dedup(points)
    intervals = [(float(m0), np.inf)] if m0 is not None else []
    gaps = _find_gaps(points, list(zf.poles), lam_cap, m0)
    info = {"lambda_max": lam_cap, "truncation": zf.truncation,
            "variant": zf.variant, "path": "arrowhead", "pencil_size": n,
            "merged_clusters": merged,
            "gram_anisotropy": aniso}
    info.update(meta or {})
    return LimitSpectrum(points=points, intervals=intervals, gaps=gaps, meta=info)
