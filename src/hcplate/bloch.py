"""Eigenproblems on the soft inclusion: the zero-lateral-trace operators
whose eigenvalues are the micro-resonances, their density-weighted mean
vectors, coupled/uncoupled classification, and the strip fiber curve whose
minimum is the essential-spectrum bottom for very thin cells.

Operator tags
-------------
full_delta / memb_delta / bend_delta : prism I x Y0 with the transversally
    scaled gradient (delta finite); the parity variants take the half
    x3 in (0, 1/2) of the prism (`geometry.half_prism`) with parity
    conditions at x3 = 0 and double all integrals. They exist only when C0
    and the prism are invariant under x3 -> -x3, and are refused
    (ConfigurationError) otherwise.
memb_delta0 : 2D in-plane vector operator with the reduced tensor C0^r.
bend_delta0 : scalar C^1 (BFS) operator with (1/12) C0^r Hessian energy.
memb_deltainf / full_deltainf : 2D 3-component operator with strain
    sym iota(grad_y u); the two tags differ only in which mean components
    are tracked for the coupled/uncoupled split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import tensors as tn
from .fem import assemble as fa
from .fem.system import EigWorkspace, SparseOperatorPair, eigs_smallest
from .geometry import CellMesh, InclusionShape, build_cell_mesh, half_prism
from .memo import memoized

CLUSTER_GAP = 1e-6       # relative eigenvalue gap defining a multiplicity cluster
MEAN_ZERO_FACTOR = 1e-7  # weighted mean treated as zero below this * <rho0>


@dataclass
class BlochSpectrum:
    operator_tag: str
    eigenvalues: np.ndarray          # ascending, > 0
    modes: np.ndarray                # columns, M-orthonormal
    weighted_means: np.ndarray       # (N, n_tracked)
    tracked: tuple[int, ...]         # which displacement components are tracked
    classification: list[str]        # per eigenvalue: "coupled" | "uncoupled"
    rho0_mass: float                 # <rho0>_h = 1^T M 1 per tracked component
    rho0_area_mass: float = 0.0      # rho0 * |Y0_disc| (element-area sum)
    pair: SparseOperatorPair = field(repr=False, default=None)
    mesh: CellMesh = field(repr=False, default=None)
    scale: float = 1.0               # 2 for half-interval parity meshes

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def coupled(self):
        keep = [i for i, c in enumerate(self.classification) if c == "coupled"]
        return self.eigenvalues[keep], self.weighted_means[keep]

    def gram_partial_sums(self) -> np.ndarray:
        """S_N = sum_{n<=N} m_n m_n^T, shape (N, k, k)."""
        m = self.weighted_means
        return np.cumsum(m[:, :, None] * m[:, None, :], axis=0)

    def modal_coefficients(self, load_vec: np.ndarray) -> np.ndarray:
        """(load, phi_n) for an assembled (unweighted) load vector."""
        return self.modes.T @ load_vec


def cluster_starts(eigenvalues) -> np.ndarray:
    """Start indices of the multiplicity clusters of ascending eigenvalues:
    a cluster continues while the next eigenvalue lies within CLUSTER_GAP
    (relative) of the previous one."""
    w = np.asarray(eigenvalues, dtype=float)
    new = np.ones(len(w), dtype=bool)
    new[1:] = np.abs(np.diff(w)) > CLUSTER_GAP * np.maximum(1.0, np.abs(w[1:]))
    return np.flatnonzero(new)


def _classify(eigenvalues, means, rho0_mass):
    """Cluster-safe split: an eigenvalue is uncoupled only if every mode in
    its multiplicity cluster has (numerically) zero weighted mean."""
    starts = cluster_starts(eigenvalues)
    zero = np.linalg.norm(means, axis=1) <= MEAN_ZERO_FACTOR * rho0_mass
    sizes = np.diff(np.append(starts, len(eigenvalues)))
    cluster_zero = np.repeat(np.logical_and.reduceat(zero, starts), sizes)
    return ["uncoupled" if z else "coupled" for z in cluster_zero]


def _build_prism_operator(mat, shape: InclusionShape, n: int, n_z: int,
                          delta: float, parity: str | None):
    mesh, extra, scale = build_cell_mesh(shape, n, 3, n_z), (), 1.0
    if parity is not None:
        mesh, pin = half_prism(mesh, parity, {"C0": mat.C0})
        extra, scale = (pin,), 2.0
    # the scale goes into the element matrices, where a factor 2 is exact
    pair = fa.assemble_vector_h1(
        mesh, scale * mat.C0, grad=fa.ScaledGradientSpec(delta),
        density=scale * mat.rho0, space="inclusion-zero-trace",
        restrict_to="soft", ncomp=3, extra_constraints=extra)
    return mesh, pair, scale


def _inplane_operator(mat, mesh2d: CellMesh, eta: float | None = None):
    """The delta = inf inclusion operator, or its strip fiber at eta."""
    return fa.assemble_vector_h1(mesh2d, mat.C0, density=mat.rho0,
                                 space="inclusion-zero-trace",
                                 restrict_to="soft", ncomp=3, eta=eta)


def build_inclusion_operator(mat: tn.MaterialSpec, shape: InclusionShape,
                             n: int, operator_tag: str, delta: float | None = None,
                             n_z: int = 4):
    """Mesh + operator pair + tracked components for one inclusion
    operator. delta is the regime's thickness/period ratio as it is; only
    the finite-delta (prism) operators read it."""
    if operator_tag in ("full_delta", "memb_delta", "bend_delta"):
        if delta is None or not (0 < delta < np.inf):
            raise ValueError("finite-delta operators need delta in (0, inf)")
        parity = {"full_delta": None, "memb_delta": "memb",
                  "bend_delta": "bend"}[operator_tag]
        mesh, pair, scale = _build_prism_operator(mat, shape, n, n_z, delta, parity)
        tracked = {"full_delta": (0, 1, 2), "memb_delta": (0, 1),
                   "bend_delta": (2,)}[operator_tag]
        return mesh, pair, tracked, scale
    if operator_tag == "memb_delta0":
        mesh = build_cell_mesh(shape, n=n)
        Cr = tn.reduced_tensor(mat.C0)
        pair = fa.assemble_vector_h1(mesh, Cr, density=mat.rho0,
                                     space="inclusion-zero-trace",
                                     restrict_to="soft", ncomp=2)
        return mesh, pair, (0, 1), 1.0
    if operator_tag == "bend_delta0":
        mesh = build_cell_mesh(shape, n=n)
        Cr = tn.reduced_tensor(mat.C0)
        pair = fa.assemble_bfs_h2(mesh, Cr, density=mat.rho0,
                                  space="inclusion-zero-trace",
                                  restrict_to="soft")
        pair.K = pair.K / 12.0
        return mesh, pair, (0,), 1.0
    if operator_tag in ("memb_deltainf", "full_deltainf"):
        mesh = build_cell_mesh(shape, n=n)
        pair = _inplane_operator(mat, mesh)
        tracked = (0, 1) if operator_tag == "memb_deltainf" else (0, 1, 2)
        return mesh, pair, tracked, 1.0
    raise ValueError(f"unknown operator tag {operator_tag!r}")


def mean_load_vectors(pair: SparseOperatorPair, tracked) -> np.ndarray:
    """Columns L_c with (L_c)^T u = int rho0 u_c over the inclusion; for the
    scalar BFS variant the constant lives in the value DOFs."""
    return np.column_stack([
        pair.M @ fa.constant_reduced_field(pair.dof, 0 if pair.dof.ncomp == 4 else c)
        for c in tracked])


@memoized
def bloch_spectrum(mat: tn.MaterialSpec, shape: InclusionShape, n: int,
                   operator_tag: str, N: int, delta: float | None = None,
                   n_z: int = 4, ws: EigWorkspace | None = None) -> BlochSpectrum:
    """Smallest N eigenpairs of the requested inclusion operator with
    density-weighted means and coupled/uncoupled classification."""
    if N < 1:
        raise ValueError("need at least one mode")
    mesh, pair, tracked, scale = build_inclusion_operator(
        mat, shape, n, operator_tag, delta=delta, n_z=n_z)
    if N > pair.n:
        raise ValueError(f"requested {N} modes from {pair.n} inclusion DOFs")
    # solve a few extra pairs and cut at a multiplicity-cluster boundary, so
    # a degenerate pole pair is never split by the truncation
    n_solve = min(N + 4, pair.n)
    w, v = eigs_smallest(pair, n_solve, ws)
    ends = np.append(cluster_starts(w), len(w))
    cut = int(ends[ends >= N][0])
    w, v = w[:cut], v[:, :cut]
    L = mean_load_vectors(pair, tracked)
    means = v.T @ L
    comp = 0 if pair.dof.ncomp == 4 else tracked[0]
    ones = fa.constant_reduced_field(pair.dof, comp)
    rho0_mass = float(ones @ (pair.M @ ones))   # clipped-constant mass
    rho0_area = mat.rho0 * mesh.soft_area_fraction()
    labels = _classify(w, means, rho0_area)
    return BlochSpectrum(operator_tag=operator_tag, eigenvalues=w, modes=v,
                         weighted_means=means, tracked=tuple(tracked),
                         classification=labels, rho0_mass=rho0_mass,
                         rho0_area_mass=rho0_area, pair=pair, mesh=mesh,
                         scale=scale)


@dataclass
class StripPencil:
    """The Hermitian strip fibers as one pencil: the form is quadratic in
    eta, so K(eta) = K0 + eta K1 + eta^2 K2 exactly against one mass, with
    K1 = (K(1) - K(-1)) / 2 and K2 = (K(1) + K(-1)) / 2 - K0.

    When C0 has the x3 mirror (`tensors.mirror_symmetric(C0, 2)`), K1 is
    imaginary and couples u3 with u1, u2 only, and K0, K2 do not couple
    them at all. The unitary diagonal D = diag(1, 1, i) on the u3 DOFs then
    makes every D^H K(eta) D real with the same eigenvalues and M
    unchanged (A. Bartoli et al., J. Sound Vib. 295, 2006), and the pencil
    keeps the real K0, K1, K2 of that basis: each fiber is a real
    eigenproblem. It does so only when the imaginary part it drops is zero
    to the mirror check's tolerance; otherwise, and without the mirror,
    the fibers stay complex."""
    pair: SparseOperatorPair          # K0 and M (eta = 0, real)
    K1: object                        # sparse: real (D basis) or complex
    K2: object

    @classmethod
    def assemble(cls, mat: tn.MaterialSpec, mesh2d: CellMesh) -> "StripPencil":
        pair, plus, minus = (_inplane_operator(mat, mesh2d, eta)
                             for eta in (None, 1.0, -1.0))
        Ks = [pair.K, (plus.K - minus.K) / 2, (plus.K + minus.K) / 2 - pair.K]
        if tn.mirror_symmetric(mat.C0, 2):
            u3 = fa.constant_reduced_field(pair.dof, 2) > 0
            D = sp.diags(np.where(u3, 1j, 1.0))
            turned = [D.conj() @ K @ D for K in Ks]
            if all(abs(K.imag).max() <= tn.MIRROR_TOL * abs(K).max()
                   for K in turned):
                Ks = [K.real for K in turned]
        # the three parts on one sparsity pattern: a fiber is one sum of
        # their entries
        P = (abs(Ks[0]) + abs(Ks[1]) + abs(Ks[2])).tocsr()
        rows = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
        K0, K1, K2 = (sp.csr_matrix((np.asarray(K[rows, P.indices]).ravel(),
                                     P.indices, P.indptr), shape=P.shape)
                      for K in Ks)
        return cls(replace(pair, K=K0), K1, K2)

    def fiber(self, eta: float) -> SparseOperatorPair:
        K0 = self.pair.K
        K = K0 if eta == 0.0 else sp.csr_matrix(
            (K0.data + eta * self.K1.data + eta ** 2 * self.K2.data,
             K0.indices, K0.indptr), shape=K0.shape)
        return SparseOperatorPair(K=K, M=self.pair.M, dof=self.pair.dof)

    def bottom(self, eta: float, ws: EigWorkspace | None = None) -> float:
        return float(eigs_smallest(self.fiber(eta), 1, ws)[0][0])


def strip_fiber_bottom(mat: tn.MaterialSpec, mesh2d: CellMesh, eta: float,
                       ws: EigWorkspace | None = None) -> float:
    """Smallest eigenvalue of the Hermitian strip fiber at wavenumber eta."""
    return StripPencil.assemble(mat, mesh2d).bottom(eta, ws)


@memoized
def strip_bottom_m0(mat: tn.MaterialSpec, mesh2d: CellMesh, eta_grid,
                    ws: EigWorkspace | None = None, refine_tol: float = 1e-4):
    """Bottom of the strip operator spectrum: min over eta of the first
    fiber eigenvalue, with one golden-section refinement around the grid
    minimizer. Every fiber comes from one assembled `StripPencil`. Returns
    (m0, curve) with curve rows (eta, alpha_1^eta)."""
    eta_grid = np.asarray(eta_grid, dtype=float)
    if eta_grid.size == 0:
        raise ValueError("empty eta grid")
    pencil = StripPencil.assemble(mat, mesh2d)
    vals = np.array([pencil.bottom(e, ws) for e in eta_grid])
    curve = np.column_stack([eta_grid, vals])
    i = int(np.argmin(vals))
    lo = eta_grid[max(i - 1, 0)]
    hi = eta_grid[min(i + 1, len(eta_grid) - 1)]
    if hi <= lo:
        return float(vals[i]), curve
    # golden-section refinement of the (locally convex) fiber curve
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = pencil.bottom(c, ws), pencil.bottom(d, ws)
    for _ in range(40):
        if b - a < refine_tol * max(1.0, abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = pencil.bottom(c, ws)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = pencil.bottom(d, ws)
    m0 = min(float(vals[i]), fc, fd)
    return m0, curve
