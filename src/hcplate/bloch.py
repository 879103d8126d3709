"""Eigenproblems on the soft inclusion: the zero-lateral-trace operators
whose eigenvalues are the micro-resonances, their density-weighted mean
vectors, coupled/uncoupled classification, and the strip fiber curve whose
minimum is the essential-spectrum bottom for very thin cells.

Operator tags
-------------
full_delta / memb_delta / bend_delta : prism I x Y0 with the transversally
    scaled gradient (delta finite); the parity variants are the x3-even and
    x3-odd classes of full_delta, refused (ConfigurationError) unless C0
    and the prism are invariant under x3 -> -x3.
memb_delta0 : 2D in-plane vector operator with the reduced tensor C0^r.
bend_delta0 : scalar C^1 (BFS) operator with (1/12) C0^r Hessian energy.
memb_deltainf / full_deltainf : 2D 3-component operator with strain
    sym iota(grad_y u); the two tags differ only in which mean components
    are tracked for the coupled/uncoupled split.

Every operator's spectrum is solved one parity class of the cell's mirrors
(y1 -> 1 - y1, y2 -> 1 - y2, and x3 -> -x3 on the prism, each where C0 and
the mesh have it; `geometry.MirrorClasses`) at a time, on the pencil of the
mirrors' fundamental region, and its modes are held per class
(`bloch_spectrum`). The operator's whole pencil
(`build_inclusion_operator`) is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import tensors as tn
from .fem import assemble as fa
from .fem.system import (EigWorkspace, SparseOperatorPair, cluster_starts,
                         eigs_by_class, eigs_smallest, fix_signs)
from .geometry import (BFS_CARRIES, PARITY_SIGNS, Q1_CARRIES,
                       ConfigurationError, GridMesh, InclusionShape,
                       MirrorClasses, build_cell_mesh, half_prism)
from .memo import memoized

MEAN_ZERO_FACTOR = 1e-7  # weighted mean treated as zero below this * <rho0>
N_MODES = 30             # the inclusion modes solved where no count is named


@dataclass
class BlochSpectrum:
    """An inclusion spectrum, its modes held per mirror class: those of
    class k (`classes == k`) are the columns of `vectors[k]` on its region
    DOF map `dofs[k]`, M-orthonormal there and, unfolded, on `mesh`."""
    operator_tag: str
    eigenvalues: np.ndarray          # ascending, > 0
    weighted_means: np.ndarray       # (N, n_tracked)
    tracked: tuple[int, ...]         # which displacement components are tracked
    classification: list[str]        # per eigenvalue: "coupled" | "uncoupled"
    rho0_mass: float                 # <rho0>_h = 1^T M 1 per tracked component
    rho0_area_mass: float = 0.0      # rho0 * |Y0_disc| (element-area sum)
    mesh: GridMesh = field(repr=False, default=None)  # the whole cell or prism
    mirrors: MirrorClasses = field(repr=False, default=None)
    classes: np.ndarray = None       # the mirror class of each mode
    vectors: list = field(repr=False, default_factory=list)  # per class
    dofs: list = field(repr=False, default_factory=list)     # per class
    carries: tuple = ()              # the axes each DOF component carries
    provenance: dict = field(default_factory=dict)  # mirrors and classes

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def gram_partial_sums(self) -> np.ndarray:
        """S_N = sum_{n<=N} m_n m_n^T, shape (N, k, k)."""
        m = self.weighted_means
        return np.cumsum(m[:, :, None] * m[:, None, :], axis=0)

    def modal_coefficients(self, load: np.ndarray) -> np.ndarray:
        """(load, phi_n) for a nodal load (nodes, components) on `mesh`,
        folded onto each class (`MirrorClasses.fold`)."""
        out = np.zeros(self.n_modes)
        weight = self.mirrors.weight(self.mesh)
        for k, (v, dof) in enumerate(zip(self.vectors, self.dofs)):
            out[self.classes == k] = weight * (v.T @ self.mirrors.fold(
                k, load, dof, self.carries, self.mesh))
        return out


def _classify(eigenvalues, means, rho0_mass):
    """Cluster-safe split: an eigenvalue is uncoupled only if every mode in
    its multiplicity cluster has (numerically) zero weighted mean."""
    starts = cluster_starts(eigenvalues)
    zero = np.linalg.norm(means, axis=1) <= MEAN_ZERO_FACTOR * rho0_mass
    sizes = np.diff(np.append(starts, len(eigenvalues)))
    cluster_zero = np.repeat(np.logical_and.reduceat(zero, starts), sizes)
    return ["uncoupled" if z else "coupled" for z in cluster_zero]


def _inplane_operator(mat, mesh2d: GridMesh, eta: float | None = None):
    """The delta = inf inclusion operator, or its strip fiber at eta."""
    return fa.assemble_vector_h1(mesh2d, mat.C0, density=mat.rho0,
                                 space="inclusion-zero-trace",
                                 restrict_to="soft", ncomp=3, eta=eta)


def _operator_form(mat: tn.MaterialSpec, operator_tag: str, delta):
    """An inclusion operator as (dim, form, carries, tracked, parity): the
    dimension of its cell mesh (3: the prism for finite delta), its pair on
    any mesh cut from that cell, `form(mesh)` (prisms: `form(mesh, scale,
    extra)`, the integrals times `scale` and the (nodes, components) pins
    `extra`), the axes its DOF components carry, the tracked mean
    components, and the parity ("memb" | "bend" | None) of a prism's x3
    class."""
    if operator_tag in ("full_delta", "memb_delta", "bend_delta"):
        if delta is None or not (0 < delta < np.inf):
            raise ValueError("finite-delta operators need delta in (0, inf)")

        def prism(mesh, scale=1.0, extra=()):
            # the scale goes into the element matrices, where a factor 2
            # is exact
            return fa.assemble_vector_h1(
                mesh, scale * mat.C0, grad=fa.ScaledGradientSpec(delta),
                density=scale * mat.rho0, space="inclusion-zero-trace",
                restrict_to="soft", ncomp=3, extra_constraints=extra)
        parity, tracked = {"full_delta": (None, (0, 1, 2)),
                           "memb_delta": ("memb", (0, 1)),
                           "bend_delta": ("bend", (2,))}[operator_tag]
        return 3, prism, Q1_CARRIES, tracked, parity
    Cr = tn.reduced_tensor(mat.C0)
    if operator_tag == "memb_delta0":
        return 2, lambda m: fa.assemble_vector_h1(
            m, Cr, density=mat.rho0, space="inclusion-zero-trace",
            restrict_to="soft", ncomp=2), Q1_CARRIES[:2], (0, 1), None
    if operator_tag == "bend_delta0":
        return 2, lambda m: fa.assemble_bfs_h2(
            m, Cr / 12.0, density=mat.rho0, space="inclusion-zero-trace",
            restrict_to="soft"), BFS_CARRIES, (0,), None
    if operator_tag in ("memb_deltainf", "full_deltainf"):
        tracked = (0, 1) if operator_tag == "memb_deltainf" else (0, 1, 2)
        return (2, lambda m: _inplane_operator(mat, m), Q1_CARRIES,
                tracked, None)
    raise ValueError(f"unknown operator tag {operator_tag!r}")


def build_inclusion_operator(mat: tn.MaterialSpec, shape: InclusionShape,
                             n: int, operator_tag: str, delta: float | None = None,
                             n_z: int = 4, cell: GridMesh | None = None):
    """Mesh + operator pair + tracked components + integral scale of one
    inclusion operator's whole pencil (the tests' oracle; parity operators
    on the half prism), on `cell` (by default the operator's cell mesh,
    built here). delta is the regime's thickness/period ratio as it is;
    only the finite-delta (prism) operators read it."""
    dim, form, _, tracked, parity = _operator_form(mat, operator_tag, delta)
    if cell is None:
        cell = build_cell_mesh(shape, n, dim, n_z)
    if parity is None:
        return cell, form(cell), tracked, 1.0
    half, pin = half_prism(cell, parity, {"C0": mat.C0})
    return half, form(half, 2.0, (pin,)), tracked, 2.0


def mean_load_vectors(pair: SparseOperatorPair, tracked) -> np.ndarray:
    """Columns L_c with (L_c)^T u = int rho0 u_c over the inclusion; for the
    scalar BFS variant the constant lives in the value DOFs (c = 0)."""
    return np.column_stack([
        pair.M @ fa.constant_reduced_field(pair.dof, c) for c in tracked])


@memoized
def bloch_spectrum(mat: tn.MaterialSpec, shape: InclusionShape, n: int,
                   operator_tag: str, N: int = N_MODES,
                   delta: float | None = None,
                   n_z: int = 4, ws: EigWorkspace | None = None) -> BlochSpectrum:
    """Smallest N eigenpairs of the requested inclusion operator with
    density-weighted means and coupled/uncoupled classification, solved
    and certified one parity class of the cell's mirrors at a time
    (`eigs_by_class`) on the one pencil assembled, the fundamental
    region's; a parity operator takes the classes of its x3 sign (refused
    without that mirror). The means and the clipped-constant mass are the
    region's times its images in the cell."""
    if N < 1:
        raise ValueError("need at least one mode")
    dim, form, carries, tracked, parity = _operator_form(mat, operator_tag,
                                                         delta)
    cell = build_cell_mesh(shape, n, dim, n_z)
    mc = MirrorClasses(cell, range(dim), {"C0": mat.C0}, fixed=(
        None if parity is None else {2: PARITY_SIGNS[parity]}))
    if parity is not None and 2 not in mc.axes:
        raise ConfigurationError(
            f"{parity} parity needs the x3 mirror, refused: "
            f"{mc.record['mirrors_refused']['x3']}")
    rpair = form(mc.region)
    dofs = list(mc.pinned(rpair.dof, carries))
    ids = [mc.ids(rpair.dof, d) for d in dofs]
    n_dofs = sum(map(len, ids))
    if N > n_dofs:
        raise ValueError(f"requested {N} modes from {n_dofs} inclusion DOFs")
    # solve a few extra pairs and cut at a multiplicity-cluster boundary, so
    # a degenerate pole pair is never split by the truncation
    w, cls, vecs = eigs_by_class((rpair.restrict(i) for i in ids),
                                 min(N + 4, n_dofs), ws)
    ends = np.append(cluster_starts(w), len(w))
    cut = int(ends[ends >= N][0])
    w, cls = w[:cut], cls[:cut]
    # over the cell's images of the region, the mean of a component that a
    # class pins (odd) cancels and that of one it keeps (even) adds up
    images = 2 ** len(mc.axes)
    L = np.sqrt(images) * mean_load_vectors(rpair, tracked)
    means = np.zeros((cut, len(tracked)))
    for k, d in enumerate(dofs):
        v = vecs[k][:, :np.count_nonzero(cls == k)]
        # each mode's sign is fixed on its field over the cell
        u = mc.unfold(k, v, d, carries, cell)
        vecs[k] = v = fix_signs(v, by=u.reshape(u.shape[0] * u.shape[1],
                                                v.shape[1]))
        odd = sum(mc.pins(k, carries), [])
        means[cls == k] = np.where(np.isin(tracked, odd), 0.0, v.T @ L[ids[k]])
    ones = fa.constant_reduced_field(rpair.dof, tracked[0])
    rho0_mass = images * float(ones @ (rpair.M @ ones))  # clipped constant
    rho0_area = mat.rho0 * cell.soft_area_fraction()
    return BlochSpectrum(operator_tag=operator_tag, eigenvalues=w,
                         weighted_means=means, tracked=tuple(tracked),
                         classification=_classify(w, means, rho0_area),
                         rho0_mass=rho0_mass,
                         rho0_area_mass=rho0_area, mesh=cell, mirrors=mc,
                         classes=cls, vectors=vecs, dofs=dofs,
                         carries=carries, provenance=mc.record)


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
    def assemble(cls, mat: tn.MaterialSpec, mesh2d: GridMesh) -> "StripPencil":
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


def strip_fiber_bottom(mat: tn.MaterialSpec, mesh2d: GridMesh, eta: float,
                       ws: EigWorkspace | None = None) -> float:
    """Smallest eigenvalue of the Hermitian strip fiber at wavenumber eta."""
    return StripPencil.assemble(mat, mesh2d).bottom(eta, ws)


@memoized
def strip_bottom_m0(mat: tn.MaterialSpec, mesh2d: GridMesh, eta_grid,
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
