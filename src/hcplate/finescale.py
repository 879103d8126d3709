"""Direct 3D discretization of the original scaled problem on the fixed
domain omega x I: coefficients C1 on the stiff matrix and mu_h^2 C0 on the
eps-periodic inclusions, transversally scaled gradient (grad | h^-1 d3),
Dirichlet on gamma_D x I.  Used to observe the Hausdorff trend of fine
spectra toward the computed limit sets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensors as tn
from .fem import elements as el
from .fem.assemble import (PencilForm, ScaledGradientSpec,
                           assemble_pointwise_load, quadrature_points,
                           vector_h1_form)
from .fem.system import (EigWorkspace, SparseOperatorPair, eigs_by_class,
                         factorize)
from .geometry import (PARITY_SIGNS, Q1_CARRIES, ConfigurationError, GridMesh,
                       InclusionShape, MirrorClasses, grid_mesh, half_prism)

DOF_BUDGET = 200_000


def mu_value(mu_scaling: str, eps: float, h: float) -> float:
    values = {"eps": eps, "eps_h": eps * h, "eps2": eps ** 2, "one": 1.0}
    if mu_scaling not in values:
        raise ConfigurationError(f"unknown contrast scaling {mu_scaling!r}")
    return values[mu_scaling]


def _build_fine_mesh(L1, L2, eps, cells_per_eps, n_z, shape: InclusionShape,
                     z_span=(-0.5, 0.5), gamma=()) -> GridMesh:
    """The plate [0, L1] x [0, L2] x I as the eps-periodic tiling of the
    cell's grid, `cells_per_eps` elements per cell and axis."""
    ncx, ncy = L1 / eps, L2 / eps
    if abs(ncx - round(ncx)) > 1e-9 or abs(ncy - round(ncy)) > 1e-9:
        raise ConfigurationError("omega must be tiled by an integer number "
                                 "of eps-cells")
    return grid_mesh((L1, L2), (int(round(ncx)) * cells_per_eps,
                                int(round(ncy)) * cells_per_eps),
                     shape, period=eps, n_z=n_z, z_span=z_span, gamma=gamma)


@dataclass
class FineProblem:
    """A fine plate (`mesh`: the whole plate, or its x3 half for a parity
    class) with the parity classes of its mirrors (`mirrors`, cut from the
    whole plate), its form on their fundamental region (`pair`: no K or M,
    but the region's DOF map and node-pair pattern) and each class's DOF
    map (`class_dofs`: the region's with the class's pins on the mirror
    planes). `pencil` sums one class's K and M on demand."""
    mat: tn.MaterialSpec
    shape: InclusionShape
    h: float
    epsilon: float
    mu_scaling: str
    tau: int
    mesh: GridMesh
    pair: PencilForm
    parity: str | None = None
    meta: dict = field(default_factory=dict)
    mirrors: MirrorClasses = None
    class_dofs: list = field(default_factory=list)

    @property
    def mu(self) -> float:
        return mu_value(self.mu_scaling, self.epsilon, self.h)

    def pencil(self, k: int) -> SparseOperatorPair:
        """Class k's pencil of h^-tau a_eps and m, summed for it alone."""
        pencil = self.pair.pencil(self.class_dofs[k])
        pencil.K.data *= self.h ** (-self.tau)
        return pencil


PLATE_MIRRORS = ("x1", "x2", "x3")   # x2 -> L2 - x2, x3 -> -x3


def build_fine_problem(mat: tn.MaterialSpec, shape: InclusionShape, h: float,
                       epsilon: float, mu_scaling: str = "eps", tau: int = 0,
                       cells_per_eps: int = 8, n_z: int = 4,
                       L1: float = 1.0, L2: float = 1.0,
                       gamma=("left",), parity: str | None = None,
                       budget: int = DOF_BUDGET) -> FineProblem:
    """The form of the stiffness and density-weighted mass of the fine
    operator (`FineProblem.pencil` applies h^-tau), clamped on the gamma_D
    edges; parity='memb' or 'bend' takes the half plate x3 >= 0
    (`geometry.half_prism`) with the odd components pinned on the symmetry
    plane x3 = 0, and is refused (ConfigurationError) unless C0, C1 and
    the plate have that mirror. K and M live on the fundamental region of
    the mirrors the problem has (`geometry.MirrorClasses`): x2 -> L2 - x2
    when C0, C1, the inclusion pattern and gamma_D map to themselves under
    it, and x3 -> -x3 for a parity class; each class is summed and solved
    on its own."""
    if n_z < 2:
        raise ConfigurationError("fine problems need n_z >= 2")
    plate = _build_fine_mesh(L1, L2, epsilon, cells_per_eps, n_z, shape,
                             gamma=gamma)
    tensors = {"C0": mat.C0, "C1": mat.C1}
    mesh, fixed_signs = plate, {}
    if parity is not None:
        mesh, _ = half_prism(plate, parity, tensors)
        fixed_signs = {2: PARITY_SIGNS[parity]}
    ndofs = 3 * mesh.n_nodes
    if ndofs > budget:
        raise ConfigurationError(f"{ndofs} DOFs exceed the budget {budget}")
    refused = {} if ("bottom" in gamma) == ("top" in gamma) else \
        {"x2": "gamma_D not mirror-symmetric"}
    mirrors = MirrorClasses(plate, [1, *fixed_signs], tensors, PLATE_MIRRORS,
                            refused, fixed=fixed_signs)
    region = mirrors.region

    mu = mu_value(mu_scaling, epsilon, h)
    # a parity class carries half of the full plate's (even) energies; the
    # factor 2 goes into the element matrices, where it is exact
    halves = 1.0 if parity is None else 2.0
    form = vector_h1_form(
        region, {"soft": halves * mu ** 2 * mat.C0, "stiff": halves * mat.C1},
        grad=ScaledGradientSpec(h),
        density={"soft": halves * mat.rho0, "stiff": halves * mat.rho1},
        space="dirichlet")
    class_dofs = list(mirrors.pinned(form.dof, Q1_CARRIES))
    return FineProblem(mat=mat, shape=shape, h=h, epsilon=epsilon,
                       mu_scaling=mu_scaling, tau=tau, mesh=mesh, pair=form,
                       parity=parity,
                       meta={"cells_per_eps": cells_per_eps, "n_z": n_z,
                             "gamma": tuple(gamma), "L": (L1, L2),
                             **mirrors.record},
                       mirrors=mirrors, class_dofs=class_dofs)


def fine_eigs(fp: FineProblem, N: int, ws: EigWorkspace | None = None):
    """Smallest N eigenvalues of h^-tau A_eps (ascending) over the parity
    classes (`fem.system.eigs_by_class`, one class pencil at a time), and
    the modes as nodal fields (nodes, 3, N) of `fp.mesh`, M-orthonormal
    there."""
    w, cls, vecs = eigs_by_class(
        (fp.pencil(k) for k in range(len(fp.class_dofs))), N, ws)
    mesh, mirrors = fp.mesh, fp.mirrors
    modes = np.zeros((mesh.n_nodes, 3, len(w)))
    for k, (v, dof) in enumerate(zip(vecs, fp.class_dofs)):
        modes[:, :, cls == k] = mirrors.weight(mesh) * mirrors.unfold(
            k, v, dof, Q1_CARRIES, mesh)
    return w, modes


def fine_resolvent(fp: FineProblem, lam: float, load) -> dict:
    """Solve (h^-tau a_eps + lambda m) u = f for a separable LoadSpec and
    report the displacement with its transverse averages and per-cell means.
    Each parity class solves the load folded onto its DOFs
    (`MirrorClasses.fold`), and its field is reflected back onto the
    plate."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    mesh, mirrors = fp.mesh, fp.mirrors
    amp = np.asarray(load.amplitude, dtype=float)
    elems, hsize = np.arange(len(mesh.elements)), mesh.element_size()
    X = quadrature_points(mesh, elems, el.q1_quadrature(hsize)[0])
    # (components, elements, points)
    values = amp[:, None, None] * load.macro_fn()(X[:2]) \
        * load.transverse_fn()(X[2]) \
        * load.cell_fn(fp.shape)(np.mod(X[:2] / fp.epsilon, 1.0))
    fe = el.q1_vector_load(hsize, np.moveaxis(values, 0, -1))
    F = mirrors.weight(mesh, solve=True) * assemble_pointwise_load(
        mesh, None, fe, elems).reshape(-1, 3)
    full = np.zeros((mesh.n_nodes, 3))
    for k, dof in enumerate(fp.class_dofs):
        pencil = fp.pencil(k)
        lu = factorize(pencil.K + lam * pencil.M, order=dof.key)
        full += mirrors.unfold(k, lu.solve(mirrors.fold(
            k, F, dof, Q1_CARRIES, mesh)), dof, Q1_CARRIES, mesh)
    return {"u": full, "transverse_average": transverse_average(fp, full),
            "cell_means": cell_means(fp, full)}


def transverse_average(fp: FineProblem, full_field: np.ndarray) -> np.ndarray:
    """Trapezoidal x3-average of a nodal field, per in-plane node."""
    n_z = fp.mesh.n_z
    layers = full_field.reshape(n_z + 1, -1, full_field.shape[-1])
    w = np.full(n_z + 1, 1.0)
    w[0] = w[-1] = 0.5
    w /= w.sum()
    avg = np.einsum("k,kij->ij", w, layers)
    # the odd components average to zero over the full I: u3 under membrane
    # parity, u1 and u2 under bending parity
    if fp.parity == "memb":
        avg[:, 2] = 0.0
    elif fp.parity == "bend":
        avg[:, :2] = 0.0
    return avg


def cell_means(fp: FineProblem, full_field: np.ndarray) -> np.ndarray:
    """In-plane mean of the transverse average over each eps-cell."""
    nx, ny = fp.mesh.counts
    c = fp.meta["cells_per_eps"]
    avg = transverse_average(fp, full_field)
    grid = avg.reshape(ny + 1, nx + 1, -1)
    # (c+1) x (c+1) node windows, one per cell, neighbours sharing an edge
    windows = np.lib.stride_tricks.sliding_window_view(grid, (c + 1, c + 1),
                                                       axis=(0, 1))
    return windows[::c, ::c].mean(axis=(-2, -1))
