"""Mesh-level assembly: builds SparseOperatorPair objects for the scaled
symmetric-gradient (Q1) and Hessian (BFS) forms on cell/macro meshes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..geometry import CellMesh
from . import elements as el
from .system import DofMap, SparseOperatorPair, detect_kernel, scatter, \
    scatter_scaled, triplets_to_csr

KERNEL_TOL = 1e-10


@dataclass(frozen=True)
class ScaledGradientSpec:
    """Third-column scaling of the symmetric gradient: (grad_y | delta^-1 d3).
    Use delta=h for the fine-scale gradient (grad_x | h^-1 d3)."""
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("gradient scaling must be positive and finite")


def _by_material(value, soft_mask):
    """Expand a scalar/array-or-dict material field to (soft_value, stiff_value)."""
    if isinstance(value, dict):
        return value.get("soft"), value.get("stiff")
    return value, value


def _element_groups(mesh, restrict_to: str):
    soft = mesh.element_soft
    if restrict_to == "all":
        return {"soft": np.flatnonzero(soft), "stiff": np.flatnonzero(~soft)}
    if restrict_to == "soft":
        return {"soft": np.flatnonzero(soft)}
    if restrict_to == "stiff":
        return {"stiff": np.flatnonzero(~soft)}
    raise ValueError(f"unknown restriction {restrict_to!r}")


def _nodes_touched(mesh, elem_ids) -> np.ndarray:
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    mask[np.unique(mesh.elements[elem_ids])] = True
    return mask


def translations_kernel(dof: DofMap, comps=None) -> np.ndarray | None:
    """Orthonormal basis of per-component constant fields (rigid
    translations) in reduced coordinates."""
    comps = range(dof.ncomp) if comps is None else comps
    cols = []
    for c in comps:
        idx = dof.index[:, c]
        v = np.zeros(dof.n_free)
        # periodic slaves share a reduced id; weight once per reduced DOF
        v[np.unique(idx[idx >= 0])] = 1.0
        if v.any():
            cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols) if cols else None


def _attach_kernel(pair: SparseOperatorPair, kernel, analytic: np.ndarray | None):
    """kernel: 'none' | 'translations' | 'detect' | explicit array."""
    if isinstance(kernel, np.ndarray):
        pair.kernel = kernel
        return pair
    if kernel == "none":
        return pair
    scale = abs(pair.K).max()
    if kernel == "translations" and analytic is not None:
        resid = max(np.linalg.norm(pair.K @ analytic[:, j]) for j in range(analytic.shape[1]))
        if resid <= KERNEL_TOL * scale * 10:
            pair.kernel = analytic
            return pair
        # analytic guess rejected (e.g. extra constraints); fall through
    pair.kernel = detect_kernel(pair.K, KERNEL_TOL)
    return pair


def assemble_vector_h1(mesh, C, grad: ScaledGradientSpec | None = None,
                       density=1.0, space: str = "periodic",
                       restrict_to: str = "all", ncomp: int = 3,
                       eta: float | None = None, kernel="none",
                       extra_constraints=()) -> SparseOperatorPair:
    """Stiffness/mass pair of the vector H^1 form with Voigt tensor C.

    K discretizes int C sym-grad~(u) : sym-grad~(v) over the requested
    material subset, M the density-weighted L2 product over the same subset.
    Spaces: 'periodic', 'periodic-zero-mean' (periodic + translation kernel),
    'inclusion-zero-trace' (H^1_00 on the discrete Y0), 'dirichlet'
    (MacroMesh gamma_D or CellMesh z-planes via extra_fixed), 'free'.
    """
    is_cell = isinstance(mesh, CellMesh)
    hsize = mesh.element_size()
    third = None
    if grad is not None:
        if is_cell and mesh.dim == 3:
            third = ("dz", 1.0 / grad.delta)
        else:
            raise ValueError("scaled gradients need a prism mesh")
    elif eta is not None:
        third = ("mult", 1j * eta)
    elif ncomp == 3 and (not is_cell or mesh.dim == 2):
        third = None  # sym iota(grad_y u): zero third column

    groups = _element_groups(mesh, restrict_to) if is_cell else \
        {"stiff": np.arange(len(mesh.elements))}
    Csoft, Cstiff = _by_material(C, None)
    rsoft, rstiff = _by_material(density, None)
    Cs = {"soft": Csoft, "stiff": Cstiff}
    rs = {"soft": rsoft, "stiff": rstiff}

    dof = DofMap(mesh.n_nodes, ncomp)
    if space in ("periodic", "periodic-zero-mean"):
        dof.identify_periodic(mesh.periodic_map)
    elif space == "inclusion-zero-trace":
        if restrict_to != "soft":
            raise ValueError("zero-trace inclusion space implies restrict_to='soft'")
        dof.constrain(mesh.inclusion_boundary_nodes)
    elif space == "dirichlet":
        dof.constrain(mesh.dirichlet_nodes)
    elif space != "free":
        raise ValueError(f"unknown space {space!r}")
    for nodes, comps in extra_constraints:
        dof.constrain(nodes, comps)

    # drop DOFs that no included element touches
    touched = np.zeros(mesh.n_nodes, dtype=bool)
    for ids in groups.values():
        touched |= _nodes_touched(mesh, ids)
    if not touched.any():
        raise ValueError("empty restriction set")
    dof.constrain(np.flatnonzero(~touched))
    dof.finalize()

    dt = complex if (third is not None and third[0] == "mult") else float
    kt, mt = ([], [], []), ([], [], [])
    for name, ids in groups.items():
        if len(ids) == 0:
            continue
        Ke = el.q1_stiffness(hsize, Cs[name], third=third, ncomp=ncomp)
        eds = dof.element_dofs(mesh.elements[ids])
        scatter(eds, Ke, dof.n_free, kt)
        rho = rs[name]
        if np.ndim(rho) == 0:
            Me = el.q1_mass(hsize, float(rho), ncomp=ncomp)
            scatter(eds, Me, dof.n_free, mt)
        else:
            # per-element density field (indexed by global element id)
            Me1 = el.q1_mass(hsize, 1.0, ncomp=ncomp)
            scatter_scaled(eds, Me1, np.asarray(rho)[ids], mt)
    K = triplets_to_csr(kt, dof.n_free, dtype=dt)
    M = triplets_to_csr(mt, dof.n_free, dtype=float)
    pair = SparseOperatorPair(K=K, M=M, dof=dof,
                              meta={"space": space, "ncomp": ncomp,
                                    "restrict": restrict_to, "hsize": hsize})
    if space == "periodic-zero-mean" and kernel == "none":
        kernel = "translations"
    return _attach_kernel(pair, kernel, translations_kernel(dof))


def bfs_constants_kernel(dof: DofMap) -> np.ndarray | None:
    """Constant functions in the BFS space: value DOFs 1, derivative DOFs 0."""
    idx = dof.index[:, 0]
    v = np.zeros(dof.n_free)
    v[np.unique(idx[idx >= 0])] = 1.0
    if not v.any():
        return None
    return (v / np.linalg.norm(v))[:, None]


def assemble_bfs_h2(mesh, D, density=1.0, space: str = "periodic-zero-mean",
                    restrict_to: str = "all", kernel="none") -> SparseOperatorPair:
    """Stiffness/mass pair of the Hessian form int D hess(u):hess(v) in the
    C^1 Bogner-Fox-Schmit space (DOFs w, w_x, w_y, w_xy per node).

    Spaces: 'periodic-zero-mean' (torus, constants deflated),
    'clamped' (all four DOFs pinned on gamma_D nodes of a MacroMesh),
    'inclusion-clamped' (H^2_0 on the discrete Y0).
    """
    is_cell = isinstance(mesh, CellMesh)
    if is_cell and mesh.dim != 2:
        raise ValueError("BFS elements are two-dimensional")
    hsize = mesh.element_size()
    groups = _element_groups(mesh, restrict_to) if is_cell else \
        {"stiff": np.arange(len(mesh.elements))}
    Dsoft, Dstiff = _by_material(D, None)
    rsoft, rstiff = _by_material(density, None)
    Ds = {"soft": Dsoft, "stiff": Dstiff}
    rs = {"soft": rsoft, "stiff": rstiff}

    dof = DofMap(mesh.n_nodes, 4)
    if space == "periodic-zero-mean":
        dof.identify_periodic(mesh.periodic_map)
    elif space == "clamped":
        dof.constrain(mesh.dirichlet_nodes)
    elif space == "inclusion-clamped":
        if restrict_to != "soft":
            raise ValueError("H^2_0 inclusion space implies restrict_to='soft'")
        dof.constrain(mesh.inclusion_boundary_nodes)
    elif space != "free":
        raise ValueError(f"unknown space {space!r}")

    touched = np.zeros(mesh.n_nodes, dtype=bool)
    for ids in groups.values():
        touched |= _nodes_touched(mesh, ids)
    dof.constrain(np.flatnonzero(~touched))
    dof.finalize()

    kt, mt = ([], [], []), ([], [], [])
    for name, ids in groups.items():
        if len(ids) == 0:
            continue
        Ke = el.bfs_stiffness(hsize, Ds[name])
        Me = el.bfs_mass(hsize, rs[name])
        eds = dof.element_dofs(mesh.elements[ids])
        scatter(eds, Ke, dof.n_free, kt)
        scatter(eds, Me, dof.n_free, mt)
    pair = SparseOperatorPair(K=triplets_to_csr(kt, dof.n_free),
                              M=triplets_to_csr(mt, dof.n_free), dof=dof,
                              meta={"space": space, "ncomp": 4,
                                    "restrict": restrict_to, "hsize": hsize})
    if space == "periodic-zero-mean" and kernel == "none":
        kernel = "constants"
    if kernel == "constants":
        return _attach_kernel(pair, bfs_constants_kernel(dof), None)
    return _attach_kernel(pair, kernel, None)


def assemble_rect_block(row_dofs: np.ndarray, col_dofs: np.ndarray,
                        element_matrix: np.ndarray,
                        shape: tuple[int, int]) -> sp.csr_matrix:
    """Rectangular coupling block from one shared element matrix."""
    ne = row_dofs.shape[0]
    nr, nc = element_matrix.shape
    rows = np.repeat(row_dofs, nc, axis=1).ravel()
    cols = np.tile(col_dofs, (1, nr)).ravel()
    vals = np.tile(element_matrix.ravel(), ne)
    ok = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix((vals[ok], (rows[ok], cols[ok])), shape=shape).tocsr()
    A.sum_duplicates()
    return A


def assemble_element_load(mesh, dof: DofMap, element_vec_by_material: dict,
                          restrict_to: str = "all") -> np.ndarray:
    """Scatter per-material element load vectors over the mesh; element
    load matrices (one column per load case) give a load matrix."""
    groups = _element_groups(mesh, restrict_to) if isinstance(mesh, CellMesh) \
        else {"stiff": np.arange(len(mesh.elements))}
    shape = np.shape(next(iter(element_vec_by_material.values())))[1:]
    out = np.zeros((dof.n_free, *shape))
    for name, ids in groups.items():
        if len(ids) == 0 or name not in element_vec_by_material:
            continue
        fe = np.asarray(element_vec_by_material[name])
        eds = dof.element_dofs(mesh.elements[ids])
        ok = eds >= 0
        np.add.at(out, eds[ok], np.broadcast_to(fe, (len(ids), *fe.shape))[ok])
    return out


def assemble_pointwise_load(mesh, dof: DofMap, fe_builder,
                            elem_ids: np.ndarray) -> np.ndarray:
    """Scatter element loads that vary per element: fe_builder(origin) gives
    the element vector for the element with lower-left corner `origin`."""
    out = np.zeros(dof.n_free)
    for e in elem_ids:
        origin = mesh.nodes[mesh.elements[e][0]]
        fe = fe_builder(origin)
        eds = dof.index[mesh.elements[e]].ravel()
        ok = eds >= 0
        np.add.at(out, eds[ok], fe[ok])
    return out


def constant_reduced_field(dof: DofMap, comp: int, value: float = 1.0) -> np.ndarray:
    """Reduced-coordinate vector of the constant field value*e_comp."""
    full = np.zeros((dof.n_nodes, dof.ncomp))
    full[:, comp] = value
    idx = dof.index.ravel()
    ok = idx >= 0
    out = np.zeros(dof.n_free)
    out[idx[ok]] = full.ravel()[ok]
    return out
