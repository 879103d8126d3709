"""Mesh-level assembly: builds SparseOperatorPair objects for the scaled
symmetric-gradient (Q1) and Hessian (BFS) forms on cell, macro and
fine-scale meshes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .system import DofMap, SparseOperatorPair, nested_dissection, scatter, \
    triplets_to_csr


@dataclass(frozen=True)
class ScaledGradientSpec:
    """Third-column scaling of the symmetric gradient: (grad_y | delta^-1 d3).
    Use delta=h for the fine-scale gradient (grad_x | h^-1 d3)."""
    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("gradient scaling must be positive and finite")


def _by_material(value):
    """Expand a scalar-or-dict material field to {"soft": ..., "stiff": ...}."""
    if isinstance(value, dict):
        return {"soft": value.get("soft"), "stiff": value.get("stiff")}
    return {"soft": value, "stiff": value}


def _element_groups(mesh, restrict_to: str):
    """Element ids per material; a mesh without `element_soft` (the macro
    mesh) is one stiff group."""
    soft = getattr(mesh, "element_soft", None)
    if soft is None:
        return {"stiff": np.arange(len(mesh.elements))}
    if restrict_to == "all":
        return {"stiff": np.flatnonzero(~soft), "soft": np.flatnonzero(soft)}
    if restrict_to == "soft":
        return {"soft": np.flatnonzero(soft)}
    if restrict_to == "stiff":
        return {"stiff": np.flatnonzero(~soft)}
    raise ValueError(f"unknown restriction {restrict_to!r}")


def _dof_map(mesh, ncomp: int, space: str, groups, extra_constraints=()):
    """The DOF map of `space` on the mesh: 'periodic' identifies the
    y-periodic images, 'dirichlet' pins every component on the MacroMesh
    gamma_D nodes, 'inclusion-zero-trace' on the boundary of the discrete
    Y0 (for the soft group only), 'free' pins none; then the further
    (nodes, components) pins. The DOFs that no element of the groups
    touches are dropped, and the rest numbered by the nested dissection of
    the mesh's grid."""
    dof = DofMap(mesh.n_nodes, ncomp)
    if space == "periodic":
        dof.identify_periodic(mesh.periodic_map)
    elif space == "inclusion-zero-trace":
        if set(groups) != {"soft"}:
            raise ValueError("zero-trace inclusion space implies restrict_to='soft'")
        dof.constrain(mesh.inclusion_boundary_nodes)
    elif space == "dirichlet":
        dof.constrain(mesh.dirichlet_nodes)
    elif space != "free":
        raise ValueError(f"unknown space {space!r}")
    for nodes, comps in extra_constraints:
        dof.constrain(nodes, comps)
    touched = np.zeros(mesh.n_nodes, dtype=bool)
    for ids in groups.values():
        touched[mesh.elements[ids]] = True
    if not touched.any():
        raise ValueError("empty restriction set")
    return dof.constrain(np.flatnonzero(~touched)).finalize(
        nested_dissection(*mesh.grid))


def _assemble(dof: DofMap, mesh, groups, element_matrix, dtype=float):
    """Sum element_matrix(group) over each group's elements. One matrix is
    summed before the next is scattered: the COO triplets of a fine mesh
    are several times its CSR matrix."""
    triplets = ([], [], [])
    for name, ids in groups.items():
        if len(ids):
            scatter(dof.element_dofs(mesh.elements[ids]), element_matrix(name),
                    dof.n_free, triplets)
    return triplets_to_csr(triplets, dof.n_free, dtype=dtype)


def translations_kernel(dof: DofMap, comps=None) -> np.ndarray | None:
    """Orthonormal basis of per-component constant fields (rigid
    translations) in reduced coordinates; on a BFS map, comps [0] gives the
    constant functions (value DOFs 1, derivative DOFs 0)."""
    comps = range(dof.ncomp) if comps is None else comps
    cols = [constant_reduced_field(dof, c) for c in comps]
    cols = [v / np.linalg.norm(v) for v in cols if v.any()]
    return np.column_stack(cols) if cols else None


def assemble_vector_h1(mesh, C, grad: ScaledGradientSpec | None = None,
                       density=1.0, space: str = "periodic",
                       restrict_to: str = "all", ncomp: int = 3,
                       eta: float | None = None,
                       extra_constraints=()) -> SparseOperatorPair:
    """Stiffness/mass pair of the vector H^1 form with Voigt tensor C.

    K discretizes int C sym-grad~(u) : sym-grad~(v) over the requested
    material subset, M the density-weighted L2 product over the same subset;
    C and density are one value or a {"soft": ..., "stiff": ...} dict, and
    density None assembles K only (M is None).
    Spaces (`_dof_map`): 'periodic' (its kernel: translations_kernel(dof)),
    'inclusion-zero-trace' (H^1_00 on the discrete Y0), 'dirichlet'
    (MacroMesh gamma_D), 'free'. extra_constraints holds further
    (nodes, components) pairs to pin, e.g. z-planes or clamped edges.
    """
    hsize = mesh.element_size()
    third = None
    if grad is not None:
        if len(hsize) != 3:
            raise ValueError("scaled gradients need a 3D mesh")
        third = ("dz", 1.0 / grad.delta)
    elif eta is not None:
        third = ("mult", 1j * eta)

    groups = _element_groups(mesh, restrict_to)
    Cs = _by_material(C)
    rs = _by_material(density)

    dof = _dof_map(mesh, ncomp, space, groups, extra_constraints)
    dt = complex if (third is not None and third[0] == "mult") else float
    K = _assemble(dof, mesh, groups, lambda g: el.q1_stiffness(
        hsize, Cs[g], third=third, ncomp=ncomp), dt)
    M = None if density is None else _assemble(
        dof, mesh, groups,
        lambda g: el.q1_mass(hsize, float(rs[g]), ncomp=ncomp))
    return SparseOperatorPair(K=K, M=M, dof=dof,
                              meta={"space": space, "ncomp": ncomp,
                                    "restrict": restrict_to, "hsize": hsize})


def assemble_bfs_h2(mesh, D, density=1.0, space: str = "periodic",
                    restrict_to: str = "all") -> SparseOperatorPair:
    """Stiffness/mass pair of the Hessian form int D hess(u):hess(v) in the
    C^1 Bogner-Fox-Schmit space (DOFs w, w_x, w_y, w_xy per node).

    Spaces (`_dof_map`): 'periodic' (its kernel, the constants:
    translations_kernel(dof, [0])), 'dirichlet' (all four DOFs pinned on
    gamma_D nodes of a MacroMesh), 'inclusion-zero-trace' (H^2_0 on the
    discrete Y0), 'free'. density None assembles K only (M is None).
    """
    hsize = mesh.element_size()
    if len(hsize) != 2:
        raise ValueError("BFS elements are two-dimensional")
    groups = _element_groups(mesh, restrict_to)
    Ds = _by_material(D)
    rs = _by_material(density)

    dof = _dof_map(mesh, 4, space, groups)
    return SparseOperatorPair(
        K=_assemble(dof, mesh, groups,
                    lambda g: el.bfs_stiffness(hsize, Ds[g])),
        M=None if density is None else _assemble(
            dof, mesh, groups, lambda g: el.bfs_mass(hsize, rs[g])),
        dof=dof, meta={"space": space, "ncomp": 4, "restrict": restrict_to,
                       "hsize": hsize})


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
    groups = _element_groups(mesh, restrict_to)
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


def quadrature_points(mesh, elem_ids: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Coordinates (dim, elements, q) of the element quadrature points pts
    (q, dim), given relative to the first (lower-left) node, in the elements
    elem_ids: coordinates first, as load profiles take them."""
    origin = mesh.nodes[mesh.elements[elem_ids, 0]]
    return np.moveaxis(origin[:, None, :] + pts, -1, 0)


def assemble_pointwise_load(mesh, dof: DofMap, fe: np.ndarray,
                            elem_ids: np.ndarray) -> np.ndarray:
    """Scatter element loads that vary per element: fe (elements, local
    DOFs[, load cases]) holds one local vector per element of elem_ids."""
    eds = dof.element_dofs(mesh.elements[elem_ids])
    ok = eds >= 0
    out = np.zeros((dof.n_free, *fe.shape[2:]))
    np.add.at(out, eds[ok], fe[ok])
    return out


def constant_reduced_field(dof: DofMap, comp: int) -> np.ndarray:
    """Reduced-coordinate vector of the constant field e_comp (periodic
    images share their reduced id)."""
    idx = dof.index[:, comp]
    out = np.zeros(dof.n_free)
    out[idx[idx >= 0]] = 1.0
    return out
