"""Mesh-level assembly: builds SparseOperatorPair objects for the scaled
symmetric-gradient (Q1) and Hessian (BFS) forms on cell, macro and
fine-scale meshes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .system import DofMap, SparseOperatorPair, slab_order


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
    """Element ids per material (a mesh without an inclusion, the
    mid-plane, has no soft element)."""
    soft = mesh.element_soft
    if restrict_to == "all":
        return {"stiff": np.flatnonzero(~soft), "soft": np.flatnonzero(soft)}
    if restrict_to == "soft":
        return {"soft": np.flatnonzero(soft)}
    if restrict_to == "stiff":
        return {"stiff": np.flatnonzero(~soft)}
    raise ValueError(f"unknown restriction {restrict_to!r}")


def _dof_map(mesh, ncomp: int, space: str, groups, extra_constraints=()):
    """The DOF map of `space` on the mesh: 'periodic' identifies the
    y-periodic images, 'dirichlet' pins every component on the mesh's
    gamma_D nodes, 'inclusion-zero-trace' on the boundary of the discrete
    Y0 (for the soft group only), 'free' pins none; then the further
    (nodes, components) pins. The DOFs that no element of the groups
    touches are dropped, and the rest keyed by their nodes' ranks in the
    slab order of the mesh's grid."""
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
        slab_order(*mesh.grid))


def _narrow(a: np.ndarray) -> np.ndarray:
    """Non-negative integers in the smallest type that holds them."""
    return a.astype(np.min_scalar_type(a.max(initial=0)))


class NodeBlocks:
    """The node-pair pattern of element groups, built once per mesh and DOF
    map(s) and shared by every matrix summed on it (vectorized assembly
    that builds the pattern once and then sums values: F. Cuvelier,
    C. Japhet and G. Scarella, BIT Numer. Math. 56, 2016).

    The connectivity of each group goes to periodic-master nodes, and the
    block of element e at local nodes (i, j) lands in the slot of its
    (row master, column master) pair. Pairs are ascending by row node, then
    column node. The element blocks go pair by pair, `counts` per pair,
    each named by its (group, i, j) in `blocks`.
    """

    def __init__(self, conns, row_master: np.ndarray,
                 col_master: np.ndarray):
        self.nn = nn = conns[0].shape[1]
        n_col = len(col_master)
        keys = np.concatenate([(row_master[c][:, :, None] * n_col
                                + col_master[c][:, None, :]).ravel()
                               for c in conns])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        self.rows, self.cols = (a.astype(np.int32) for a in
                                np.divmod(keys[starts], n_col))
        del keys
        # entry k of a group's keys is the element block (group, i, j) with
        # i nn + j = k mod nn^2
        group = np.repeat(np.arange(len(conns)) * nn * nn,
                          [c.size * nn for c in conns])
        self.blocks = _narrow(order % (nn * nn) + group[order])
        self.counts = _narrow(np.diff(starts, append=len(order)))
        # the first pair of each row node, and its number of pairs
        self.heads = np.flatnonzero(np.diff(self.rows, prepend=-1))
        self.spans = np.diff(self.heads, append=len(self.rows))

    def sum(self, matrix_sets, row_index: np.ndarray, col_index: np.ndarray,
            shape: tuple[int, int]) -> list[sp.csr_matrix]:
        """Per set of element matrices (one per group, node-major and
        component-fastest rows and columns), the canonical CSR of their sum
        over the groups' elements; only non-zero sums are stored. The
        matrices share one placement of their entries, made for the
        component pairs that any of them couples. row_index and col_index
        (nodes, components) give each node component its reduced DOF, -1
        where it is constrained, ascending in (node, component) order."""
        nn = self.nn
        ncr, ncc = row_index.shape[1], col_index.shape[1]
        stacks = [np.concatenate([
            np.reshape(Ke, (nn, ncr, nn, ncc)).transpose(0, 2, 1, 3)
            .reshape(nn * nn, ncr, ncc) for Ke in mats])
            for mats in matrix_sets]
        # component pairs of some block entry
        live = np.any([s.any(axis=0) for s in stacks], axis=0)
        # component-major: one row per component, one column per pair
        rok = np.ascontiguousarray((row_index >= 0).T)[:, self.rows]
        C = col_index.T.astype(np.int32, order="C")[:, self.cols]
        cok = C >= 0
        # entries per (row comp, pair), and a CSR row per (node, row comp)
        # that holds the runs of the node's pairs (consecutive, ascending in
        # column node) in turn
        runs = rok * (live.astype(np.int32) @ cok.astype(np.int32))
        nnz = int(runs.sum())
        itype = np.int32 if max(nnz, *shape) < 2 ** 31 else np.int64
        head_dofs = row_index[self.rows[self.heads]].T
        ok = head_dofs >= 0
        lengths = np.zeros(shape[0], dtype=itype)
        lengths[head_dofs[ok]] = np.add.reduceat(runs, self.heads,
                                                 axis=1)[ok]
        indptr = np.zeros(shape[0] + 1, dtype=itype)
        np.cumsum(lengths, out=indptr[1:])
        start = np.cumsum(runs, axis=1, dtype=itype)
        start -= runs
        del runs
        start -= np.repeat(start[:, self.heads], self.spans, axis=1)
        for c in range(ncr):
            start[c] += indptr[row_index[self.rows, c]]
        # one row per pair, one entry per element block of the pair in the
        # column of its (group, i, j): one product per component pair sums
        # the element matrices of all groups
        incidence = sp.csr_matrix(
            (np.ones(len(self.blocks)), self.blocks.astype(np.int32),
             np.append(0, np.cumsum(self.counts, dtype=np.int32))),
            shape=(len(self.rows), len(stacks[0])))
        # a matrix with no block entry at a component pair keeps zeros there
        datas = [np.zeros(nnz, dtype=s.dtype) for s in stacks]
        indices = np.empty(nnz, dtype=itype)
        for c, d in zip(*np.nonzero(live)):
            stored = rok[c] & cok[d]
            at = start[c][stored]
            indices[at] = C[d][stored]
            start[c] += stored
            for data, stack in zip(datas, stacks):
                if stack[:, c, d].any():
                    data[at] = (incidence @ stack[:, c, d])[stored]
        out = []
        for k, data in enumerate(datas):
            # each matrix owns its index arrays: eliminate_zeros edits them
            shared = k == len(datas) - 1
            A = sp.csr_matrix((data, indices if shared else indices.copy(),
                               indptr if shared else indptr.copy()),
                              shape=shape)
            A.eliminate_zeros()         # sums that cancel
            out.append(A)
        return out


class PencilForm:
    """A stiffness/mass form on a mesh, unassembled: one element matrix per
    element group for K, and for M unless it has none, the node-pair
    pattern of the groups (`NodeBlocks`) and the form's DOF map `dof` (`n`
    free DOFs). `pencil` sums it on `dof` or on a copy of it with further
    pins (`DofMap.pinned`), every time on the one pattern."""

    def __init__(self, mesh, groups, dof: DofMap, stiffness, mass=None):
        groups = {g: ids for g, ids in groups.items() if len(ids)}
        self.blocks = NodeBlocks([mesh.elements[ids]
                                  for ids in groups.values()],
                                 dof.master, dof.master)
        # K's, then M's unless it has none
        self.element_matrices = [[f(g) for g in groups]
                                 for f in (stiffness, mass) if f is not None]
        self.dof = dof

    @property
    def n(self) -> int:
        return self.dof.n_free

    def pencil(self, dof: DofMap | None = None) -> SparseOperatorPair:
        """K and M summed on `dof` (default: the form's own DOF map)."""
        dof = self.dof if dof is None else dof
        K, *M = self.blocks.sum(self.element_matrices, dof.index, dof.index,
                                (dof.n_free, dof.n_free))
        return SparseOperatorPair(K=K, M=M[0] if M else None, dof=dof)


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
    """Stiffness/mass pair of the vector H^1 form with Voigt tensor C
    (`vector_h1_form`), summed on the form's DOF map."""
    return vector_h1_form(mesh, C, grad, density, space, restrict_to, ncomp,
                          eta, extra_constraints).pencil()


def vector_h1_form(mesh, C, grad: ScaledGradientSpec | None = None,
                   density=1.0, space: str = "periodic",
                   restrict_to: str = "all", ncomp: int = 3,
                   eta: float | None = None,
                   extra_constraints=()) -> PencilForm:
    """The vector H^1 form with Voigt tensor C, unassembled.

    K discretizes int C sym-grad~(u) : sym-grad~(v) over the requested
    material subset, M the density-weighted L2 product over the same subset;
    C and density are one value or a {"soft": ..., "stiff": ...} dict, and
    density None gives K only (M is None).
    Spaces (`_dof_map`): 'periodic' (its kernel: translations_kernel(dof)),
    'inclusion-zero-trace' (H^1_00 on the discrete Y0), 'dirichlet'
    (the mesh's gamma_D nodes), 'free'. extra_constraints holds further
    (nodes, components) pairs to pin, e.g. z-planes.
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
    return PencilForm(
        mesh, groups, dof,
        lambda g: el.q1_stiffness(hsize, Cs[g], third=third, ncomp=ncomp),
        None if density is None else
        lambda g: el.q1_mass(hsize, float(rs[g]), ncomp=ncomp))


def assemble_bfs_h2(mesh, D, density=1.0, space: str = "periodic",
                    restrict_to: str = "all") -> SparseOperatorPair:
    """Stiffness/mass pair of the Hessian form int D hess(u):hess(v) in the
    C^1 Bogner-Fox-Schmit space (DOFs w, w_x, w_y, w_xy per node).

    Spaces (`_dof_map`): 'periodic' (its kernel, the constants:
    translations_kernel(dof, [0])), 'dirichlet' (all four DOFs pinned on
    the mesh's gamma_D nodes), 'inclusion-zero-trace' (H^2_0 on the
    discrete Y0), 'free'. density None assembles K only (M is None).
    """
    hsize = mesh.element_size()
    if len(hsize) != 2:
        raise ValueError("BFS elements are two-dimensional")
    groups = _element_groups(mesh, restrict_to)
    Ds = _by_material(D)
    rs = _by_material(density)

    return PencilForm(mesh, groups, _dof_map(mesh, 4, space, groups),
                      lambda g: el.bfs_stiffness(hsize, Ds[g]),
                      None if density is None else
                      lambda g: el.bfs_mass(hsize, rs[g])).pencil()


def assemble_rect_block(mesh, row_dof: DofMap | None,
                        col_dof: DofMap | None,
                        element_matrix: np.ndarray) -> sp.csr_matrix:
    """Rectangular coupling block of one element matrix shared by all
    elements of the mesh: rows on the DOFs of row_dof, columns on those of
    col_dof; None stands for the nodal values (one free DOF per node)."""
    nodal = DofMap(mesh.n_nodes, 1).finalize()
    row_dof, col_dof = (nodal if d is None else d for d in (row_dof, col_dof))
    blocks = NodeBlocks([mesh.elements], row_dof.master, col_dof.master)
    return blocks.sum([[element_matrix]], row_dof.index, col_dof.index,
                      (row_dof.n_free, col_dof.n_free))[0]


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


def assemble_pointwise_load(mesh, dof: DofMap | None, fe: np.ndarray,
                            elem_ids: np.ndarray) -> np.ndarray:
    """Scatter element loads that vary per element: fe (elements, local
    DOFs[, load cases]) holds one local vector per element of elem_ids.
    With no `dof` the load is nodal: every (node, component) is a DOF."""
    if dof is None:
        ncomp = fe.shape[1] // mesh.elements.shape[1]
        dof = DofMap(mesh.n_nodes, ncomp).finalize()
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
