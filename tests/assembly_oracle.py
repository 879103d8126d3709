"""The COO assembly path that hcplate.fem replaced by node-block sums
(`NodeBlocks`): every entry of every element matrix becomes a (row,
column, value) triplet in reduced DOFs, constrained ones dropped, and scipy
sums the duplicates. Simple and several times the memory of the result,
so it is kept here as the oracle of the node-block assembler."""

import numpy as np
import scipy.sparse as sp

from hcplate.fem import elements as el


def scatter(conn_dofs: np.ndarray, element_matrix: np.ndarray, triplets,
            col_dofs: np.ndarray | None = None):
    """Append one element matrix over many elements to COO triplets; rows
    conn_dofs, columns col_dofs (default: the rows) per element."""
    col_dofs = conn_dofs if col_dofs is None else col_dofs
    nr, nc = element_matrix.shape
    rows = np.repeat(conn_dofs, nc, axis=1).ravel()
    cols = np.tile(col_dofs, (1, nr)).ravel()
    vals = np.tile(element_matrix.ravel(), conn_dofs.shape[0])
    ok = (rows >= 0) & (cols >= 0)
    triplets[0].append(rows[ok])
    triplets[1].append(cols[ok])
    triplets[2].append(vals[ok])
    return triplets


def triplets_to_csr(triplets, shape, dtype=float) -> sp.csr_matrix:
    if not triplets[0]:
        return sp.csr_matrix(shape, dtype=dtype)
    A = sp.coo_matrix((np.concatenate(triplets[2]),
                       (np.concatenate(triplets[0]),
                        np.concatenate(triplets[1]))), shape=shape).tocsr()
    A.sum_duplicates()
    return A


def groups_of(mesh, restrict_to="all") -> dict:
    """Element ids per material group, as assemble_vector_h1 takes them."""
    soft = getattr(mesh, "element_soft", None)
    if soft is None:
        return {"stiff": np.arange(len(mesh.elements))}
    out = {"stiff": np.flatnonzero(~soft), "soft": np.flatnonzero(soft)}
    return out if restrict_to == "all" else {restrict_to: out[restrict_to]}


def assemble(mesh, dof, groups, element_matrix) -> sp.csr_matrix:
    """Sum element_matrix(group) over each group's elements on the reduced
    DOFs of dof."""
    triplets = ([], [], [])
    dtype = float
    for name, ids in groups.items():
        if len(ids):
            Ke = element_matrix(name)
            dtype = np.result_type(dtype, Ke)
            scatter(dof.element_dofs(mesh.elements[ids]), Ke, triplets)
    return triplets_to_csr(triplets, (dof.n_free, dof.n_free), dtype)


def vector_h1_pair(mesh, dof, C, density, restrict_to="all", ncomp=3,
                   third=None):
    """(K, M) of assemble_vector_h1 on its DOF map, by triplets."""
    hsize = mesh.element_size()
    groups = groups_of(mesh, restrict_to)
    Cs = C if isinstance(C, dict) else {"soft": C, "stiff": C}
    rs = density if isinstance(density, dict) else \
        {"soft": density, "stiff": density}
    K = assemble(mesh, dof, groups, lambda g: el.q1_stiffness(
        hsize, Cs[g], third=third, ncomp=ncomp))
    M = assemble(mesh, dof, groups,
                 lambda g: el.q1_mass(hsize, float(rs[g]), ncomp=ncomp))
    return K, M


def bfs_pair(mesh, dof, D, density, restrict_to="all"):
    """(K, M) of assemble_bfs_h2 on its DOF map, by triplets."""
    hsize = mesh.element_size()
    groups = groups_of(mesh, restrict_to)
    return (assemble(mesh, dof, groups,
                     lambda g: el.bfs_stiffness(hsize, D)),
            assemble(mesh, dof, groups,
                     lambda g: el.bfs_mass(hsize, density)))


def rect_block(mesh, row_dof, col_dof, element_matrix) -> sp.csr_matrix:
    """assemble_rect_block by triplets; None is the nodal map."""
    def dofs(d):
        return mesh.elements if d is None else d.element_dofs(mesh.elements)

    def size(d):
        return mesh.n_nodes if d is None else d.n_free
    triplets = scatter(dofs(row_dof), element_matrix, ([], [], []),
                       dofs(col_dof))
    return triplets_to_csr(triplets, (size(row_dof), size(col_dof)))
