"""DOF management, sparse assembly, linear solves, and generalized
eigensolvers for the structured-grid elements."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    pass


class DofMap:
    """Maps (node, component) pairs to reduced equation numbers.

    Constraints supported: homogeneous Dirichlet (drop the DOF) and periodic
    master/slave identification of whole nodes (`master`). Call finalize()
    before assembling; given node ranks, it keys each reduced DOF by its
    node's (`key`). Reduced DOFs are numbered in (node, component) order,
    so a map with further pins (`pinned`) numbers the DOFs it keeps in the
    same order.
    """

    def __init__(self, n_nodes: int, ncomp: int):
        self.n_nodes = n_nodes
        self.ncomp = ncomp
        self.master = np.arange(n_nodes)           # periodic master node
        self._owner = np.arange(n_nodes * ncomp)   # linear (node, comp) ids
        self._constrained = np.zeros(n_nodes * ncomp, dtype=bool)
        self.index = None
        self.n_free = 0
        self.key = None
        self._rank = None

    def _lin(self, nodes, comps):
        nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
        comps = np.arange(self.ncomp) if comps is None else np.atleast_1d(comps)
        return (nodes[None, :] * self.ncomp + comps[:, None]).ravel()

    def constrain(self, nodes, comps=None):
        self._constrained[self._lin(nodes, comps)] = True
        return self

    def identify_periodic(self, periodic_map):
        """Point every slave node's DOFs at its master's."""
        self.master = np.asarray(periodic_map)
        self._owner = (self.master[:, None] * self.ncomp
                       + np.arange(self.ncomp)).ravel()
        return self

    def finalize(self, node_rank: np.ndarray | None = None):
        """Number the free DOFs; given node ranks (the grid's slab order),
        key each by its node's rank: sorting the keys gives the factor
        order, with a node's components side by side."""
        # a constraint on any member of a periodic class constrains the class
        owner = self._owner
        class_con = np.zeros(len(owner), dtype=bool)
        np.logical_or.at(class_con, owner, self._constrained)
        constrained = class_con[owner] | self._constrained
        free = np.flatnonzero((owner == np.arange(len(owner))) & ~constrained)
        red = -np.ones(len(owner), dtype=int)
        red[free] = np.arange(len(free))
        idx = np.where(constrained, -1, red[owner])
        self.index = idx.reshape(self.n_nodes, self.ncomp)
        self.n_free = len(free)
        self._rank = node_rank
        if node_rank is not None:
            self.key = node_rank[free // self.ncomp]
        return self

    def pinned(self, constraints) -> "DofMap":
        """A finalized copy of this map with the further (nodes, components)
        pins of `constraints`, keyed by the same node ranks; this map is
        left as it is."""
        dof = copy.copy(self)
        dof._constrained = self._constrained.copy()
        for nodes, comps in constraints:
            dof.constrain(nodes, comps)
        return dof.finalize(self._rank)

    def element_dofs(self, conn) -> np.ndarray:
        """(n_elem, nn*ncomp) reduced indices, node-major comp-fastest."""
        return self.index[conn].reshape(conn.shape[0], -1)

    def expand(self, u_red: np.ndarray) -> np.ndarray:
        """Full (n_nodes, ncomp) field with zeros on constrained DOFs."""
        flat = np.zeros(self.n_nodes * self.ncomp, dtype=u_red.dtype)
        idx = self.index.ravel()
        ok = idx >= 0
        flat[ok] = u_red[idx[ok]]
        return flat.reshape(self.n_nodes, self.ncomp)


def slab_order(shape, periodic) -> np.ndarray:
    """Elimination rank of every node of a structured grid in slab order:
    lexicographic, with the axis of most distinct node planes slowest (on a
    tie the lower axis runs faster), so that a node's element neighbours
    lie within one node slab, one node row and one node of its rank, twice
    that along a folded axis (A. George and J. W. H. Liu, Computer Solution
    of Large Sparse Positive Definite Systems, Prentice-Hall 1981, ch. 4).

    shape holds the node count per axis, x first, and node ids run
    x-fastest; on a periodic axis the last node plane is the image of the
    first and takes its ranks. The m distinct planes of a periodic axis are
    folded, 0, m-1, 1, m-2, ..., so that planes adjacent on the ring are at
    most two apart in the order."""
    free = [m - p for m, p in zip(shape, periodic)]
    rank = np.zeros(shape[::-1], dtype=int)
    weight = 1
    for ax in sorted(range(len(shape)), key=free.__getitem__):
        f = free[ax]
        i = np.arange(shape[ax]) % f
        pos = np.where(2 * i < f, 2 * i, 2 * (f - i) - 1) if periodic[ax] \
            else i
        rank += weight * pos.reshape((-1,) + (1,) * ax)
        weight *= f
    return rank.ravel()


CLUSTER_GAP = 1e-6       # relative eigenvalue gap defining a multiplicity cluster


def cluster_starts(eigenvalues) -> np.ndarray:
    """Start indices of the multiplicity clusters of ascending eigenvalues:
    a cluster continues while the next eigenvalue lies within CLUSTER_GAP
    (relative) of the previous one."""
    w = np.asarray(eigenvalues, dtype=float)
    new = np.ones(len(w), dtype=bool)
    new[1:] = np.abs(np.diff(w)) > CLUSTER_GAP * np.maximum(1.0, np.abs(w[1:]))
    return np.flatnonzero(new)


# eigs_smallest goes dense when n <= DENSE_MAX_DOFS or n <= DENSE_MODE_RATIO * N;
# an ARPACK failure falls back to dense only up to DENSE_FALLBACK_MAX_DOFS
DENSE_MAX_DOFS, DENSE_MODE_RATIO, DENSE_FALLBACK_MAX_DOFS = 400, 20, 12000
ARPACK_MAXITER = 2000


@dataclass
class EigWorkspace:
    """Eigensolver settings (the mode count is passed separately): `tol`
    bounds each pair's backward error (floored at 1e-8); `solver` "auto"
    applies the size rule, any other value forces that path; `seed` fixes
    the ARPACK start vector."""
    tol: float = 1e-9
    solver: str = "auto"          # auto | dense | shift-invert
    seed: int = 1234

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class SparseOperatorPair:
    """Stiffness/mass pair on the reduced (constrained) DOF set; `order`
    is the factorization key of its DOFs (default: the DOF map's)."""
    K: sp.csr_matrix
    M: sp.csr_matrix | None               # None: assembled without mass
    dof: DofMap
    order: np.ndarray | None = None

    def __post_init__(self):
        if self.order is None:
            self.order = self.dof.key

    @property
    def n(self) -> int:
        return self.K.shape[0]

    def restrict(self, ids) -> "SparseOperatorPair":
        """The principal subpencil on the DOF ids: K, M (when there is one)
        and the keys restricted; the DOF map stays this pair's."""
        return SparseOperatorPair(
            K=self.K[ids][:, ids],
            M=None if self.M is None else self.M[ids][:, ids], dof=self.dof,
            order=None if self.order is None else self.order[ids])


def detect_kernel(K: sp.csr_matrix, kernel_tol: float = 1e-10, kmax: int = 6) -> np.ndarray | None:
    """Orthonormal basis of the numerical kernel: eigenvectors of K with
    Rayleigh quotient below kernel_tol * ||K||."""
    n = K.shape[0]
    scale = abs(K).max()
    if n <= 400:
        w, v = sla.eigh(K.toarray())
    else:
        try:
            w, v = spla.eigsh(K, k=min(kmax, n - 2), sigma=-1e-3 * scale, which="LM")
        except spla.ArpackError as exc:
            if n > DENSE_FALLBACK_MAX_DOFS:
                raise SolverError(f"kernel detection failed: {exc}") from exc
            w, v = sla.eigh(K.toarray())
        except RuntimeError as exc:      # eigsh's own LU of the shifted K
            raise SolverError(f"kernel detection factorization failed: "
                              f"{exc}") from exc
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    keep = w < kernel_tol * scale
    if not keep.any():
        return None
    basis, _ = np.linalg.qr(v[:, keep])
    return basis


def _max_row_sum(A) -> float:
    """||A||_inf of a sparse A, the largest row sum of |A|, straight from
    its CSR arrays: scipy's `norm` takes five times as long. It scales the
    eigenpair contract and the linear-solve backward error."""
    A = A.tocsr()
    starts = A.indptr[:-1][np.diff(A.indptr) > 0]      # non-empty rows
    return float(np.add.reduceat(np.abs(A.data), starts).max(initial=0.0))


class SpdFactor:
    """Band Cholesky factor of a symmetric positive (semi)definite matrix;
    build it with `factorize`.

    A known kernel V (A V = 0) is handled by pinning: k DOFs chosen by
    pivoted QR of V^T are dropped, which leaves a nonsingular SPD block.
    The lower triangle of that block, in the order that sorts the DOF keys
    `order` (the grid's slab order; without keys, the matrix's own order),
    goes straight from the CSR arrays into LAPACK's lower band storage and
    is factored there by xPBTRF, real or complex Hermitian (E. Anderson et
    al., LAPACK Users' Guide, SIAM 1999); a leading minor that is not
    positive raises SolverError.
    Only the lower triangle is read: the backward-error check of `solve`
    against the whole A is what certifies that it was the matrix. `solve`
    returns the kernel-orthogonal solution of the kernel-projected system.
    """

    def __init__(self, A, kernel: np.ndarray | None = None, tol: float = 1e-10,
                 order: np.ndarray | None = None):
        self.A = sp.csr_matrix(A)
        self.tol = tol
        n = self.A.shape[0]
        self.V = None
        keep = np.ones(n, dtype=bool)
        if kernel is not None and np.size(kernel):
            self.V, _ = np.linalg.qr(np.reshape(kernel, (n, -1)))
            _, _, piv = sla.qr(self.V.T, mode="economic", pivoting=True)
            keep[piv[:self.V.shape[1]]] = False
        self.ordering = "natural" if order is None else "slab"
        p = np.arange(n) if order is None else np.argsort(order, kind="stable")
        self._p = p[keep[p]]             # the factored DOFs, in factor order
        self._norm = _max_row_sum(self.A)
        m = len(self._p)
        rank = np.full(n, -1)            # pinned DOFs are skipped
        rank[self._p] = np.arange(m)
        i = np.repeat(rank, np.diff(self.A.indptr))
        j = rank[self.A.indices]
        low = (j >= 0) & (i >= j)
        d, j = i[low] - j[low], j[low]
        w = int(d.max(initial=0)) + 1    # band rows: half-bandwidth + 1
        # entry (i, j) at row i - j of column j, column-major; canonical
        # CSR holds each entry once
        band = np.zeros((w, m), np.result_type(self.A.dtype, float), "F")
        band[d, j] = self.A.data[low]
        pbtrf, self._pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (band,))
        self._band, info = pbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise SolverError(f"the matrix is not positive definite: its "
                              f"leading minor of order {info} (in factor "
                              f"order) is not positive")

    @property
    def fill(self) -> int:
        """Stored entries of the band factor, (half-bandwidth + 1) rows."""
        return int(self._band.size)

    def _project(self, y: np.ndarray) -> np.ndarray:
        return y if self.V is None else y - self.V @ (self.V.T @ y)

    def _apply(self, b: np.ndarray) -> np.ndarray:
        """Pinned solve for kernel-projected right-hand side(s)."""
        x = np.zeros_like(b)
        x[self._p] = self._pbtrs(self._band, b[self._p], lower=1)[0]
        return self._project(x)

    def _backward_error(self, x, b, b_norm) -> float:
        """Worst normwise backward error over the columns,
        ||P(A x - b)|| / (||A||_inf ||x|| + ||b||) (N. J. Higham, Accuracy
        and Stability of Numerical Algorithms, SIAM 2002, thm. 7.1)."""
        r = np.linalg.norm(self._project(self.A @ x - b), axis=0)
        scale = self._norm * np.linalg.norm(x, axis=0) + b_norm
        return float(np.max(r / np.maximum(scale, 1e-300), initial=0.0))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = P b and V^T x = 0 (P the projector off the kernel),
        for a vector or a matrix of right-hand sides. One refinement step
        is taken when the backward error misses `tol`; SolverError is
        raised when it still does."""
        b = np.asarray(b)
        b = b.astype(np.result_type(b, self._band), copy=False)
        b_norm = np.linalg.norm(b, axis=0)
        b = self._project(b)
        x = self._apply(b)
        err = self._backward_error(x, b, b_norm)
        if not err <= self.tol:          # also catches a NaN residual
            x = x + self._apply(self._project(b - self.A @ x))
            err = self._backward_error(x, b, b_norm)
            if not err <= self.tol:
                raise SolverError(f"linear solve backward error {err:.2e} "
                                  f"exceeds {self.tol:.0e} after refinement")
        return x


def factorize(A, kernel: np.ndarray | None = None, tol: float = 1e-10,
              order: np.ndarray | None = None) -> SpdFactor:
    """The one factorization path for SPD (or kernel-singular SPSD)
    systems; `order` holds the DOF keys of the grid's slab order."""
    return SpdFactor(A, kernel, tol, order)


def solve_spd(pair: SparseOperatorPair, rhs: np.ndarray,
              kernel: np.ndarray | None = None,
              tol: float = 1e-10) -> np.ndarray:
    """One-shot `factorize(pair.K, kernel, ...).solve(rhs)`: a given kernel
    is pinned and x is returned kernel-orthogonal. (The benchmark tracer
    in perfbench/layers.py wraps this name.)"""
    return factorize(pair.K, kernel, tol, order=pair.order).solve(rhs)


def fix_signs(vecs: np.ndarray, tol: float = 1e-12,
              by: np.ndarray | None = None) -> np.ndarray:
    """Deterministic eigenvector signs: the first above-threshold entry of
    each column of `by` (by default the columns themselves) positive."""
    by = vecs if by is None else by
    size = abs(by)
    big = size > tol * np.maximum(size.max(axis=0), 1e-300)
    first = by[big.argmax(axis=0), np.arange(by.shape[1])]
    return vecs * np.where(np.real(first) < 0, -1, 1)


def _m_orthonormalize(V, M):
    """Cholesky QR in the M inner product: V^H M V = L L^H, V <- V L^-H
    (the triangular factor of Gram-Schmidt, in one dense step)."""
    try:
        L = np.linalg.cholesky(V.conj().T @ (M @ V))
    except np.linalg.LinAlgError as exc:
        raise SolverError("eigenvectors are not M-independent") from exc
    return sla.solve_triangular(L, V.conj().T, lower=True).conj().T


def _dense_pairs(pair: SparseOperatorPair, N: int):
    # one pair from LAPACK's subset routine; for more, all pairs, since that
    # routine picks another basis inside a multiple eigenvalue. The dense
    # Fortran-ordered copies are LAPACK's to overwrite, so eigh makes none
    w, v = sla.eigh(pair.K.toarray(order="F"), pair.M.toarray(order="F"),
                    overwrite_a=True, overwrite_b=True,
                    subset_by_index=[0, 0] if N == 1 else None)
    return w[:N], v[:, :N]


def _shift_invert_pairs(pair: SparseOperatorPair, N: int, ws: EigWorkspace,
                        tol: float, singular_mass: bool):
    """ARPACK shift-invert at shift 0 from a seeded start vector (ARPACK
    Users' Guide, SIAM 1998), K inverted by `factorize`, real or complex
    Hermitian. Mode 3 needs M semidefinite only, but
    with a singular M the Ritz vectors drift off range(K^-1 M) (backward
    errors up to 0.2 seen on a 40-DOF pencil); one more inverse step
    purifies them (B. Nour-Omid, B. N. Parlett, T. Ericsson and P. S.
    Jensen, Math. Comp. 48, 1987). Only an ARPACK failure goes dense, and
    only with a definite mass."""
    lu = factorize(pair.K, tol=tol, order=pair.order)
    opinv = spla.LinearOperator(pair.K.shape, dtype=pair.K.dtype,
                                matvec=lu.solve)
    try:
        w, v = spla.eigsh(pair.K, k=N, M=pair.M, sigma=0.0, which="LM",
                          OPinv=opinv, maxiter=ARPACK_MAXITER,
                          v0=np.random.RandomState(ws.seed).rand(pair.n))
    except spla.ArpackError as exc:
        if singular_mass or pair.n > DENSE_FALLBACK_MAX_DOFS:
            raise SolverError(f"shift-invert eigensolver failed: {exc}") from exc
        return _dense_pairs(pair, N)
    if singular_mass:
        v = lu.solve(pair.M @ v) * w
    return w, v


def eigs_smallest(pair: SparseOperatorPair, N: int,
                  ws: EigWorkspace | None = None):
    """Smallest N generalized eigenpairs of (K, M), ascending, vectors
    M-orthonormal with deterministic signs, once each pair meets the
    backward-error contract ||K v - w M v|| <= tol (||K|| + |w| ||M||) ||v||,
    tol = max(ws.tol, 1e-8), norms as max row sums (N. J. Higham and D. J.
    Higham, SIAM J. Matrix Anal. Appl. 20, 1998); SolverError names the
    first pair that misses it. A mass with a zero diagonal entry (a
    stiffness-only block) is semidefinite: only shift-invert handles it."""
    ws = ws or EigWorkspace()
    n = pair.n
    if N < 1 or N > n:
        raise ValueError(f"requested {N} modes from a {n}-DOF operator")
    tol = max(ws.tol, 1e-8)
    massless = int(np.count_nonzero(pair.M.diagonal() == 0))
    solver = ws.solver
    if solver == "auto":
        dense = n <= DENSE_MAX_DOFS or n <= DENSE_MODE_RATIO * N
        solver = "dense" if dense and not massless else "shift-invert"
    if solver != "dense" and N > n - 2:
        solver = "dense"
    if massless and solver != "shift-invert":
        raise SolverError(f"the {solver} eigensolver needs a definite mass; "
                          f"this mass is singular ({massless} zero diagonal "
                          f"entries)")

    if solver == "dense":
        w, v = _dense_pairs(pair, N)
    elif solver == "shift-invert":
        w, v = _shift_invert_pairs(pair, N, ws, tol, massless > 0)
    else:
        raise ValueError(f"unknown solver {ws.solver!r}")

    order = np.argsort(w)
    w, v = np.real(w[order]), fix_signs(_m_orthonormalize(v[:, order],
                                                          pair.M))
    r = np.linalg.norm(pair.K @ v - (pair.M @ v) * w, axis=0)
    scale = np.linalg.norm(v, axis=0) * (_max_row_sum(pair.K)
                                         + np.abs(w) * _max_row_sum(pair.M))
    bad = np.flatnonzero(~(r <= tol * scale))      # also catches NaN
    if bad.size:
        j = bad[0]
        raise SolverError(f"eigenpair {j} backward error "
                          f"{r[j] / scale[j]:.2e} exceeds {tol:.0e}")
    return w, v


def eigs_by_class(pencils, N: int, ws: EigWorkspace | None = None):
    """The N smallest eigenvalues of a pencil over its parity classes,
    given as the class pencils (an iterable: each is solved by
    `eigs_smallest` for at most N pairs and let go before the next is
    taken, so one class pencil is alive at a time). The eigenvalues of all
    classes merge in ascending order; inside a multiplicity cluster
    (`cluster_starts`) the pairs go by class, then by their order in it,
    never by round-off. Returns the eigenvalues, the class of each, and
    each class's vectors in merged order (its columns, on its DOFs)."""
    def smallest(pencil):
        return eigs_smallest(pencil, min(N, pencil.n), ws) if pencil.n \
            else (np.zeros(0), np.zeros((0, 0)))
    # map keeps no reference to a pencil once it is solved
    w, vecs = zip(*map(smallest, pencils))
    cls = [np.full(len(wk), k) for k, wk in enumerate(w)]
    w, cls = np.concatenate(w), np.concatenate(cls)
    by_value = np.argsort(w, kind="stable")
    starts = np.zeros(len(w), dtype=bool)
    starts[cluster_starts(w[by_value])] = True
    cluster = np.empty(len(w), dtype=int)
    cluster[by_value] = np.cumsum(starts)
    # a class keeps its own ascending order, so it contributes a prefix of
    # its vectors
    order = np.lexsort((np.arange(len(w)), cls, cluster))[:N]
    w, cls = w[order], cls[order]
    return w, cls, [v[:, :np.count_nonzero(cls == k)]
                    for k, v in enumerate(vecs)]
