"""DOF management, sparse assembly, linear solves, and generalized
eigensolvers for the structured-grid elements."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    pass


class DofMap:
    """Maps (node, component) pairs to reduced equation numbers.

    Constraints supported: homogeneous Dirichlet (drop the DOF) and periodic
    master/slave identification. Call finalize() before assembling.
    """

    def __init__(self, n_nodes: int, ncomp: int):
        self.n_nodes = n_nodes
        self.ncomp = ncomp
        self._owner = np.arange(n_nodes * ncomp)   # linear (node, comp) ids
        self._constrained = np.zeros(n_nodes * ncomp, dtype=bool)
        self.index = None
        self.n_free = 0

    def _lin(self, nodes, comps):
        nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
        if comps is None:
            comps = range(self.ncomp)
        out = []
        for c in np.atleast_1d(comps):
            out.append(nodes * self.ncomp + c)
        return np.concatenate(out)

    def constrain(self, nodes, comps=None):
        self._constrained[self._lin(nodes, comps)] = True
        return self

    def identify_periodic(self, periodic_map, comps=None):
        """Point every slave (node, comp) at its master's slot."""
        pm = np.asarray(periodic_map)
        comps = range(self.ncomp) if comps is None else np.atleast_1d(comps)
        for c in comps:
            self._owner[np.arange(self.n_nodes) * self.ncomp + c] = pm * self.ncomp + c
        return self

    def finalize(self):
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
        return self

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


def scatter(conn_dofs: np.ndarray, element_matrix: np.ndarray, n: int,
            triplets=None):
    """Accumulate one element matrix over many elements into COO triplets."""
    ne, nd = conn_dofs.shape
    rows = np.repeat(conn_dofs, nd, axis=1).ravel()
    cols = np.tile(conn_dofs, (1, nd)).ravel()
    vals = np.tile(element_matrix.ravel(), ne)
    ok = (rows >= 0) & (cols >= 0)
    if triplets is None:
        triplets = ([], [], [])
    triplets[0].append(rows[ok])
    triplets[1].append(cols[ok])
    triplets[2].append(vals[ok])
    return triplets


def triplets_to_csr(triplets, n: int, dtype=float) -> sp.csr_matrix:
    if not triplets[0]:
        return sp.csr_matrix((n, n), dtype=dtype)
    rows = np.concatenate(triplets[0])
    cols = np.concatenate(triplets[1])
    vals = np.concatenate(triplets[2])
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()
    return A


def scatter_scaled(conn_dofs: np.ndarray, element_matrix: np.ndarray,
                   scale_per_element: np.ndarray, triplets):
    """Like scatter, with a per-element scalar factor on the shared matrix."""
    ne, nd = conn_dofs.shape
    rows = np.repeat(conn_dofs, nd, axis=1).ravel()
    cols = np.tile(conn_dofs, (1, nd)).ravel()
    vals = (scale_per_element[:, None] * element_matrix.ravel()[None, :]).ravel()
    ok = (rows >= 0) & (cols >= 0)
    triplets[0].append(rows[ok])
    triplets[1].append(cols[ok])
    triplets[2].append(vals[ok])
    return triplets


@dataclass
class EigWorkspace:
    """Eigensolver knobs: requested mode count is passed separately."""
    tol: float = 1e-9
    solver: str = "auto"          # auto | dense | shift-invert | lobpcg
    dense_threshold: int = 4000
    sigma: float = 0.0
    maxiter: int = 2000
    seed: int = 1234

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class SparseOperatorPair:
    """Stiffness/mass pair on the reduced (constrained) DOF set."""
    K: sp.csr_matrix
    M: sp.csr_matrix
    dof: DofMap
    kernel: np.ndarray | None = None      # orthonormal columns, or None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.K.shape[0]

    def check_symmetry(self, tol=1e-12):
        for A in (self.K, self.M):
            d = abs(A - A.getH()).max()
            if d > tol * max(1.0, abs(A).max()):
                raise SolverError(f"assembled matrix asymmetric by {d:.2e}")
        return True


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
        except Exception:
            w, v = sla.eigh(K.toarray())
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    keep = w < kernel_tol * scale
    if not keep.any():
        return None
    basis, _ = np.linalg.qr(v[:, keep])
    return basis


class SpdFactor:
    """Sparse LU of a symmetric positive (semi)definite matrix; build it
    with `factorize`.

    A known kernel V (A V = 0) is handled by pinning: k DOFs chosen by
    pivoted QR of V^T are dropped, which leaves a nonsingular SPD block.
    That block is factored with a symmetric minimum-degree ordering and
    diagonal pivots only (X. S. Li, ACM TOMS 31, 2005). `solve` returns the
    kernel-orthogonal solution of the kernel-projected system.
    """

    def __init__(self, A, kernel: np.ndarray | None = None, tol: float = 1e-10):
        self.A = sp.csr_matrix(A)
        self.tol = tol
        n = self.A.shape[0]
        self.V = None
        self._keep = None
        if kernel is not None and np.size(kernel):
            self.V, _ = np.linalg.qr(np.reshape(kernel, (n, -1)))
            _, _, piv = sla.qr(self.V.T, mode="economic", pivoting=True)
            self._keep = np.setdiff1d(np.arange(n), piv[:self.V.shape[1]])
        B = self.A if self._keep is None else self.A[self._keep][:, self._keep]
        try:
            self._lu = spla.splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc

    def _project(self, y: np.ndarray) -> np.ndarray:
        return y if self.V is None else y - self.V @ (self.V.T @ y)

    def _apply(self, b: np.ndarray) -> np.ndarray:
        """Pinned solve for kernel-projected right-hand side(s)."""
        if self._keep is None:
            return self._lu.solve(b)
        x = np.zeros_like(b)
        x[self._keep] = self._lu.solve(np.ascontiguousarray(b[self._keep]))
        return self._project(x)

    def _residual(self, x, b, scale) -> float:
        """Worst projected residual over the columns, relative to |b|."""
        r = np.linalg.norm(self._project(self.A @ x - b), axis=0)
        return float(np.max(r / np.maximum(scale, 1e-300), initial=0.0))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = P b and V^T x = 0 (P the projector off the kernel),
        for a vector or a matrix of right-hand sides. One refinement step
        is taken when the projected residual misses `tol`; SolverError is
        raised when it still does."""
        b = np.asarray(b, dtype=float)
        scale = np.linalg.norm(b, axis=0)
        b = self._project(b)
        x = self._apply(b)
        rel = self._residual(x, b, scale)
        if not rel <= self.tol:          # also catches a NaN residual
            x = x + self._apply(self._project(b - self.A @ x))
            rel = self._residual(x, b, scale)
            if not rel <= self.tol:
                raise SolverError(f"linear solve residual {rel:.2e} exceeds "
                                  f"{self.tol:.0e} after refinement")
        return x


def factorize(A, kernel: np.ndarray | None = None,
              tol: float = 1e-10) -> SpdFactor:
    """The one factorization path for SPD (or kernel-singular SPSD) systems."""
    return SpdFactor(A, kernel, tol)


def solve_spd(pair: SparseOperatorPair, rhs: np.ndarray,
              deflate_kernel: bool = False, tol: float = 1e-10) -> np.ndarray:
    """One-shot `factorize(pair.K, ...).solve(rhs)`; with deflation the
    pair's kernel is pinned and x is returned kernel-orthogonal. (The
    benchmark tracer in perfbench/layers.py wraps this name.)"""
    kernel = pair.kernel if deflate_kernel else None
    return factorize(pair.K, kernel, tol).solve(rhs)


def fix_signs(vecs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Deterministic eigenvector signs: first above-threshold entry positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(abs(col) > tol * max(abs(col).max(), 1e-300))
        if len(nz) and np.real(col[nz[0]]) < 0:
            out[:, j] = -col
    return out


def _m_orthonormalize(vecs, M):
    """Gram-Schmidt in the M inner product (stabilizes multiple eigenvalues)."""
    V = vecs.copy()
    for j in range(V.shape[1]):
        for i in range(j):
            V[:, j] -= (V[:, i].conj() @ (M @ V[:, j])) * V[:, i]
        nrm = np.sqrt(abs(V[:, j].conj() @ (M @ V[:, j])))
        V[:, j] /= nrm
    return V


def eigs_smallest(pair: SparseOperatorPair, N: int,
                  ws: EigWorkspace | None = None):
    """Smallest N generalized eigenpairs of (K, M), ascending, vectors
    M-orthonormal with deterministic signs."""
    ws = ws or EigWorkspace()
    n = pair.n
    if N < 1 or N > n:
        raise ValueError(f"requested {N} modes from a {n}-DOF operator")
    solver = ws.solver
    if solver == "auto":
        solver = "dense" if n <= ws.dense_threshold else "shift-invert"
    if solver != "dense" and N > n - 2:
        solver = "dense"

    herm = np.iscomplexobj(pair.K)
    if solver == "dense":
        Kd = pair.K.toarray()
        Md = pair.M.toarray()
        w, v = sla.eigh(Kd, Md)
        w, v = w[:N], v[:, :N]
    elif solver == "shift-invert":
        try:
            w, v = spla.eigsh(pair.K, k=N, M=pair.M, sigma=ws.sigma,
                              which="LM", maxiter=ws.maxiter)
        except Exception as exc:
            if n <= 12000:
                w, v = sla.eigh(pair.K.toarray(), pair.M.toarray())
                w, v = w[:N], v[:, :N]
            else:
                raise SolverError(f"shift-invert eigensolver failed: {exc}") from exc
    elif solver == "lobpcg":
        if herm:
            raise SolverError("lobpcg path is real-symmetric only")
        rng = np.random.RandomState(ws.seed)
        X = rng.standard_normal((n, N))
        prec = sp.diags(1.0 / pair.K.diagonal())
        w, v = spla.lobpcg(pair.K, X, B=pair.M, M=prec, largest=False,
                           tol=ws.tol, maxiter=ws.maxiter)
    else:
        raise ValueError(f"unknown solver {ws.solver!r}")

    order = np.argsort(w)
    w, v = np.real(w[order]), v[:, order]
    v = _m_orthonormalize(v, pair.M)
    v = fix_signs(v)
    # residual contract: ||K v - w M v|| <= tol * ||K v||
    for j in range(len(w)):
        kv = pair.K @ v[:, j]
        r = np.linalg.norm(kv - w[j] * (pair.M @ v[:, j]))
        if r > max(ws.tol, 1e-8) * max(np.linalg.norm(kv), 1e-300):
            raise SolverError(f"eigenpair {j} residual {r:.2e} too large")
    return w, v
