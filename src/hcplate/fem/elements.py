"""Element matrices on axis-aligned quads/hexes.

Q1 (bi/trilinear) vector elements support an "anisotropically scaled"
strain: the strain is sym(c1 | c2 | c3) where c1, c2 are the in-plane
gradient columns and the third column is one of

* the transversally scaled derivative  (1/delta) d/dz   (prism meshes),
* zero                                                  (plane problems),
* i*eta times the value                                 (strip fibers).

DOF ordering is node-major, components fastest: (n0c0, n0c1, ..., n1c0, ...).
Bogner-Fox-Schmit (bicubic Hermite) elements carry 4 DOFs per node
(w, w_x, w_y, w_xy) and discretize Hessian energies on rectangles.

Element matrices and loads evaluate the shapes at all quadrature points
(``q1_quadrature`` or ``bfs_quadrature``, one tensor-product Gauss rule)
at once. Loads take the load's values at those points as arrays, one row
per element, and return one local vector per element. Both sum the point
contributions in quadrature order (``_sum_points``), so a load is the same
to the last bit whether its elements come one at a time or all at once.
"""

from __future__ import annotations

import functools

import numpy as np

_G2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_G2W = np.array([1.0, 1.0])
_G4 = np.array([-0.8611363115940526, -0.3399810435848563,
                0.3399810435848563, 0.8611363115940526])
_G4W = np.array([0.3478548451374538, 0.6521451548625461,
                 0.6521451548625461, 0.3478548451374538])


def _sum_points(terms, axis):
    """Sum over the quadrature-point axis one point at a time, in quadrature
    order: np.sum may pair the terms depending on the memory layout."""
    return sum(np.moveaxis(terms, axis, 0))


def _gauss_on(lo: float, hi: float, pts, wts):
    x = 0.5 * (hi - lo) * pts + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * wts
    return x, w


def _gauss_rule(hsize, pts, wts):
    """Tensor-product Gauss rule on the element [0, h1] x [0, h2] (x [0, h3]):
    points (q, dim), the first axis fastest, and weights w1 w2 (w3)."""
    rules = [_gauss_on(0, h, pts, wts) for h in hsize]
    grid = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    w = functools.reduce(np.multiply.outer, [w for _, w in rules])
    return (np.column_stack([g.ravel(order="F") for g in grid]),
            w.ravel(order="F"))


def _q1_shape_2d(xi, eta):
    """Bilinear shapes and reference-derivatives on [0,1]^2, node order
    (0,0),(1,0),(1,1),(0,1); array arguments add trailing point axes."""
    N = np.array([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta])
    dNdxi = np.array([-(1 - eta), (1 - eta), eta, -eta])
    dNdeta = np.array([-(1 - xi), -xi, xi, (1 - xi)])
    return N, dNdxi, dNdeta


def _q1_shape_3d(xi, eta, zeta):
    N2, dx2, dy2 = _q1_shape_2d(xi, eta)
    N = np.concatenate([N2 * (1 - zeta), N2 * zeta])
    dNdxi = np.concatenate([dx2 * (1 - zeta), dx2 * zeta])
    dNdeta = np.concatenate([dy2 * (1 - zeta), dy2 * zeta])
    dNdzeta = np.concatenate([-N2, N2])
    return N, dNdxi, dNdeta, dNdzeta


def q1_quadrature(hsize):
    """Gauss points (physical coords within the element, shape (q, dim)) and
    weights; 2x2 in-plane, x2 in x3 for hexes."""
    return _gauss_rule(hsize, _G2, _G2W)


def _q1_eval(hsize, pt):
    """Shapes and physical derivatives at one point (or, for coordinate
    arrays pt[0], pt[1], ..., per node and point); third derivative column
    is None for 2D elements."""
    if len(hsize) == 2:
        hx, hy = hsize
        N, dxi, deta = _q1_shape_2d(pt[0] / hx, pt[1] / hy)
        return N, dxi / hx, deta / hy, None
    hx, hy, hz = hsize
    N, dxi, deta, dzeta = _q1_shape_3d(pt[0] / hx, pt[1] / hy, pt[2] / hz)
    return N, dxi / hx, deta / hy, dzeta / hz


def _q1_at(hsize, pts):
    """(N, dNdx, dNdy, dNdz), each (q, nn), at the points pts (q, dim) of
    the element; dNdz is None for 2D elements."""
    return [None if a is None else a.T for a in _q1_eval(hsize, pts.T)]


def _third_column(N, dNdz, third):
    """Per-node coefficients of the third strain column operator."""
    if third is None:
        return np.zeros_like(N)
    kind, val = third
    if kind == "dz":
        return dNdz * val          # val = 1/delta or 1/h
    if kind == "mult":
        return N * val             # val = i*eta (complex)
    raise ValueError(f"unknown third-column operator {kind!r}")


def q1_b_matrix(N, dNdx, dNdy, c3, ncomp):
    """Engineering-Voigt strain matrix at one quadrature point; per-node
    arrays (q, nn) give one matrix per point, (q, nv, ncomp*nn)."""
    *lead, nn = np.shape(N)
    if ncomp == 2:
        B = np.zeros((*lead, 3, 2 * nn), dtype=np.result_type(c3, float))
        B[..., 0, 0::2] = dNdx
        B[..., 1, 1::2] = dNdy
        B[..., 2, 0::2] = dNdy
        B[..., 2, 1::2] = dNdx
        return B
    B = np.zeros((*lead, 6, 3 * nn), dtype=np.result_type(c3, float))
    B[..., 0, 0::3] = dNdx
    B[..., 1, 1::3] = dNdy
    B[..., 2, 2::3] = c3
    B[..., 3, 1::3] = c3
    B[..., 3, 2::3] = dNdy
    B[..., 4, 0::3] = c3
    B[..., 4, 2::3] = dNdx
    B[..., 5, 0::3] = dNdy
    B[..., 5, 1::3] = dNdx
    return B


def q1_stiffness(hsize, C, third=None, ncomp=3):
    """Element stiffness for the (possibly scaled/complex) symmetric-gradient
    form with Voigt tensor C (6x6 for ncomp=3, 3x3 for ncomp=2)."""
    pts, wts = q1_quadrature(hsize)
    N, dNdx, dNdy, dNdz = _q1_at(hsize, pts)
    B = q1_b_matrix(N, dNdx, dNdy, _third_column(N, dNdz, third), ncomp)
    return _sum_points(wts[:, None, None]
                       * (B.conj().swapaxes(-1, -2) @ C @ B), 0)


def q1_mass(hsize, rho=1.0, ncomp=3):
    pts, wts = q1_quadrature(hsize)
    N = _q1_at(hsize, pts)[0]
    Me = _sum_points((wts * rho)[:, None, None]
                     * (N[:, :, None] * N[:, None, :]), 0)
    return np.kron(Me, np.eye(ncomp))


def q1_prestrain_load(hsize, C, strain, third=None, ncomp=3):
    """Element load  -\\int C eps0(x) : sym-grad(xi)  for the prescribed
    engineering-Voigt prestrain eps0 given at the Q1 Gauss points,
    ``strain`` of shape (..., q, nv, k) or, if constant, (nv, k): one load
    column (..., ncomp*nn, k) per prestrain column."""
    pts, wts = q1_quadrature(hsize)
    N, dNdx, dNdy, dNdz = _q1_at(hsize, pts)
    B = q1_b_matrix(N, dNdx, dNdy, _third_column(N, dNdz, third), ncomp)
    terms = wts[:, None, None] * (np.swapaxes(B, -1, -2) @ (C @ strain))
    return -_sum_points(terms, -3)


def q1_vector_load(hsize, values):
    """Element loads \\int f(x) . xi of vector fields f given at the Q1
    Gauss points, ``values`` of shape (elements, q, ncomp): one local
    vector (elements, nn*ncomp) per element."""
    pts, wts = q1_quadrature(hsize)
    N = _q1_at(hsize, pts)[0]
    terms = wts[:, None, None] * (N[:, :, None] * values[:, :, None, :])
    return _sum_points(terms, 1).reshape(len(values), -1)


# ---------------------------------------------------------------------------
# Bogner-Fox-Schmit bicubic Hermite element

def _hermite(t):
    """Cubic Hermite values (v0, s0, v1, s1) and first/second derivatives in
    the reference coordinate t in [0,1]."""
    v = np.array([1 - 3 * t ** 2 + 2 * t ** 3, t - 2 * t ** 2 + t ** 3,
                  3 * t ** 2 - 2 * t ** 3, -t ** 2 + t ** 3])
    d = np.array([-6 * t + 6 * t ** 2, 1 - 4 * t + 3 * t ** 2,
                  6 * t - 6 * t ** 2, -2 * t + 3 * t ** 2])
    dd = np.array([-6 + 12 * t, -4 + 6 * t, 6 - 12 * t, -2 + 6 * t])
    return v, d, dd


# per node (in Q1 corner order) the (x-kind, y-kind) Hermite indices of the
# four DOFs (w, w_x, w_y, w_xy); kind 0/1 = value/slope at 0, 2/3 = at 1
_BFS_NODE_KINDS = [((0, 0), (1, 0), (0, 1), (1, 1)),
                   ((2, 0), (3, 0), (2, 1), (3, 1)),
                   ((2, 2), (3, 2), (2, 3), (3, 3)),
                   ((0, 2), (1, 2), (0, 3), (1, 3))]


def bfs_eval(hsize, pt):
    """All 16 BFS shape functions and derivatives at one physical point
    (or, for coordinate arrays pt[0], pt[1], per shape and point).

    Returns (N, Nx, Ny, Nxx, Nyy, Nxy). Slope DOFs are scaled by the
    element size so nodal DOFs are physical derivatives.
    """
    hx, hy = hsize
    tx, ty = pt[0] / hx, pt[1] / hy
    vx, dx, ddx = _hermite(tx)
    vy, dy, ddy = _hermite(ty)
    # slope shapes carry the h scaling; derivatives in physical coords
    sx = np.array([1.0, hx, 1.0, hx])
    sy = np.array([1.0, hy, 1.0, hy])
    N, Nx, Ny, Nxx, Nyy, Nxy = np.empty((6, 16, *np.shape(tx)))
    k = 0
    for node_kinds in _BFS_NODE_KINDS:
        for (kx, ky) in node_kinds:
            ax, ay = sx[kx], sy[ky]
            N[k] = ax * vx[kx] * ay * vy[ky]
            Nx[k] = ax * dx[kx] / hx * ay * vy[ky]
            Ny[k] = ax * vx[kx] * ay * dy[ky] / hy
            Nxx[k] = ax * ddx[kx] / hx ** 2 * ay * vy[ky]
            Nyy[k] = ax * vx[kx] * ay * ddy[ky] / hy ** 2
            Nxy[k] = ax * dx[kx] / hx * ay * dy[ky] / hy
            k += 1
    return N, Nx, Ny, Nxx, Nyy, Nxy


def bfs_quadrature(hsize):
    """4x4 Gauss points (q, 2) and weights of the BFS element."""
    return _gauss_rule(hsize, _G4, _G4W)


def _bfs_at(hsize, pts):
    """(N, Nx, Ny), each (q, 16), and the Hessian rows (w_xx, w_yy, 2 w_xy)
    in engineering Voigt form, (q, 3, 16), at the points pts (q, 2)."""
    N, Nx, Ny, Nxx, Nyy, Nxy = bfs_eval(hsize, pts.T)
    return N.T, Nx.T, Ny.T, np.stack([Nxx, Nyy, 2.0 * Nxy]).transpose(2, 0, 1)


def bfs_stiffness(hsize, D):
    """Element matrix of \\int D hess(u) : hess(v) with 3x3 2D-Voigt D."""
    pts, wts = bfs_quadrature(hsize)
    B = _bfs_at(hsize, pts)[3]
    return _sum_points(wts[:, None, None] * (B.swapaxes(-1, -2) @ D @ B), 0)


def bfs_mass(hsize, rho=1.0):
    pts, wts = bfs_quadrature(hsize)
    N = _bfs_at(hsize, pts)[0]
    return _sum_points((wts * rho)[:, None, None]
                       * (N[:, :, None] * N[:, None, :]), 0)


def bfs_prestrain_load(hsize, D, strain):
    """Element load -\\int D kappa0(x) : hess(xi) for the prescribed 2D-Voigt
    curvature kappa0 given at the BFS Gauss points, ``strain`` of shape
    (..., q, 3, k) or, if constant, (3, k): one load column (..., 16, k)
    per curvature column."""
    pts, wts = bfs_quadrature(hsize)
    B = _bfs_at(hsize, pts)[3]                                # (q, 3, 16)
    terms = wts[:, None, None] * (np.swapaxes(B, -1, -2) @ (D @ strain))
    return -_sum_points(terms, -3)


def bfs_value_load(hsize, values):
    """Element loads \\int f(x) xi of scalar fields f given at the BFS
    Gauss points, ``values`` of shape (elements, q): (elements, 16)."""
    pts, wts = bfs_quadrature(hsize)
    N = _bfs_at(hsize, pts)[0]
    return _sum_points((wts * values)[..., None] * N, 1)


def bfs_gradient_load(hsize, grads):
    """Element loads \\int g(x) . grad(xi) of 2-vector fields g given at the
    BFS Gauss points, ``grads`` of shape (elements, q, 2): (elements, 16)."""
    pts, wts = bfs_quadrature(hsize)
    _, Nx, Ny, _ = _bfs_at(hsize, pts)
    terms = grads[..., 0, None] * Nx + grads[..., 1, None] * Ny
    return _sum_points(wts[:, None] * terms, 1)


def mixed_memb_bend(hsize, Cmb):
    """Coupling block \\int sym-grad(theta) : Cmb : hess(b): rows are the 8
    Q1 2-component membrane DOFs, columns the 16 BFS DOFs.  Cmb is the 3x3
    membrane-bending block in 2D Voigt coordinates."""
    pts, wts = bfs_quadrature(hsize)
    N, dNdx, dNdy, _ = _q1_at(hsize, pts)
    Bm = q1_b_matrix(N, dNdx, dNdy, 0.0, 2)
    Bb = _bfs_at(hsize, pts)[3]
    return _sum_points(wts[:, None, None]
                       * (Bm.swapaxes(-1, -2) @ Cmb @ Bb), 0)


def mixed_mass_bfs_q1(hsize, rho=1.0):
    """Mass block \\int rho N_bfs N_q1: rows BFS (16), cols Q1 scalar (4)."""
    pts, wts = bfs_quadrature(hsize)
    Nw, Nq = _bfs_at(hsize, pts)[0], _q1_at(hsize, pts)[0]
    return _sum_points((wts * rho)[:, None, None]
                       * (Nw[:, :, None] * Nq[:, None, :]), 0)


def mixed_gradload_bfs_q1(hsize):
    """Blocks (Gx, Gy) with \\int N_q1 d(N_bfs)/dx etc.: rows BFS (16),
    cols Q1 scalar (4); realizes moment loads int g . grad(theta) for
    nodally interpolated g."""
    pts, wts = bfs_quadrature(hsize)
    _, Nx, Ny, _ = _bfs_at(hsize, pts)
    Nq = _q1_at(hsize, pts)[0][:, None, :]
    return tuple(_sum_points(wts[:, None, None] * (G[:, :, None] * Nq), 0)
                 for G in (Nx, Ny))
