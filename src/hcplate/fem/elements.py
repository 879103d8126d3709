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
"""

from __future__ import annotations

import numpy as np

_G2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_G2W = np.array([1.0, 1.0])
_G4 = np.array([-0.8611363115940526, -0.3399810435848563,
                0.3399810435848563, 0.8611363115940526])
_G4W = np.array([0.3478548451374538, 0.6521451548625461,
                 0.6521451548625461, 0.3478548451374538])


def _gauss_on(lo: float, hi: float, pts, wts):
    x = 0.5 * (hi - lo) * pts + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * wts
    return x, w


def _q1_shape_2d(xi: float, eta: float):
    """Bilinear shapes and reference-derivatives on [0,1]^2, node order
    (0,0),(1,0),(1,1),(0,1)."""
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
    """Gauss points (physical coords within the element) and weights; 2x2
    in-plane, x2 in x3 for hexes."""
    if len(hsize) == 2:
        hx, hy = hsize
        gx, wx = _gauss_on(0, hx, _G2, _G2W)
        gy, wy = _gauss_on(0, hy, _G2, _G2W)
        pts = [(x, y) for y in gy for x in gx]
        wts = [a * b for b in wy for a in wx]
    else:
        hx, hy, hz = hsize
        gx, wx = _gauss_on(0, hx, _G2, _G2W)
        gy, wy = _gauss_on(0, hy, _G2, _G2W)
        gz, wz = _gauss_on(0, hz, _G2, _G2W)
        pts = [(x, y, z) for z in gz for y in gy for x in gx]
        wts = [a * b * c for c in wz for b in wy for a in wx]
    return pts, np.array(wts)


def _q1_eval(hsize, pt):
    """Shapes and physical derivatives at one point; third derivative column
    is None for 2D elements."""
    if len(hsize) == 2:
        hx, hy = hsize
        N, dxi, deta = _q1_shape_2d(pt[0] / hx, pt[1] / hy)
        return N, dxi / hx, deta / hy, None
    hx, hy, hz = hsize
    N, dxi, deta, dzeta = _q1_shape_3d(pt[0] / hx, pt[1] / hy, pt[2] / hz)
    return N, dxi / hx, deta / hy, dzeta / hz


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
    """Engineering-Voigt strain matrix at one quadrature point."""
    nn = len(N)
    if ncomp == 2:
        B = np.zeros((3, 2 * nn), dtype=np.result_type(c3, float))
        B[0, 0::2] = dNdx
        B[1, 1::2] = dNdy
        B[2, 0::2] = dNdy
        B[2, 1::2] = dNdx
        return B
    B = np.zeros((6, 3 * nn), dtype=np.result_type(c3, float))
    B[0, 0::3] = dNdx
    B[1, 1::3] = dNdy
    B[2, 2::3] = c3
    B[3, 1::3] = c3
    B[3, 2::3] = dNdy
    B[4, 0::3] = c3
    B[4, 2::3] = dNdx
    B[5, 0::3] = dNdy
    B[5, 1::3] = dNdx
    return B


def q1_stiffness(hsize, C, third=None, ncomp=3):
    """Element stiffness for the (possibly scaled/complex) symmetric-gradient
    form with Voigt tensor C (6x6 for ncomp=3, 3x3 for ncomp=2)."""
    pts, wts = q1_quadrature(hsize)
    nn = 4 if len(hsize) == 2 else 8
    cplx = (third is not None and third[0] == "mult"
            and np.iscomplexobj(np.asarray(third[1])))
    Ke = np.zeros((ncomp * nn, ncomp * nn), dtype=complex if cplx else float)
    for pt, w in zip(pts, wts):
        N, dNdx, dNdy, dNdz = _q1_eval(hsize, pt)
        c3 = _third_column(N, dNdz, third)
        B = q1_b_matrix(N, dNdx, dNdy, c3, ncomp)
        Ke += w * (B.conj().T @ C @ B)
    return Ke


def q1_mass(hsize, rho=1.0, ncomp=3):
    pts, wts = q1_quadrature(hsize)
    nn = 4 if len(hsize) == 2 else 8
    Me = np.zeros((nn, nn))
    for pt, w in zip(pts, wts):
        N = _q1_eval(hsize, pt)[0]
        Me += w * rho * np.outer(N, N)
    return np.kron(Me, np.eye(ncomp))


def q1_prestrain_load(hsize, C, strain_at, third=None, ncomp=3):
    """Element load  -\\int C eps0(x) : sym-grad(xi)  for a prescribed
    engineering-Voigt prestrain field eps0 given by ``strain_at(point)``;
    a matrix-valued eps0 gives one load column per prestrain column."""
    pts, wts = q1_quadrature(hsize)
    fe = 0.0
    for pt, w in zip(pts, wts):
        N, dNdx, dNdy, dNdz = _q1_eval(hsize, pt)
        c3 = _third_column(N, dNdz, third)
        B = q1_b_matrix(N, dNdx, dNdy, c3, ncomp)
        fe = fe - w * (B.T @ (C @ strain_at(pt)))
    return fe


def q1_vector_load(hsize, value_at, ncomp=3):
    """Element load \\int f(x) . xi for an ncomp-vector field f."""
    pts, wts = q1_quadrature(hsize)
    nn = 4 if len(hsize) == 2 else 8
    fe = np.zeros(ncomp * nn)
    for pt, w in zip(pts, wts):
        N = _q1_eval(hsize, pt)[0]
        fe += w * np.kron(N, np.asarray(value_at(pt), dtype=float))
    return fe


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


def bfs_eval(hsize, pt, order=2):
    """All 16 BFS shape functions and derivatives at one physical point.

    Returns (N, Nx, Ny, Nxx, Nyy, Nxy); the derivative arrays above `order`
    are None. Slope DOFs are scaled by the element size so nodal DOFs are
    physical derivatives.
    """
    hx, hy = hsize
    tx, ty = pt[0] / hx, pt[1] / hy
    vx, dx, ddx = _hermite(tx)
    vy, dy, ddy = _hermite(ty)
    # slope shapes carry the h scaling; derivatives in physical coords
    sx = np.array([1.0, hx, 1.0, hx])
    sy = np.array([1.0, hy, 1.0, hy])
    N = np.empty(16)
    Nx = np.empty(16)
    Ny = np.empty(16)
    Nxx = np.empty(16) if order >= 2 else None
    Nyy = np.empty(16) if order >= 2 else None
    Nxy = np.empty(16) if order >= 2 else None
    k = 0
    for node_kinds in _BFS_NODE_KINDS:
        for (kx, ky) in node_kinds:
            ax, ay = sx[kx], sy[ky]
            N[k] = ax * vx[kx] * ay * vy[ky]
            Nx[k] = ax * dx[kx] / hx * ay * vy[ky]
            Ny[k] = ax * vx[kx] * ay * dy[ky] / hy
            if order >= 2:
                Nxx[k] = ax * ddx[kx] / hx ** 2 * ay * vy[ky]
                Nyy[k] = ax * vx[kx] * ay * ddy[ky] / hy ** 2
                Nxy[k] = ax * dx[kx] / hx * ay * dy[ky] / hy
            k += 1
    return N, Nx, Ny, Nxx, Nyy, Nxy


def bfs_quadrature(hsize):
    hx, hy = hsize
    gx, wx = _gauss_on(0, hx, _G4, _G4W)
    gy, wy = _gauss_on(0, hy, _G4, _G4W)
    pts = [(x, y) for y in gy for x in gx]
    wts = np.array([a * b for b in wy for a in wx])
    return pts, wts


def bfs_hessian_b(hsize, pt):
    """Rows (w_xx, w_yy, 2 w_xy) of the Hessian in engineering Voigt form."""
    _, _, _, Nxx, Nyy, Nxy = bfs_eval(hsize, pt)
    return np.vstack([Nxx, Nyy, 2.0 * Nxy])


def bfs_stiffness(hsize, D):
    """Element matrix of \\int D hess(u) : hess(v) with 3x3 2D-Voigt D."""
    pts, wts = bfs_quadrature(hsize)
    Ke = np.zeros((16, 16))
    for pt, w in zip(pts, wts):
        B = bfs_hessian_b(hsize, pt)
        Ke += w * (B.T @ D @ B)
    return Ke


def bfs_mass(hsize, rho=1.0):
    pts, wts = bfs_quadrature(hsize)
    Me = np.zeros((16, 16))
    for pt, w in zip(pts, wts):
        N = bfs_eval(hsize, pt, order=1)[0]
        Me += w * rho * np.outer(N, N)
    return Me


def bfs_prestrain_load(hsize, D, strain_at):
    """Element load -\\int D kappa0(x) : hess(xi) for a prescribed 2D-Voigt
    curvature field kappa0 (matrix-valued: one column per load case)."""
    pts, wts = bfs_quadrature(hsize)
    fe = 0.0
    for pt, w in zip(pts, wts):
        B = bfs_hessian_b(hsize, pt)
        fe = fe - w * (B.T @ (D @ strain_at(pt)))
    return fe


def bfs_value_load(hsize, value_at):
    pts, wts = bfs_quadrature(hsize)
    fe = np.zeros(16)
    for pt, w in zip(pts, wts):
        N = bfs_eval(hsize, pt, order=1)[0]
        fe += w * value_at(pt) * N
    return fe


def bfs_gradient_load(hsize, grad_at):
    """Element load \\int g(x) . grad(xi) for a 2-vector field g."""
    pts, wts = bfs_quadrature(hsize)
    fe = np.zeros(16)
    for pt, w in zip(pts, wts):
        N, Nx, Ny, *_ = bfs_eval(hsize, pt, order=1)
        g = grad_at(pt)
        fe += w * (g[0] * Nx + g[1] * Ny)
    return fe


def mixed_memb_bend(hsize, Cmb):
    """Coupling block \\int sym-grad(theta) : Cmb : hess(b): rows are the 8
    Q1 2-component membrane DOFs, columns the 16 BFS DOFs.  Cmb is the 3x3
    membrane-bending block in 2D Voigt coordinates."""
    pts, wts = bfs_quadrature(hsize)
    Ke = np.zeros((8, 16))
    for pt, w in zip(pts, wts):
        N, dNdx, dNdy, _ = _q1_eval(hsize, pt)
        Bm = q1_b_matrix(N, dNdx, dNdy, np.zeros(4), 2)
        Bb = bfs_hessian_b(hsize, pt)
        Ke += w * (Bm.T @ Cmb @ Bb)
    return Ke


def mixed_mass_bfs_q1(hsize, rho=1.0):
    """Mass block \\int rho N_bfs N_q1: rows BFS (16), cols Q1 scalar (4)."""
    pts, wts = bfs_quadrature(hsize)
    Me = np.zeros((16, 4))
    for pt, w in zip(pts, wts):
        Nw = bfs_eval(hsize, pt, order=1)[0]
        Nq = _q1_eval(hsize, pt)[0]
        Me += w * rho * np.outer(Nw, Nq)
    return Me


def mixed_gradload_bfs_q1(hsize):
    """Blocks (Gx, Gy) with \\int N_q1 d(N_bfs)/dx etc.: rows BFS (16),
    cols Q1 scalar (4); realizes moment loads int g . grad(theta) for
    nodally interpolated g."""
    pts, wts = bfs_quadrature(hsize)
    Gx = np.zeros((16, 4))
    Gy = np.zeros((16, 4))
    for pt, w in zip(pts, wts):
        _, Nx, Ny, *_ = bfs_eval(hsize, pt, order=1)
        Nq = _q1_eval(hsize, pt)[0]
        Gx += w * np.outer(Nx, Nq)
        Gy += w * np.outer(Ny, Nq)
    return Gx, Gy
