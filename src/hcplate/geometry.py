"""Structured periodic meshes of the unit cell, its inclusion, and the
macroscopic mid-plane.

All meshes are axis-aligned structured quad/hex grids. Material is assigned
per element from the analytic inclusion shape evaluated at the element
centroid (staircase boundary); the geometry error this introduces is
controlled by refinement and is tested for O(1/n) decay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensors as tn


class GeometryError(ValueError):
    pass


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class InclusionShape:
    """Soft inclusion Y0 inside the unit cell Y = [0,1)^2.

    kind "disk" (C^{1,1} boundary) or "square" (Lipschitz only);
    size is the radius / half-side.
    """
    kind: str
    size: float
    center: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.kind not in ("disk", "square"):
            raise GeometryError(f"unknown inclusion kind {self.kind!r}")
        if not 0.0 < self.size < 0.5:
            raise GeometryError("inclusion size must lie in (0, 0.5)")
        if self.boundary_margin < 0.0:
            raise GeometryError("inclusion closure must be strictly inside Y")

    @property
    def boundary_margin(self) -> float:
        """Distance from the closure of Y0 to the cell boundary."""
        cx, cy = self.center
        reach = min(cx, cy, 1.0 - cx, 1.0 - cy)
        return reach - self.size

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: which points (shape (..., 2)) lie inside Y0."""
        d = np.asarray(pts) - np.asarray(self.center)
        if self.kind == "disk":
            return np.hypot(d[..., 0], d[..., 1]) < self.size
        return np.maximum(abs(d[..., 0]), abs(d[..., 1])) < self.size

    def area(self) -> float:
        if self.kind == "disk":
            return np.pi * self.size ** 2
        return 4.0 * self.size ** 2


@dataclass
class CellMesh:
    """Structured mesh of Y (dim=2) or of the prism I x Y (dim=3).

    Node ids run x-fastest, then y, then the x3 layer. ``periodic_map`` sends
    every node to its master under the y-periodic identification (identity on
    masters). ``element_soft`` flags elements inside the discrete Y0; the
    flag is constant along x3 columns.
    """
    n: int
    dim: int
    shape: InclusionShape | None
    nodes: np.ndarray
    elements: np.ndarray
    element_soft: np.ndarray
    periodic_map: np.ndarray
    n_z: int = 0
    z_span: tuple[float, float] = (-0.5, 0.5)
    cut: tuple[bool, bool] = (False, False)   # y in [0, 1/2], not periodic

    # filled in __post_init__
    inclusion_boundary_nodes: np.ndarray = field(default=None, repr=False)
    inclusion_interior_nodes: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        soft, stiff = np.zeros((2, self.nodes.shape[0]), dtype=bool)
        soft[self.elements[self.element_soft]] = True
        stiff[self.elements[~self.element_soft]] = True
        self.inclusion_interior_nodes = np.flatnonzero(soft & ~stiff)
        self.inclusion_boundary_nodes = np.flatnonzero(soft & stiff)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def h_z(self) -> float:
        lo, hi = self.z_span
        return (hi - lo) / self.n_z if self.n_z else 0.0

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def grid(self) -> tuple[tuple, tuple]:
        """Nodes per axis (y1, y2[, x3]) and which axes are periodic."""
        return (tuple(self.n // (1 + c) + 1 for c in self.cut)
                + (self.n_z + 1,) * (self.dim - 2),
                tuple(not c for c in self.cut) + (False,) * (self.dim - 2))

    @property
    def shape_inplane(self) -> tuple[int, int]:
        """Elements along y1 and y2 of the whole cell."""
        return (self.n, self.n)

    def mirror_planes(self, axis: int) -> tuple[float, ...]:
        """The planes of the mirror of `axis`: y_a = 0 and 1/2 (y_a = 1 is
        the periodic image of 0), or x3 = 0."""
        return (0.0,) if axis == 2 else (0.0, 0.5)

    def element_size(self) -> tuple:
        if self.dim == 2:
            return (self.h, self.h)
        return (self.h, self.h, self.h_z)

    def soft_area_fraction(self) -> float:
        """Area fraction of the discrete Y0 (per unit cell, 2D measure)."""
        if self.dim == 2:
            return float(np.count_nonzero(self.element_soft)) / len(self.element_soft)
        per_layer = len(self.element_soft) // self.n_z
        return float(np.count_nonzero(self.element_soft[:per_layer])) / per_layer

    def centroids(self) -> np.ndarray:
        return self.nodes[self.elements].mean(axis=1)

    def to_debug_dict(self) -> dict:
        return {
            "n": self.n, "dim": self.dim, "n_z": self.n_z,
            "n_nodes": int(self.n_nodes),
            "n_elements": int(len(self.elements)),
            "soft_fraction": self.soft_area_fraction(),
            "element_soft": self.element_soft.astype(int).tolist(),
        }


def structured_quads(tx: np.ndarray, ty: np.ndarray):
    """Nodes (x-fastest) of the tensor grid tx x ty and its quads, each with
    corners (0,0), (1,0), (1,1), (0,1), numbered x-fastest."""
    X, Y = np.meshgrid(tx, ty, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    nx, ny = len(tx) - 1, len(ty) - 1
    ll = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    conn = np.column_stack([ll, ll + 1, ll + nx + 2, ll + nx + 1])
    return nodes, conn


def extrude(nodes2: np.ndarray, conn2: np.ndarray, zs: np.ndarray):
    """Prism mesh over a quad mesh: one node layer per height in zs, and
    hexes (bottom face, then top face) layer by layer."""
    npl = len(nodes2)
    nodes = np.column_stack([np.tile(nodes2, (len(zs), 1)),
                             np.repeat(zs, npl)])
    base = conn2 + npl * np.arange(len(zs) - 1)[:, None, None]
    conn = np.concatenate([base, base + npl], axis=2).reshape(-1, 8)
    return nodes, conn


def _periodic_map_2d(n: int) -> np.ndarray:
    wrap = np.arange(n + 1) % n
    return (wrap[:, None] * (n + 1) + wrap).ravel()


def build_cell_mesh(shape: InclusionShape | None, n: int, dim: int = 2,
                    n_z: int = 4, z_span: tuple[float, float] = (-0.5, 0.5)) -> CellMesh:
    """Mesh the unit cell (dim=2) or the prism I x Y (dim=3).

    shape=None is the no-inclusion validation mode (all elements stiff).
    Raises GeometryError when the inclusion is too close to the cell boundary
    to leave at least one full stiff element layer after discretization.
    """
    if n < 4:
        raise ConfigurationError("cell resolution n must be at least 4")
    if dim not in (2, 3):
        raise ConfigurationError("dim must be 2 or 3")
    if dim == 3 and n_z < 2:
        raise ConfigurationError("prism meshes need n_z >= 2")
    if shape is not None and shape.boundary_margin < 1.0 / n - 1e-12:
        raise GeometryError(
            f"inclusion margin {shape.boundary_margin:.4g} smaller than one "
            f"element layer 1/n = {1.0 / n:.4g}")

    t = np.arange(n + 1) / n
    nodes2, conn2 = structured_quads(t, t)
    cent = nodes2[conn2].mean(axis=1)
    soft2 = shape.contains(cent) if shape is not None else np.zeros(len(conn2), dtype=bool)

    if dim == 2:
        return CellMesh(n=n, dim=2, shape=shape, nodes=nodes2, elements=conn2,
                        element_soft=soft2, periodic_map=_periodic_map_2d(n))

    lo, hi = z_span
    nodes, conn = extrude(nodes2, conn2,
                          lo + (hi - lo) * np.arange(n_z + 1) / n_z)
    soft = np.tile(soft2, n_z)
    pmap = (_periodic_map_2d(n)
            + len(nodes2) * np.arange(n_z + 1)[:, None]).ravel()
    return CellMesh(n=n, dim=3, shape=shape, nodes=nodes, elements=conn,
                    element_soft=soft, periodic_map=pmap, n_z=n_z, z_span=z_span)


MIRRORS = ("y1", "y2", "x3")     # y1 -> 1 - y1, y2 -> 1 - y2, x3 -> -x3

# the axes that each DOF carries: Q1 u1, u2, u3; BFS w, w_x, w_y, w_xy
Q1_CARRIES = ((0,), (1,), (2,))
BFS_CARRIES = ((), (0,), (1,), (0, 1))
PARITY_SIGNS = {"memb": 1, "bend": -1}   # x3 signs of the parity classes


def parity_pinned(carries, axis: int, sign: int) -> list[int]:
    """The DOF components that a field class of sign `sign` under the
    mirror of `axis` pins on the mirror's planes. A component's parity is
    (-1)^(number of `axis` indices it carries); it vanishes on the planes
    when its parity times the sign is -1."""
    return [c for c, axes in enumerate(carries)
            if sign * (-1) ** axes.count(axis) < 0]


def mirror_refusal(mesh, axis: int, tensors: dict | None = None) -> str | None:
    """Why the mirror of `axis` does not map the mesh and the Voigt tensors
    {name: C} to themselves with its planes on nodes, or None; the inclusion
    is read from the soft mask, layer by layer for x3. The in-plane mirror
    of a cell is y_a -> 1 - y_a, of a fine plate x_a -> L_a - x_a."""
    for name, C in (tensors or {}).items():
        if not tn.mirror_symmetric(C, axis):
            return f"{name} not mirror-symmetric"
    if axis == 2:
        if mesh.n_z % 2 or tuple(mesh.z_span) != (-0.5, 0.5):
            return "odd n_z" if mesh.n_z % 2 else "prism not on x3 in (-1/2, 1/2)"
        soft = mesh.element_soft.reshape(mesh.n_z, -1)
    elif mesh.shape_inplane[axis] % 2:
        return "odd n"
    else:   # (x3, y2, y1), the mirrored axis first
        nx, ny = mesh.shape_inplane
        soft = np.moveaxis(mesh.element_soft.reshape(-1, ny, nx), 2 - axis, 0)
    if not np.array_equal(soft, soft[::-1]):
        return "inclusion not mirror-symmetric"
    return None


def mirror_region(mesh, axes):
    """The fundamental region of the mirrors of `axes` (0, 1, 2: the
    in-plane axes and x3, each mirror mapping the mesh to itself), cut from
    a cell mesh or a fine plate: the side of each in-plane mirror's last
    plane toward 0 (a cell's y_a in [0, 1/2], a plate's x_a in [0, L_a/2])
    and x3 >= 0; and the nodes of each mirror's planes in it
    (`mesh.mirror_planes`). The energy of a field of one parity class there
    is 2^-len(axes) of its energy on the mesh."""
    cent = mesh.centroids()
    keep = np.ones(len(mesh.elements), dtype=bool)
    for a in axes:
        keep &= cent[:, a] > 0.0 if a == 2 \
            else cent[:, a] < max(mesh.mirror_planes(a))
    used = np.flatnonzero(np.bincount(mesh.elements[keep].ravel(),
                                      minlength=mesh.n_nodes))
    renum = np.full(mesh.n_nodes, -1)
    renum[used] = np.arange(len(used))
    half_z = 2 in axes
    cut = {"nodes": mesh.nodes[used], "elements": renum[mesh.elements[keep]],
           "element_soft": mesh.element_soft[keep],
           "n_z": mesh.n_z // 2 if half_z else mesh.n_z,
           "z_span": (0.0, mesh.z_span[1]) if half_z else mesh.z_span}
    if isinstance(mesh, CellMesh):
        cut.update(periodic_map=renum[mesh.periodic_map[used]],
                   cut=(0 in axes, 1 in axes))
    else:
        cut["shape_inplane"] = tuple(m // 2 if a in axes else m for a, m
                                     in enumerate(mesh.shape_inplane))
    region = replace(mesh, **cut)
    x = region.nodes
    planes = {a: np.flatnonzero(np.isclose(
        x[:, a, None], mesh.mirror_planes(a)).any(axis=1)) for a in axes}
    return region, planes


class MirrorClasses:
    """The parity classes of the mirrors of a cell mesh or a fine plate
    (block diagonalization by symmetry: A. Bossavit, Comput. Methods Appl.
    Mech. Engrg. 56, 1986). Of the mirrors of `axes` (0, 1, 2: the in-plane
    axes and x3), those that map the mesh and the Voigt tensors {name: C}
    to themselves (`mirror_refusal`) and that the caller does not refuse
    ({name: why}) are used (`axes`). It keeps their fundamental region and
    its mirror planes (`mirror_region`), and one sign per used mirror for
    each class (`signs`): the distinct sign vectors `signs` given over
    `axes` (a cell's load columns; `members` are each class's columns), or
    every parity class with the signs `fixed` ({axis: sign}) held, (+1,
    ..., +1) first. `record` names the mirrors used and refused, and
    `pinned` adds a {"signs", "dofs"} entry per class to it."""

    def __init__(self, mesh, axes, tensors: dict, names=MIRRORS,
                 refused=None, signs=None, fixed=None):
        axes, refused, fixed = list(axes), dict(refused or {}), fixed or {}
        refused.update({names[a]: why for a in axes if names[a] not in refused
                        and (why := mirror_refusal(mesh, a, tensors))})
        self.axes = [a for a in axes if names[a] not in refused]
        self.region, self.planes = mirror_region(mesh, self.axes)
        if signs is None:
            signs = [s for s in itertools.product((1, -1), repeat=len(axes))
                     if all(s[k] == fixed.get(a, s[k])
                            for k, a in enumerate(axes))]
        used = [tuple(s[axes.index(a)] for a in self.axes) for s in signs]
        self.signs = list(dict.fromkeys(used))
        self.members = [[j for j, t in enumerate(used) if t == s]
                        for s in self.signs]
        self.record = {"mirrors": [names[a] for a in self.axes],
                       "mirrors_refused": refused, "classes": []}
        self._images = None

    def pins(self, k: int, carries) -> list[list[int]]:
        """The components that class k pins on each mirror's planes."""
        return [parity_pinned(carries, a, s)
                for a, s in zip(self.axes, self.signs[k])]

    def pinned(self, dof, carries):
        """Each class's copy of `dof`, a DOF map of the region whose
        components carry the axes `carries`, with the class's pins on the
        mirror planes (`DofMap.pinned`), made and recorded in `record` as
        it is taken."""
        for k, s in enumerate(self.signs):
            pinned = dof.pinned(
                zip(self.planes.values(), self.pins(k, carries)))
            self.record["classes"].append(
                {"signs": dict(zip(self.record["mirrors"], s)),
                 "dofs": pinned.n_free})
            yield pinned

    @staticmethod
    def ids(dof, pinned) -> np.ndarray:
        """The DOFs of the region map `dof` that its class copy `pinned`
        keeps, in the class's numbering."""
        free = pinned.index >= 0
        ids = np.empty(pinned.n_free, dtype=int)
        ids[pinned.index[free]] = dof.index[free]
        return ids

    def images(self, target):
        """Each node of `target` (the mesh the region was cut from, or one
        cut from that mesh that contains the region) as the image of a
        region node: the region node, and per used mirror whether it maps
        the node. Nodes are matched on the grid of the target's element
        sizes; the last target's images are kept."""
        if self._images is not None and self._images[0] is target:
            return self._images[1]
        h = np.asarray(target.element_size())
        lo = target.nodes.min(axis=0)

        def grid(x):
            return np.rint((np.asarray(x) - lo) / h).astype(np.int64)
        g = grid(target.nodes)
        flips = np.zeros((target.n_nodes, len(self.axes)), dtype=bool)
        for k, a in enumerate(self.axes):
            center = 0.0 if a == 2 else max(target.mirror_planes(a))
            mid = int(np.rint((center - lo[a]) / h[a]))
            flips[:, k] = g[:, a] < mid if a == 2 else g[:, a] > mid
            g[flips[:, k], a] = 2 * mid - g[flips[:, k], a]
        reg = grid(self.region.nodes)
        dims = np.maximum(g.max(axis=0), reg.max(axis=0)) + 1
        lookup = np.full(np.prod(dims), -1)
        lookup[np.ravel_multi_index(reg.T, dims)] = np.arange(len(reg))
        img = lookup[np.ravel_multi_index(g.T, dims)]
        if (img < 0).any():
            raise GeometryError("a mesh node has no image in the region")
        self._images = (target, (img, flips))
        return img, flips

    def weight(self, target, solve: bool = False) -> float:
        """The weight of a class field over the n images of the region in
        `target`: n^-1/2 for modes, 1/n for the folded load of a solve."""
        n = 2 ** int(self.images(target)[1].any(axis=0).sum())
        return 1.0 / n if solve else n ** -0.5

    def _dofs(self, k: int, dof, carries, target):
        """Each (node, component) of `target` as a DOF of class k's map
        `dof` (or -1) and its sign: -1 if odd under the node's mirrors."""
        img, flips = self.images(target)
        odd = np.zeros((len(img), len(carries)), dtype=bool)
        for j, comps in enumerate(self.pins(k, carries)):
            odd[:, comps] ^= flips[:, j, None]
        return dof.index[img], np.where(odd, -1.0, 1.0)

    def unfold(self, k: int, field: np.ndarray, dof, carries,
               target) -> np.ndarray:
        """Class k's field(s) (columns) on the DOFs of its map `dof`
        (`pinned`) as nodal fields (nodes, components[, columns]) of
        `target` (`images`)."""
        idx, sign = self._dofs(k, dof, carries, target)
        # index -1 takes the zero row appended to the field
        out = np.append(field, np.zeros((1,) + field.shape[1:]), axis=0).take(
            idx, axis=0)
        out *= sign.reshape(sign.shape + (1,) * (out.ndim - 2))
        return out

    def fold(self, k: int, load: np.ndarray, dof, carries,
             target) -> np.ndarray:
        """The adjoint of `unfold`: nodal load(s) (nodes, components[,
        columns]) of `target` on the DOFs of class k's map `dof`."""
        idx, sign = self._dofs(k, dof, carries, target)
        out = np.zeros((dof.n_free,) + load.shape[2:])
        np.add.at(out, idx[idx >= 0], (load.T * sign.T).T[idx >= 0])
        return out


def half_prism(mesh, parity: str, tensors: dict):
    """One x3 parity class ("memb": u1, u2 even, u3 odd; "bend": the
    reverse) of a prism or plate mesh on x3 in (-1/2, 1/2) that, with the
    Voigt tensors {name: C}, is invariant under x3 -> -x3: the half
    x3 >= 0 (`mirror_region`) and its constraint (nodes on x3 = 0, the odd
    components pinned there). Integrals over the half are half of the
    mesh's for the class's fields. Without the mirror the class does not
    exist, and ConfigurationError says why."""
    if parity not in PARITY_SIGNS:
        raise ConfigurationError(f"unknown parity {parity!r}")
    why = mirror_refusal(mesh, 2, tensors)
    if why:
        raise ConfigurationError(
            f"{parity} parity needs the x3 mirror, refused: {why}")
    half, planes = mirror_region(mesh, [2])
    return half, (planes[2],
                  parity_pinned(Q1_CARRIES, 2, PARITY_SIGNS[parity]))


# boundary edge -> (coordinate axis, 0 or 1: its value is 0 or L_axis)
EDGES = {"left": (0, 0), "right": (0, 1), "bottom": (1, 0), "top": (1, 1)}


@dataclass
class MacroMesh:
    """Structured quad mesh of the mid-plane rectangle [0,L1] x [0,L2] with
    Dirichlet nodes on the selected boundary edges (default: left)."""
    L1: float
    L2: float
    n1: int
    n2: int
    gamma_edges: tuple[str, ...]
    nodes: np.ndarray
    elements: np.ndarray
    dirichlet_nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def grid(self) -> tuple[tuple, tuple]:
        """Nodes per axis and which are periodic (none)."""
        return (self.n1 + 1, self.n2 + 1), (False, False)

    def element_size(self) -> tuple[float, float]:
        return (self.L1 / self.n1, self.L2 / self.n2)


def build_macro_mesh(L1: float, L2: float, n1: int, n2: int,
                     gamma_spec=("left",)) -> MacroMesh:
    if L1 <= 0 or L2 <= 0:
        raise ConfigurationError("macro domain lengths must be positive")
    if n1 < 2 or n2 < 2:
        raise ConfigurationError("macro resolutions must be at least 2")
    edges = tuple(gamma_spec)
    if not edges:
        raise ConfigurationError("gamma_D must contain at least one edge")
    nodes, conn = structured_quads(L1 * np.arange(n1 + 1) / n1,
                                   L2 * np.arange(n2 + 1) / n2)
    diri = np.zeros(len(nodes), dtype=bool)
    for e in edges:
        if e not in EDGES:
            raise ConfigurationError(f"unknown boundary edge {e!r}")
        axis, side = EDGES[e]
        diri |= np.isclose(nodes[:, axis], side * (L1, L2)[axis])

    return MacroMesh(L1=L1, L2=L2, n1=n1, n2=n2, gamma_edges=edges,
                     nodes=nodes, elements=conn,
                     dirichlet_nodes=np.flatnonzero(diri))
