"""One structured grid mesh for the unit cell, the macroscopic mid-plane
and the fine plate, and the mirror classes of a mesh.

All meshes are axis-aligned structured quad/hex grids from one builder
(`grid_mesh`); the fine plate is the eps-periodic tiling of the cell's
grid. Material is assigned
per element from the analytic inclusion shape evaluated at the element
centroid (staircase boundary); the geometry error this introduces is
controlled by refinement and is tested for O(1/n) decay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import tensors as tn


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
            raise ConfigurationError(f"unknown inclusion kind {self.kind!r}")
        if not 0.0 < self.size < 0.5:
            raise ConfigurationError("inclusion size must lie in (0, 0.5)")
        if self.boundary_margin < 0.0:
            raise ConfigurationError(
                "inclusion closure must be strictly inside Y")

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


# boundary edge -> (coordinate axis, 0 or 1: its value is 0 or L_axis)
EDGES = {"left": (0, 0), "right": (0, 1), "bottom": (1, 0), "top": (1, 1)}


@dataclass
class GridMesh:
    """Structured mesh of the rectangle [0, L1] x [0, L2] (`lengths`,
    `counts` elements per axis), extruded into hexes over x3 in `z_span`
    when it has `n_z` > 0 element layers, or a region cut from one: the
    unit cell Y (the prism I x Y), the mid-plane, the fine plate.

    Node ids run x-fastest, then y, then the x3 layer. ``element_soft``
    flags the elements inside the discrete inclusion of `shape` (constant
    along x3 columns); ``periodic_map`` sends every node to its master
    under the identification of the `periodic` axes (identity on masters);
    ``dirichlet_nodes`` are the nodes of the clamped `gamma` edges. A
    region cut by `mirror_region` keeps the `lengths`, `counts` and
    `periodic` of the mesh it was cut from, and `cut` marks the in-plane
    axes that it keeps up to x_a = L_a/2.
    """
    nodes: np.ndarray
    elements: np.ndarray
    element_soft: np.ndarray
    periodic_map: np.ndarray
    dirichlet_nodes: np.ndarray
    lengths: tuple
    counts: tuple[int, int]
    periodic: tuple[bool, bool]
    n_z: int = 0
    z_span: tuple[float, float] = (-0.5, 0.5)
    shape: InclusionShape | None = None
    gamma: tuple[str, ...] = ()
    cut: tuple[bool, bool] = (False, False)

    @cached_property
    def inclusion_interior_nodes(self) -> np.ndarray:
        """Nodes of soft elements alone."""
        return np.setdiff1d(self.elements[self.element_soft],
                            self.elements[~self.element_soft])

    @cached_property
    def inclusion_boundary_nodes(self) -> np.ndarray:
        """Nodes of both soft and stiff elements."""
        return np.intersect1d(self.elements[self.element_soft],
                              self.elements[~self.element_soft])

    @property
    def dim(self) -> int:
        return 3 if self.n_z else 2

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def grid(self) -> tuple[tuple, tuple]:
        """Nodes per axis (x1, x2[, x3]) and which axes are periodic."""
        z = self.dim - 2
        return (tuple(m // (1 + c) + 1 for m, c in zip(self.counts, self.cut))
                + (self.n_z + 1,) * z,
                tuple(p and not c for p, c in zip(self.periodic, self.cut))
                + (False,) * z)

    def element_size(self) -> tuple:
        lo, hi = self.z_span
        return tuple(L / m for L, m in zip(self.lengths, self.counts)) \
            + (((hi - lo) / self.n_z,) if self.n_z else ())

    def centroids(self) -> np.ndarray:
        return self.nodes[self.elements].mean(axis=1)

    def soft_area_fraction(self) -> float:
        """Area fraction of the discrete inclusion (2D measure)."""
        layer = self.element_soft[:len(self.element_soft) // max(self.n_z, 1)]
        return float(np.count_nonzero(layer)) / len(layer)

    def to_debug_dict(self) -> dict:
        return {
            "n": self.counts[0], "dim": self.dim, "n_z": self.n_z,
            "n_nodes": int(self.n_nodes),
            "n_elements": int(len(self.elements)),
            "soft_fraction": self.soft_area_fraction(),
            "element_soft": self.element_soft.astype(int).tolist(),
        }


def _axis_index(shape) -> list[np.ndarray]:
    """Every node's index along each axis of a grid of `shape` nodes per
    axis (x first), its ids running x-fastest."""
    return list(np.unravel_index(np.arange(np.prod(shape)), shape[::-1]))[::-1]


def grid_mesh(lengths, counts, shape: InclusionShape | None = None,
              period: float = 1.0, periodic=(False, False), n_z: int = 0,
              z_span: tuple[float, float] = (-0.5, 0.5),
              gamma=()) -> GridMesh:
    """The one grid builder: the tensor grid of `counts` elements over
    `lengths`, extruded into `n_z` layers over x3 in `z_span` when n_z > 0;
    an element is soft when its node-mean centroid, taken modulo `period`
    (1 for a cell, eps for a plate), lies in `shape`; the `periodic` axes
    identify their last node plane with the first, and the nodes of the
    `gamma` edges are clamped."""
    unknown = sorted(set(gamma) - set(EDGES))
    if unknown:
        raise ConfigurationError(f"unknown boundary edges {unknown}")
    (L1, L2), (nx, ny) = lengths, counts
    X, Y = np.meshgrid(L1 * np.arange(nx + 1) / nx,
                       L2 * np.arange(ny + 1) / ny, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    # quads with corners (0,0), (1,0), (1,1), (0,1), numbered x-fastest
    ll = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    elements = np.column_stack([ll, ll + 1, ll + nx + 2, ll + nx + 1])
    cent = nodes[elements].mean(axis=1)
    soft = shape.contains(np.mod(cent / period, 1.0)) if shape is not None \
        else np.zeros(len(elements), dtype=bool)
    # node index along each axis -> its master's (plane m is plane 0's
    # image on a periodic axis)
    wrap = [np.arange(m + 1) % (m if p else m + 1)
            for m, p in zip(counts, periodic)]
    npl = len(nodes)
    pmap = ((wrap[1][:, None] * (nx + 1) + wrap[0]).ravel()
            + npl * np.arange(n_z + 1)[:, None]).ravel()
    if n_z:
        # one node layer per height, hexes (bottom face, then top face)
        # layer by layer
        lo, hi = z_span
        zs = lo + (hi - lo) * np.arange(n_z + 1) / n_z
        nodes = np.column_stack([np.tile(nodes, (n_z + 1, 1)),
                                 np.repeat(zs, npl)])
        base = elements + npl * np.arange(n_z)[:, None, None]
        elements = np.concatenate([base, base + npl], axis=2).reshape(-1, 8)
        soft = np.tile(soft, n_z)
    # an edge is the node plane of index 0 or the axis count
    index = _axis_index((nx + 1, ny + 1, n_z + 1))
    clamped = np.zeros(len(nodes), dtype=bool)
    for axis, side in (EDGES[e] for e in gamma):
        clamped |= index[axis] == side * counts[axis]
    return GridMesh(nodes=nodes, elements=elements, element_soft=soft,
                    periodic_map=pmap, dirichlet_nodes=np.flatnonzero(clamped),
                    lengths=tuple(lengths), counts=tuple(counts),
                    periodic=tuple(periodic), n_z=n_z, z_span=z_span,
                    shape=shape, gamma=tuple(gamma))


def build_cell_mesh(shape: InclusionShape | None, n: int, dim: int = 2,
                    n_z: int = 4, z_span: tuple[float, float] = (-0.5, 0.5)) -> GridMesh:
    """Mesh the unit cell (dim=2) or the prism I x Y (dim=3), periodic in
    y1 and y2.

    shape=None is the no-inclusion validation mode (all elements stiff).
    Raises ConfigurationError when the inclusion is too close to the cell
    boundary to leave at least one full stiff element layer after
    discretization.
    """
    if n < 4:
        raise ConfigurationError("cell resolution n must be at least 4")
    if dim not in (2, 3):
        raise ConfigurationError("dim must be 2 or 3")
    if dim == 3 and n_z < 2:
        raise ConfigurationError("prism meshes need n_z >= 2")
    if shape is not None and shape.boundary_margin < 1.0 / n - 1e-12:
        raise ConfigurationError(
            f"inclusion margin {shape.boundary_margin:.4g} smaller than one "
            f"element layer 1/n = {1.0 / n:.4g}")
    return grid_mesh((1.0, 1.0), (n, n), shape, periodic=(True, True),
                     n_z=n_z if dim == 3 else 0, z_span=z_span)


def build_macro_mesh(L1: float, L2: float, n1: int, n2: int,
                     gamma_spec=("left",)) -> GridMesh:
    """Mesh the mid-plane [0,L1] x [0,L2], clamped on the gamma_D edges."""
    if L1 <= 0 or L2 <= 0:
        raise ConfigurationError("macro domain lengths must be positive")
    if n1 < 2 or n2 < 2:
        raise ConfigurationError("macro resolutions must be at least 2")
    if not gamma_spec:
        raise ConfigurationError("gamma_D must contain at least one edge")
    return grid_mesh((L1, L2), (n1, n2), gamma=gamma_spec)


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
    is x_a -> L_a - x_a (a cell's y_a -> 1 - y_a)."""
    for name, C in (tensors or {}).items():
        if not tn.mirror_symmetric(C, axis):
            return f"{name} not mirror-symmetric"
    if axis == 2:
        if mesh.n_z % 2 or tuple(mesh.z_span) != (-0.5, 0.5):
            return "odd n_z" if mesh.n_z % 2 else "prism not on x3 in (-1/2, 1/2)"
        soft = mesh.element_soft.reshape(mesh.n_z, -1)
    elif mesh.counts[axis] % 2:
        return "odd n"
    else:   # (x3, y2, y1), the mirrored axis first
        nx, ny = mesh.counts
        soft = np.moveaxis(mesh.element_soft.reshape(-1, ny, nx), 2 - axis, 0)
    if not np.array_equal(soft, soft[::-1]):
        return "inclusion not mirror-symmetric"
    return None


def mirror_region(mesh, axes):
    """The fundamental region of the mirrors of `axes` (0, 1, 2: the
    in-plane axes and x3, each mirror mapping the mesh to itself), cut from
    a cell mesh or a fine plate as a box of its grid: x_a in [0, L_a/2]
    for each in-plane mirror (node indices 0..m_a/2 of the axis's m_a
    elements) and x3 >= 0 (node layers from n_z/2 up); and the nodes of
    each mirror's planes in it, by index: m_a/2, and 0 on a periodic axis
    (L_a is the periodic image of 0), or the region's x3 index 0. The
    energy of a field of one parity class there is 2^-len(axes) of its
    energy on the mesh."""
    shape = mesh.grid[0]
    nodes, elems = [slice(None)] * len(shape), [slice(None)] * len(shape)
    for a in axes:
        if a == 2:
            nodes[a] = elems[a] = slice(mesh.n_z // 2, None)
        else:
            half = mesh.counts[a] // 2
            nodes[a], elems[a] = slice(half + 1), slice(half)

    def box(counts, ranges):
        # the ids of a box of a grid numbered x-fastest, ascending: the
        # box's own numbering, x-fastest
        return np.arange(np.prod(counts)).reshape(counts[::-1])[
            tuple(ranges[::-1])].ravel()
    used = box(shape, nodes)
    keep = box(tuple(n - 1 for n in shape), elems)
    renum = np.full(mesh.n_nodes, -1)
    renum[used] = np.arange(len(used))
    half_z = 2 in axes
    # the clamps of the whole mesh, renumbered as its periodic map: the cut
    # planes are not clamped
    clamped = renum[mesh.dirichlet_nodes]
    region = replace(
        mesh, nodes=mesh.nodes[used], elements=renum[mesh.elements[keep]],
        element_soft=mesh.element_soft[keep],
        periodic_map=renum[mesh.periodic_map[used]],
        dirichlet_nodes=clamped[clamped >= 0],
        cut=tuple(c or a in axes for a, c in enumerate(mesh.cut)),
        n_z=mesh.n_z // 2 if half_z else mesh.n_z,
        z_span=(0.0, mesh.z_span[1]) if half_z else mesh.z_span)
    index = _axis_index(region.grid[0])
    planes = {a: np.flatnonzero(np.isin(index[a], (0,) if a == 2 else (
        0,) * mesh.periodic[a] + (mesh.counts[a] // 2,))) for a in axes}
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
        the node. A node's grid index beyond a mirror's plane is reflected
        about the plane's index in `target`: m_a/2 along an in-plane axis
        of m_a elements, and along x3 the region's lowest layer,
        target.n_z - region.n_z (0 on a target already halved)."""
        index = _axis_index(target.grid[0])
        lift = target.n_z - self.region.n_z
        flips = np.zeros((target.n_nodes, len(self.axes)), dtype=bool)
        for k, a in enumerate(self.axes):
            plane = lift if a == 2 else target.counts[a] // 2
            flips[:, k] = index[a] < plane if a == 2 else index[a] > plane
            index[a] = np.where(flips[:, k], 2 * plane - index[a], index[a])
        if target.dim == 3:
            index[2] = index[2] - lift
        img = np.ravel_multi_index(index[::-1], self.region.grid[0][::-1])
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
