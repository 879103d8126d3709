"""The fundamental region of a mesh's mirrors, its mirror planes and the
node images of a target mesh, found from node and centroid coordinates:
the oracle that the grid-index rule of `geometry.mirror_region` and
`geometry.MirrorClasses.images` is checked against."""

from dataclasses import replace

import numpy as np


def planes_at(mesh, axis: int) -> tuple[float, ...]:
    """The coordinates of the planes of the mirror of `axis`: x_a = L_a/2,
    and 0 on a periodic axis (L_a is the periodic image of 0), or x3 = 0."""
    if axis == 2:
        return (0.0,)
    return (0.0,) * mesh.periodic[axis] + (mesh.lengths[axis] / 2,)


def mirror_region(mesh, axes):
    """The elements whose centroid lies in x_a < L_a/2 for each in-plane
    mirror and x3 > 0, the nodes they use (renumbered in ascending order)
    and the nodes of the region on each mirror's planes."""
    cent = mesh.centroids()
    keep = np.ones(len(mesh.elements), dtype=bool)
    for a in axes:
        keep &= cent[:, a] > 0.0 if a == 2 \
            else cent[:, a] < max(planes_at(mesh, a))
    used = np.flatnonzero(np.bincount(mesh.elements[keep].ravel(),
                                      minlength=mesh.n_nodes))
    renum = np.full(mesh.n_nodes, -1)
    renum[used] = np.arange(len(used))
    half_z = 2 in axes
    clamped = renum[mesh.dirichlet_nodes]
    region = replace(
        mesh, nodes=mesh.nodes[used], elements=renum[mesh.elements[keep]],
        element_soft=mesh.element_soft[keep],
        periodic_map=renum[mesh.periodic_map[used]],
        dirichlet_nodes=clamped[clamped >= 0],
        cut=tuple(c or a in axes for a, c in enumerate(mesh.cut)),
        n_z=mesh.n_z // 2 if half_z else mesh.n_z,
        z_span=(0.0, mesh.z_span[1]) if half_z else mesh.z_span)
    x = region.nodes
    planes = {a: np.flatnonzero(np.isclose(
        x[:, a, None], planes_at(mesh, a)).any(axis=1)) for a in axes}
    return region, planes


def images(region, axes, target):
    """Each node of `target` as the image of a node of `region` under the
    mirrors of `axes`: the region node, matched on the grid of the target's
    element sizes, and per mirror whether it maps the node."""
    h = np.asarray(target.element_size())
    lo = target.nodes.min(axis=0)

    def grid(x):
        return np.rint((np.asarray(x) - lo) / h).astype(np.int64)
    g = grid(target.nodes)
    flips = np.zeros((target.n_nodes, len(axes)), dtype=bool)
    for k, a in enumerate(axes):
        center = 0.0 if a == 2 else max(planes_at(target, a))
        mid = int(np.rint((center - lo[a]) / h[a]))
        flips[:, k] = g[:, a] < mid if a == 2 else g[:, a] > mid
        g[flips[:, k], a] = 2 * mid - g[flips[:, k], a]
    reg = grid(region.nodes)
    dims = np.maximum(g.max(axis=0), reg.max(axis=0)) + 1
    lookup = np.full(np.prod(dims), -1)
    lookup[np.ravel_multi_index(reg.T, dims)] = np.arange(len(reg))
    img = lookup[np.ravel_multi_index(g.T, dims)]
    assert (img >= 0).all(), "a target node has no image in the region"
    return img, flips
