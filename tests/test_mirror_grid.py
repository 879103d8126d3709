"""The fundamental region, its mirror planes and the node images of the
mirror classes come from the grid's indices (`geometry.mirror_region`,
`geometry.MirrorClasses.images`): they equal the coordinate oracle
(`mirror_oracle`) exactly, and taking images stores nothing."""

import copy
import dataclasses

import numpy as np
import pytest

from hcplate import tensors as tn
from hcplate.fem.system import DofMap
from hcplate.finescale import PLATE_MIRRORS, _build_fine_mesh
from hcplate.geometry import (MIRRORS, Q1_CARRIES, GridMesh, InclusionShape,
                              MirrorClasses, build_cell_mesh, mirror_region)

import mirror_oracle

SHAPE = InclusionShape("disk", 0.3)
ISO = {"C0": tn.isotropic(1.0, 1.0)}


def _plate(n_z=4, gamma=("left", "bottom", "top")):
    """A 16 x 8 x n_z plate of eps = 0.25 cells, clamped on gamma_D."""
    return _build_fine_mesh(1.0, 0.5, 0.25, 4, n_z, SHAPE, gamma=gamma)


def _assert_meshes_equal(got, want):
    for f in dataclasses.fields(GridMesh):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


CASES = [
    # (mesh, axes of MirrorClasses, their names, refused {name: why})
    *[(lambda: build_cell_mesh(SHAPE, n=8), axes, MIRRORS, None)
      for axes in ([0], [1], [0, 1])],
    *[(lambda: build_cell_mesh(SHAPE, n=8, dim=3, n_z=4), axes, MIRRORS,
       None) for axes in ([0], [2], [0, 2], [0, 1, 2])],
    (lambda: build_cell_mesh(SHAPE, n=10, dim=3, n_z=6), [0, 1, 2], MIRRORS,
     None),
    (_plate, [1], PLATE_MIRRORS, None),
    (_plate, [1, 2], PLATE_MIRRORS, None),
    (lambda: _plate(n_z=6), [1, 2], PLATE_MIRRORS, None),
    # refused mirrors: odd n, and the x2 mirror of a plate with one clamp
    (lambda: build_cell_mesh(SHAPE, n=9, dim=3, n_z=4), [0, 1, 2], MIRRORS,
     None),
    (lambda: _plate(gamma=("left", "bottom")), [1, 2], PLATE_MIRRORS,
     {"x2": "gamma_D not mirror-symmetric"}),
]


@pytest.mark.parametrize("make, axes, names, refused", CASES)
def test_index_rule_is_the_coordinate_oracle(make, axes, names, refused):
    mesh = make()
    mc = MirrorClasses(mesh, axes, ISO, names, refused)
    region, planes = mirror_oracle.mirror_region(mesh, mc.axes)
    _assert_meshes_equal(mc.region, region)
    assert list(mc.planes) == list(planes)
    for a in planes:
        assert np.array_equal(mc.planes[a], planes[a])
    # the targets: the mesh cut from, its x3 half, and the region itself
    targets = [mesh, mc.region]
    if 2 in mc.axes:
        targets.append(mirror_region(mesh, [2])[0])
    for target in targets:
        img, flips = mc.images(target)
        want_img, want_flips = mirror_oracle.images(mc.region, mc.axes,
                                                    target)
        assert np.array_equal(img, want_img)
        assert np.array_equal(flips, want_flips)


def test_the_x3_half_plate_is_a_target():
    # the half plate's nodes are the region's where x2 <= L2/2, and their
    # mirror images in x2 elsewhere; no node is flipped in x3
    plate = _plate()
    mc = MirrorClasses(plate, [1, 2], ISO, fixed={2: 1})
    half = mirror_region(plate, [2])[0]
    img, flips = mc.images(half)
    assert not flips[:, 1].any() and flips[:, 0].any()
    kept = ~flips[:, 0]
    assert np.array_equal(mc.region.nodes[img[kept]], half.nodes[kept])
    assert mc.weight(half) == 2 ** -0.5 and mc.weight(plate) == 0.5


def test_images_unfold_and_fold_store_nothing():
    # the memo hands one MirrorClasses object to every caller of a
    # spectrum: reading images, unfolding and folding leave it as it was
    mesh = build_cell_mesh(SHAPE, n=8, dim=3, n_z=4)
    mc = MirrorClasses(mesh, range(3), ISO)
    dof = DofMap(mc.region.n_nodes, 3).identify_periodic(
        mc.region.periodic_map).finalize()
    pinned = list(mc.pinned(dof, Q1_CARRIES))
    before = dict(vars(mc))
    record = copy.deepcopy(mc.record)
    mc.images(mesh)
    for k, d in enumerate(pinned):
        u = mc.unfold(k, np.ones(d.n_free), d, Q1_CARRIES, mesh)
        mc.fold(k, u, d, Q1_CARRIES, mesh)
    mc.weight(mesh)
    assert vars(mc).keys() == before.keys()
    assert all(vars(mc)[key] is value for key, value in before.items())
    assert mc.record == record
