"""The mirror-class object (`geometry.MirrorClasses`) on its own, and the
one class-record format that the cell tensors, the inclusion spectra and
the fine plate write."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from hcplate.bloch import bloch_spectrum
from hcplate.effective import effective_delta, effective_deltainf
from hcplate.fem.system import DofMap
from hcplate.finescale import build_fine_problem
from hcplate.geometry import (BFS_CARRIES, MIRRORS, Q1_CARRIES,
                              InclusionShape, MirrorClasses, build_cell_mesh)


def _anisotropic(seed: int) -> np.ndarray:
    """An SPD Voigt tensor that no mirror maps to itself."""
    A = np.random.default_rng(seed).normal(size=(6, 6))
    return A @ A.T + 6.0 * np.eye(6)


def _field_map(mesh, ncomp: int) -> DofMap:
    """A periodic DOF map of a cell mesh with a few nodes clamped."""
    return DofMap(mesh.n_nodes, ncomp).identify_periodic(
        mesh.periodic_map).constrain([0, 5]).finalize()


ISO = tn.isotropic(1.0, 1.0)
REFUSED = [
    # (mesh, tensors, carries, why per mirror)
    (dict(n=9), {}, BFS_CARRIES, {"y1": "odd n", "y2": "odd n"}),
    (dict(n=9, dim=3, n_z=3), {"C0": ISO}, Q1_CARRIES,
     {"y1": "odd n", "y2": "odd n", "x3": "odd n_z"}),
    (dict(n=8, dim=3, n_z=4), {"C0": _anisotropic(0), "C1": ISO}, Q1_CARRIES,
     dict.fromkeys(MIRRORS, "C0 not mirror-symmetric")),
    (dict(n=8), {"C0": ISO, "C1": _anisotropic(1)}, Q1_CARRIES[:2],
     dict.fromkeys(MIRRORS[:2], "C1 not mirror-symmetric")),
]


@pytest.mark.parametrize("grid, tensors, carries, why", REFUSED)
@pytest.mark.parametrize("fixed", [None, {2: -1}])
def test_every_mirror_refused_is_one_identity_class(grid, tensors, carries,
                                                    why, fixed):
    # with no mirror the one class is the whole cell: all of its DOFs, and
    # its fields unfold onto the cell as they are
    mesh = build_cell_mesh(InclusionShape("disk", 0.3), **grid)
    axes = range(mesh.dim)
    mc = MirrorClasses(mesh, axes, tensors,
                       fixed=fixed if mesh.dim == 3 else None)
    assert mc.axes == [] and mc.signs == [()]
    assert mc.record == {"mirrors": [], "mirrors_refused": why,
                         "classes": []}
    assert_allclose(mc.region.nodes, mesh.nodes)
    assert np.array_equal(mc.region.elements, mesh.elements)
    dof = _field_map(mc.region, len(carries))
    (pinned,) = mc.pinned(dof, carries)
    assert np.array_equal(pinned.index, dof.index)
    assert np.array_equal(mc.ids(dof, pinned), np.arange(dof.n_free))
    assert mc.record["classes"] == [{"signs": {}, "dofs": dof.n_free}]
    field = np.random.default_rng(2).normal(size=(dof.n_free, 3))
    out = mc.unfold(0, field, pinned, carries, mesh)
    for j in range(3):
        assert np.array_equal(out[:, :, j], dof.expand(field[:, j]))


FOLD_CASES = [
    # (cell mesh, carries, fixed mirror signs)
    (dict(n=8), BFS_CARRIES, None),
    (dict(n=8), Q1_CARRIES[:2], None),
    (dict(n=8, dim=3, n_z=4), Q1_CARRIES, None),
    (dict(n=8, dim=3, n_z=4), Q1_CARRIES, {2: 1}),
    (dict(n=8, dim=3, n_z=4), Q1_CARRIES, {2: -1}),
]


@pytest.mark.parametrize("grid, carries, fixed", FOLD_CASES)
def test_fold_is_the_adjoint_of_unfold(grid, carries, fixed):
    # <unfold(v), F> = <v, fold(F)> on every class, for fields and loads of
    # two columns on a periodic map with clamps; the weight of a class
    # field counts the images of the region that the target holds
    mesh = build_cell_mesh(InclusionShape("disk", 0.3), **grid)
    mc = MirrorClasses(mesh, range(mesh.dim), {"C0": ISO}, fixed=fixed)
    assert mc.axes == list(range(mesh.dim))
    assert len(mc.signs) == 2 ** (mesh.dim - len(fixed or {}))
    dof = _field_map(mc.region, len(carries))
    rng = np.random.default_rng(3)
    for k, pinned in enumerate(mc.pinned(dof, carries)):
        v = rng.normal(size=(pinned.n_free, 2))
        F = rng.normal(size=(mesh.n_nodes, len(carries), 2))
        unfolded = mc.unfold(k, v, pinned, carries, mesh)
        assert_allclose(np.einsum("ncj,nci->ji", unfolded, F),
                        v.T @ mc.fold(k, F, pinned, carries, mesh),
                        rtol=1e-12)
        assert_allclose(mc.fold(k, F[..., 0], pinned, carries, mesh),
                        mc.fold(k, F, pinned, carries, mesh)[:, 0])
        # the sign rule: a field of ones unfolds to -1 on the components
        # the class pins at the images under one mirror, +1 on the others
        ones = mc.unfold(k, np.ones(pinned.n_free), pinned, carries, mesh)
        img, flips = mc.images(mesh)
        for j, comps in enumerate(mc.pins(k, carries)):
            at = flips[:, j] & (flips.sum(axis=1) == 1)
            want = np.where(np.isin(range(len(carries)), comps), -1.0, 1.0)
            kept = pinned.index[img[at]] >= 0
            assert kept.any()
            assert_allclose(ones[at][kept],
                            np.broadcast_to(want, kept.shape)[kept])
    images = 2 ** mesh.dim
    assert mc.weight(mesh) == pytest.approx(images ** -0.5, rel=1e-15)
    assert mc.weight(mesh, solve=True) == 1.0 / images
    assert mc.weight(mc.region) == mc.weight(mc.region, solve=True) == 1.0


def test_class_ids_follow_the_pinned_map():
    # a periodic cell: a class keeps a region DOF unless it pins it, and
    # numbers the kept ones as the region does; the classes split the
    # region's DOFs as the pins allow
    mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3, n_z=4)
    mc = MirrorClasses(mesh, range(3), {"C1": ISO})
    dof = _field_map(mc.region, 3)
    for k, pinned in enumerate(mc.pinned(dof, Q1_CARRIES)):
        ids = mc.ids(dof, pinned)
        assert (np.diff(ids) > 0).all()
        kept = np.zeros(dof.n_free, dtype=bool)
        kept[ids] = True
        free = pinned.index >= 0
        assert kept[dof.index[free]].all()
        gone = (dof.index >= 0) & ~free
        assert not kept[dof.index[gone]].any()
    assert len(mc.record["classes"]) == 8


def test_one_record_format_for_every_caller(demo_material, demo_shape):
    # the cell tensors, the inclusion spectra and the fine plate record each
    # class as its signs under the mirrors used and its DOF count; the
    # tensors add the class's load columns
    mat = demo_material
    records = {
        "tensor": effective_delta(mat, build_cell_mesh(
            demo_shape, n=8, dim=3, n_z=4), 1.0).provenance,
        "tensor_deltainf": effective_deltainf(
            mat, build_cell_mesh(demo_shape, n=8)).provenance,
        "bloch": bloch_spectrum(mat, demo_shape, 8, "memb_delta", 4,
                                delta=1.0, n_z=4).provenance,
        "fine": build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                                   cells_per_eps=4, n_z=4,
                                   parity="memb").meta,
    }
    for caller, rec in records.items():
        extra = {"columns"} if caller.startswith("tensor") else set()
        assert rec["mirrors"] and rec["mirrors_refused"] == {}
        assert rec["classes"]
        for c in rec["classes"]:
            assert set(c) == {"signs", "dofs"} | extra, caller
            assert list(c["signs"]) == rec["mirrors"]
            assert set(c["signs"].values()) <= {1, -1}
            assert c["dofs"] > 0
        signs = [tuple(c["signs"].values()) for c in rec["classes"]]
        assert len(set(signs)) == len(signs)
