import numpy as np
import pytest
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from hcplate.geometry import (BFS_CARRIES, Q1_CARRIES, ConfigurationError,
                              InclusionShape, build_cell_mesh,
                              build_macro_mesh, half_prism, mirror_refusal,
                              mirror_region, parity_pinned)


class TestInclusionShape:
    def test_margin(self):
        s = InclusionShape("disk", 0.25)
        assert_allclose(s.boundary_margin, 0.25)

    def test_too_large(self):
        with pytest.raises(ConfigurationError):
            InclusionShape("disk", 0.55)

    def test_off_center_touching(self):
        with pytest.raises(ConfigurationError):
            InclusionShape("disk", 0.3, center=(0.2, 0.5))

    def test_square_is_lipschitz_only(self):
        # the square's boundary has corners (Lipschitz only), the disk's is
        # C^{1,1}: a point just inside a corner lies in the square only
        corner = np.full(2, 0.5 + 0.25 * (1.0 - 1e-9))
        assert InclusionShape("square", 0.25).contains(corner)
        assert not InclusionShape("disk", 0.25).contains(corner)


class TestCellMesh:
    def test_disk_centroid_count_n8(self):
        # 64 elements; 12 centroids fall inside the r=0.25 disk on this grid
        mesh = build_cell_mesh(InclusionShape("disk", 0.25), n=8)
        assert len(mesh.elements) == 64
        assert np.count_nonzero(mesh.element_soft) == 12

    def test_square_central_block(self):
        mesh = build_cell_mesh(InclusionShape("square", 0.25), n=4)
        assert np.count_nonzero(mesh.element_soft) == 4
        soft_centroids = mesh.centroids()[mesh.element_soft]
        assert_allclose(sorted(map(tuple, soft_centroids)),
                        [(0.375, 0.375), (0.375, 0.625),
                         (0.625, 0.375), (0.625, 0.625)])

    def test_margin_check_rejects_large_disk(self):
        with pytest.raises(ConfigurationError):
            build_cell_mesh(InclusionShape("disk", 0.49), n=8)

    def test_no_inclusion_mode(self):
        mesh = build_cell_mesh(None, n=4)
        assert not mesh.element_soft.any()
        assert mesh.soft_area_fraction() == 0.0

    def test_min_resolution(self):
        with pytest.raises(ConfigurationError):
            build_cell_mesh(InclusionShape("disk", 0.2), n=3)

    def test_area_fraction_converges(self):
        shape = InclusionShape("disk", 0.3)
        errs = []
        for n in (8, 16, 32):
            mesh = build_cell_mesh(shape, n=n)
            errs.append(abs(mesh.soft_area_fraction() - shape.area()))
        assert errs[2] < errs[0]
        # O(1/n) bound with a generous constant
        for n, e in zip((8, 16, 32), errs):
            assert e <= 4.0 / n

    def test_periodic_map_is_projection(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.25), n=8)
        pm = mesh.periodic_map
        assert_allclose(pm[pm], pm)  # applying twice is identity on masters
        # slaves sit on the far faces only
        slaves = np.flatnonzero(pm != np.arange(len(pm)))
        assert np.all((np.isclose(mesh.nodes[slaves, 0], 1.0))
                      | (np.isclose(mesh.nodes[slaves, 1], 1.0)))

    def test_every_element_has_one_material(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8)
        assert mesh.element_soft.dtype == bool
        assert len(mesh.element_soft) == len(mesh.elements)

    def test_inclusion_node_sets_partition(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=16)
        # nodes of soft elements alone
        soft = mesh.element_soft
        interior = set(np.setdiff1d(mesh.elements[soft],
                                    mesh.elements[~soft]))
        boundary = set(mesh.inclusion_boundary_nodes)
        assert interior and boundary and not interior & boundary
        # interior nodes only touch soft elements
        for node in list(interior)[:5]:
            touching = [e for e, conn in enumerate(mesh.elements) if node in conn]
            assert all(mesh.element_soft[e] for e in touching)


class TestPrismMesh:
    def test_shape_and_layers(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3, n_z=4)
        assert mesh.nodes.shape == (5 * 81, 3)
        assert len(mesh.elements) == 4 * 64
        assert_allclose(sorted(set(mesh.nodes[:, 2])), [-0.5, -0.25, 0, 0.25, 0.5])

    def test_material_constant_in_x3(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3, n_z=4)
        per_layer = mesh.element_soft.reshape(4, -1)
        for k in range(1, 4):
            assert (per_layer[k] == per_layer[0]).all()

    def test_half_span(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3, n_z=2,
                               z_span=(0.0, 0.5))
        assert_allclose(sorted(set(mesh.nodes[:, 2])), [0, 0.25, 0.5])

    def test_half_prism_parity_classes(self):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3, n_z=4)
        for parity, comps in (("memb", [2]), ("bend", [0, 1])):
            half, (plane, pinned) = half_prism(mesh, parity, {})
            assert (half.n_z, half.z_span) == (2, (0.0, 0.5))
            assert_allclose(half.nodes[plane, 2], 0.0)
            assert len(plane) == 81 and pinned == comps
        # two layers through the thickness: one on the half prism
        two = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3, n_z=2)
        assert half_prism(two, "memb", {})[0].n_z == 1

    def test_half_prism_refusals(self):
        with pytest.raises(ConfigurationError, match="odd n_z"):
            half_prism(build_cell_mesh(None, n=8, dim=3, n_z=3), "memb", {})
        mesh = build_cell_mesh(None, n=8, dim=3, n_z=4)
        with pytest.raises(ConfigurationError, match="unknown parity"):
            half_prism(mesh, "full", {})
        # the class needs the tensors' mirror too, named with the parity
        coupled = tn.isotropic(1.0, 1.0)
        coupled[0, 3] = coupled[3, 0] = 0.4
        with pytest.raises(ConfigurationError,
                           match="bend parity needs the x3 mirror, refused: "
                                 "C0 not mirror-symmetric"):
            half_prism(mesh, "bend", {"C0": coupled})
        assert half_prism(mesh, "bend", {"C0": tn.isotropic(1.0, 1.0)})[0] \
            .n_z == 2

    def test_needs_two_layers(self):
        with pytest.raises(ConfigurationError):
            build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3, n_z=1)


class TestMacroMesh:
    def test_unit_square_left_edge(self):
        mesh = build_macro_mesh(1.0, 1.0, 4, 4)
        assert mesh.n_nodes == 25
        assert len(mesh.dirichlet_nodes) == 5
        assert_allclose(mesh.nodes[mesh.dirichlet_nodes, 0], 0.0)

    def test_rectangle(self):
        mesh = build_macro_mesh(2.0, 1.0, 8, 4)
        assert mesh.n_nodes == 45
        assert len(mesh.dirichlet_nodes) == 5

    def test_empty_gamma_rejected(self):
        with pytest.raises(ConfigurationError):
            build_macro_mesh(1.0, 1.0, 4, 4, gamma_spec=())

    def test_two_edges(self):
        mesh = build_macro_mesh(1.0, 1.0, 4, 4, gamma_spec=("left", "right"))
        assert len(mesh.dirichlet_nodes) == 10


class TestMirrorRegion:
    def test_parity_rule(self):
        # u_a is odd under the mirror of axis a; w_x and w_xy are odd under
        # y1, w_y and w_xy under y2; a class of sign -1 pins the even ones
        assert parity_pinned(Q1_CARRIES, 0, 1) == [0]
        assert parity_pinned(Q1_CARRIES, 2, -1) == [0, 1]
        assert parity_pinned(BFS_CARRIES, 0, 1) == [1, 3]
        assert parity_pinned(BFS_CARRIES, 1, 1) == [2, 3]
        assert parity_pinned(BFS_CARRIES, 1, -1) == [0, 1]

    @pytest.mark.parametrize("axes", [(), (0,), (1,), (0, 1), (2,),
                                      (0, 1, 2)])
    def test_region_and_planes(self, axes):
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3,
                               n_z=4)
        region, planes = mirror_region(mesh, axes)
        assert len(region.elements) * 2 ** len(axes) == len(mesh.elements)
        assert 2 ** len(axes) * region.element_soft.sum() \
            == mesh.element_soft.sum()
        shape, periodic = region.grid
        assert np.prod(shape) == region.n_nodes
        assert periodic == (0 not in axes, 1 not in axes, False)
        assert (region.n_z, region.z_span) == \
            ((2, (0.0, 0.5)) if 2 in axes else (4, (-0.5, 0.5)))
        # node ids run x-fastest over the region's grid
        lo = region.nodes.min(axis=0)
        h = np.array(region.element_size())
        i = np.rint((region.nodes - lo) / h).astype(int)
        assert (i[:, 0] + shape[0] * (i[:, 1] + shape[1] * i[:, 2])
                == np.arange(region.n_nodes)).all()
        assert (region.periodic_map[region.periodic_map] ==
                region.periodic_map).all()
        assert sorted(planes) == sorted(axes)
        for a, nodes in planes.items():
            values = {0.0} if a == 2 else {0.0, 0.5}
            assert set(np.round(region.nodes[nodes, a], 12)) == values

    def test_refusals(self):
        centred = InclusionShape("square", 0.2)
        assert mirror_refusal(build_cell_mesh(centred, n=8), 0) is None
        assert mirror_refusal(build_cell_mesh(centred, n=9), 1) == "odd n"
        # the mask decides, not the shape parameters: this off-centre square
        # covers the element columns 3-6 of 10, a symmetric staircase
        shifted = InclusionShape("square", 0.2, (0.45, 0.5))
        assert mirror_refusal(build_cell_mesh(shifted, n=10), 0) is None
        off = InclusionShape("square", 0.2, (0.42, 0.5))
        mesh = build_cell_mesh(off, n=10, dim=3, n_z=3)
        assert mirror_refusal(mesh, 0) == "inclusion not mirror-symmetric"
        assert mirror_refusal(mesh, 1) is None
        assert mirror_refusal(mesh, 2) == "odd n_z"
        mesh = build_cell_mesh(off, n=10, dim=3, n_z=2, z_span=(0.0, 1.0))
        assert mirror_refusal(mesh, 2) == "prism not on x3 in (-1/2, 1/2)"

    def test_tensor_refusals(self):
        # every tensor given is checked, before the mesh and in order
        coupled = tn.isotropic(1.0, 1.0)
        coupled[0, 3] = coupled[3, 0] = 0.4      # 11-23: breaks y2 and x3
        iso = tn.isotropic(1.0, 1.0)
        mesh = build_cell_mesh(InclusionShape("disk", 0.3), n=8, dim=3,
                               n_z=3)
        assert mirror_refusal(mesh, 0, {"C0": coupled}) is None
        assert mirror_refusal(mesh, 1, {"C0": iso, "C1": coupled}) \
            == "C1 not mirror-symmetric"
        assert mirror_refusal(mesh, 2, {"C0": coupled}) \
            == "C0 not mirror-symmetric"
        assert mirror_refusal(mesh, 2, {"C0": iso}) == "odd n_z"
