"""The node-block assembler of hcplate.fem against the COO path of
tests/assembly_oracle.py: every space, per-component and parity pins,
one to three components and BFS, 2D and 3D meshes, complex strip fibers
and rectangular blocks. Values agree to 1e-14 of each matrix's largest
entry; every matrix is canonical CSR and stores no zero. The fine plate's
build stays within twice the memory of its matrices."""

import tracemalloc

import numpy as np
import pytest

import assembly_oracle as oracle
from hcplate import tensors as tn
from hcplate.fem import assemble as fa
from hcplate.fem import elements as el
from hcplate.finescale import _build_fine_mesh, build_fine_problem
from hcplate.geometry import (InclusionShape, build_cell_mesh,
                              build_macro_mesh, half_prism)


def spd(n, seed):
    A = np.random.RandomState(seed).standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


C6, C3, D3 = spd(6, 1), spd(3, 2), spd(3, 3)
TWO_PHASE = {"soft": 0.01 * C6, "stiff": C6}
RHO = {"soft": 0.7, "stiff": 1.3}


def assert_matches(A, ref):
    """Values within 1e-14 of the oracle's largest entry; canonical CSR
    without stored zeros."""
    assert A.format == "csr" and A.shape == ref.shape
    assert A.has_canonical_format
    assert np.all(A.data != 0)
    scale = max(abs(ref).max(), 1e-300)
    assert abs(A - ref).max() <= 1e-14 * scale


def check_vector_h1(mesh, C, density, restrict_to="all", ncomp=3,
                    third=None, **kw):
    pair = fa.assemble_vector_h1(mesh, C, density=density,
                                 restrict_to=restrict_to, ncomp=ncomp, **kw)
    K, M = oracle.vector_h1_pair(mesh, pair.dof, C, density, restrict_to,
                                 ncomp, third)
    assert_matches(pair.K, K)
    assert_matches(pair.M, M)
    return pair


@pytest.fixture(scope="module")
def shape():
    return InclusionShape("disk", 0.26)


class TestVectorH1:
    def test_periodic_2d_two_components(self, shape):
        mesh = build_cell_mesh(shape, 8)
        check_vector_h1(mesh, {"soft": 0.01 * C3, "stiff": C3}, RHO,
                        space="periodic", ncomp=2)

    def test_periodic_2d_three_components_planar(self, shape):
        check_vector_h1(build_cell_mesh(shape, 8), TWO_PHASE, RHO,
                        space="periodic")

    def test_periodic_3d_scaled_gradient(self, shape):
        mesh = build_cell_mesh(shape, 6, dim=3, n_z=2)
        check_vector_h1(mesh, TWO_PHASE, RHO, space="periodic",
                        restrict_to="stiff", grad=fa.ScaledGradientSpec(0.5),
                        third=("dz", 2.0))

    def test_zero_trace_complex_strip_fiber(self, shape):
        pair = check_vector_h1(build_cell_mesh(shape, 8), C6, 0.9,
                               space="inclusion-zero-trace",
                               restrict_to="soft", eta=1.7,
                               third=("mult", 1.7j))
        assert np.iscomplexobj(pair.K) and abs(pair.K.imag).max() > 0

    def test_zero_trace_3d_with_parity_pins(self, shape):
        mesh, pin = half_prism(build_cell_mesh(shape, 8, dim=3, n_z=4),
                               "memb", {"C0": tn.isotropic(1.0, 1.0)})
        C = tn.isotropic(1.0, 1.0)
        check_vector_h1(mesh, C, 1.0, space="inclusion-zero-trace",
                        restrict_to="soft", grad=fa.ScaledGradientSpec(1.0),
                        third=("dz", 1.0), extra_constraints=[pin])

    def test_free_fine_plate_with_pins(self, shape):
        mesh = _build_fine_mesh(1.0, 1.0, 0.5, 4, 2, shape)
        left = np.flatnonzero(mesh.nodes[:, 0] == 0.0)
        top = np.flatnonzero(mesh.nodes[:, 2] == 0.5)
        bottom = np.flatnonzero(mesh.nodes[:, 2] == -0.5)
        check_vector_h1(mesh, TWO_PHASE, RHO, space="free",
                        grad=fa.ScaledGradientSpec(0.25), third=("dz", 4.0),
                        extra_constraints=[(left, None), (top, [1]),
                                           (bottom, [0, 2])])

    def test_periodic_with_component_pins(self, shape):
        # every ninth node, slaves among them, pins its second component
        mesh = build_cell_mesh(shape, 8)
        check_vector_h1(mesh, C3, 1.0, space="periodic", ncomp=2,
                        extra_constraints=[(np.arange(0, mesh.n_nodes, 9),
                                            [1])])

    def test_dirichlet_macro(self):
        mesh = build_macro_mesh(1.0, 0.5, 6, 3, ("left", "right"))
        check_vector_h1(mesh, C3, 2.0, space="dirichlet", ncomp=2)


class TestBFS:
    @pytest.mark.parametrize("space,restrict_to", [
        ("periodic", "all"), ("periodic", "stiff"),
        ("inclusion-zero-trace", "soft"), ("free", "all")])
    def test_cell_spaces(self, shape, space, restrict_to):
        mesh = build_cell_mesh(shape, 8)
        pair = fa.assemble_bfs_h2(mesh, D3, density=0.8, space=space,
                                  restrict_to=restrict_to)
        K, M = oracle.bfs_pair(mesh, pair.dof, D3, 0.8, restrict_to)
        assert_matches(pair.K, K)
        assert_matches(pair.M, M)

    def test_dirichlet_macro(self):
        mesh = build_macro_mesh(1.0, 1.0, 5, 4)
        pair = fa.assemble_bfs_h2(mesh, D3, space="dirichlet")
        K, M = oracle.bfs_pair(mesh, pair.dof, D3, 1.0)
        assert_matches(pair.K, K)
        assert_matches(pair.M, M)


class TestRectBlocks:
    @pytest.fixture(scope="class")
    def plate(self):
        mesh = build_macro_mesh(1.0, 1.0, 4, 5)
        memb = fa.assemble_vector_h1(mesh, C3, space="dirichlet", ncomp=2)
        bend = fa.assemble_bfs_h2(mesh, D3, space="dirichlet")
        return mesh, memb.dof, bend.dof

    def test_membrane_bending_coupling(self, plate):
        mesh, memb, bend = plate
        Ke = el.mixed_memb_bend(mesh.element_size(), spd(3, 4))
        assert_matches(fa.assemble_rect_block(mesh, memb, bend, Ke),
                       oracle.rect_block(mesh, memb, bend, Ke))

    def test_bending_against_nodal_values(self, plate):
        mesh, _, bend = plate
        for Me in (el.mixed_mass_bfs_q1(mesh.element_size(), 1.0),
                   *el.mixed_gradload_bfs_q1(mesh.element_size())):
            assert_matches(fa.assemble_rect_block(mesh, bend, None, Me),
                           oracle.rect_block(mesh, bend, None, Me))

    def test_scalar_nodal_mass(self, plate):
        mesh = plate[0]
        Me = el.q1_mass(mesh.element_size(), 1.0, ncomp=1)
        assert_matches(fa.assemble_rect_block(mesh, None, None, Me),
                       oracle.rect_block(mesh, None, None, Me))

    def test_zero_coupling_stores_nothing(self, plate):
        mesh, memb, bend = plate
        Ke = el.mixed_memb_bend(mesh.element_size(), np.zeros((3, 3)))
        A = fa.assemble_rect_block(mesh, memb, bend, Ke)
        assert A.shape == (memb.n_free, bend.n_free) and A.nnz == 0


def test_mass_drops_component_off_diagonals(shape):
    pair = fa.assemble_vector_h1(build_cell_mesh(shape, 8), C6,
                                 space="periodic")
    rows = np.repeat(np.arange(pair.n), np.diff(pair.M.indptr))
    comp = np.empty(pair.n, dtype=int)
    for c in range(3):
        comp[pair.dof.index[:, c][pair.dof.index[:, c] >= 0]] = c
    assert np.all(comp[rows] == comp[pair.M.indices])


def _pencil_bytes(pair):
    return sum(a.nbytes for A in (pair.K, pair.M)
               for a in (A.data, A.indices, A.indptr))


def test_fine_plate_build_memory(demo_material, demo_shape):
    """The build keeps no K or M: what it holds (meshes, DOF maps, images,
    one node-pair pattern) is under half the bytes of the region's K and
    M. A class pencil is summed on that pattern, not from the COO triplets
    of every element entry (6.85 times the matrices' bytes)."""
    tracemalloc.start()
    try:
        fp = build_fine_problem(demo_material, demo_shape, h=0.25,
                                epsilon=0.25, parity="memb")
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pencil = fp.pencil(0)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert not hasattr(fp.pair, "K")
    region = _pencil_bytes(fp.pair.pencil())
    size = _pencil_bytes(pencil)
    assert held <= 0.5 * region, (held, region)
    assert peak <= 2.5 * size, (peak, size)
