"""The slab factor order: a permutation of the reduced DOFs under which
every assembled operator is a band one node slab wide, factored by band
Cholesky with the same results as a plain SuperLU LU."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from hcplate.effective import EffectiveTensor, effective_delta, \
    effective_delta0, effective_deltainf
from hcplate.fem import EigWorkspace, factorize, slab_order
from hcplate.fem import assemble as fa
from hcplate.fem import system
from hcplate.finescale import build_fine_problem, fine_eigs, fine_resolvent
from hcplate.geometry import (InclusionShape, build_cell_mesh,
                              build_macro_mesh, mirror_region)
from hcplate.limits import LoadSpec
from hcplate.macro import build_bending_operator

C2D = tn.reduced_tensor(tn.isotropic(1.0, 1.0))


def half_bandwidth(pair) -> int:
    """Largest distance of a stiffness entry below the diagonal, with the
    DOFs sorted by their keys."""
    pos = np.empty(pair.n, dtype=int)
    pos[np.argsort(pair.order, kind="stable")] = np.arange(pair.n)
    K = pair.K.tocoo()
    return int(np.max(pos[K.row] - pos[K.col], initial=0))


def node_reach(shape, periodic) -> int:
    """Rank distance within which a node's element neighbours lie: one
    slab, one node row (3D) and one node, without the extent of the
    slowest (longest) axis; a folded periodic axis doubles its step."""
    free = [m - p for m, p in zip(shape, periodic)]
    reach, weight = 0, 1
    for ax in np.argsort(free, kind="stable"):
        reach += (1 + periodic[ax]) * weight
        weight *= free[ax]
    return reach


def check_order(pair, mesh):
    """The DOF keys are node ranks of a permutation, images share their
    master's; the band of the stiffness is at most one node slab, one node
    row and one node wide, each node's DOFs side by side."""
    shape, periodic = mesh.grid
    rank = slab_order(shape, periodic)
    distinct = rank[mesh.periodic_map == np.arange(len(rank))] \
        if hasattr(mesh, "periodic_map") else rank
    assert np.array_equal(np.sort(distinct), np.arange(len(distinct)))
    # every reduced DOF, and only those, carries its node's rank
    idx = pair.dof.index
    free = idx >= 0
    key = pair.order
    assert key.shape == (pair.n,)
    per_node = np.bincount(key, minlength=1).max()
    if pair.n == pair.dof.n_free:
        assert (key[idx[free]] == np.broadcast_to(rank[:, None],
                                                  idx.shape)[free]).all()
        assert per_node <= pair.dof.ncomp
    reach = node_reach(shape, periodic)
    assert half_bandwidth(pair) <= max(per_node * (reach + 1) - 1, 0)


SHAPES = st.builds(InclusionShape, st.sampled_from(["disk", "square"]),
                   st.floats(0.1, 0.3))


class TestSlabOrder:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 14), shape=SHAPES, bending=st.booleans(),
           part=st.sampled_from(["stiff", "soft"]))
    def test_periodic_2d_cells(self, n, shape, bending, part):
        # the stiff part on the torus (cell problems whose mirrors are
        # refused), or the inclusion with zero trace (Bloch operators)
        if shape.boundary_margin < 1.0 / n:
            shape = None
        mesh = build_cell_mesh(shape, n=n)
        if not mesh.element_soft.any():
            part = "stiff"
        space = {"stiff": "periodic", "soft": "inclusion-zero-trace"}[part]
        if bending:
            pair = fa.assemble_bfs_h2(mesh, C2D, space=space,
                                      restrict_to=part)
        else:
            pair = fa.assemble_vector_h1(mesh, C2D, space=space,
                                         restrict_to=part, ncomp=2)
        check_order(pair, mesh)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(4, 9), n_z=st.integers(2, 4), shape=SHAPES)
    def test_periodic_prisms(self, n, n_z, shape):
        if shape.boundary_margin < 1.0 / n:
            shape = None
        mesh = build_cell_mesh(shape, n=n, dim=3, n_z=n_z)
        pair = fa.assemble_vector_h1(mesh, tn.isotropic(1.0, 1.0),
                                     grad=fa.ScaledGradientSpec(1.0),
                                     space="periodic", restrict_to="stiff")
        check_order(pair, mesh)

    @settings(max_examples=20, deadline=None)
    @given(n1=st.integers(2, 16), n2=st.integers(2, 16),
           edges=st.sampled_from([("left",), ("left", "bottom"),
                                  ("left", "right", "top", "bottom")]))
    def test_macro_grids(self, n1, n2, edges):
        mesh = build_macro_mesh(1.0, 1.5, n1, n2, edges)
        check_order(fa.assemble_vector_h1(mesh, C2D, space="dirichlet",
                                          ncomp=2), mesh)
        check_order(fa.assemble_bfs_h2(mesh, np.eye(3), space="dirichlet"),
                    mesh)
        # the bending pencil over [a | b]: six DOFs a node, side by side
        tensor = EffectiveTensor(regime="delta", memb=C2D, bend=C2D,
                                 coupling=0.1 * C2D)
        check_order(build_bending_operator(tensor, mesh, 1.0).pair, mesh)

    @settings(max_examples=10, deadline=None)
    @given(cells=st.integers(2, 4), n_z=st.sampled_from([2, 4]),
           parity=st.sampled_from([None, "memb", "bend"]))
    def test_fine_grids(self, demo_material, demo_shape, cells, n_z, parity):
        fp = build_fine_problem(demo_material, demo_shape, h=0.5,
                                epsilon=0.5, cells_per_eps=cells, n_z=n_z,
                                parity=parity)
        # the pencils live on the fundamental region of the plate's mirrors:
        # the region's, and each class's with its mirror-plane pins
        check_order(fp.pair.pencil(), fp.mirrors.region)
        for k in range(len(fp.class_dofs)):
            check_order(fp.pencil(k), fp.mirrors.region)

    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from([4, 6, 8, 10]), dim=st.sampled_from([2, 3]),
           axes=st.sampled_from([(0,), (1,), (0, 1), (2,), (0, 1, 2)]),
           shape=SHAPES)
    def test_mirror_regions(self, n, dim, axes, shape):
        # each cell problem is ordered by its fundamental region's own
        # grid, not periodic along a cut axis
        if shape.boundary_margin < 1.0 / n:
            shape = None
        mesh = build_cell_mesh(shape, n=n, dim=dim, n_z=4)
        region, _ = mirror_region(mesh, [a for a in axes if a < dim])
        if dim == 2:
            pair = fa.assemble_bfs_h2(region, C2D, density=None,
                                      space="periodic", restrict_to="stiff")
        else:
            pair = fa.assemble_vector_h1(
                region, tn.isotropic(1.0, 1.0), density=None,
                grad=fa.ScaledGradientSpec(1.0), space="periodic",
                restrict_to="stiff")
        assert pair.M is None
        check_order(pair, region)

    def test_periodic_images_share_their_master_rank(self):
        mesh = build_cell_mesh(None, n=6, dim=3, n_z=2)
        rank = slab_order(*mesh.grid)
        assert (rank == rank[mesh.periodic_map]).all()

    @pytest.mark.parametrize("m", [4, 5, 8, 9])
    def test_periodic_axes_are_folded(self, m):
        # m distinct x planes on a ring, 3 free y planes, x slowest: the
        # planes go 0, m-1, 1, m-2, ... and the image plane m takes plane
        # 0's ranks
        rank = slab_order((m + 1, 3), (1, 0)).reshape(3, m + 1)
        fold = np.ravel(list(zip(range(m), range(m - 1, -1, -1))))[:m]
        assert np.array_equal(rank[0, :m][fold], 3 * np.arange(m))
        assert np.array_equal(rank[:, m], rank[:, 0])
        assert np.array_equal(rank[:, 0], np.arange(3))

    def test_longest_axis_is_slowest(self):
        rank = slab_order((3, 5, 4), (0, 0, 0)).reshape(4, 5, 3)
        # x fastest (3 planes), then x3 (4), then y (5) slowest
        assert np.array_equal(rank[0, 0], [0, 1, 2])
        assert np.array_equal(rank[:, 0, 0], [0, 3, 6, 9])
        assert rank[0, 1, 0] == 12


class SuperLU(system.SpdFactor):
    """Oracle: the band factor's pinning, projection and backward-error
    contract, with the pinned block solved by a plain SuperLU LU in its
    default (COLAMD, an approximate minimum degree) column order."""

    def __init__(self, A, kernel=None, tol=1e-10, order=None):
        super().__init__(A, kernel, tol, order)
        self._lu = spla.splu(self.A[self._p][:, self._p].tocsc())

    def _apply(self, b):
        x = np.zeros_like(b)
        x[self._p] = self._lu.solve(b[self._p])
        return self._project(x)


def _superlu(monkeypatch):
    """Every factor that `factorize` builds solves by SuperLU."""
    monkeypatch.setattr(system, "SpdFactor", SuperLU)


@pytest.mark.usefixtures("fresh_memo")
class TestAgainstMinimumDegree:
    def test_prism_fill(self, demo_material, demo_shape):
        # the band stores half-bandwidth + 1 rows over the factored DOFs
        mesh = build_cell_mesh(demo_shape, n=16, dim=3, n_z=4)
        pair = fa.assemble_vector_h1(
            mesh, demo_material.C1, grad=fa.ScaledGradientSpec(1.0),
            space="periodic", restrict_to="stiff")
        kernel = fa.translations_kernel(pair.dof)
        band = factorize(pair.K, kernel, order=pair.order)
        assert band.ordering == "slab"
        kd = half_bandwidth(pair)
        assert kd <= 3 * (node_reach(*mesh.grid) + 1) - 1
        # the three pinned DOFs leave the band no wider
        rows, rest = divmod(band.fill, pair.n - 3)
        assert rest == 0 and rows <= kd + 1
        lu = SuperLU(pair.K, kernel, order=pair.order)
        f = np.random.default_rng(0).standard_normal(pair.n)
        x = lu.solve(f)
        assert_allclose(band.solve(f), x, rtol=0, atol=1e-10 * abs(x).max())

    def test_cell_tensors(self, demo_material, demo_shape, monkeypatch):
        def tensors():
            return [effective_delta(demo_material, build_cell_mesh(
                        demo_shape, n=12, dim=3, n_z=4), 1.0),
                    effective_delta0(demo_material,
                                     build_cell_mesh(demo_shape, n=16)),
                    effective_deltainf(demo_material,
                                       build_cell_mesh(demo_shape, n=16))]
        band = tensors()
        _superlu(monkeypatch)
        for a, b in zip(band, tensors()):
            Q = b.pair_form()
            assert_allclose(a.pair_form(), Q, rtol=0,
                            atol=1e-10 * abs(Q).max())

    @pytest.fixture
    def fine(self, demo_material, demo_shape):
        return lambda: build_fine_problem(demo_material, demo_shape, h=0.25,
                                          epsilon=0.25, cells_per_eps=4,
                                          n_z=4, parity="memb")

    def test_fine_resolvent(self, fine, monkeypatch):
        load = LoadSpec(amplitude=(1.0, 0.0, 0.0))
        u = fine_resolvent(fine(), 2.0, load)["u"]
        _superlu(monkeypatch)
        u_lu = fine_resolvent(fine(), 2.0, load)["u"]
        assert_allclose(u, u_lu, rtol=0, atol=1e-10 * abs(u_lu).max())

    def test_eigenpairs(self, fine, monkeypatch):
        ws = EigWorkspace(solver="shift-invert")
        w, v = fine_eigs(fine(), 4, ws)
        _superlu(monkeypatch)
        w_lu, v_lu = fine_eigs(fine(), 4, ws)
        assert_allclose(w, w_lu, rtol=1e-10)
        assert_allclose(v, v_lu, rtol=0, atol=1e-10 * abs(v_lu).max())
