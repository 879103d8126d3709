"""The nested-dissection factor order: a permutation of the reduced DOFs
whose cuts separate their halves in every assembled operator, with less
fill than minimum degree and the same results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from hcplate.effective import effective_delta, effective_delta0, \
    effective_deltainf
from hcplate.fem import EigWorkspace, factorize, nested_dissection
from hcplate.fem import assemble as fa
from hcplate.fem.system import ND_LEAF
from hcplate.finescale import build_fine_problem, fine_eigs, fine_resolvent
from hcplate.geometry import (InclusionShape, build_cell_mesh,
                              build_macro_mesh, mirror_region)
from hcplate.limits import LoadSpec

C2D = tn.reduced_tensor(tn.isotropic(1.0, 1.0))


def reference_cuts(shape, periodic):
    """(half, half, separator) node-id arrays of every cut, each after the
    cuts inside its halves, leaves as their own separators: the plain
    recursion that `nested_dissection` builds once per box extent."""
    ids = np.arange(np.prod(shape)).reshape(shape[::-1])
    ids = ids[tuple(slice(-1) if p else slice(None) for p in periodic[::-1])]
    empty = np.zeros(0, dtype=int)
    out = []

    def cut(a, wrap):                      # axes of a: (x3,) y, x
        if a.size <= ND_LEAF:
            out.append((empty, empty, a.ravel()))
            return
        ax = a.ndim - 1 - int(np.argmax(a.shape[::-1]))   # x first on ties
        mid = a.shape[ax] // 2
        b = np.moveaxis(a, ax, 0)
        if wrap[ax]:
            halves, sep = (b[1:mid], b[mid + 1:]), [b[0], b[mid]]
        else:
            halves, sep = (b[:mid], b[mid + 1:]), [b[mid]]
        opened = wrap[:ax] + (False,) + wrap[ax + 1:]
        for h in halves:
            if h.size:
                cut(np.moveaxis(h, 0, ax), opened)
        out.append((halves[0].ravel(), halves[1].ravel(),
                    np.concatenate([s.ravel() for s in sep])))

    cut(ids, tuple(periodic[::-1]))
    return out


def check_order(pair, mesh):
    """The DOF keys are node ranks of a permutation; no stiffness entry
    couples the two halves of any cut."""
    shape, periodic = mesh.grid
    cuts = reference_cuts(shape, periodic)
    order = np.concatenate([s for _, _, s in cuts])
    rank = nested_dissection(shape, periodic)
    # the distinct nodes, ranked in the order of the plain recursion
    assert (rank[order] == np.arange(len(order))).all()
    # every reduced DOF, and only those, carries its node's rank
    idx = pair.dof.index
    free = idx >= 0
    key = pair.order
    assert key.shape == (pair.n,)
    assert (key[idx[free]] == np.broadcast_to(rank[:, None],
                                              idx.shape)[free]).all()
    assert np.bincount(key, minlength=1).max() <= pair.dof.ncomp
    K = pair.K.tocoo()
    rows, cols = key[K.row], key[K.col]
    for h1, h2, _ in cuts:
        side = np.zeros(len(order), dtype=np.int8)
        side[rank[h1]], side[rank[h2]] = 1, 2
        assert not np.any(side[rows] * side[cols] == 2)


SHAPES = st.builds(InclusionShape, st.sampled_from(["disk", "square"]),
                   st.floats(0.1, 0.3))


class TestNestedDissection:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 14), shape=SHAPES, bending=st.booleans(),
           part=st.sampled_from(["stiff", "soft"]))
    def test_periodic_2d_cells(self, n, shape, bending, part):
        # the stiff part on the torus (cell problems), or the inclusion
        # with zero trace (Bloch operators)
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
        rank = nested_dissection(*mesh.grid)
        assert (rank == rank[mesh.periodic_map]).all()


def _mmd(monkeypatch):
    """Assemble without grid keys: every factor falls back to MMD."""
    monkeypatch.setattr(fa, "nested_dissection", lambda *grid: None)


@pytest.mark.usefixtures("fresh_memo")
class TestAgainstMinimumDegree:
    def test_prism_fill(self, demo_material, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=16, dim=3, n_z=4)
        pair = fa.assemble_vector_h1(
            mesh, demo_material.C1, grad=fa.ScaledGradientSpec(1.0),
            space="periodic", restrict_to="stiff")
        kernel = fa.translations_kernel(pair.dof)
        nd = factorize(pair.K, kernel, order=pair.order)
        mmd = factorize(pair.K, kernel)
        assert (nd.ordering, mmd.ordering) == ("nested-dissection", "mmd")
        assert nd.fill <= 0.85 * mmd.fill

    def test_cell_tensors(self, demo_material, demo_shape, monkeypatch):
        def tensors():
            return [effective_delta(demo_material, build_cell_mesh(
                        demo_shape, n=12, dim=3, n_z=4), 1.0),
                    effective_delta0(demo_material,
                                     build_cell_mesh(demo_shape, n=16)),
                    effective_deltainf(demo_material,
                                       build_cell_mesh(demo_shape, n=16))]
        nd = tensors()
        _mmd(monkeypatch)
        for a, b in zip(nd, tensors()):
            Q = b.pair_form()
            assert_allclose(a.pair_form(), Q, rtol=0,
                            atol=1e-12 * abs(Q).max())

    @pytest.fixture
    def fine(self, demo_material, demo_shape):
        return lambda: build_fine_problem(demo_material, demo_shape, h=0.25,
                                          epsilon=0.25, cells_per_eps=4,
                                          n_z=4, parity="memb")

    def test_fine_resolvent(self, fine, monkeypatch):
        load = LoadSpec(amplitude=(1.0, 0.0, 0.0))
        u = fine_resolvent(fine(), 2.0, load)["u"]
        _mmd(monkeypatch)
        u_mmd = fine_resolvent(fine(), 2.0, load)["u"]
        assert_allclose(u, u_mmd, rtol=0, atol=1e-12 * abs(u_mmd).max())

    def test_eigenpairs(self, fine, monkeypatch):
        ws = EigWorkspace(solver="shift-invert")
        w, v = fine_eigs(fine(), 4, ws)
        _mmd(monkeypatch)
        w_mmd, v_mmd = fine_eigs(fine(), 4, ws)
        assert_allclose(w, w_mmd, rtol=1e-12)
        assert_allclose(v, v_mmd, rtol=0, atol=1e-12 * abs(v_mmd).max())
