import json
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from hcplate import tensors as tn
from hcplate.fem import elements as el
from hcplate.fem.assemble import (PencilForm, ScaledGradientSpec,
                                  assemble_pointwise_load, assemble_vector_h1,
                                  quadrature_points)
from hcplate.finescale import (_build_fine_mesh, build_fine_problem,
                               fine_eigs, fine_resolvent, mu_value)
from hcplate.geometry import (ConfigurationError, InclusionShape,
                              build_cell_mesh, mirror_region)
from hcplate.limits import LoadSpec

REFERENCE = Path(__file__).parent / "data" / "fine_resolvent_reference.json"


@pytest.fixture(scope="module")
def mat():
    return tn.MaterialSpec(tn.isotropic(1, 1), tn.isotropic(1, 1), nu=0.2)


class TestSetup:
    def test_mu_values(self):
        assert mu_value("eps", 0.5, 0.25) == 0.5
        assert mu_value("eps_h", 0.5, 0.25) == 0.125
        assert mu_value("eps2", 0.5, 0.25) == 0.25
        assert mu_value("one", 0.5, 0.25) == 1.0

    def test_integer_tiling_required(self, mat, demo_shape):
        with pytest.raises(ConfigurationError):
            build_fine_problem(mat, demo_shape, h=0.3, epsilon=0.3,
                               cells_per_eps=4, n_z=2)

    def test_parity_refusals(self, mat, demo_shape):
        with pytest.raises(ConfigurationError, match="odd n_z"):
            build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                               cells_per_eps=4, n_z=3, parity="memb")
        with pytest.raises(ConfigurationError, match="unknown parity"):
            build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                               cells_per_eps=4, n_z=4, parity="odd")

    @pytest.mark.parametrize("parity", ["memb", "bend"])
    @pytest.mark.parametrize("phase", ["C0", "C1"])
    def test_parity_needs_the_x3_mirror(self, demo_shape, phase, parity):
        # an 11-23 coupling breaks x3 -> -x3 in either phase: the half plate
        # would solve a problem that does not exist; the full plate builds
        coupled = tn.isotropic(1.0, 1.0)
        coupled[0, 3] = coupled[3, 0] = 0.4
        mat = tn.MaterialSpec(**{"C0": tn.isotropic(1, 1),
                                 "C1": tn.isotropic(1, 1), phase: coupled})
        kw = dict(h=0.5, epsilon=0.5, cells_per_eps=4, n_z=4)
        with pytest.raises(ConfigurationError,
                           match=f"{parity} parity needs the x3 mirror, "
                                 f"refused: {phase} not mirror-symmetric"):
            build_fine_problem(mat, demo_shape, parity=parity, **kw)
        assert build_fine_problem(mat, demo_shape, **kw).parity is None

    def test_half_plate_is_the_cut_of_the_full_plate(self, demo_shape):
        # mirror_region of the full plate against the half built directly:
        # same elements and soft flags, nodes to 1 ulp
        for n_z in (4, 6):
            full = _build_fine_mesh(1.0, 0.5, 0.25, 3, n_z, demo_shape)
            cut, planes = mirror_region(full, [2])
            half = _build_fine_mesh(1.0, 0.5, 0.25, 3, n_z // 2, demo_shape,
                                    z_span=(0.0, 0.5))
            assert (cut.elements == half.elements).all()
            assert (cut.element_soft == half.element_soft).all()
            assert_allclose(cut.nodes, half.nodes, rtol=0,
                            atol=np.spacing(1.0))
            assert (cut.n_z, cut.z_span, cut.element_size(), cut.grid) \
                == (half.n_z, half.z_span, half.element_size(), half.grid)
            assert (planes[2] == np.arange(13 * 7)).all()

    @pytest.mark.parametrize("n_z", [0, 1])
    @pytest.mark.parametrize("parity", [None, "memb"])
    def test_fewer_than_two_layers_refused(self, mat, demo_shape, n_z,
                                           parity):
        # the schema's minimum: n_z = 0 must not build a one-layer plate
        with pytest.raises(ConfigurationError, match="n_z >= 2"):
            build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                               cells_per_eps=4, n_z=n_z, parity=parity)

    def test_budget_enforced(self, mat, demo_shape):
        with pytest.raises(ConfigurationError):
            build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                               cells_per_eps=64, n_z=8, budget=10_000)

    def test_coefficients_periodic(self, mat, demo_shape):
        fp = build_fine_problem(mat, demo_shape, h=0.25, epsilon=0.25,
                                cells_per_eps=4, n_z=2)
        soft2 = fp.mesh.element_soft[:len(fp.mesh.element_soft) // fp.mesh.n_z]
        per_cell = soft2.reshape(-1, 4 * 4 * 4)  # 4 cells of 4x4 blocks: rows mix
        # every eps-cell carries the same number of soft elements
        nx = fp.mesh.counts[0]
        grid = soft2.reshape(nx, nx)
        counts = [grid[j * 4:(j + 1) * 4, i * 4:(i + 1) * 4].sum()
                  for j in range(4) for i in range(4)]
        assert len(set(counts)) == 1


class TestSoftScaling:
    def test_stiffness_scales_by_mu_squared(self, mat, demo_shape):
        fps = {}
        for scaling in ("eps", "eps2", "eps_h"):
            fps[scaling] = build_fine_problem(mat, demo_shape, h=0.5,
                                              epsilon=0.5, mu_scaling=scaling,
                                              tau=0, cells_per_eps=4, n_z=2)
        mu1 = fps["eps"].mu
        mu2 = fps["eps2"].mu
        K = {s: fp.pair.pencil().K for s, fp in fps.items()}
        Ksoft = (K["eps"] - K["eps2"]) / (mu1 ** 2 - mu2 ** 2)
        mu3 = fps["eps_h"].mu
        pred = K["eps2"] + (mu3 ** 2 - mu2 ** 2) * Ksoft
        assert abs(pred - K["eps_h"]).max() < 1e-12


class TestEigs:
    def test_homogeneous_independent_of_eps(self, mat, demo_shape):
        w1 = fine_eigs(build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                                          mu_scaling="one", tau=0,
                                          cells_per_eps=4, n_z=2), 3)[0]
        w2 = fine_eigs(build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.25,
                                          mu_scaling="one", tau=0,
                                          cells_per_eps=2, n_z=2), 3)[0]
        assert_allclose(w1, w2, rtol=1e-10)

    def test_membrane_parity_subset(self, mat, demo_shape):
        full = fine_eigs(build_fine_problem(mat, demo_shape, h=0.5,
                                            epsilon=0.5, cells_per_eps=4,
                                            n_z=4), 8)[0]
        memb = fine_eigs(build_fine_problem(mat, demo_shape, h=0.5,
                                            epsilon=0.5, cells_per_eps=4,
                                            n_z=4, parity="memb"), 3)[0]
        for x in memb:
            assert np.min(np.abs(full - x)) < 1e-8 * max(1.0, x)

    def test_parity_union_equals_full(self, demo_shape):
        # an x3-invariant anisotropic pair (orthotropic plus the 11-12 and
        # 23-13 couplings): the two parity classes split the full spectrum
        rng = np.random.default_rng(3)
        phases = {}
        for phase in ("C0", "C1"):
            C = tn.isotropic(1.0, 1.0) + np.diag(rng.uniform(0, 1, 6))
            C[0, 5] = C[5, 0] = 0.3
            C[3, 4] = C[4, 3] = -0.2
            phases[phase] = C
        mat = tn.MaterialSpec(**phases, rho0=1.3, rho1=0.7)
        kw = dict(h=0.5, epsilon=0.5, cells_per_eps=4, n_z=4, tau=0)
        full = fine_eigs(build_fine_problem(mat, demo_shape, **kw), 8)[0]
        union = np.sort(np.concatenate([
            fine_eigs(build_fine_problem(mat, demo_shape, parity=p, **kw),
                      8)[0] for p in ("memb", "bend")]))
        assert_allclose(union[:8], full, rtol=1e-10)

    def test_tau2_scaled_spectrum_bounded(self, mat, demo_shape):
        # order-h^2 spectrum: the h^-tau scaling keeps the bottom O(1)
        vals = []
        for h in (0.5, 0.25):
            fp = build_fine_problem(mat, demo_shape, h=h, epsilon=h,
                                    mu_scaling="eps", tau=2, cells_per_eps=4,
                                    n_z=2)
            vals.append(fine_eigs(fp, 1)[0][0])
        assert 0.1 < min(vals) and max(vals) < 10.0
        assert abs(vals[1] - vals[0]) / vals[0] < 0.25


class TestResolvent:
    def test_zero_load(self, mat, demo_shape):
        fp = build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                                cells_per_eps=4, n_z=2)
        out = fine_resolvent(fp, 2.0, LoadSpec(amplitude=(0, 0, 0)))
        assert abs(out["u"]).max() == 0.0

    def test_membrane_symmetric_load_stays_membrane(self, mat, demo_shape):
        # even in-plane load on the full plate: u_* even, u3 odd in x3
        fp = build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                                cells_per_eps=4, n_z=4)
        out = fine_resolvent(fp, 2.0, LoadSpec(amplitude=(1.0, 0.5, 0.0)))
        u = out["u"]
        mesh = fp.mesh
        npl = (mesh.counts[0] + 1) * (mesh.counts[1] + 1)
        layers = u.reshape(mesh.n_z + 1, npl, 3)
        for k in range(mesh.n_z + 1):
            mirror = mesh.n_z - k
            assert abs(layers[k, :, :2] - layers[mirror, :, :2]).max() < 1e-10
            assert abs(layers[k, :, 2] + layers[mirror, :, 2]).max() < 1e-10

    def test_cell_means_shape(self, mat, demo_shape):
        fp = build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                                cells_per_eps=4, n_z=2)
        out = fine_resolvent(fp, 2.0, LoadSpec(amplitude=(1, 0, 0)))
        assert out["cell_means"].shape == (2, 2, 3)

    def test_resolvent_approaches_limit_membrane(self, mat, demo_shape,
                                                 demo_macro_mesh):
        # cell-averaged in-plane displacement vs the limit membrane field:
        # the discrepancy decreases from eps=1/2 to eps=1/4
        from hcplate.limits import (RegimeConfig, build_limit_model,
                                    solve_limit_resolvent)
        model = build_limit_model(RegimeConfig(1.0, "eps", 0), mat,
                                  demo_shape, demo_macro_mesh, cell_n=16,
                                  n_z=4, n_modes=20)
        lam = 2.0
        ld = LoadSpec(amplitude=(1.0, 0.0, 0.0))
        st = solve_limit_resolvent(model, lam, ld)
        nodes = demo_macro_mesh.nodes
        errs = []
        for eps in (0.5, 0.25):
            fp = build_fine_problem(mat, demo_shape, h=eps, epsilon=eps,
                                    mu_scaling="eps", tau=0, cells_per_eps=8,
                                    n_z=4, parity="memb")
            out = fine_resolvent(fp, lam, ld)
            cm = out["cell_means"]
            nc = cm.shape[0]
            diffs = []
            for j in range(nc):
                for i in range(nc):
                    center = np.array([(i + 0.5) * eps, (j + 0.5) * eps])
                    k = np.argmin(np.linalg.norm(nodes - center, axis=1))
                    diffs.append(np.linalg.norm(cm[j, i, :2] - st.a[k]))
            errs.append(max(diffs))
        assert errs[1] < errs[0]


@pytest.mark.parametrize("case", ["full_tau0", "memb_tau2",
                                  "bend_tau2_two_edges"])
def test_resolvent_matches_reference(mat, case):
    """fine_resolvent against stored outputs of the per-element load path
    and the hand-written fine assembly: a shaped macro profile,
    transverse="x3", cell="soft" and nonzero in-plane amplitudes, on the
    full plate, on the membrane half, and on the bending half clamped on
    the left and right edges."""
    ref = json.loads(REFERENCE.read_text())
    data = ref["cases"][case]
    load = LoadSpec(amplitude=(0.6, -0.3, 0.9),
                    macro=lambda x: 1.0 + np.sin(np.pi * x[0]) * x[1],
                    transverse="x3", cell="soft")
    fp = build_fine_problem(mat, InclusionShape("disk", 0.26),
                            **data["params"])
    out = fine_resolvent(fp, ref["lambda"], load)
    for key in ("u", "transverse_average", "cell_means"):
        want = np.array(data[key])
        assert abs(out[key] - want).max() <= 1e-12 * abs(want).max(), key


def _whole_plate(fp):
    """K, M and the DOF map of the fine problem assembled on its whole
    mesh (the plate, or its x3 half), with today's gamma_D and parity pins:
    the oracle of the class path."""
    x = fp.mesh.nodes
    L = fp.meta["L"]
    lines = {"left": (0, 0.0), "right": (0, L[0]), "bottom": (1, 0.0),
             "top": (1, L[1])}
    fixed = [(np.flatnonzero(np.isclose(x[:, a], v)), None)
             for a, v in (lines[e] for e in fp.meta["gamma"])]
    halves = 1.0
    if fp.parity is not None:
        fixed.append((np.flatnonzero(np.isclose(x[:, 2], 0.0)),
                      [2] if fp.parity == "memb" else [0, 1]))
        halves = 2.0
    mat = fp.mat
    pair = assemble_vector_h1(
        fp.mesh, {"soft": halves * fp.mu ** 2 * mat.C0,
                  "stiff": halves * mat.C1},
        grad=ScaledGradientSpec(fp.h),
        density={"soft": halves * mat.rho0, "stiff": halves * mat.rho1},
        space="free", extra_constraints=fixed)
    return fp.h ** (-fp.tau) * pair.K, pair.M, pair.dof


# (parity, tau, gamma_D); left and bottom refuse the x2 mirror
PLATES = [(None, 0, ("left",)), ("memb", 2, ("left",)),
          ("bend", 0, ("left", "right")), (None, 0, ("left", "bottom")),
          ("memb", 0, ("bottom", "top"))]


@pytest.mark.parametrize("parity, tau, gamma", PLATES)
def test_classes_match_the_whole_plate(parity, tau, gamma, demo_shape):
    ortho = tn.isotropic(1.0, 1.0) + np.diag([0.5, 1.0, 0.2, 0.3, 0.7, 0.4])
    mat = tn.MaterialSpec(tn.isotropic(1.0, 1.0), ortho, rho0=1.3, rho1=0.8)
    fp = build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5, tau=tau,
                            cells_per_eps=4, n_z=4, gamma=gamma,
                            parity=parity)
    refused = "bottom" in gamma and "top" not in gamma
    assert fp.meta["mirrors_refused"] == (
        {"x2": "gamma_D not mirror-symmetric"} if refused else {})
    assert len(fp.class_dofs) == (1 if refused else 2)
    K, M, dof = _whole_plate(fp)
    # the classes split the plate's DOFs: each interior region DOF twice,
    # each component on the x2 plane once
    assert sum(cdof.n_free for cdof in fp.class_dofs) == dof.n_free
    N = 6
    want = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                    subset_by_index=[0, N - 1])
    w, modes = fine_eigs(fp, N)
    assert_allclose(w, want, rtol=1e-10)
    # the modes are eigenfields of the whole plate, M-orthonormal there
    free = dof.index >= 0
    V = np.zeros((dof.n_free, N))
    V[dof.index[free]] = modes[free]
    assert abs(K @ V - (M @ V) * w).max() <= 1e-9 * w.max()
    assert_allclose(V.T @ (M @ V), np.eye(N), atol=1e-10)

    # a load without the x2 mirror's symmetry: both classes carry a part
    load = LoadSpec(amplitude=(0.6, -0.3, 0.9),
                    macro=lambda x: 1.0 + x[1] + np.sin(np.pi * x[0]) * x[1] ** 2,
                    transverse="x3", cell="soft")
    mesh = fp.mesh
    elems = np.arange(len(mesh.elements))
    X = quadrature_points(mesh, elems,
                          el.q1_quadrature(mesh.element_size())[0])
    values = np.asarray(load.amplitude)[:, None, None] \
        * load.macro_fn()(X[:2]) * load.transverse_fn()(X[2]) \
        * load.cell_fn(demo_shape)(np.mod(X[:2] / fp.epsilon, 1.0))
    fe = el.q1_vector_load(mesh.element_size(), np.moveaxis(values, 0, -1))
    F = assemble_pointwise_load(mesh, dof, fe, elems)
    u = dof.expand(spla.spsolve((K + 2.0 * M).tocsc(), F))
    out = fine_resolvent(fp, 2.0, load)
    assert_allclose(out["u"], u, rtol=0, atol=1e-10 * abs(u).max())


@pytest.mark.parametrize("parity, tau, gamma", PLATES[:3])
def test_class_pencils_are_the_region_pencil_restricted(parity, tau, gamma,
                                                        mat, demo_shape):
    # each class pencil is summed for the class alone, yet it is the
    # region's pencil restricted to the class's DOFs, bit for bit
    fp = build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5, tau=tau,
                            cells_per_eps=4, n_z=4, gamma=gamma,
                            parity=parity)
    region = fp.pair.pencil()
    assert region.n == fp.pair.n
    for k, dof in enumerate(fp.class_dofs):
        ids = fp.pair.dof.index[dof.index >= 0]
        want = region.restrict(ids)
        got = fp.pencil(k)
        assert got.dof is dof and np.array_equal(got.order, want.order)
        for A, B in ((got.K, fp.h ** (-tau) * want.K), (got.M, want.M)):
            for a, b in ((A.indptr, B.indptr), (A.indices, B.indices),
                         (A.data, B.data)):
                assert np.array_equal(a, b)


def test_fine_eigs_holds_one_class_pencil(monkeypatch, mat, demo_shape):
    # fine_eigs sums each class pencil when it solves it and lets it go
    # before it sums the next; the region pencil is never summed
    fp = build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                            cells_per_eps=4, n_z=4, parity="memb")
    assert len(fp.class_dofs) == 2 and not hasattr(fp.pair, "K")
    alive = []
    pencil = PencilForm.pencil

    def spy(form, dof=None):
        assert dof is not None and dof is not form.dof
        assert all(ref() is None for ref in alive)
        out = pencil(form, dof)
        alive.append(weakref.ref(out))
        return out
    monkeypatch.setattr(PencilForm, "pencil", spy)
    fine_eigs(fp, 4)
    assert len(alive) == 2 and alive[-1]() is None


def test_x2_region_keeps_the_plate_clamps(demo_shape):
    # a plate clamped at bottom and top: its clamps are taken on the whole
    # plate and renumbered into the x2 region, so every node of the bottom
    # edge stays clamped and the cut plane x2 = L2/2 does not; the class
    # pencils then solve the whole plate's problem
    ortho = tn.isotropic(1.0, 1.0) + np.diag([0.5, 1.0, 0.2, 0.3, 0.7, 0.4])
    mat = tn.MaterialSpec(tn.isotropic(1.0, 1.0), ortho, rho0=1.3, rho1=0.8)
    fp = build_fine_problem(mat, demo_shape, h=0.5, epsilon=0.5,
                            cells_per_eps=4, n_z=4, gamma=("bottom", "top"))
    region = fp.mirrors.region
    assert fp.mirrors.axes == [1]
    x2 = region.nodes[:, 1]
    bottom, cut = np.isclose(x2, 0.0), np.isclose(x2, 0.5)
    assert bottom.any() and cut.any()
    assert np.array_equal(region.dirichlet_nodes, np.flatnonzero(bottom))
    assert not cut[region.dirichlet_nodes].any()
    K, M, _ = _whole_plate(fp)
    want = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                    subset_by_index=[0, 5])
    assert_allclose(fine_eigs(fp, 6)[0], want, rtol=1e-10)


@pytest.mark.parametrize("n, n_z", [(8, 2), (16, 4)])
def test_one_cell_plate_is_the_prism_cell_node_for_node(mat, demo_shape, n,
                                                        n_z):
    # a plate of one eps = 1 cell is the prism cell's grid: the same nodes,
    # elements and soft flags; only the cell identifies its periodic faces
    plate = build_fine_problem(mat, demo_shape, h=0.5, epsilon=1.0,
                               cells_per_eps=n, n_z=n_z).mesh
    cell = build_cell_mesh(demo_shape, n, 3, n_z)
    assert np.array_equal(plate.nodes, cell.nodes)
    assert np.array_equal(plate.elements, cell.elements)
    assert np.array_equal(plate.element_soft, cell.element_soft)
    assert plate.element_soft.any() and not plate.element_soft.all()
    assert (plate.periodic, cell.periodic) == ((False, False), (True, True))
    assert np.array_equal(plate.periodic_map, np.arange(plate.n_nodes))
    assert not np.array_equal(cell.periodic_map, np.arange(cell.n_nodes))
