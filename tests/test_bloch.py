import ast
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hcplate import bloch
from hcplate import tensors as tn
from hcplate.bloch import (StripPencil, bloch_spectrum,
                           build_inclusion_operator, cluster_starts,
                           mean_load_vectors, strip_bottom_m0,
                           strip_fiber_bottom)
from hcplate.fem import assemble as fa
from hcplate.fem import system
from hcplate.fem.system import EigWorkspace, eigs_smallest
from hcplate.geometry import (ConfigurationError, InclusionShape,
                              build_cell_mesh)

from bloch_oracle import whole_modes, whole_pencil

STRIP_REFERENCE = Path(__file__).parent / "data" / "strip_reference.json"
SRC = Path(__file__).resolve().parents[1] / "src" / "hcplate"


class TestPrismOperators:
    def test_eigenvalues_positive(self, demo_bloch_full):
        assert (demo_bloch_full.eigenvalues > 0).all()

    def test_m_orthonormal(self, demo_material, demo_bloch_full):
        # each class's modes, unfolded onto the cell and weighted, are
        # M-orthonormal on the operator's whole pencil
        bs = demo_bloch_full
        pair, _, _ = whole_pencil(bs, demo_material, delta=1.0)
        U = whole_modes(bs, pair.dof)
        G = U.T @ (pair.M @ U)
        assert abs(G - np.eye(bs.n_modes)).max() < 1e-8

    def test_parity_union_equals_full(self, demo_material, demo_shape):
        full = bloch_spectrum(demo_material, demo_shape, 16, "full_delta", 12,
                              delta=1.0, n_z=4)
        memb = bloch_spectrum(demo_material, demo_shape, 16, "memb_delta", 12,
                              delta=1.0, n_z=4)
        bend = bloch_spectrum(demo_material, demo_shape, 16, "bend_delta", 12,
                              delta=1.0, n_z=4)
        union = np.sort(np.concatenate([memb.eigenvalues, bend.eigenvalues]))
        nf = full.n_modes
        assert_allclose(union[:nf], full.eigenvalues,
                        rtol=1e-8, atol=1e-8 * full.eigenvalues.max())

    def test_parity_union_equals_full_two_layers(self, demo_material,
                                                 demo_shape):
        # n_z = 2 is allowed by the config schema: each parity class is
        # then one layer of the half prism
        full, memb, bend = (bloch_spectrum(demo_material, demo_shape, 8, tag,
                                           12, delta=1.0, n_z=2)
                            for tag in ("full_delta", "memb_delta",
                                        "bend_delta"))
        union = np.sort(np.concatenate([memb.eigenvalues, bend.eigenvalues]))
        assert_allclose(union[:full.n_modes], full.eigenvalues,
                        rtol=1e-8, atol=1e-8 * full.eigenvalues.max())

    def test_classification_by_symmetry(self, demo_bloch_memb):
        # the symmetric disk has both coupled and uncoupled membrane modes;
        # uncoupled ones have numerically zero means
        bs = demo_bloch_memb
        labels = set(bs.classification)
        assert labels == {"coupled", "uncoupled"}
        for i, lab in enumerate(bs.classification):
            if lab == "uncoupled":
                assert np.linalg.norm(bs.weighted_means[i]) <= \
                    1e-7 * bs.rho0_area_mass

    def test_cluster_starts(self):
        # relative gap 1e-6 joins a cluster; the scale floor is 1
        w = [0.5, 0.5 + 5e-7, 1.0, 2.0, 2.0 * (1 + 5e-7), 3.0]
        assert cluster_starts(w).tolist() == [0, 2, 3, 5]
        assert cluster_starts([]).size == 0

    def test_dense_vs_iterative(self, demo_material, demo_shape):
        d = bloch_spectrum(demo_material, demo_shape, 12, "full_delta", 8,
                           delta=1.0, n_z=4, ws=EigWorkspace(solver="dense"))
        s = bloch_spectrum(demo_material, demo_shape, 12, "full_delta", 8,
                           delta=1.0, n_z=4,
                           ws=EigWorkspace(solver="shift-invert"))
        assert_allclose(d.eigenvalues, s.eigenvalues, rtol=1e-8)

    def test_too_many_modes(self, demo_material, demo_shape):
        with pytest.raises(ValueError):
            bloch_spectrum(demo_material, demo_shape, 8, "memb_delta0", 10 ** 6)


def x3_invariant_c0(draw):
    """A random SPD C0 with the x3 mirror: orthotropic, or with the 11-12
    and 23-13 couplings as well (even times even, odd times odd)."""
    C = tn.isotropic(1.0, 1.0) + np.diag(
        draw(st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6)))
    if draw(st.booleans()):
        C[0, 5] = C[5, 0] = draw(st.floats(-0.4, 0.4))
        C[3, 4] = C[4, 3] = draw(st.floats(-0.4, 0.4))
    return C


class TestParityMirror:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), n_z=st.sampled_from([2, 4]),
           size=st.floats(0.22, 0.3), delta=st.floats(0.3, 3.0))
    def test_parity_union_equals_full(self, data, n_z, size, delta):
        mat = tn.MaterialSpec(x3_invariant_c0(data.draw),
                              tn.isotropic(1.0, 1.0), rho0=1.7)
        shape = InclusionShape("disk", size)
        full = bloch_spectrum(mat, shape, 10, "full_delta", 10, delta=delta,
                              n_z=n_z)
        union = np.sort(np.concatenate([
            bloch_spectrum(mat, shape, 10, tag, 16, delta=delta,
                           n_z=n_z).eigenvalues
            for tag in ("memb_delta", "bend_delta")]))
        assert_allclose(union[:full.n_modes], full.eigenvalues, rtol=1e-10)

    @pytest.mark.parametrize("tag", ["memb_delta", "bend_delta"])
    def test_without_the_mirror_refused(self, demo_shape, tag):
        # an 11-23 coupling in C0 breaks x3 -> -x3: no parity class exists
        C0 = tn.isotropic(1.0, 1.0)
        C0[0, 3] = C0[3, 0] = 0.4
        mat = tn.MaterialSpec(C0, tn.isotropic(1.0, 1.0))
        with pytest.raises(ConfigurationError,
                           match="parity needs the x3 mirror, refused: "
                                 "C0 not mirror-symmetric"):
            bloch_spectrum(mat, demo_shape, 8, tag, 4, delta=1.0, n_z=4)
        assert bloch_spectrum(mat, demo_shape, 8, "full_delta", 4,
                              delta=1.0, n_z=4).n_modes >= 4


def _class_materials():
    """The demo material, an orthotropic C0 (every mirror) and a C0 with an
    11-12 coupling (the x3 mirror, no y mirror)."""
    ortho = tn.isotropic(1.0, 1.0) + np.diag([0.5, 1.0, 0.2, 0.3, 0.7, 0.4])
    coupled = tn.isotropic(1.0, 1.0)
    coupled[0, 5] = coupled[5, 0] = 0.3
    return {name: tn.MaterialSpec(C0, tn.isotropic(1.0, 1.0), rho0=1.3)
            for name, C0 in (("demo", tn.isotropic(1.0, 1.0)),
                             ("orthotropic", ortho), ("coupled_12", coupled))}


INCLUSION_TAGS = {"full_delta": 1.0, "memb_delta": 0.7, "bend_delta": 1.5,
                  "memb_delta0": None, "bend_delta0": None,
                  "memb_deltainf": None, "full_deltainf": None}


class TestClassPath:
    """Every inclusion operator is solved one mirror class at a time; the
    oracle is dense `eigh` of the operator's whole pencil."""

    @pytest.mark.parametrize("material", ["demo", "orthotropic", "coupled_12"])
    @pytest.mark.parametrize("tag", sorted(INCLUSION_TAGS))
    def test_matches_the_whole_pencil(self, demo_shape, material, tag):
        mat = _class_materials()[material]
        delta = INCLUSION_TAGS[tag]
        bs = bloch_spectrum(mat, demo_shape, 12, tag, 20, delta=delta,
                            n_z=4)
        _, pair, tracked, _ = build_inclusion_operator(
            mat, demo_shape, 12, tag, delta=delta, n_z=4)
        w, v = sla.eigh(pair.K.toarray(), pair.M.toarray())
        n = bs.n_modes
        assert_allclose(bs.eigenvalues, w[:n], rtol=1e-12)
        # per-mode means are a basis choice inside a cluster; its Gram is not
        ref = v[:, :n].T @ mean_load_vectors(pair, tracked)
        ends = np.append(cluster_starts(w[:n]), n)
        for a, b in zip(ends[:-1], ends[1:]):
            got, want = bs.weighted_means[a:b], ref[a:b]
            assert_allclose(got.T @ got, want.T @ want, rtol=0,
                            atol=1e-10 * bs.rho0_mass)
        prov = bs.provenance
        assert all(list(c["signs"]) == prov["mirrors"]
                   for c in prov["classes"])
        if material == "coupled_12":
            # no y mirror: a parity or 2D operator is one class, the whole
            # operator; full_delta keeps its two x3 classes
            assert prov["mirrors_refused"] == {
                "y1": "C0 not mirror-symmetric",
                "y2": "C0 not mirror-symmetric"}
            if tag == "full_delta":
                assert len(prov["classes"]) == 2
            else:
                assert [c["dofs"] for c in prov["classes"]] == [pair.n]
        else:
            assert prov["mirrors_refused"] == {}
            assert max(c["dofs"] for c in prov["classes"]) < pair.n / 2

    @pytest.mark.parametrize("tag, delta", [("full_delta", 1.0),
                                            ("memb_delta", 1.0),
                                            ("memb_deltainf", None),
                                            ("bend_delta0", None)])
    def test_one_cell_mesh_per_spectrum(self, monkeypatch, fresh_memo,
                                        demo_material, demo_shape, tag,
                                        delta):
        # one cell mesh, one assembled pencil (the region's) and one
        # certification (M-orthonormalization and backward error) per
        # class, inside its eigensolve; the whole pencil is the tests'
        # oracle alone
        calls = []

        def spy(module, name):
            f = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(
                name) or f(*a, **k))
        spy(bloch, "build_cell_mesh")
        spy(bloch, "build_inclusion_operator")
        spy(fa, "assemble_vector_h1")
        spy(fa, "assemble_bfs_h2")
        spy(system, "_m_orthonormalize")
        for n in (8, 10):
            calls.clear()
            bs = bloch_spectrum(demo_material, demo_shape, n, tag, 6,
                                delta=delta, n_z=4)
            assembler = ("assemble_bfs_h2" if tag == "bend_delta0"
                         else "assemble_vector_h1")
            assert sorted(calls) == sorted(
                ["build_cell_mesh", assembler]
                + ["_m_orthonormalize"] * len(bs.provenance["classes"]))

    def test_no_src_module_builds_the_whole_pencil(self):
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and "build_inclusion_operator" in (
                     getattr(node.func, "id", None),
                     getattr(node.func, "attr", None))]
        assert not found, found

    def test_means_do_not_depend_on_the_solver(self, demo_material,
                                               demo_shape):
        # on demo every two-fold cluster of full_delta splits across two
        # mirror classes, so each mode, and its means, is fixed up to the
        # sign that fix_signs sets
        d, s = (bloch_spectrum(demo_material, demo_shape, 16, "full_delta",
                               10, delta=1.0, n_z=4,
                               ws=EigWorkspace(solver=solver))
                for solver in ("dense", "shift-invert"))
        assert len(cluster_starts(d.eigenvalues)) < d.n_modes
        assert_allclose(s.eigenvalues, d.eigenvalues, rtol=1e-10)
        assert_allclose(s.weighted_means, d.weighted_means, rtol=0,
                        atol=1e-10 * abs(d.weighted_means).max())


class TestCompleteness:
    def test_partial_sums_monotone_and_bounded(self, demo_bloch_full):
        bs = demo_bloch_full
        S = bs.gram_partial_sums()
        prev = np.zeros_like(S[0])
        for n in range(bs.n_modes):
            inc = np.linalg.eigvalsh(S[n] - prev)
            assert inc.min() > -1e-12
            prev = S[n]
        top = np.linalg.eigvalsh(S[-1])
        assert top.max() <= bs.rho0_mass * (1 + 1e-10)

    def test_trace_reaches_95_percent(self, demo_bloch_full):
        bs = demo_bloch_full
        S = bs.gram_partial_sums()
        n50 = min(50, bs.n_modes) - 1
        frac = np.trace(S[n50]) / (3 * bs.rho0_mass)
        assert frac >= 0.95

    def test_full_sum_closes_exactly(self, demo_material, demo_shape):
        # summing over the whole discrete spectrum recovers the clipped
        # constant's mass exactly (discrete Parseval identity)
        bs = bloch_spectrum(demo_material, demo_shape, 8, "memb_delta0", 1)
        n = sum(c["dofs"] for c in bs.provenance["classes"])
        bs_all = bloch_spectrum(demo_material, demo_shape, 8, "memb_delta0", n)
        S = bs_all.gram_partial_sums()[-1]
        assert_allclose(S, bs_all.rho0_mass * np.eye(2), atol=1e-10)

    def test_scalar_gram_under_symmetry(self, demo_bloch_memb):
        # centered disk + isotropic material: the coupled-mode Gram matrix
        # is a multiple of the identity
        bs = demo_bloch_memb
        means = bs.weighted_means[np.array(bs.classification) == "coupled"]
        G = means.T @ means
        assert abs(G[0, 0] - G[1, 1]) < 1e-6 * abs(G).max()
        assert abs(G[0, 1]) < 1e-6 * abs(G).max()


class TestDelta0Operators:
    def test_bend_twelfth_covariance(self, demo_material, demo_shape):
        bs = bloch_spectrum(demo_material, demo_shape, 16, "bend_delta0", 5)
        mesh = build_cell_mesh(demo_shape, n=16)
        pair = fa.assemble_bfs_h2(mesh, tn.reduced_tensor(demo_material.C0),
                                  density=demo_material.rho0,
                                  space="inclusion-zero-trace",
                                  restrict_to="soft")
        w, _ = eigs_smallest(pair, 5)
        assert_allclose(bs.eigenvalues[:5], w / 12.0, rtol=1e-8)

    def test_memb0_positive_spectrum(self, demo_material, demo_shape):
        bs = bloch_spectrum(demo_material, demo_shape, 16, "memb_delta0", 10)
        assert bs.eigenvalues[0] > 0
        assert bs.weighted_means.shape[1] == 2


class TestStrip:
    def test_eta0_matches_real_solve(self, demo_material, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=12)
        a0 = strip_fiber_bottom(demo_material, mesh, 0.0)
        binf = bloch_spectrum(demo_material, demo_shape, 12, "full_deltainf", 1)
        assert_allclose(a0, binf.eigenvalues[0], rtol=1e-9)

    def test_curve_above_eta0_and_continuous(self, demo_material, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=12)
        grid = np.linspace(0, 8, 9)
        m0, curve = strip_bottom_m0(demo_material, mesh, grid)
        vals = curve[:, 1]
        assert (vals - vals[0] >= -1e-9 * vals[0]).all()
        # Lipschitz sanity with a data-driven constant
        d = np.abs(np.diff(vals)) / np.diff(curve[:, 0])
        assert d.max() <= 10 * max(np.median(d), 1.0)

    def test_m0_not_above_curve(self, demo_material, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=12)
        m0, curve = strip_bottom_m0(demo_material, mesh, np.linspace(0, 6, 7))
        assert m0 <= curve[:, 1].min() + 1e-12

    def test_empty_grid(self, demo_material, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=12)
        with pytest.raises(ValueError):
            strip_bottom_m0(demo_material, mesh, [])

    def test_quadratic_lower_envelope(self, demo_material, demo_shape):
        # least-squares fit alpha ~ a + b eta^2 on the upper half has a, b > 0
        mesh = build_cell_mesh(demo_shape, n=12)
        grid = np.linspace(0, 12, 13)
        _, curve = strip_bottom_m0(demo_material, mesh, grid)
        upper = curve[len(grid) // 2:]
        Amat = np.column_stack([np.ones(len(upper)), upper[:, 0] ** 2])
        coef, *_ = np.linalg.lstsq(Amat, upper[:, 1], rcond=None)
        assert coef[0] > 0 and coef[1] > 0

    @staticmethod
    def _direct(mat, mesh, eta):
        return fa.assemble_vector_h1(mesh, mat.C0, density=mat.rho0,
                                     space="inclusion-zero-trace",
                                     restrict_to="soft", ncomp=3, eta=eta)

    @staticmethod
    def _turn(pair):
        """D^H K D with D = diag(1, 1, i) on the u3 DOFs."""
        d = np.where(fa.constant_reduced_field(pair.dof, 2) > 0, 1j, 1.0)
        return (pair.K.multiply(np.outer(d.conj(), d))).toarray()

    def test_pencil_matches_direct_assembly(self, demo_material, demo_shape):
        # the isotropic C0 has the x3 mirror: the pencil holds the real
        # fibers D^H K(eta) D of the u3 -> i u3 basis, M unchanged
        mesh = build_cell_mesh(demo_shape, n=12)
        pencil = StripPencil.assemble(demo_material, mesh)
        assert not np.iscomplexobj(pencil.K1)
        assert not np.iscomplexobj(pencil.K2)
        for eta in (0.0, 0.37, 3.0, 20.0):
            direct = self._direct(demo_material, mesh, eta)
            fiber = pencil.fiber(eta)
            turned = self._turn(direct)
            assert not np.iscomplexobj(fiber.K)
            assert abs(fiber.K - turned).max() <= 1e-13 * abs(turned).max()
            assert abs(fiber.M - direct.M).max() == 0.0

    @staticmethod
    def _with_c0(C0):
        return tn.MaterialSpec(C0, tn.isotropic(1.0, 1.0), rho0=1.3)

    @pytest.mark.parametrize("coupling, real", [(0.0, True), (0.4, False)])
    def test_real_fibers_need_the_x3_mirror(self, demo_shape, coupling, real):
        # orthotropic C0: real fibers; an 11-13 coupling breaks the x3
        # mirror and keeps them complex. Both give the direct complex
        # assembly's bottom eigenvalue.
        C0 = tn.isotropic(1.0, 0.7) + np.diag([0.9, 0.2, 0.5, 0.3, 0.1, 0.4])
        C0[0, 4] = C0[4, 0] = coupling
        mat = self._with_c0(C0)
        mesh = build_cell_mesh(demo_shape, n=10)
        pencil = StripPencil.assemble(mat, mesh)
        assert np.iscomplexobj(pencil.K1) is not real
        assert np.iscomplexobj(pencil.K2) is not real
        for eta in (0.0, 0.37, 3.0, 12.0):
            p = self._direct(mat, mesh, eta)
            ref = sla.eigh(p.K.toarray(), p.M.toarray(), eigvals_only=True)[0]
            assert abs(pencil.bottom(eta) - ref) <= 1e-10 * ref

    def test_nonzero_part_never_dropped(self, demo_shape, monkeypatch):
        # even if the mirror check passed, an imaginary part that is not
        # zero in the u3 -> i u3 basis keeps the fibers complex
        C0 = tn.isotropic(1.0, 0.7)
        C0[0, 4] = C0[4, 0] = 0.4
        mat = self._with_c0(C0)
        mesh = build_cell_mesh(demo_shape, n=8)
        monkeypatch.setattr(tn, "mirror_symmetric", lambda C, axis: True)
        pencil = StripPencil.assemble(mat, mesh)
        assert np.iscomplexobj(pencil.K1) and np.iscomplexobj(pencil.K2)
        for eta in (0.0, 3.0):
            assert abs(pencil.fiber(eta).K
                       - self._direct(mat, mesh, eta).K).max() <= 1e-13

    def test_m0_and_curve_match_complex_reference(self, demo_material,
                                                  demo_shape):
        ref = json.loads(STRIP_REFERENCE.read_text())
        mesh = build_cell_mesh(demo_shape, n=12)
        m0, curve = strip_bottom_m0(demo_material, mesh,
                                    np.linspace(0.0, 20.0, 41))
        assert abs(m0 - ref["m0"]) <= 1e-12 * ref["m0"]
        assert_allclose(curve[:, 1], ref["alpha1"], rtol=1e-12)

    def test_m0_matches_direct_reference(self, demo_material, demo_shape):
        mesh = build_cell_mesh(demo_shape, n=12)
        grid = np.linspace(0, 8, 9)
        m0, curve = strip_bottom_m0(demo_material, mesh, grid)
        ref = []
        for eta in grid:
            p = self._direct(demo_material, mesh, eta)
            ref.append(sla.eigh(p.K.toarray(), p.M.toarray(),
                                eigvals_only=True)[0])
        assert_allclose(curve[:, 1], ref, rtol=1e-10)
        # the demo curve rises from eta = 0, so the refined minimum is there
        assert abs(m0 - min(ref)) <= 1e-10 * min(ref)
