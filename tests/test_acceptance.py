"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured runtime.  Run with `pytest tests/test_acceptance.py -s`
to see the lines; tolerances are fixed here, not calibrated elsewhere."""

import dataclasses
import json
import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

from hcplate import tensors as tn
from hcplate.geometry import InclusionShape, build_cell_mesh, build_macro_mesh
from tensor_oracle import iota, iota1, quad_form, quad_form_2d

DEMO_RADIUS = 0.26


class Criterion:
    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget_s = budget_s
        self.t0 = time.time()

    def finish(self, ok: bool, detail: str = ""):
        dt = time.time() - self.t0
        verdict = "PASS" if ok and dt < self.budget_s else "FAIL"
        print(f"[acceptance {self.number:>2}] {verdict}  {self.title} "
              f"({dt:.1f}s / {self.budget_s:.0f}s budget){' - ' + detail if detail else ''}")
        assert ok, f"criterion {self.number}: {self.title} - {detail}"
        assert dt < self.budget_s, f"criterion {self.number} over budget: {dt:.1f}s"


def test_criterion_1_reduced_tensor_closed_form():
    c = Criterion(1, "reduced tensor closed form (Schur vs brute force)", 1.0)
    C = tn.isotropic(1.0, 1.0)
    Cr = tn.reduced_tensor(C)
    val = quad_form_2d(Cr, np.eye(2))
    ok = abs(val - 20.0 / 3.0) <= 1e-10
    # brute-force oracle over d on a refined grid
    best = np.inf
    center, half = np.zeros(3), 4.0
    for _ in range(6):
        axes = [np.linspace(cc - half, cc + half, 21) for cc in center]
        for d1 in axes[0]:
            for d2 in axes[1]:
                for d3 in axes[2]:
                    xi = iota(np.eye(2)) + iota1((d1, d2, d3))
                    v = quad_form(C, xi)
                    if v < best:
                        best, center = v, np.array([d1, d2, d3])
        half *= 2.5 / 20
    ok = ok and abs(val - best) <= 1e-8
    c.finish(ok, f"C^r I:I = {val:.12f}")


def test_criterion_2_effective_tensor_properties(demo_material, demo_shape):
    c = Criterion(2, "effective tensor: positive, monotone, bounded, split",
                  120.0)
    from hcplate.effective import effective_delta
    diags, ok = [], True
    detail = ""
    for n in (8, 16, 32):
        mesh = build_cell_mesh(demo_shape, n=n, dim=3, n_z=4)
        t = effective_delta(demo_material, mesh, delta=1.0)
        d = np.diag(t.pair_form())
        ok &= (d > 0).all()
        ok &= (d <= np.diag(t.zero_corrector_bound) + 1e-12).all()
        ok &= abs(t.coupling).max() <= 1e-8 * abs(t.memb).max()
        diags.append(d)
    for k in range(2):
        ok &= bool((diags[k + 1] <= diags[k] + 1e-10).all())
    c.finish(ok, f"diag(n=32) = {np.round(diags[-1], 4)}")


def test_criterion_3_bloch_completeness(demo_bloch_full):
    c = Criterion(3, "Bloch completeness: 95% trace with N=50 on n=16", 60.0)
    bs = demo_bloch_full
    S = bs.gram_partial_sums()
    n50 = min(50, bs.n_modes) - 1
    frac = np.trace(S[n50]) / (3 * bs.rho0_mass)
    ok = frac >= 0.95
    prev = np.zeros_like(S[0])
    for n in range(bs.n_modes):
        ok &= np.linalg.eigvalsh(S[n] - prev).min() > -1e-12
        prev = S[n]
    ok &= np.linalg.eigvalsh(S[-1]).max() <= bs.rho0_mass * (1 + 1e-10)
    c.finish(bool(ok), f"trace fraction at N=50: {frac:.4f}")


def test_criterion_4_zhikov_cross_validation(demo_material, demo_shape,
                                             demo_zhikov):
    c = Criterion(4, "Zhikov eval vs oracle (1%), beta(0)=0, beta' bound", 60.0)
    from zhikov_oracle import beta_oracle, beta_prime_fd
    zf = demo_zhikov
    eta1 = zf.poles[0]
    # five sample points with distance >= 0.1 eta_1 from every pole, inside
    # the modal-resolution range of the default truncation
    grid = np.linspace(0.2 * eta1, min(3.0 * eta1, zf.lambda_max), 400)
    valid = grid[[np.abs(zf.poles - l).min() >= 0.1 * eta1 for l in grid]]
    lams = valid[np.linspace(0, len(valid) - 1, 5).astype(int)]
    assert len(lams) == 5
    ok = abs(zf.eval(0.0)).max() == 0.0
    worst = 0.0
    for lam in lams:
        Bo = beta_oracle(demo_material, demo_shape, 16, "memb_delta", lam,
                         delta=1.0, n_z=4)
        rel = abs(zf.eval(lam) - Bo).max() / abs(Bo).max()
        worst = max(worst, rel)
        ok &= rel <= 0.01
        P = beta_prime_fd(zf, lam)
        ok &= np.linalg.eigvalsh(P).min() >= zf.rho1_mass - 1e-6
    c.finish(bool(ok), f"worst eval/oracle rel err {worst:.2e}")


def test_criterion_5_band_gap_structure(demo_zhikov, demo_material,
                                        demo_shape, demo_macro_mesh,
                                        demo_tensor_delta1):
    c = Criterion(5, "band gap right of eta_1: beta < 0 diverging, gap clean",
                  60.0)
    from hcplate.macro import build_membrane_operator, macro_eigs
    from hcplate.zhikov import limit_spectrum
    zf = demo_zhikov
    eta1 = zf.poles[0]
    prev, ok = 0.0, True
    for k in (2, 3, 4, 5):
        low = np.linalg.eigvalsh(zf.eval(eta1 * (1 + 10.0 ** (-k)))).min()
        ok &= low < 0 and low < prev
        prev = low
    op = build_membrane_operator(demo_tensor_delta1, demo_macro_mesh,
                                 zf.rho_bar)
    mu_w, _ = macro_eigs(op, 8)
    spec = limit_spectrum(dataclasses.replace(zf, means=zf.means[:, :1]),
                          zf.rho_bar * mu_w)
    gaps = [g for g in spec.gaps if abs(g[0] - eta1) < 1e-6 * (1 + eta1)]
    ok &= len(gaps) == 1
    if gaps:
        a, b = gaps[0]
        inside = [p for p in spec.points
                  if a + 1e-9 * (1 + a) < p["lambda"] < b - 1e-9 * (1 + b)]
        ok &= not inside
    c.finish(bool(ok), f"gap after eta_1: {np.round(gaps[0], 3) if gaps else None}")


@pytest.mark.slow
def test_criterion_6_spectral_convergence_trend(demo_material, demo_shape,
                                                demo_bloch_memb,
                                                demo_tensor_delta1,
                                                demo_macro_mesh):
    c = Criterion(6, "fine membrane spectra approach the limit set in eps",
                  1200.0)
    from hcplate.finescale import build_fine_problem, fine_eigs
    from hcplate.macro import build_membrane_operator, macro_eigs
    from hcplate.zhikov import limit_spectrum, zhikov_from_bloch
    zf = zhikov_from_bloch(demo_bloch_memb, demo_material)
    op = build_membrane_operator(demo_tensor_delta1, demo_macro_mesh,
                                 zf.rho_bar)
    mu_w, _ = macro_eigs(op, 12)
    spec = limit_spectrum(dataclasses.replace(zf, means=zf.means[:, :1]),
                          zf.rho_bar * mu_w)
    pts = spec.point_values()
    dists = []
    for eps in (0.5, 0.25):
        fp = build_fine_problem(demo_material, demo_shape, h=eps, epsilon=eps,
                                mu_scaling="eps", tau=0, cells_per_eps=8,
                                n_z=4, parity="memb")
        w = fine_eigs(fp, 3)[0]
        dists.append([float(np.min(np.abs(pts - x))) for x in w])
    ok = all(dists[1][k] < dists[0][k] for k in range(3))
    c.finish(ok, f"distances {np.round(dists[0], 4)} -> {np.round(dists[1], 4)}")


@pytest.mark.slow
def test_criterion_7_order_h2_plate_spectrum(demo_material):
    c = Criterion(7, "order-h^2 plate spectrum approaches the bending "
                     "operator eigenvalue", 600.0)
    from hcplate.effective import effective_delta
    from hcplate.finescale import build_fine_problem, fine_eigs
    from hcplate.macro import build_bending_operator, macro_eigs
    square = InclusionShape("square", 0.25)
    mesh3 = build_cell_mesh(square, n=32, dim=3, n_z=8)
    tensor = effective_delta(demo_material, mesh3, delta=1.0)
    op = build_bending_operator(tensor, build_macro_mesh(1, 1, 8, 8), 1.0)
    mu_lim = macro_eigs(op, 1)[0][0]
    finest = {}
    ok = True
    for h in (0.5, 0.25):
        dists = []
        for cpe, nz in ((4, 2), (8, 4)):
            fp = build_fine_problem(demo_material, square, h=h, epsilon=h,
                                    mu_scaling="eps", tau=2,
                                    cells_per_eps=cpe, n_z=nz)
            lam1 = fine_eigs(fp, 1)[0][0]
            dists.append(abs(lam1 - mu_lim) / mu_lim)
            finest[h] = lam1
        ok &= dists[1] < dists[0]          # approaching under refinement
        ok &= dists[1] < 0.10
    variation = abs(finest[0.25] - finest[0.5]) / finest[0.5]
    ok &= variation < 0.10
    c.finish(bool(ok), f"limit {mu_lim:.4f}, finest {finest}, "
                       f"h-variation {variation:.3f}")


def test_criterion_8_evolution_correctness(demo_material, demo_shape):
    c = Criterion(8, "evolution: cos mode, energy drift, memory kernel", 60.0)
    from grand_oracle import _bending_kron_system
    from hcplate.evolution import (_macro_modal_reduction, evolve,
                                   evolve_memory_bending)
    from hcplate.limits import LoadSpec, RegimeConfig, build_limit_model
    from hcplate.macro import macro_eigs
    mm = build_macro_mesh(1, 1, 4, 4)
    zero = LoadSpec(amplitude=(0.0, 0.0, 0.0))

    # single-mode free vibration, phase error O(dt^2)
    m1 = build_limit_model(RegimeConfig(1.0, "eps", 2), demo_material,
                           demo_shape, mm, cell_n=8, n_z=4, n_modes=8)
    mu, W = macro_eigs(m1.op, 1)
    T = 2 * np.pi / np.sqrt(mu[0])
    errs = []
    for dt in (T / 200, T / 400):
        traj = evolve(m1, zero, T, dt, u0=W[:, 0],
                      v0=np.zeros(m1.op.n))
        proj = traj.fields["b"] @ (m1.rho_bar * (m1.op.pair.M @ W[:, 0])
                                   [m1.op.n_static:])
        errs.append(abs(proj - np.cos(np.sqrt(mu[0]) * traj.times)).max())
    ratio = errs[0] / errs[1]
    ok = 3.5 <= ratio <= 4.5

    # f = 0 energy drift over 1000 steps of the coupled system
    m3 = build_limit_model(RegimeConfig(1.0, "eps_h", 2), demo_material,
                           demo_shape, mm, cell_n=8, n_z=4, n_modes=8)
    system = _bending_kron_system(m3, zero)
    mu3, W3 = _macro_modal_reduction(m3, 2)
    u0 = np.zeros(system.n)
    u0[:system.meta["nb"]] = W3[:, 0]
    traj = evolve(m3, zero, 1.0, 1e-3,
                  u0=system.lift(u0), v0=system.lift(np.zeros(system.n)))
    drift = traj.energy_drift()
    ok &= drift <= 1e-10

    # memory-kernel elimination agrees with the coupled solve
    times, modal = evolve_memory_bending(m3, zero, 1.0, 1e-3,
                                         n_macro_modes=1, b0_modal=[1.0])
    proj = traj.fields["b"] @ (m3.coupling.Ms @ W3[:, 0])
    kernel_err = abs(proj - modal[:, 0]).max()
    ok &= kernel_err <= 1e-6
    c.finish(bool(ok), f"ratio {ratio:.2f}, drift {drift:.1e}, "
                       f"kernel err {kernel_err:.1e}")


def test_criterion_9_resolvent_semigroup_consistency(demo_material,
                                                     demo_shape):
    c = Criterion(9, "Laplace transform of trajectory matches the resolvent",
                  60.0)
    from grand_oracle import _bending_kron_system, solve_bending_resolvent_data
    from hcplate.evolution import _macro_modal_reduction, evolve
    from hcplate.limits import LoadSpec, RegimeConfig, build_limit_model
    mm = build_macro_mesh(1, 1, 4, 4)
    model = build_limit_model(RegimeConfig(1.0, "eps_h", 2), demo_material,
                              demo_shape, mm, cell_n=8, n_z=4, n_modes=8)
    system = _bending_kron_system(model, LoadSpec(amplitude=(0, 0, 0)))
    nb, na = system.meta["nb"], system.meta["na"]
    N = len(model.bloch.eigenvalues)
    mu, W = _macro_modal_reduction(model, 1)
    u0 = system.lift(np.zeros(system.n))
    u0[na:na + nb] = W[:, 0]
    ok, rels = True, []
    for lam in (2.0, 5.0):
        traj = evolve(model, LoadSpec(amplitude=(0, 0, 0)),
                      16.0 / lam, 1e-3, u0=u0, v0=np.zeros_like(u0))
        wts = np.exp(-lam * traj.times)
        integral = trapezoid(wts[:, None] * traj.fields["b"], traj.times,
                             axis=0)
        x_res, _ = solve_bending_resolvent_data(model, lam ** 2,
                                                lam * u0[:na + nb],
                                                np.zeros((N, nb)))
        b_res = x_res[na:]
        rel = np.linalg.norm(integral - b_res) / np.linalg.norm(b_res)
        rels.append(rel)
        ok &= rel <= 1e-4
    c.finish(bool(ok), f"rel errors {np.format_float_scientific(rels[0], 2)}, "
                       f"{np.format_float_scientific(rels[1], 2)}")


def test_criterion_10_strip_bottom(demo_material, demo_shape):
    c = Criterion(10, "strip fiber curve: continuity, growth, stable m0", 120.0)
    from hcplate.bloch import strip_bottom_m0
    mesh = build_cell_mesh(demo_shape, n=16)
    results = {}
    for pts in (41, 81):
        m0, curve = strip_bottom_m0(demo_material, mesh,
                                    np.linspace(0.0, 20.0, pts))
        results[pts] = (m0, curve)
    ok = abs(results[41][0] - results[81][0]) / results[81][0] < 0.02
    m0, curve = results[81]
    vals = curve[:, 1]
    ok &= bool((vals - vals[0] >= -1e-9 * vals[0]).all())
    # continuity: grid increments bounded by a data-driven Lipschitz constant
    d = np.abs(np.diff(vals)) / np.diff(curve[:, 0])
    ok &= d.max() <= 10 * max(np.median(d), 1.0)
    # superlinear growth consistent with alpha >= c + eta^2: fit on the
    # upper half, require positive constants
    upper = curve[len(curve) // 2:]
    A = np.column_stack([np.ones(len(upper)), upper[:, 0] ** 2])
    coef, *_ = np.linalg.lstsq(A, upper[:, 1], rcond=None)
    ok &= coef[0] > 0 and coef[1] > 0
    c.finish(bool(ok), f"m0 = {m0:.4f}, fit a={coef[0]:.2f} b={coef[1]:.3f}")


def test_criterion_11_regime_table_enforcement(tmp_path, demo_material):
    c = Criterion(11, "regime table: rejections exit 2, nine rows run", 600.0)
    from hcplate.cli import main
    base = {
        "material": {"C0": {"isotropic": {"lambda": 1.0, "mu": 1.0}},
                     "C1": {"isotropic": {"lambda": 1.0, "mu": 1.0}},
                     "rho0": 1.0, "rho1": 1.0, "nu": 0.2},
        "cell": {"shape": {"kind": "disk", "size": DEMO_RADIUS}, "n": 8,
                 "n_z": 4},
        "regime": {"delta": 1.0, "mu": "eps", "tau": 0},
        "macro": {"L1": 1.0, "L2": 1.0, "n1": 4, "n2": 4, "gamma": ["left"]},
        "solver": {"n_modes": 8},
        "load": {"amplitude": [0.3, 0.2, 1.0]},
        "resolvent": {"lambda": 2.0},
    }
    ok = True
    unsupported = [
        {"delta": "inf", "mu": "eps2", "tau": 2},
        {"delta": 1.0, "mu": "eps2", "tau": 2},
        {"delta": 0, "mu": "eps_h", "tau": 2},
        {"delta": "inf", "mu": "eps", "tau": 2},
        {"delta": 0, "mu": "eps", "tau": 2},
        {"delta": 1.0, "mu": "eps", "tau": 0, "kappa": 1.0},
        {"delta": 1.0, "mu": "eps_h", "tau": 0},
    ]
    for i, reg in enumerate(unsupported):
        cfg = dict(base)
        cfg["regime"] = reg
        p = tmp_path / f"bad{i}.json"
        p.write_text(json.dumps(cfg))
        code = main(["tensor", "--config", str(p), "--out",
                     str(tmp_path / f"bad{i}"), "--quiet"])
        ok &= code == 2
    supported = [
        {"delta": 1.0, "mu": "eps", "tau": 2},
        {"delta": 1.0, "mu": "eps", "tau": 0},
        {"delta": 1.0, "mu": "eps_h", "tau": 2},
        {"delta": 0, "mu": "eps", "tau": 0, "kappa": "inf"},
        {"delta": 0, "mu": "eps", "tau": 0, "kappa": 1.0},
        {"delta": 0, "mu": "eps", "tau": 0, "kappa": 0},
        {"delta": 0, "mu": "eps2", "tau": 2},
        {"delta": "inf", "mu": "eps", "tau": 0},
        {"delta": "inf", "mu": "eps_h", "tau": 2},
    ]
    for i, reg in enumerate(supported):
        cfg = dict(base)
        cfg["regime"] = reg
        p = tmp_path / f"row{i}.json"
        p.write_text(json.dumps(cfg))
        code = main(["resolvent", "--config", str(p), "--out",
                     str(tmp_path / f"row{i}"), "--quiet"])
        ok &= code == 0
    c.finish(ok, "7 rejections, 9 rows end-to-end")
