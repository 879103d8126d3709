"""The command implementations behind `hcplate.cli`: each reads a parsed
config, runs the pipeline and writes its JSON/CSV outputs."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .cli import EXIT_OK


def _plain(o):
    """JSON-safe copy of an output value: arrays and numpy scalars become
    Python values, non-finite floats the strings "inf", "-inf" and "nan"."""
    if isinstance(o, (np.ndarray, np.generic)):
        o = o.tolist()
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    if isinstance(o, float) and not math.isfinite(o):
        return "nan" if math.isnan(o) else ("inf" if o > 0 else "-inf")
    return o


def _write_json(path: Path, payload: dict, chash: str):
    payload = _plain(dict(payload, config_hash=chash))
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows, chash: str):
    with open(path, "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _build_context(cfg):
    from .config import (parse_load, parse_macro_mesh, parse_material,
                         parse_regime, parse_shape)
    from .fem.system import EigWorkspace
    mat = parse_material(cfg)
    shape = parse_shape(cfg)
    regime = parse_regime(cfg)
    macro_mesh = parse_macro_mesh(cfg)
    sol = cfg.get("solver", {})
    ws = EigWorkspace(tol=sol.get("tol", 1e-9),
                      solver=sol.get("eig_solver", "auto"),
                      dense_threshold=sol.get("dense_threshold", 4000),
                      seed=sol.get("seed", 1234))
    return mat, shape, regime, macro_mesh, ws


def _model(cfg):
    from .limits import build_limit_model
    mat, shape, regime, macro_mesh, ws = _build_context(cfg)
    sol = cfg.get("solver", {})
    return build_limit_model(regime, mat, shape, macro_mesh,
                             cell_n=cfg["cell"]["n"],
                             n_z=cfg["cell"].get("n_z", 4),
                             n_modes=sol.get("n_modes", 30), ws=ws)


def cmd_tensor(cfg, out: Path, chash: str) -> int:
    from .effective import effective_delta, effective_delta0, effective_deltainf
    from .geometry import build_cell_mesh
    mat, shape, regime, _, _ = _build_context(cfg)
    n = cfg["cell"]["n"]
    n_z = cfg["cell"].get("n_z", 4)
    if 0.0 < regime.delta < np.inf:
        mesh = build_cell_mesh(shape, n=n, dim=3, n_z=n_z)
        tensor = effective_delta(mat, mesh, regime.delta)
    elif regime.delta == 0.0:
        mesh = build_cell_mesh(shape, n=n)
        tensor = effective_delta0(mat, mesh)
    else:
        mesh = build_cell_mesh(shape, n=n)
        tensor = effective_deltainf(mat, mesh)
    payload = tensor.to_dict()
    payload["eigenvalues"] = tensor.eigenvalues()
    _write_json(out / "tensor.json", payload, chash)
    if cfg["cell"].get("dump"):
        _write_json(out / "cell_mesh.json", mesh.to_debug_dict(), chash)
    return EXIT_OK


def _bloch_tag(regime) -> str:
    if 0.0 < regime.delta < np.inf:
        return "full_delta"
    if regime.delta == 0.0:
        return "bend_delta0" if regime.mu == "eps2" else "memb_delta0"
    return "full_deltainf"


def cmd_bloch(cfg, out: Path, chash: str) -> int:
    from .bloch import bloch_spectrum
    mat, shape, regime, _, ws = _build_context(cfg)
    tag = cfg.get("bloch", {}).get("operator") or _bloch_tag(regime)
    delta = regime.delta if 0.0 < regime.delta < np.inf else None
    bs = bloch_spectrum(mat, shape, cfg["cell"]["n"], tag,
                        cfg.get("solver", {}).get("n_modes", 30),
                        delta=delta, n_z=cfg["cell"].get("n_z", 4), ws=ws)
    rows = [(i, bs.eigenvalues[i], bs.classification[i],
             *bs.weighted_means[i]) for i in range(bs.n_modes)]
    mean_cols = [f"mean_{c}" for c in bs.tracked]
    _write_csv(out / "bloch_spectrum.csv",
               ["index", "eigenvalue", "class", *mean_cols], rows, chash)
    S = bs.gram_partial_sums()
    _write_json(out / "bloch.json", {
        "operator": tag, "n_modes": bs.n_modes,
        "eigenvalues": bs.eigenvalues,
        "classification": bs.classification,
        "rho0_mass": bs.rho0_mass,
        "completeness_trace_fraction":
            float(np.trace(np.atleast_2d(S[-1]))) / (len(bs.tracked) * bs.rho0_mass),
    }, chash)
    return EXIT_OK


def _zhikov_data(cfg, membrane_preferred=True):
    from .bloch import bloch_spectrum
    from .zhikov import zhikov_from_bloch
    mat, shape, regime, macro_mesh, ws = _build_context(cfg)
    n = cfg["cell"]["n"]
    n_modes = cfg.get("solver", {}).get("n_modes", 30)
    n_z = cfg["cell"].get("n_z", 4)
    if regime.tau == 0:   # membrane rows track the in-plane means
        by_delta = {0.0: "memb_delta0", np.inf: "memb_deltainf"}
        tag = by_delta.get(regime.delta, "memb_delta")
    else:                 # bending rows track the transverse means
        by_delta = {0.0: "bend_delta0", np.inf: "full_deltainf"}
        tag = by_delta.get(regime.delta, "full_delta")
    delta = regime.delta if 0 < regime.delta < np.inf else None
    bs = bloch_spectrum(mat, shape, n, tag, n_modes, delta=delta, n_z=n_z,
                        ws=ws)
    zf = zhikov_from_bloch(bs, mat)
    return mat, shape, regime, macro_mesh, ws, bs, zf


def _scalarize(bs, mat, regime):
    """Scalar Zhikov variant for the root search: bending rows track the
    transverse component; membrane rows track one in-plane component, which
    is the full story when the material symmetry makes beta scalar."""
    from .zhikov import zhikov_variant
    comp = bs.weighted_means.shape[1] - 1 if regime.tau == 2 else 0
    return zhikov_variant(bs, mat, components=(comp,))


def _beta_rows(zf, n_samples):
    rows = []
    lam_max = zf.lambda_max if np.isfinite(zf.lambda_max) else 10.0 * zf.rho_bar
    grid = np.linspace(0.0, lam_max, n_samples)
    for lam in grid:
        try:
            B = zf.eval(lam)
        except ValueError:
            continue
        rows.append((lam, *np.atleast_2d(B).ravel()))
    return rows


def cmd_zhikov(cfg, out: Path, chash: str) -> int:
    mat, shape, regime, _, ws, bs, zf = _zhikov_data(cfg)
    n_samples = cfg.get("spectrum", {}).get("beta_samples", 400)
    rows = _beta_rows(zf, n_samples)
    k = zf.k
    cols = [f"beta_{i}{j}" for i in range(k) for j in range(k)]
    _write_csv(out / "dispersion.csv", ["lambda", *cols], rows, chash)
    _write_json(out / "zhikov.json", {
        "variant": zf.variant, "poles": zf.poles, "rho_bar": zf.rho_bar,
        "rho1_mass": zf.rho1_mass, "uncoupled": zf.uncoupled,
        "truncation": zf.truncation, "lambda_max": zf.lambda_max,
    }, chash)
    return EXIT_OK


def cmd_spectrum(cfg, out: Path, chash: str) -> int:
    from .geometry import build_cell_mesh
    from .macro import build_bending_operator, build_membrane_operator, macro_eigs
    from .zhikov import limit_spectrum
    mat, shape, regime, macro_mesh, ws, bs, zf = _zhikov_data(cfg)
    spec_cfg = cfg.get("spectrum", {})
    n_macro = spec_cfg.get("n_macro", 8)

    # regime-appropriate effective tensor and macro operator
    from .effective import effective_delta, effective_delta0, effective_deltainf
    n = cfg["cell"]["n"]
    n_z = cfg["cell"].get("n_z", 4)
    if 0.0 < regime.delta < np.inf:
        tensor = effective_delta(mat, build_cell_mesh(shape, n=n, dim=3,
                                                      n_z=n_z), regime.delta)
    elif regime.delta == 0.0:
        tensor = effective_delta0(mat, build_cell_mesh(shape, n=n))
    else:
        tensor = effective_deltainf(mat, build_cell_mesh(shape, n=n))
    if regime.tau == 0:
        op = build_membrane_operator(tensor, macro_mesh, zf.rho_bar)
    else:
        op = build_bending_operator(tensor, macro_mesh, zf.rho_bar)
    mu_w, modes = macro_eigs(op, n_macro, ws)
    targets = zf.rho_bar * mu_w
    _write_csv(out / "macro_eigs.csv", ["k", "mu"],
               [(k, mu_w[k]) for k in range(n_macro)], chash)
    # principal nodal values of the macro modes for plotting
    fulls = [op.pair.dof.expand(modes[:, k])[:, 0] for k in range(n_macro)]
    rows = [(i, x[0], x[1], *[fulls[k][i] for k in range(n_macro)])
            for i, x in enumerate(macro_mesh.nodes)]
    _write_csv(out / "macro_modes.csv",
               ["node", "x1", "x2", *[f"mode_{k}" for k in range(n_macro)]],
               rows, chash)

    m0 = None
    strip_note = None
    if regime.delta == np.inf:
        from .bloch import strip_bottom_m0
        eta_max = spec_cfg.get("eta_max", 20.0)
        eta_pts = spec_cfg.get("eta_points", 81)
        mesh2 = build_cell_mesh(shape, n=n)
        m0, curve = strip_bottom_m0(mat, mesh2, np.linspace(0, eta_max, eta_pts), ws)
        _write_csv(out / "strip_curve.csv", ["eta", "alpha1"],
                   [tuple(r) for r in curve], chash)
        strip_note = ("discrete half-line strip eigenvalues below m0 are not "
                      "evaluated; the essential interval [m0, inf) is used")

    if regime.mu == "eps" and regime.tau == 2:
        # uncoupled plate row: the scaled spectrum converges to the plate
        # bending eigenvalues alone; no dispersion function, no band gaps
        from .zhikov import LimitSpectrum
        spec = LimitSpectrum(
            points=[{"lambda": float(m), "kind": "macro_eigenvalue",
                     "matched_mu": float(m), "pole_interval": None}
                    for m in mu_w],
            intervals=[], gaps=[],
            meta={"variant": "plate", "path": "macro",
                  "note": "uncoupled row: high contrast leaves no trace in "
                          "the order-h^2 limit spectrum"})
        _write_json(out / "limit_spectrum.json", spec.to_dict(), chash)
        return EXIT_OK

    zs = _scalarize(bs, mat, regime)
    spec = limit_spectrum(zs, targets, lambda_max=spec_cfg.get("lambda_max"),
                          m0=m0, meta={"macro_eigs": mu_w.tolist()})
    payload = spec.to_dict()
    if strip_note:
        payload["meta"]["strip_note"] = strip_note
        payload["meta"]["strip_disc_spectrum"] = "not evaluated"
    _write_json(out / "limit_spectrum.json", payload, chash)
    rows = _beta_rows(zs, cfg.get("spectrum", {}).get("beta_samples", 400))
    _write_csv(out / "dispersion.csv", ["lambda", "beta"], rows, chash)
    return EXIT_OK


def cmd_resolvent(cfg, out: Path, chash: str) -> int:
    from .config import parse_load
    from .limits import solve_limit_resolvent
    model = _model(cfg)
    load = parse_load(cfg)
    lam = cfg.get("resolvent", {}).get("lambda", 2.0)
    state = solve_limit_resolvent(model, lam, load)
    rows = []
    for i, x in enumerate(model.macro_mesh.nodes):
        row = [i, x[0], x[1]]
        row += list(state.a[i]) if state.a is not None else [0.0, 0.0]
        row += [state.b[i]] if state.b is not None else [0.0]
        rows.append(tuple(row))
    _write_csv(out / "resolvent_macro.csv",
               ["node", "x1", "x2", "a1", "a2", "b"], rows, chash)
    _write_json(out / "resolvent.json", {
        "lambda": lam, "regime": model.regime.key,
        "micro_modal_norms": None if state.micro is None else
            np.linalg.norm(state.micro, axis=1),
        "meta": {k: v for k, v in state.meta.items()
                 if isinstance(v, (int, float, str))},
    }, chash)
    return EXIT_OK


def cmd_evolve(cfg, out: Path, chash: str) -> int:
    from .config import parse_load
    from .evolution import evolve
    model = _model(cfg)
    load = parse_load(cfg)
    ev = cfg.get("evolve", {})
    T = ev.get("T", 1.0)
    dt = ev.get("dt", T / 1000.0)
    if dt <= 0:
        from .config import ConfigError
        raise ConfigError("dt must be positive")
    variant = ev.get("variant", "real_time")
    traj = evolve(model, variant, load, T, dt)
    # macro modal amplitudes: mass-orthonormal projections on the leading
    # eigenmodes of the governing macro operator (raw DOFs as a fallback)
    from .macro import macro_eigs
    macro, op = traj.macro, None
    for name, cand in (("b", model.bend_op), ("a", model.memb_op)):
        if name in traj.fields and cand is not None \
                and traj.fields[name].shape[1] == cand.pair.n:
            macro, op = traj.fields[name], cand
            break
    nm = min(6, macro.shape[1])
    if op is not None:
        nm = min(6, op.pair.n)
        _, modes = macro_eigs(op, nm)
        amplitudes = macro @ (op.rho_bar * (op.pair.M @ modes))
    else:
        amplitudes = macro[:, :nm]
    micro = traj.micro
    nmic = 0 if micro is None else min(4, micro.shape[1])
    header = ["t"] + [f"macro_{k}" for k in range(nm)] \
        + [f"micro_{k}" for k in range(nmic)] \
        + ["kinetic", "elastic", "total"]
    rows = []
    for j, t in enumerate(traj.times):
        row = [t, *amplitudes[j, :nm]]
        if nmic:
            row += [np.linalg.norm(micro[j, k]) for k in range(nmic)]
        row += list(traj.energy[j])
        rows.append(tuple(row))
    _write_csv(out / "trajectory.csv", header, rows, chash)
    _write_json(out / "evolve_manifest.json", {
        "variant": variant, "T": T, "dt": dt, "regime": model.regime.key,
        "energy_drift": traj.energy_drift(),
        "n_steps": len(traj.times) - 1,
    }, chash)
    return EXIT_OK


def cmd_validate(cfg, out: Path, chash: str) -> int:
    from .finescale import build_fine_problem, fine_eigs
    from .geometry import build_cell_mesh
    from .macro import build_membrane_operator, macro_eigs
    from .zhikov import limit_spectrum
    mat, shape, regime, macro_mesh, ws, bs, zf = _zhikov_data(cfg)
    if not (regime.mu == "eps" and regime.tau == 0 and regime.delta > 0):
        from .config import ConfigError
        raise ConfigError("validate runs the membrane rows with delta > 0")
    thin = regime.delta == np.inf
    vcfg = cfg.get("validate", {})
    eps_list = vcfg.get("eps", [0.5, 0.25])
    n_eigs = vcfg.get("n_eigs", 3)
    n = cfg["cell"]["n"]
    n_z = cfg["cell"].get("n_z", 4)

    from .effective import effective_delta, effective_deltainf
    m0 = None
    if thin:
        from .bloch import strip_bottom_m0
        tensor = effective_deltainf(mat, build_cell_mesh(shape, n=n))
        eta_max = cfg.get("spectrum", {}).get("eta_max", 20.0)
        eta_pts = cfg.get("spectrum", {}).get("eta_points", 41)
        m0, _ = strip_bottom_m0(mat, build_cell_mesh(shape, n=n),
                                np.linspace(0, eta_max, eta_pts), ws)
        h_fixed = vcfg.get("h", 0.5)
    else:
        tensor = effective_delta(mat, build_cell_mesh(shape, n=n, dim=3,
                                                      n_z=n_z), regime.delta)
    op = build_membrane_operator(tensor, macro_mesh, zf.rho_bar)
    mu_w, _ = macro_eigs(op, cfg.get("spectrum", {}).get("n_macro", 8), ws)
    spec = limit_spectrum(_scalarize(bs, mat, regime), zf.rho_bar * mu_w,
                          m0=m0)
    pts = spec.point_values()

    report = {"limit_points": pts, "runs": []}
    if m0 is not None:
        report["essential_interval"] = [m0, "inf"]
    for eps in eps_list:
        fp = build_fine_problem(
            mat, shape, h=h_fixed if thin else regime.delta * eps,
            epsilon=eps, mu_scaling="eps", tau=0,
            cells_per_eps=vcfg.get("cells_per_eps", 8),
            n_z=vcfg.get("n_z", 4), parity="memb",
            L1=macro_mesh.L1, L2=macro_mesh.L2,
            gamma=macro_mesh.gamma_edges,
            budget=vcfg.get("budget", 200_000))
        w = fine_eigs(fp, n_eigs, ws)[0]
        dists = [float(np.min(np.abs(pts - x))) for x in w]
        nearest = [float(pts[np.argmin(np.abs(pts - x))]) for x in w]
        run = {"eps": eps, "fine_eigs": w,
               "nearest_limit_point": nearest, "distance": dists}
        if thin:
            # fine eigenvalues inside the essential interval but far from
            # the limit-operator point set: pollution candidates, flagged
            # without certification
            run["pollution_candidates"] = [
                float(x) for x, d in zip(w, dists)
                if x >= m0 and d > 0.05 * (1 + x)]
        report["runs"].append(run)
    _write_json(out / "validation.json", report, chash)
    rows = []
    for run in report["runs"]:
        for k in range(n_eigs):
            rows.append((run["eps"], k, run["fine_eigs"][k],
                         run["nearest_limit_point"][k], run["distance"][k]))
    _write_csv(out / "validation.csv",
               ["eps", "k", "fine_eig", "nearest_limit", "distance"],
               rows, chash)
    return EXIT_OK
