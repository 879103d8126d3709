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
    from .config import (given, parse_macro_mesh, parse_material,
                         parse_regime, parse_shape)
    from .fem.system import EigWorkspace
    mat = parse_material(cfg)
    shape = parse_shape(cfg)
    regime = parse_regime(cfg)
    macro_mesh = parse_macro_mesh(cfg)
    ws = EigWorkspace(**given(cfg.get("solver", {}), "tol", "seed",
                              eig_solver="solver"))
    return mat, shape, regime, macro_mesh, ws


def _resolution(cfg, modes="n_modes"):
    """The cell's n_z and the mode count (the keyword `modes`) where the
    config sets them, as keywords of a library call."""
    from .config import given
    return {**given(cfg["cell"], "n_z"),
            **given(cfg.get("solver", {}), n_modes=modes)}


def _sampling(cfg):
    """The dispersion samples' count where the config sets it."""
    from .config import given
    return given(cfg.get("spectrum", {}), beta_samples="n_samples")


def _model(cfg):
    from .limits import build_limit_model
    mat, shape, regime, macro_mesh, ws = _build_context(cfg)
    return build_limit_model(regime, mat, shape, macro_mesh,
                             cell_n=cfg["cell"]["n"], ws=ws,
                             **_resolution(cfg))


def _cell_tensor(cfg, mat, shape, regime):
    from .config import given
    from .limits import cell_tensor
    return cell_tensor(mat, shape, regime.delta, cfg["cell"]["n"],
                       **given(cfg["cell"], "n_z"))


def _strip_m0(cfg, mat, cell_mesh, ws):
    """(m0, curve): the bottom of the essential spectrum of a very thin
    (delta = inf) row, on the spectrum section's eta grid."""
    from .bloch import strip_bottom_m0
    spec_cfg = cfg.get("spectrum", {})
    eta = np.linspace(0, spec_cfg.get("eta_max", 20.0),
                      spec_cfg.get("eta_points", 81))
    return strip_bottom_m0(mat, cell_mesh, eta, ws)


def cmd_tensor(cfg, out: Path, chash: str) -> int:
    from .config import parse_material, parse_regime, parse_shape
    mat, shape, regime = (parse(cfg) for parse in
                          (parse_material, parse_shape, parse_regime))
    mesh, tensor = _cell_tensor(cfg, mat, shape, regime)
    payload = tensor.to_dict()
    payload["eigenvalues"] = tensor.eigenvalues()
    _write_json(out / "tensor.json", payload, chash)
    if cfg["cell"].get("dump"):
        _write_json(out / "cell_mesh.json", mesh.to_debug_dict(), chash)
    return EXIT_OK


def cmd_bloch(cfg, out: Path, chash: str) -> int:
    from .bloch import bloch_spectrum
    mat, shape, regime, _, ws = _build_context(cfg)
    tag = regime.bloch_operator
    bs = bloch_spectrum(mat, shape, cfg["cell"]["n"], tag,
                        delta=regime.delta, ws=ws, **_resolution(cfg, "N"))
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
        **bs.provenance,
    }, chash)
    return EXIT_OK


def _dispersion(cfg, mat, shape, regime, ws):
    """The row's dispersion operator's inclusion spectrum and its Zhikov
    data."""
    from .bloch import bloch_spectrum
    from .zhikov import zhikov_from_bloch
    bs = bloch_spectrum(mat, shape, cfg["cell"]["n"],
                        regime.dispersion_operator, delta=regime.delta,
                        ws=ws, **_resolution(cfg, "N"))
    return bs, zhikov_from_bloch(bs, mat)


def _beta_samples(zf, n_samples=400):
    """(lambda, beta(lambda)) at the midpoints of n_samples equal cells of
    [0, lambda_max], shapes (L,) and (L, k, k). lambda_max is 1.5 times the
    last pole, which so lies at least lambda_max / (6 n_samples) from every
    midpoint ((2j + 1) / (2 n) = 2/3 has no integer solution). Points
    within POLE_GUARD of another pole, where `eval` refuses beta, are
    dropped, and the rest go to one `eval` call."""
    from .zhikov import POLE_GUARD
    lam_max = zf.lambda_max if np.isfinite(zf.lambda_max) else 10.0 * zf.rho_bar
    lam = (np.arange(n_samples) + 0.5) * (lam_max / n_samples)
    lam = lam[~(np.abs(lam[:, None] - zf.poles) < POLE_GUARD).any(axis=1)]
    return lam, zf.eval(lam)


def cmd_zhikov(cfg, out: Path, chash: str) -> int:
    mat, shape, regime, _, ws = _build_context(cfg)
    _, zf = _dispersion(cfg, mat, shape, regime, ws)
    lam, B = _beta_samples(zf, **_sampling(cfg))
    rows = [(x, *b.ravel()) for x, b in zip(lam, B)]
    k = zf.k
    cols = [f"beta_{i}{j}" for i in range(k) for j in range(k)]
    _write_csv(out / "dispersion.csv", ["lambda", *cols], rows, chash)
    _write_json(out / "zhikov.json", {
        "variant": zf.variant, "poles": zf.poles, "rho_bar": zf.rho_bar,
        "rho1_mass": zf.rho1_mass, "uncoupled": zf.uncoupled,
        "truncation": zf.truncation, "lambda_max": zf.lambda_max,
    }, chash)
    return EXIT_OK


def _limit_spectrum(cfg):
    """The row's limit spectrum on the spectrum section's settings, which
    `spectrum` writes and `validate` measures the fine eigenvalues against.
    Returns (context, op, mu_w, modes, strip, zs, spec): the context of
    _build_context, the row's macro pencil and its n_macro eigenpairs, the
    strip's (m0, curve) for delta = inf (else None), the scalar dispersion
    function (None for the plate row) and the LimitSpectrum."""
    from .limits import build_macro_operator
    from .macro import macro_eigs
    from .zhikov import LimitSpectrum, limit_spectrum, zhikov_variant
    context = mat, shape, regime, macro_mesh, ws = _build_context(cfg)
    spec_cfg = cfg.get("spectrum", {})
    cell_mesh, tensor = _cell_tensor(cfg, mat, shape, regime)
    rho_bar = mat.mean_density(cell_mesh.soft_area_fraction())
    op = build_macro_operator(regime, tensor, macro_mesh, rho_bar)
    mu_w, modes = macro_eigs(op, spec_cfg.get("n_macro", 8), ws)
    strip = _strip_m0(cfg, mat, cell_mesh, ws) \
        if regime.delta == np.inf else None

    if regime.row.macro_only:
        # uncoupled plate row: the scaled spectrum converges to the plate
        # bending eigenvalues alone; no dispersion function, no band gaps
        spec = LimitSpectrum(
            points=[{"lambda": float(m), "kind": "macro_eigenvalue",
                     "matched_mu": float(m), "pole_interval": None}
                    for m in mu_w],
            intervals=[], gaps=[],
            meta={"variant": "plate", "path": "macro",
                  "note": "uncoupled row: high contrast leaves no trace in "
                          "the order-h^2 limit spectrum"})
        return context, op, mu_w, modes, strip, None, spec

    # the scalar beta of the limit spectrum: membrane rows keep every
    # in-plane mean (limit_spectrum checks that beta is scalar), modes on b
    # couple through the transverse mean alone
    bs, zf = _dispersion(cfg, mat, shape, regime, ws)
    zs = zf if regime.row.modes_on == "a" else zhikov_variant(
        bs, mat, components=(bs.weighted_means.shape[1] - 1,))
    spec = limit_spectrum(zs, rho_bar * mu_w,
                          lambda_max=spec_cfg.get("lambda_max"),
                          m0=None if strip is None else strip[0],
                          meta={"macro_eigs": mu_w.tolist()})
    return context, op, mu_w, modes, strip, zs, spec


def cmd_spectrum(cfg, out: Path, chash: str) -> int:
    (_, _, _, macro_mesh, _), op, mu_w, modes, strip, zs, spec = \
        _limit_spectrum(cfg)
    n_macro = len(mu_w)
    _write_csv(out / "macro_eigs.csv", ["k", "mu"],
               [(k, mu_w[k]) for k in range(n_macro)], chash)
    # principal nodal values of the macro modes for plotting (b of the
    # bending pencil's [a | b])
    fulls = [op.pair.dof.expand(modes[op.n_static:, k])[:, 0]
             for k in range(n_macro)]
    rows = [(i, x[0], x[1], *[fulls[k][i] for k in range(n_macro)])
            for i, x in enumerate(macro_mesh.nodes)]
    _write_csv(out / "macro_modes.csv",
               ["node", "x1", "x2", *[f"mode_{k}" for k in range(n_macro)]],
               rows, chash)
    if strip is not None:
        _write_csv(out / "strip_curve.csv", ["eta", "alpha1"],
                   [tuple(r) for r in strip[1]], chash)

    payload = spec.to_dict()
    if strip is not None:
        payload["meta"]["strip_note"] = (
            "discrete half-line strip eigenvalues below m0 are not "
            "evaluated; the essential interval [m0, inf) is used")
        payload["meta"]["strip_disc_spectrum"] = "not evaluated"
    _write_json(out / "limit_spectrum.json", payload, chash)
    if zs is None:
        return EXIT_OK
    # beta is scalar here (limit_spectrum checked it): write tr(beta) / k
    lam, B = _beta_samples(zs, **_sampling(cfg))
    _write_csv(out / "dispersion.csv", ["lambda", "beta"],
               zip(lam, np.trace(B, axis1=1, axis2=2) / zs.k), chash)
    return EXIT_OK


def cmd_resolvent(cfg, out: Path, chash: str) -> int:
    from .config import parse_load
    from .limits import solve_limit_resolvent
    model = _model(cfg)
    load = parse_load(cfg)
    lam = cfg.get("resolvent", {}).get("lambda", 2.0)
    state = solve_limit_resolvent(model, lam, load)
    nodes = model.macro_mesh.nodes
    n = len(nodes)
    rows = zip(range(n), *nodes.T,
               *(state.a.T if state.a is not None else np.zeros((2, n))),
               state.b if state.b is not None else np.zeros(n))
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
    from .geometry import ConfigurationError
    model = _model(cfg)
    load = parse_load(cfg)
    ev = cfg.get("evolve", {})
    T = ev.get("T", 1.0)
    # evolve.variant is an optional echo of the regime's row
    variant = model.regime.kind
    if ev.get("variant", variant) != variant:
        raise ConfigurationError(
            f"evolve.variant {ev['variant']!r} is not the row of regime "
            f"{model.regime.key} ({variant})")
    traj = evolve(model, load, T, ev.get("dt"))
    # macro modal amplitudes: mass-orthonormal projections on the leading
    # eigenmodes of the governing macro operator, whose mass lies on the
    # membrane field a or on the bending field b
    from .macro import macro_eigs
    op, macro = model.op, traj.fields[model.regime.row.modes_on]
    nm = min(6, macro.shape[1])
    _, modes = macro_eigs(op, nm, model.ws)
    amplitudes = macro @ (op.rho_bar * (op.pair.M @ modes)[op.n_static:])
    micro = traj.micro_norms[:, :4]
    header = ["t"] + [f"macro_{k}" for k in range(nm)] \
        + [f"micro_{k}" for k in range(micro.shape[1])] \
        + ["kinetic", "elastic", "total"]
    table = np.hstack([traj.times[:, None], amplitudes[:, :nm], micro,
                       traj.energy])
    _write_csv(out / "trajectory.csv", header, [tuple(r) for r in table],
               chash)
    _write_json(out / "evolve_manifest.json", {
        "variant": variant, "T": T, "dt": traj.meta["dt"],
        "regime": model.regime.key,
        "energy_drift": traj.energy_drift(),
        "n_steps": len(traj.times) - 1,
        **{k: traj.meta[k] for k in ("state_dofs", "factored_dofs",
                                     "factor_fill", "factor_ordering")},
    }, chash)
    return EXIT_OK


def cmd_validate(cfg, out: Path, chash: str) -> int:
    from .config import given, parse_regime
    from .finescale import build_fine_problem, fine_eigs
    from .geometry import ConfigurationError
    regime = parse_regime(cfg)
    if regime.kind != "real_time" or regime.delta == 0.0:
        raise ConfigurationError("validate runs the membrane rows with delta > 0")
    (mat, shape, _, macro_mesh, ws), _, _, _, strip, _, spec = \
        _limit_spectrum(cfg)
    thin = strip is not None
    m0 = strip[0] if thin else None
    vcfg = cfg.get("validate", {})
    eps_list = vcfg.get("eps", [0.5, 0.25])
    n_eigs = vcfg.get("n_eigs", 3)
    pts = spec.point_values()

    report = {"limit_points": pts, "runs": []}
    if m0 is not None:
        report["essential_interval"] = [m0, "inf"]
    for eps in eps_list:
        fp = build_fine_problem(
            mat, shape, h=vcfg.get("h", 0.5) if thin else regime.delta * eps,
            epsilon=eps, mu_scaling="eps", tau=0, parity="memb",
            L1=macro_mesh.lengths[0], L2=macro_mesh.lengths[1],
            gamma=macro_mesh.gamma,
            **given(vcfg, "cells_per_eps", "n_z", "budget"))
        w = fine_eigs(fp, n_eigs, ws)[0]
        dists = [float(np.min(np.abs(pts - x))) for x in w]
        nearest = [float(pts[np.argmin(np.abs(pts - x))]) for x in w]
        run = {"eps": eps, "fine_eigs": w,
               "nearest_limit_point": nearest, "distance": dists,
               **{k: fp.meta[k] for k in ("mirrors", "mirrors_refused",
                                          "classes")}}
        if thin:
            # fine eigenvalues inside the essential interval but far from
            # the limit-operator point set: pollution candidates, flagged
            # without certification
            run["pollution_candidates"] = [
                float(x) for x, d in zip(w, dists)
                if x >= m0 and d > 0.05 * (1 + x)]
        report["runs"].append(run)
    _write_json(out / "validation.json", report, chash)
    rows = [(run["eps"], k, run["fine_eigs"][k], run["nearest_limit_point"][k],
             run["distance"][k]) for run in report["runs"] for k in range(n_eigs)]
    _write_csv(out / "validation.csv",
               ["eps", "k", "fine_eig", "nearest_limit", "distance"],
               rows, chash)
    return EXIT_OK
