"""Correctness checks on each operation's output files.

`extract` reads the quantities an operation produced. They are compared
with reference.json, captured at seed 0 from the seed commit and scaled to
the seed's load (LOAD_POWER), within the tolerances in TOLERANCE;
and they must satisfy the seed-independent invariants in `invariants`.
Nothing is compared bitwise: `eigs_smallest` calls `eigsh` without a start
vector, so shift-invert eigenvalues differ in their last digits between
calls and between processes, and the CSV outputs carry 12 digits.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# quantity -> (kind, tolerance)
#   "norm": max |x - ref| <= tol * max |ref|  (whole vector)
#   "rel":  |x_i - ref_i| <= tol * |ref_i|    (each entry)
# Vector lengths must always match exactly.
TOLERANCE = {
    "tensor": ("norm", 1e-8),            # 6x6 pair form (memb, coupling, bend)
    "bloch.eigenvalues": ("rel", 1e-7),
    "bloch.completeness": ("norm", 1e-7),
    "zhikov.poles": ("rel", 1e-7),
    "zhikov.rho": ("rel", 1e-12),        # rho_bar, rho1_mass
    "spectrum.points": ("rel", 1e-6),    # beta roots, bisection-limited
    "spectrum.gaps": ("rel", 1e-6),
    "spectrum.macro_eigs": ("rel", 1e-7),
    "validate.limit_points": ("rel", 1e-6),
    "validate.fine_eigs": ("rel", 1e-6),
    "validate.distance": ("norm", 1e-5),
    "resolvent.macro": ("norm", 1e-7),   # a1, a2, b nodal columns
    "resolvent.micro_norms": ("norm", 1e-7),
    "evolve.energy": ("norm", 1e-6),     # kinetic, elastic, total per step
    "memory.modal": ("norm", 1e-6),      # final modal values, max |b_k|
}


# quantity -> p: with the load amplitude scaled by 2**l (see workloads) its
# value scales by 2**(p*l); all others do not change
LOAD_POWER = {
    "resolvent.macro": 1,
    "resolvent.micro_norms": 1,
    "evolve.energy": 2,
    "memory.modal": 1,
}


def _json(path: Path):
    return json.loads(path.read_text())


def _csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], np.array(rows[1:], dtype=float)


def pair_form(t: dict) -> np.ndarray:
    Q = np.zeros((6, 6))
    Q[:3, :3] = t["memb"]
    Q[3:, 3:] = t["bend"]
    Q[:3, 3:] = t["coupling"]
    Q[3:, :3] = np.array(t["coupling"]).T
    return Q


def extract(kind: str, out: Path) -> dict[str, list[float]]:
    """The checked quantities of one operation, as flat float lists."""
    q = {}
    if kind == "tensor":
        q["tensor"] = pair_form(_json(out / "tensor.json")).ravel()
    elif kind == "bloch":
        b = _json(out / "bloch.json")
        q["bloch.eigenvalues"] = b["eigenvalues"]
        q["bloch.completeness"] = [b["completeness_trace_fraction"]]
    elif kind == "zhikov":
        z = _json(out / "zhikov.json")
        q["zhikov.poles"] = z["poles"]
        q["zhikov.rho"] = [z["rho_bar"], z["rho1_mass"]]
    elif kind == "spectrum":
        s = _json(out / "limit_spectrum.json")
        q["spectrum.points"] = sorted(p["lambda"] for p in s["points"])
        q["spectrum.gaps"] = [x for g in s["gaps"] for x in g]
        q["spectrum.macro_eigs"] = _csv(out / "macro_eigs.csv")[1][:, 1]
    elif kind == "validate":
        v = _json(out / "validation.json")
        q["validate.limit_points"] = v["limit_points"]
        q["validate.fine_eigs"] = [x for r in v["runs"] for x in r["fine_eigs"]]
        q["validate.distance"] = [x for r in v["runs"] for x in r["distance"]]
    elif kind == "resolvent":
        header, rows = _csv(out / "resolvent_macro.csv")
        q["resolvent.macro"] = rows[:, header.index("a1"):].ravel()
        norms = _json(out / "resolvent.json")["micro_modal_norms"]
        q["resolvent.micro_norms"] = norms or []
    elif kind == "evolve":
        header, rows = _csv(out / "trajectory.csv")
        q["evolve.energy"] = rows[:, header.index("kinetic"):].ravel()
    elif kind == "memory":
        modal = np.array(_json(out / "memory.json")["modal"])
        q["memory.modal"] = np.concatenate([modal[-1], abs(modal).max(axis=0)])
    else:
        raise ValueError(f"no extractor for {kind!r}")
    return {k: [float(x) for x in v] for k, v in q.items()}


def compare(q: dict, ref: dict, l: int = 0) -> list[str]:
    """Differences from the seed-0 reference, scaled to a load 2**l times
    the seed-0 load."""
    problems = []
    for key, want in ref.items():
        want = [w * 2.0 ** (LOAD_POWER.get(key, 0) * l) for w in want]
        got = q.get(key)
        if got is None or len(got) != len(want):
            problems.append(f"{key}: length {None if got is None else len(got)}"
                            f" != reference {len(want)}")
            continue
        if not want:
            continue
        kind, tol = TOLERANCE[key]
        x, r = np.array(got), np.array(want)
        err = abs(x - r)
        if kind == "norm":
            bad = err.max() > tol * abs(r).max()
        else:
            bad = np.any(err > tol * abs(r))
        if bad:
            i = int(np.argmax(err))
            problems.append(f"{key}: entry {i} is {x[i]!r}, reference {r[i]!r}"
                            f" ({kind} tolerance {tol:g})")
    return problems


def _ascending(v, tol=1e-9) -> bool:
    v = np.asarray(v)
    return bool(np.all(np.diff(v) >= -tol * np.maximum(1.0, abs(v[1:]))))


def _stiff_fraction(cell: dict) -> float:
    """1 - soft area fraction of the staircase inclusion: soft elements are
    those whose centroid lies strictly inside the shape."""
    n = cell["n"]
    shape = cell["shape"]
    c = (np.arange(n) + 0.5) / n - 0.5
    x, y = np.meshgrid(c, c)
    if shape["kind"] == "disk":
        soft = np.hypot(x, y) < shape["size"]
    else:
        soft = np.maximum(abs(x), abs(y)) < shape["size"]
    return 1.0 - soft.mean()


def _c1(material: dict) -> np.ndarray:
    node = material["C1"]
    if isinstance(node, dict):
        lam, mu = node["isotropic"]["lambda"], node["isotropic"]["mu"]
        C = np.zeros((6, 6))
        C[:3, :3] = lam
        C[:3, :3] += 2.0 * mu * np.eye(3)
        C[3:, 3:] = mu * np.eye(3)
        return C
    C = np.zeros((6, 6))
    C[np.triu_indices(6)] = node
    return C + np.triu(C, 1).T


def invariants(kind: str, q: dict, config: dict) -> list[str]:
    """Seed-independent properties every output must have."""
    problems = [f"{k}: non-finite value" for k, v in q.items()
                if not all(math.isfinite(x) for x in v)]
    if problems:
        return problems
    if kind == "tensor":
        Q = np.array(q["tensor"]).reshape(6, 6)
        scale = abs(Q).max()
        if abs(Q - Q.T).max() > 1e-10 * scale:
            problems.append("tensor: pair form not symmetric")
        S = np.diag([1, 1, math.sqrt(2), 1, 1, math.sqrt(2)])
        if np.linalg.eigvalsh(S @ Q @ S).min() <= 0.0:
            problems.append("tensor: pair form not positive definite")
        # zero-corrector bound: Q <= |Y1| (C1 in-plane block (+) same / 12)
        Cpp = _c1(config["material"])[np.ix_([0, 1, 5], [0, 1, 5])]
        U = np.zeros((6, 6))
        U[:3, :3], U[3:, 3:] = Cpp, Cpp / 12.0
        U *= _stiff_fraction(config["cell"])
        if np.linalg.eigvalsh(S @ (U - Q) @ S).min() < -1e-9 * scale:
            problems.append("tensor: exceeds the zero-corrector bound")
    elif kind == "bloch":
        w = q["bloch.eigenvalues"]
        if not (_ascending(w) and w[0] > 0):
            problems.append("bloch: eigenvalues not positive ascending")
        if not 0.0 < q["bloch.completeness"][0] <= 1.0 + 1e-9:
            problems.append("bloch: completeness fraction outside (0, 1]")
    elif kind == "zhikov":
        if not (_ascending(q["zhikov.poles"]) and min(q["zhikov.poles"]) > 0):
            problems.append("zhikov: poles not positive ascending")
        if min(q["zhikov.rho"]) <= 0:
            problems.append("zhikov: non-positive mass")
    elif kind == "spectrum":
        if not q["spectrum.points"] or min(q["spectrum.points"]) <= 0:
            problems.append("spectrum: empty or non-positive limit points")
        g = q["spectrum.gaps"]
        if any(a >= b for a, b in zip(g[0::2], g[1::2])):
            problems.append("spectrum: empty gap interval")
        mu = q["spectrum.macro_eigs"]
        if not (_ascending(mu) and mu[0] > 0):
            problems.append("spectrum: macro eigenvalues not positive ascending")
    elif kind == "validate":
        n_eigs = config["validate"]["n_eigs"]
        w = q["validate.fine_eigs"]
        if any(not (_ascending(w[i:i + n_eigs]) and w[i] > 0)
               for i in range(0, len(w), n_eigs)):
            problems.append("validate: fine eigenvalues not positive ascending")
        if min(q["validate.distance"]) < 0:
            problems.append("validate: negative distance")
    elif kind == "evolve":
        steps = round(config["evolve"]["T"] / config["evolve"]["dt"])
        e = np.array(q["evolve.energy"]).reshape(-1, 3)
        if len(e) != steps + 1:
            problems.append(f"evolve: {len(e)} rows for {steps} steps")
        if e.min() < -1e-12 * max(abs(e).max(), 1e-300):
            problems.append("evolve: negative energy")
    return problems
