"""The memo of the cell-level builders: keyed on every argument by value,
identical objects on a hit, read-only results, refusals never stored, and
the same CLI outputs in one process as in fresh ones."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hcplate import bloch, limits, memo
from hcplate import tensors as tn
from hcplate.bloch import bloch_spectrum, strip_bottom_m0
from hcplate.cli import main
from hcplate.fem.system import EigWorkspace
from hcplate.geometry import (ConfigurationError, InclusionShape,
                              build_cell_mesh, build_macro_mesh)
from hcplate.limits import RegimeConfig, build_limit_model, cell_tensor

pytestmark = pytest.mark.usefixtures("fresh_memo")

CONFIGS = Path(__file__).parent.parent / "configs"
MAT = tn.MaterialSpec(tn.isotropic(1, 1), tn.isotropic(1, 1), nu=0.2)
SHAPE = InclusionShape("disk", 0.26)


def _mat(**change):
    return dataclasses.replace(MAT, **change)


def _shape(**change):
    return dataclasses.replace(SHAPE, **change)


# each builder's base arguments, then one change of one argument per row
BLOCH = dict(mat=MAT, shape=SHAPE, n=8, operator_tag="full_delta", N=4,
             delta=1.0, n_z=2, ws=EigWorkspace())
STRIP = dict(mat=MAT, mesh2d=build_cell_mesh(SHAPE, n=8),
             eta_grid=np.linspace(0.0, 4.0, 5), ws=EigWorkspace(),
             refine_tol=1e-3)
TENSOR = dict(mat=MAT, shape=SHAPE, delta=1.0, n=8, n_z=2)

MISSES = [
    (bloch_spectrum, BLOCH, change) for change in (
        {"mat": _mat(C0=tn.isotropic(1, 2))},
        {"mat": _mat(C1=tn.isotropic(2, 1))},
        {"mat": _mat(rho0=2.0)},
        {"mat": _mat(rho1=2.0)},
        {"mat": _mat(nu=0.1)},
        {"shape": _shape(kind="square", size=0.25)},
        {"shape": _shape(size=0.3)},
        {"shape": _shape(center=(0.5, 0.45))},
        {"n": 10},
        {"n_z": 4},
        {"delta": 2.0},
        {"operator_tag": "memb_delta"},
        {"N": 5},
        {"ws": EigWorkspace(tol=1e-8)},
        {"ws": EigWorkspace(solver="dense")},
        {"ws": EigWorkspace(seed=7)},
    )
] + [
    (strip_bottom_m0, STRIP, change) for change in (
        {"mat": _mat(C0=tn.isotropic(1, 2))},
        {"mat": _mat(rho0=2.0)},
        {"mesh2d": build_cell_mesh(SHAPE, n=10)},
        {"mesh2d": build_cell_mesh(_shape(size=0.3), n=8)},
        {"eta_grid": np.linspace(0.0, 4.0, 6)},
        {"eta_grid": np.linspace(0.0, 5.0, 5)},
        {"ws": EigWorkspace(tol=1e-8)},
        {"ws": EigWorkspace(seed=7)},
        {"refine_tol": 1e-4},
    )
] + [
    (cell_tensor, TENSOR, change) for change in (
        {"mat": _mat(C0=tn.isotropic(1, 2))},
        {"mat": _mat(C1=tn.isotropic(2, 1))},
        {"mat": _mat(nu=0.1)},
        {"shape": _shape(kind="square", size=0.25)},
        {"shape": _shape(center=(0.5, 0.45))},
        {"delta": 2.0},
        {"delta": 0.0},
        {"delta": np.inf},
        {"n": 10},
        {"n_z": 4},
    )
]


@pytest.mark.parametrize("builder, base, change", MISSES,
                         ids=[f"{b.__name__}-{next(iter(c))}-{i}"
                              for i, (b, _, c) in enumerate(MISSES)])
def test_any_changed_argument_misses(builder, base, change):
    first = builder(**base)
    other = builder(**{**base, **change})
    assert other is not first
    assert builder(**base) is first


def test_hit_returns_the_identical_object():
    bs = bloch_spectrum(**BLOCH)
    # positional, keyword and default arguments bind to one key, and equal
    # values in new objects key alike
    args = dict(BLOCH, mat=_mat(), ws=EigWorkspace())
    assert bloch_spectrum(MAT, SHAPE, 8, "full_delta", 4, 1.0, 2,
                          EigWorkspace()) is bs
    assert bloch_spectrum(**args) is bs
    m0 = strip_bottom_m0(**STRIP)
    assert strip_bottom_m0(**dict(STRIP, mesh2d=build_cell_mesh(SHAPE, n=8))) \
        is m0
    t = cell_tensor(**TENSOR)
    assert cell_tensor(MAT, SHAPE, 1.0, 8, 2) is t


def test_cached_arrays_are_read_only():
    bs = bloch_spectrum(**BLOCH)
    mesh, t = cell_tensor(**TENSOR)
    m0, curve = strip_bottom_m0(**STRIP)
    for a in (bs.eigenvalues, bs.weighted_means, bs.classes, *bs.vectors,
              *(d.index for d in bs.dofs), bs.dofs[0].key, bs.mesh.nodes,
              bs.mirrors.region.nodes, *bs.mirrors.planes.values(),
              mesh.element_soft, t.memb, t.zero_corrector_bound, curve):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1
    # the caller's arguments stay writeable
    assert MAT.C0.flags.writeable and STRIP["eta_grid"].flags.writeable


def test_least_recently_used_is_evicted(monkeypatch):
    monkeypatch.setattr(memo, "MEMO_SIZE", 2)

    def tensor(n):
        return cell_tensor(**dict(TENSOR, delta=np.inf, n=n))
    a, b = tensor(8), tensor(10)
    assert tensor(8) is a       # a is now the most recently used
    tensor(12)                  # evicts b
    assert tensor(8) is a and tensor(10) is not b


def test_refusals_raise_on_every_call(monkeypatch):
    calls = []
    build = bloch.build_cell_mesh
    monkeypatch.setattr(bloch, "build_cell_mesh",
                        lambda *a, **k: calls.append(1) or build(*a, **k))
    odd = dict(BLOCH, operator_tag="memb_delta", n_z=3)
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="odd"):
            bloch_spectrum(**odd)
    too_many = dict(BLOCH, N=10_000)
    for _ in range(2):
        with pytest.raises(ValueError, match="inclusion DOFs"):
            bloch_spectrum(**too_many)
    assert len(calls) == 4


def test_unkeyable_argument_refused():
    with pytest.raises(TypeError, match="no value key"):
        bloch_spectrum(**dict(BLOCH, ws=object()))


def test_second_model_on_one_cell_solves_no_eigenproblem(monkeypatch):
    # one class eigensolve (`eigs_by_class`) per inclusion spectrum
    calls = []
    eigs = bloch.eigs_by_class
    monkeypatch.setattr(bloch, "eigs_by_class",
                        lambda *a, **k: calls.append(1) or eigs(*a, **k))
    monkeypatch.setattr(limits, "effective_delta", _count(calls, "tensor"))
    mesh = build_macro_mesh(1.0, 1.0, 4, 4)

    def model(mu):
        return build_limit_model(RegimeConfig(1.0, mu, 2), MAT, SHAPE, mesh,
                                 cell_n=8, n_z=2, n_modes=4)
    first = model("eps_h")
    assert calls.count(1) == 1 and calls.count("tensor") == 1
    calls.clear()
    # the plate row's static modes are the same spectrum
    plate = model("eps")
    assert calls == []
    assert plate.bloch is first.bloch and plate.static_bloch is first.bloch
    assert plate.tensor is first.tensor


def _count(calls, name):
    build = limits.effective_delta

    def counted(*args, **kwargs):
        calls.append(name)
        return build(*args, **kwargs)
    return counted


def _fresh(cmd, cfg, out):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-m", "hcplate.cli", cmd, "--config",
                    cfg, "--out", str(out), "--quiet"], env=env, check=True,
                   timeout=300)


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_one_process_matches_fresh_processes(tmp_path):
    cfgs = {}
    for name in ("demo", "demo_bending"):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        cfg["evolve"]["T"] = 0.02
        cfgs[name] = tmp_path / f"{name}.json"
        cfgs[name].write_text(json.dumps(cfg))
    cmds = ("resolvent", "evolve", "spectrum")
    for k, name in enumerate(("demo", "demo_bending", "demo")):
        for cmd in cmds:
            assert main([cmd, "--config", str(cfgs[name]), "--out",
                         str(tmp_path / f"one{k}" / cmd), "--quiet"]) == 0
    for name, k in (("demo", 0), ("demo_bending", 1)):
        for cmd in cmds:
            fresh = tmp_path / f"fresh-{name}" / cmd
            _fresh(cmd, str(cfgs[name]), fresh)
            want = _files(fresh)
            assert want and _files(tmp_path / f"one{k}" / cmd) == want
            if name == "demo":
                assert _files(tmp_path / "one2" / cmd) == want
