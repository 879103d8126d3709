import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from hcplate import memo
from hcplate import tensors as tn
from hcplate.cli import main
from hcplate.config import DEMO_CONFIG

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
with open(os.path.join(CONFIGS, "demo_bending.json")) as fh:
    DEMO_BENDING = json.load(fh)

TINY = {
    "material": DEMO_CONFIG["material"],
    "cell": {"shape": {"kind": "disk", "size": 0.26}, "n": 8, "n_z": 4},
    "regime": {"delta": 1.0, "mu": "eps", "tau": 0},
    "macro": {"L1": 1.0, "L2": 1.0, "n1": 4, "n2": 4, "gamma": ["left"]},
    "solver": {"n_modes": 10},
    "spectrum": {"n_macro": 4, "beta_samples": 50},
    "load": {"amplitude": [0.0, 0.0, 1.0]},
    "resolvent": {"lambda": 2.0},
    "evolve": {"variant": "real_time", "T": 0.05, "dt": 0.002},
    "validate": {"eps": [0.5], "cells_per_eps": 4, "n_z": 4, "n_eigs": 2},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestExitCodes:
    def test_ok(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 0

    def test_inconsistent_regime(self, tmp_path):
        bad = dict(TINY)
        bad["regime"] = {"delta": "inf", "mu": "eps2", "tau": 2}
        cfg = write_cfg(tmp_path, bad)
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2

    def test_missing_material(self, tmp_path):
        bad = dict(TINY)
        bad["material"] = "no_such_file.json"
        cfg = write_cfg(tmp_path, bad)
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["tensor", "--config", str(tmp_path / "nope.json"),
                     "--quiet"]) == 2

    def test_schema_violation(self, tmp_path):
        bad = dict(TINY)
        bad["regime"] = {"delta": 1.0, "mu": "bogus", "tau": 0}
        cfg = write_cfg(tmp_path, bad)
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2

    def test_odd_n_z(self, tmp_path):
        # a parity class needs its mirror planes as node planes: the
        # parity Bloch operator of the membrane row's dispersion function
        # refuses an odd n_z; the tensor leaves out each mirror it cannot
        # use and names it with the reason
        odd = json.loads(json.dumps(TINY))
        odd["cell"]["n_z"] = 3
        cfg = write_cfg(tmp_path, odd)
        assert main(["zhikov", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2

        def refused(cfg):
            assert main(["tensor", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path), "--quiet"]) == 0
            prov = json.loads((tmp_path / "tensor.json").read_text())[
                "provenance"]
            return prov["mirrors"], prov["mirrors_refused"]
        assert refused(odd) == (["y1", "y2"], {"x3": "odd n_z"})
        odd["cell"].update(n=9, n_z=4)
        assert refused(odd) == (["x3"], {"y1": "odd n", "y2": "odd n"})
        odd["cell"].update(n=8, shape={"kind": "disk", "size": 0.26,
                                       "center": [0.45, 0.5]})
        assert refused(odd) == (["y2", "x3"],
                                {"y1": "inclusion not mirror-symmetric"})

    def test_removed_solver_knob_refused(self, tmp_path, capsys):
        # a removed solver knob is refused by name, never silently ignored
        bad = json.loads(json.dumps(TINY))
        bad["solver"]["dense_threshold"] = 4000
        cfg = write_cfg(tmp_path, bad)
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "dense_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("path, mutate", [
        ("cell.n", lambda c: c["cell"].pop("n")),                  # required
        ("regime.mu", lambda c: c["regime"].update(mu="bogus")),   # enum
        ("cell.n", lambda c: c["cell"].update(n=2)),               # minimum
        ("macro.L1", lambda c: c["macro"].update(L1=True)),        # a bool
    ])
    def test_schema_violation_names_key_path(self, path, mutate, tmp_path,
                                             capsys):
        bad = json.loads(json.dumps(TINY))
        mutate(bad)
        cfg = write_cfg(tmp_path, bad)
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config schema violation at {path}: " in \
            capsys.readouterr().err

    def test_schema_is_valid(self):
        # SCHEMA is valid under its metaschema (load_config does not re-check)
        from jsonschema.validators import validator_for

        from hcplate.config import SCHEMA
        validator_for(SCHEMA).check_schema(SCHEMA)

    def test_nonpositive_dt(self, tmp_path):
        bad = json.loads(json.dumps(TINY))
        bad["evolve"]["dt"] = -0.1
        cfg = write_cfg(tmp_path, bad)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2

    def test_bloch_operator_refused(self, tmp_path, capsys):
        # the row fixes the Bloch operator; the removed override is
        # refused by name, never silently ignored
        bad = json.loads(json.dumps(TINY))
        bad["bloch"] = {"operator": "memb_delta"}
        cfg = write_cfg(tmp_path, bad)
        assert main(["bloch", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "operator" in capsys.readouterr().err

    def test_validate_h_must_be_a_number(self, tmp_path):
        bad = json.loads(json.dumps(TINY))
        bad["regime"]["delta"] = "inf"
        bad["validate"]["h"] = "x"
        cfg = write_cfg(tmp_path, bad)
        assert main(["validate", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2

    def test_removed_eig_solver_refused(self, tmp_path, capsys):
        bad = json.loads(json.dumps(TINY))
        bad["solver"]["eig_solver"] = "lobpcg"
        cfg = write_cfg(tmp_path, bad)
        assert main(["bloch", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "lobpcg" in capsys.readouterr().err

    def test_evolve_horizon_not_whole_steps(self, tmp_path, capsys):
        # T = 0.1 is not a whole number of steps dt = 0.03: refused, not
        # stopped at t = 0.09 with T = 0.1 in the manifest
        bad = json.loads(json.dumps(TINY))
        bad["evolve"].update(T=0.1, dt=0.03)
        cfg = write_cfg(tmp_path, bad)
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        assert "whole number of steps" in capsys.readouterr().err
        assert not (out / "evolve_manifest.json").exists()
        bad["evolve"].update(T=0.1, dt=0.001)
        cfg = write_cfg(tmp_path, bad)
        assert main(["evolve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        man = json.loads((out / "evolve_manifest.json").read_text())
        assert man["n_steps"] == 100

    def test_lapack_failure_is_a_solver_failure(self, tmp_path, monkeypatch,
                                                fresh_memo):
        # numpy's LinAlgError is a ValueError; raised by LAPACK inside a
        # solve it is a solver failure, not a configuration error
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("the leading minor of order 3 of B "
                                        "is not positive")
        monkeypatch.setattr(scipy.linalg, "eigh", failing)
        assert main(["bloch", "--config", write_cfg(tmp_path, TINY),
                     "--out", str(tmp_path), "--quiet"]) == 3

    def test_indefinite_operator_is_a_solver_failure(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     fresh_memo):
        # a cell stiffness that is not positive definite is refused by the
        # factorization, naming the leading minor, with exit code 3
        from hcplate.fem import assemble as fa
        assemble = fa.assemble_vector_h1

        def negated(*args, **kwargs):
            pair = assemble(*args, **kwargs)
            pair.K = -pair.K
            return pair
        monkeypatch.setattr(fa, "assemble_vector_h1", negated)
        assert main(["tensor", "--config", write_cfg(tmp_path, TINY),
                     "--out", str(tmp_path)]) == 3
        assert "leading minor of order 1" in capsys.readouterr().err

    def test_empty_gamma(self, tmp_path):
        bad = json.loads(json.dumps(TINY))
        bad["macro"]["gamma"] = []
        cfg = write_cfg(tmp_path, bad)
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2

    def test_orthotropic_soft_phase_refused(self, tmp_path, capsys):
        # C0_11 tripled: beta_11 != beta_22, so no scalar beta exists and
        # the limit spectrum is refused instead of computed from one component
        C0 = tn.isotropic(1.0, 1.0)
        C0[0, 0] *= 3.0
        ortho = json.loads(json.dumps(TINY))
        ortho["material"]["C0"] = C0[np.triu_indices(6)].tolist()
        cfg = write_cfg(tmp_path, ortho)
        for cmd in ("spectrum", "validate"):
            assert main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 2
            assert "pole cluster" in capsys.readouterr().err

    @staticmethod
    def _coupled(phase):
        # an 11-23 coupling of 0.4 (SPD): no mirror x3 -> -x3 (nor y2)
        C = tn.isotropic(1.0, 1.0)
        C[0, 3] = C[3, 0] = 0.4
        cfg = json.loads(json.dumps(TINY))
        cfg["material"][phase] = C[np.triu_indices(6)].tolist()
        return cfg

    def test_soft_phase_without_x3_mirror_refused(self, tmp_path, capsys):
        # beta comes from the membrane parity class of the inclusion
        # operator, which does not exist without the mirror
        cfg = write_cfg(tmp_path, self._coupled("C0"))
        for cmd in ("zhikov", "spectrum", "validate"):
            assert main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert "memb parity needs the x3 mirror, refused: C0 not " \
                "mirror-symmetric" in err, cmd

    def test_stiff_phase_without_x3_mirror(self, tmp_path, capsys):
        # the fine membrane-parity plate is refused; the tensor falls back
        # to the full prism and records why
        cfg = write_cfg(tmp_path, self._coupled("C1"))
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) \
            == 2
        assert "memb parity needs the x3 mirror, refused: C1 not " \
            "mirror-symmetric" in capsys.readouterr().err
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 0
        prov = json.loads((tmp_path / "tensor.json").read_text())["provenance"]
        assert prov["mirrors"] == ["y1"]
        assert prov["mirrors_refused"] == {"y2": "C1 not mirror-symmetric",
                                           "x3": "C1 not mirror-symmetric"}


class TestMirrorRecords:
    """bloch.json and validation.json name the mirrors their eigenproblems
    were solved on, the ones refused and why, and each class's DOFs."""

    @staticmethod
    def _run(tmp_path, cmd, cfg, name):
        out = tmp_path / name
        out.mkdir()
        assert main([cmd, "--config", write_cfg(tmp_path, cfg, f"{name}.json"),
                     "--out", str(out), "--quiet"]) == 0
        return out

    def test_tensor_builds_no_macro_mesh(self, tmp_path, monkeypatch):
        import hcplate.config as config
        calls = []
        build = config.build_macro_mesh
        monkeypatch.setattr(config, "build_macro_mesh",
                            lambda *a, **k: calls.append(1) or build(*a, **k))
        self._run(tmp_path, "tensor", TINY, "tensor")
        assert calls == []
        self._run(tmp_path, "bloch", TINY, "bloch")      # the spy sees one
        assert calls == [1]

    def test_demo(self, tmp_path):
        with open(os.path.join(CONFIGS, "demo.json")) as fh:
            demo = json.load(fh)
        bloch = json.loads(
            (self._run(tmp_path, "bloch", demo, "b") / "bloch.json").read_text())
        assert bloch["mirrors"] == ["y1", "y2", "x3"]
        assert bloch["mirrors_refused"] == {}
        # full_delta on 1/8 of the prism: 8 classes of at most 80 DOFs
        assert [c["dofs"] for c in bloch["classes"]] \
            == [80, 75, 75, 65, 75, 65, 66, 54]
        assert bloch["classes"][1]["signs"] == {"y1": 1, "y2": 1, "x3": -1}
        demo["validate"]["eps"] = [0.5]
        runs = json.loads((self._run(tmp_path, "validate", demo, "v")
                           / "validation.json").read_text())["runs"]
        assert runs[0]["mirrors"] == ["x2", "x3"]
        assert runs[0]["mirrors_refused"] == {}
        assert [c["signs"] for c in runs[0]["classes"]] \
            == [{"x2": 1, "x3": 1}, {"x2": -1, "x3": 1}]
        assert all(c["dofs"] > 0 for c in runs[0]["classes"])

    def test_refused_mirrors(self, tmp_path):
        # a 11-12 coupling in C0 has the x3 mirror but neither y mirror;
        # gamma_D = left and bottom is not mapped to itself by x2 -> L2 - x2
        coupled = json.loads(json.dumps(TINY))
        C0 = tn.isotropic(1.0, 1.0)
        C0[0, 5] = C0[5, 0] = 0.3
        coupled["material"]["C0"] = C0[np.triu_indices(6)].tolist()
        bloch = json.loads((self._run(tmp_path, "bloch", coupled, "b")
                            / "bloch.json").read_text())
        assert bloch["mirrors"] == ["x3"]
        assert bloch["mirrors_refused"] == {"y1": "C0 not mirror-symmetric",
                                            "y2": "C0 not mirror-symmetric"}
        assert [c["signs"] for c in bloch["classes"]] == [{"x3": 1},
                                                          {"x3": -1}]
        clamped = json.loads(json.dumps(TINY))
        clamped["macro"]["gamma"] = ["left", "bottom"]
        run = json.loads((self._run(tmp_path, "validate", clamped, "v")
                          / "validation.json").read_text())["runs"][0]
        assert run["mirrors"] == ["x3"]
        assert run["mirrors_refused"] == {
            "x2": "gamma_D not mirror-symmetric"}
        assert len(run["classes"]) == 1


class TestOutputs:
    def test_tensor_output(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "o"
        assert main(["tensor", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        payload = json.loads((out / "tensor.json").read_text())
        assert "config_hash" in payload
        memb = np.array(payload["memb"])
        assert np.allclose(memb, memb.T)
        assert min(payload["eigenvalues"]) > 0

    @pytest.mark.parametrize("name", ["demo", "demo_bending",
                                      "demo_deltainf"])
    def test_shipped_dispersion_has_every_sample(self, tmp_path, name):
        # no grid point of beta lands on a pole of a shipped config
        path = os.path.join(CONFIGS, f"{name}.json")
        with open(path) as fh:
            cfg = json.load(fh)
        want = cfg.get("spectrum", {}).get("beta_samples", 400)
        assert main(["zhikov", "--config", path, "--out", str(tmp_path),
                     "--quiet"]) == 0
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert len([x for x in lines if not x.startswith("#")]) == want + 1

    def test_spectrum_reports_gap(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "o"
        assert main(["spectrum", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        spec = json.loads((out / "limit_spectrum.json").read_text())
        assert len(spec["gaps"]) >= 1
        assert (out / "dispersion.csv").exists()
        meta = spec["meta"]
        assert meta["path"] == "arrowhead" and meta["variant"] == "memb"
        assert meta["pencil_size"] >= 2 and meta["merged_clusters"] >= 1
        assert 0.0 <= meta["gram_anisotropy"] <= 1e-7

    def test_uncoupled_plate_row_spectrum(self, tmp_path):
        # mu=eps, tau=2: the limit spectrum is the plate eigenvalues alone
        plate = json.loads(json.dumps(TINY))
        plate["regime"] = {"delta": 1.0, "mu": "eps", "tau": 2}
        cfg = write_cfg(tmp_path, plate)
        out = tmp_path / "o"
        assert main(["spectrum", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        spec = json.loads((out / "limit_spectrum.json").read_text())
        assert all(p["kind"] == "macro_eigenvalue" for p in spec["points"])
        assert spec["gaps"] == [] and spec["intervals"] == []

    def test_single_mode_schema_valid(self, tmp_path):
        one = json.loads(json.dumps(TINY))
        one["solver"]["n_modes"] = 1
        cfg = write_cfg(tmp_path, one)
        out = tmp_path / "o"
        assert main(["spectrum", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        spec = json.loads((out / "limit_spectrum.json").read_text())
        assert {"points", "intervals", "gaps", "meta"} <= set(spec)

    def test_evolve_energy_column(self, tmp_path):
        free = json.loads(json.dumps(TINY))
        free["load"]["amplitude"] = [0.0, 0.0, 0.0]
        cfg = write_cfg(tmp_path, free)
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        man = json.loads((out / "evolve_manifest.json").read_text())
        assert man["energy_drift"] <= 1e-10
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")

    def test_evolve_manifest_sizes(self, tmp_path):
        # the step system is factored at macro size, below the state size
        hc = json.loads(json.dumps(TINY))
        hc["regime"] = {"delta": 1.0, "mu": "eps_h", "tau": 2}
        hc["evolve"]["variant"] = "strong_hc_bending"
        cfg = write_cfg(tmp_path, hc)
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        man = json.loads((out / "evolve_manifest.json").read_text())
        assert {"state_dofs", "factored_dofs", "factor_fill",
                "factor_ordering"} <= set(man)
        assert 0 < man["factored_dofs"] < man["state_dofs"]
        assert man["factor_fill"] >= man["factored_dofs"]
        # the macro system is factored in the grid's slab order, as a band
        assert man["factor_ordering"] == "slab"

    def test_evolve_eigensolves_take_config_solver(self, tmp_path,
                                                   monkeypatch):
        # the macro modes of trajectory.csv are solved with the config's
        # solver settings, like the run's other eigensolves
        from hcplate import macro
        seen, real = [], macro.eigs_smallest
        monkeypatch.setattr(macro, "eigs_smallest", lambda pair, N, ws=None:
                            seen.append(ws) or real(pair, N, ws))
        cfg = json.loads(json.dumps(TINY))
        cfg["solver"].update(tol=5e-9, eig_solver="shift-invert", seed=7)
        assert main(["evolve", "--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 0
        assert seen and all((ws.tol, ws.solver, ws.seed)
                            == (5e-9, "shift-invert", 7) for ws in seen)

    def test_bending_resolvent_on_fine_macro_meshes(self, tmp_path):
        # the clamped bending block's condition grows as h^-4: a residual
        # relative to |b| alone is out of reach at macro 32 and 64, the
        # normwise backward error is not
        for n in (32, 64):
            cfg = json.loads(json.dumps(DEMO_BENDING))
            cfg["macro"].update(n1=n, n2=n)
            out = tmp_path / f"m{n}"
            assert main(["resolvent", "--config",
                         write_cfg(tmp_path, cfg, f"m{n}.json"), "--out",
                         str(out), "--quiet"]) == 0
            b = np.loadtxt(out / "resolvent_macro.csv", delimiter=",",
                           skiprows=2)[:, -1]
            assert np.isfinite(b).all() and abs(b).max() > 0

    def test_evolve_variant_defaults_to_row(self, tmp_path):
        # a bending config without evolve.variant evolves its own row; a
        # variant of another row is still refused
        hc = json.loads(json.dumps(TINY))
        hc["regime"] = {"delta": 1.0, "mu": "eps_h", "tau": 2}
        hc["solver"]["n_modes"] = 6
        del hc["evolve"]["variant"]
        out = tmp_path / "o"
        assert main(["evolve", "--config", write_cfg(tmp_path, hc), "--out",
                     str(out), "--quiet"]) == 0
        man = json.loads((out / "evolve_manifest.json").read_text())
        assert man["variant"] == "strong_hc_bending"
        hc["evolve"]["variant"] = "real_time"
        assert main(["evolve", "--config", write_cfg(tmp_path, hc), "--out",
                     str(out), "--quiet"]) == 2

    def test_validate_measures_against_the_spectrum_points(self, tmp_path):
        # validate takes its limit points from the same path as spectrum,
        # spectrum.lambda_max included
        cfg = json.loads(json.dumps(TINY))
        cfg["spectrum"]["lambda_max"] = 60.0
        path = write_cfg(tmp_path, cfg)
        for cmd in ("spectrum", "validate"):
            assert main([cmd, "--config", path, "--out", str(tmp_path),
                         "--quiet"]) == 0
        spec = json.loads((tmp_path / "limit_spectrum.json").read_text())
        report = json.loads((tmp_path / "validation.json").read_text())
        points = sorted(p["lambda"] for p in spec["points"])
        assert points and max(points) <= 60.0
        assert report["limit_points"] == points

    def test_deterministic_outputs(self, tmp_path, fresh_memo):
        cfg = write_cfg(tmp_path, TINY)
        outs = []
        for d in ("a", "b"):
            memo.clear()        # solve again rather than read the first run
            out = tmp_path / d
            assert main(["bloch", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
            outs.append((out / "bloch_spectrum.csv").read_text())
        assert outs[0] == outs[1]

    def test_validate_report(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "o"
        assert main(["validate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        rep = json.loads((out / "validation.json").read_text())
        assert rep["runs"][0]["eps"] == 0.5
        assert len(rep["runs"][0]["distance"]) == 2

    def test_all_nine_rows_tensor_and_resolvent(self, tmp_path):
        # every supported table row executes end-to-end on tiny meshes
        rows = [
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
        for i, reg in enumerate(rows):
            cfg_d = json.loads(json.dumps(TINY))
            cfg_d["regime"] = reg
            cfg = write_cfg(tmp_path, cfg_d, f"row{i}.json")
            out = tmp_path / f"row{i}"
            assert main(["resolvent", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0, f"row {reg} failed"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestJsonAndThreads:
    def test_no_numpy_at_import(self):
        # --threads must be applied before numpy loads its BLAS library
        code = "import sys, hcplate.cli; sys.exit('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0

    def test_no_jsonschema_in_a_run(self, tmp_path):
        # configs are validated in-package: a whole run loads no jsonschema
        argv = ["tensor", "--config", write_cfg(tmp_path, TINY),
                "--out", str(tmp_path), "--quiet"]
        code = ("import sys; from hcplate.cli import main; "
                f"assert main({argv!r}) == 0; "
                "sys.exit('jsonschema' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=120).returncode == 0

    @pytest.mark.parametrize("count", ["0", "-2", "2"])
    def test_threads_refused_below_one_or_after_numpy(self, count, tmp_path,
                                                      monkeypatch, capsys):
        # 0 and -2 are no thread counts; 2 is one, but this process has
        # loaded numpy, whose BLAS has read its thread variables already.
        # Each is refused before a variable is set or a command runs
        assert "numpy" in sys.modules
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "7")
        cfg = write_cfg(tmp_path, TINY)
        with pytest.raises(SystemExit) as exc:
            main(["tensor", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--threads", count])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
        assert not (tmp_path / "o").exists()

    def test_infinite_lambda_max_is_valid_json(self, tmp_path):
        # one mode and no coupled pole: beta has no truncation limit
        one = json.loads(json.dumps(TINY))
        one["solver"]["n_modes"] = 1
        cfg = write_cfg(tmp_path, one)
        out = tmp_path / "o"
        assert main(["zhikov", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        z = json.loads((out / "zhikov.json").read_text(),
                       parse_constant=_reject_constant)
        assert z["lambda_max"] == "inf"

    def test_non_finite_values_are_strings(self, tmp_path):
        from hcplate.commands import _write_json
        _write_json(tmp_path / "x.json",
                    {"a": np.array([1.0, np.inf, -np.inf, np.nan]),
                     "b": np.float64(np.inf), "c": [(1, float("nan"))]}, "h")
        x = json.loads((tmp_path / "x.json").read_text(),
                       parse_constant=_reject_constant)
        assert x == {"a": [1.0, "inf", "-inf", "nan"], "b": "inf",
                     "c": [[1, "nan"]], "config_hash": "h"}
