import json
import os
import subprocess
import sys

import numpy as np

from hcplate.cli import main
from hcplate.config import DEMO_CONFIG

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

    def test_nonpositive_dt(self, tmp_path):
        bad = json.loads(json.dumps(TINY))
        bad["evolve"]["dt"] = -0.1
        cfg = write_cfg(tmp_path, bad)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2

    def test_empty_gamma(self, tmp_path):
        bad = json.loads(json.dumps(TINY))
        bad["macro"]["gamma"] = []
        cfg = write_cfg(tmp_path, bad)
        assert main(["tensor", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 2


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

    def test_spectrum_reports_gap(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        out = tmp_path / "o"
        assert main(["spectrum", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        spec = json.loads((out / "limit_spectrum.json").read_text())
        assert len(spec["gaps"]) >= 1
        assert (out / "dispersion.csv").exists()

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

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY)
        outs = []
        for d in ("a", "b"):
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
