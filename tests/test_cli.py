"""Command-line interface: config parsing, exit codes, and report files.

Everything runs in-process through ``main(argv)`` so exit codes and report
bytes are asserted directly.  The reports contract: CSV bodies (everything
below the ``#`` comment block) are byte-identical across reruns of the same
config, every numeric column has a ``*_error`` companion, and floats carry
17 significant digits so they round-trip exactly.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from multipolar_hardy import (
    ConfigError,
    GaussianBump,
    PoleConfig,
    QuadratureSpec,
    WeightSpec,
    derive_params,
    energy_report,
    identity_residual,
    identity_residual_error,
    optimality_sweep,
)
from multipolar_hardy.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_run_config,
)


REPO = Path(__file__).resolve().parents[1]


def base_config(tmp_path, **overrides) -> dict:
    data = {
        "problem": {
            "dim": 3,
            "poles": [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            "weight": {"kind": "unit"},
            "k_mu": 0.0,
        },
        "quadrature": {
            "pole_radius": 0.9,
            "far_radius": 6.0,
            "radial_levels": 10,
            "mc_samples": 4000,
            "seed": 99,
        },
        "experiments": {
            "verify": {
                "functions": [
                    {"kind": "gaussian_bump", "center": [1.0, 0.0, 0.0],
                     "width": 0.8},
                ],
                "residual_tol": 1e-3,
            }
        },
        "output": {"directory": str(tmp_path / "out")},
    }
    data.update(overrides)
    return data


def full_config(tmp_path) -> dict:
    """`base_config` with a small valid block for every subcommand."""
    data = base_config(tmp_path)
    bump = data["experiments"]["verify"]["functions"][0]
    data["experiments"].update(
        beta_sweep={"beta_list": [0.2, 0.4], "function": bump},
        optimality={"eps_list": [0.4, 0.2]},
        spectral={"basis": [bump]},
        certify={},
    )
    return data


def write_config(tmp_path, data, name="run.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def csv_body(path) -> str:
    """Report text with the volatile comment header stripped."""
    lines = path.read_text().splitlines()
    return "\n".join(ln for ln in lines if not ln.startswith("#"))


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------


class TestParseRunConfig:
    def test_round_trip(self, tmp_path):
        run = parse_run_config(base_config(tmp_path), source="inline")
        assert run.cfg.n_poles == 2
        assert run.weight.is_unit
        assert run.params.beta == 0.5
        assert run.quadrature.seed == 99
        assert "verify" in run.experiments

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update({"bogus": 1}),
            lambda d: d["problem"].update({"bogus": 1}),
            lambda d: d["quadrature"].update({"bogus": 1}),
            lambda d: d["experiments"].update({"bogus": {}}),
            lambda d: d["output"].update({"bogus": 1}),
            lambda d: d["experiments"]["verify"].update({"bogus": 1}),
            lambda d: d["problem"].update({"c_mu": 0.0}),
        ],
        ids=["top", "problem", "quadrature", "experiments", "output", "verify",
             "problem-c_mu"],
    )
    def test_unknown_keys_rejected_at_any_depth(self, tmp_path, mutate):
        data = base_config(tmp_path)
        mutate(data)
        if "bogus" in data.get("experiments", {}):
            with pytest.raises(ConfigError):
                parse_run_config(data)
        elif "bogus" in data.get("experiments", {}).get("verify", {}):
            # nested experiment keys are checked by the subcommand
            path = write_config(tmp_path, data)
            assert main(["verify", "--config", path, "--quiet"]) == EXIT_USAGE
        else:
            with pytest.raises(ConfigError):
                parse_run_config(data)

    @pytest.mark.parametrize("key", ["dim", "poles"])
    def test_missing_problem_keys(self, tmp_path, key):
        data = base_config(tmp_path)
        del data["problem"][key]
        with pytest.raises(ConfigError):
            parse_run_config(data)

    def test_top_level_seed_is_an_unknown_key(self, tmp_path, capsys):
        """The seed is `quadrature.seed`, which --seed overrides: a
        top-level seed is a config error with exit 2 that names the key."""
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['seed'\]"):
            parse_run_config(base_config(tmp_path, seed=123456))
        path = write_config(tmp_path, base_config(tmp_path, seed=123456))
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key") and "'seed'" in err

    def test_weight_kinds(self, tmp_path):
        data = base_config(tmp_path)
        data["problem"]["weight"] = {"kind": "polyexp", "gamma": 0.5}
        data["problem"]["k_mu"] = -0.6
        run = parse_run_config(data)
        assert run.weight.gamma == 0.5
        data["problem"]["weight"] = {"kind": "no_such_kind"}
        with pytest.raises(ConfigError):
            parse_run_config(data)


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) \
            == EXIT_USAGE

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "--config", str(path)]) == EXIT_USAGE

    def test_missing_experiment_block(self, tmp_path, capsys):
        data = base_config(tmp_path)
        del data["experiments"]["verify"]
        path = write_config(tmp_path, data)
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_USAGE
        # the shipped poly-exponential config without its spectral block
        shipped = json.loads(
            (REPO / "configs" / "polyexp_n3_two_poles.json").read_text()
        )
        del shipped["experiments"]["spectral"]
        stripped = write_config(tmp_path, shipped, name="polyexp.json")
        capsys.readouterr()
        assert main(["spectral", "--config", stripped, "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config has no 'experiments.spectral' block" in err

    def test_verify_passes_on_valid_config(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize(
        "command, block, key, value, where",
        [
            ("verify", "verify", "residual_tol", "abc",
             "experiments.verify.residual_tol"),
            ("verify", "verify", "functions",
             [{"kind": "gaussian_bump", "center": [1.0, 0.0, 0.0]}],
             "experiments.verify.functions[0].width"),
            ("spectral", "spectral", "prefix_sizes", ["x"],
             "experiments.spectral.prefix_sizes"),
            ("spectral", "spectral", "allow_truncation", "false",
             "experiments.spectral.allow_truncation"),
            ("verify", "problem", "k_mu", "0", "problem.k_mu"),
        ],
        ids=["float-key", "missing-width", "prefix-sizes", "bool-key", "problem-key"],
    )
    def test_malformed_block_value_is_config_error(
        self, tmp_path, capsys, command, block, key, value, where
    ):
        """A malformed value is reported by its key path with exit 2, and a
        string is never coerced into a number or a boolean."""
        data = base_config(tmp_path)
        data["experiments"]["spectral"] = {
            "basis": data["experiments"]["verify"]["functions"],
        }
        node = data["problem"] if block == "problem" else data["experiments"][block]
        node[key] = value
        path = write_config(tmp_path, data)
        assert main([command, "--config", path, "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and where in err

    @pytest.mark.parametrize(
        "command, keys, value, where",
        [
            ("verify", ("problem", "poles"), [["x", 0, 0], [2, 0, 0]],
             "problem.poles[0][0]"),
            ("verify", ("quadrature", "seed"), "x", "quadrature.seed"),
            ("verify", None, "-1", "--seed"),
            ("verify", ("quadrature", "mc_samples"), "20000", "quadrature.mc_samples"),
            ("verify", ("quadrature", "radial_levels"), 10.5,
             "quadrature.radial_levels"),
            ("verify", ("quadrature", "pole_radius"), "0.9", "quadrature.pole_radius"),
            ("verify", ("experiments", "verify", "functions", 0, "center"),
             ["x", 0, 0], "experiments.verify.functions[0].center[0]"),
            ("beta-sweep", ("experiments", "beta_sweep", "beta_list"), ["x"],
             "experiments.beta_sweep.beta_list[0]"),
            ("beta-sweep", ("experiments", "beta_sweep", "beta_list"), 0.3,
             "experiments.beta_sweep.beta_list"),
            ("optimality", ("experiments", "optimality", "eps_list"), ["x"],
             "experiments.optimality.eps_list[0]"),
            ("spectral", ("experiments", "spectral", "basis"), 3,
             "experiments.spectral.basis"),
            ("verify", ("problem", "dim"), "3", "problem.dim"),
            ("verify", ("problem", "dim"), 3.7, "problem.dim"),
            ("verify", ("quadrature", "seed"), 7.9, "quadrature.seed"),
            ("verify", ("output", "directory"), 5, "output.directory"),
            ("verify", ("output", "formats"), "csv", "output.formats"),
            ("verify", ("experiments", "verify", "residual_tol"), float("nan"),
             "experiments.verify.residual_tol"),
            ("verify", ("experiments", "verify", "residual_tol"), float("inf"),
             "experiments.verify.residual_tol"),
        ],
        ids=[
            "poles", "seed-string", "seed-flag", "mc-samples-string",
            "radial-levels-float", "pole-radius-string", "center-entry",
            "beta-list-entry", "beta-list-scalar", "eps-list-entry",
            "basis-scalar", "dim-string", "dim-float", "seed-float",
            "directory-number", "formats-string", "residual-tol-nan",
            "residual-tol-infinity",
        ],
    )
    def test_malformed_value_names_its_key_path(
        self, tmp_path, capsys, command, keys, value, where
    ):
        """Every malformed value is a config error (exit 2) naming its key
        path: no traceback, and no value converted to another kind."""
        data = full_config(tmp_path)
        argv = [command, "--quiet"]
        if keys is None:
            argv += ["--seed", value]
        else:
            node = data
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
        argv += ["--config", write_config(tmp_path, data)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"'{where}'" in err

    @pytest.mark.parametrize(
        "key, value", [("radial_order", 8), ("tail_exponent", 2.0)]
    )
    def test_fixed_quadrature_settings_are_unknown_keys(
        self, tmp_path, capsys, key, value
    ):
        """The radial order and the far decay are fixed, not settings: a
        config that sets either, even to its value, is a config error with
        exit 2 that names the key."""
        data = base_config(tmp_path)
        data["quadrature"][key] = value
        path = write_config(tmp_path, data)
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key") and key in err

    def test_selftest_reads_its_seed(self, capsys):
        argv = ["selftest", "--filter", "sphere_measures", "--quiet", "--seed"]
        assert main(argv + ["5"]) == EXIT_OK
        assert main(argv + ["-1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'--seed'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--filter", "x"],
            ["optimality", "--filter", "x"],
            ["beta-sweep", "--filter", "x"],
            ["spectral", "--filter", "x"],
            ["selftest", "--config", "CONFIG"],
            ["selftest", "--out", "OUT"],
        ],
        ids=["certify-filter", "optimality-filter", "beta-sweep-filter",
             "spectral-filter", "selftest-config", "selftest-out"],
    )
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, tmp_path, argv):
        path = write_config(tmp_path, full_config(tmp_path))
        argv = [a.replace("CONFIG", path).replace("OUT", str(tmp_path)) for a in argv]
        if argv[0] != "selftest":
            argv += ["--config", path]
        assert main(argv + ["--quiet"]) == EXIT_USAGE

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_certify_rejects_nonpositive_beta(self, tmp_path, capsys, beta):
        """W is defined for beta > 0 only: certify stops with a config error
        instead of reporting H2 as bounded."""
        data = base_config(tmp_path)
        data["experiments"]["certify"] = {"beta": beta}
        path = write_config(tmp_path, data)
        assert main(["certify", "--config", path, "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "beta must be positive" in err

    def test_optimality_grid_with_no_admissible_eps(self, tmp_path, capsys):
        """A grid above the admissibility bound is a config error that names
        the bound, not a rate fit over no points."""
        data = base_config(tmp_path)
        data["experiments"]["optimality"] = {"eps_list": [0.9, 0.8]}
        path = write_config(tmp_path, data)
        assert main(["optimality", "--config", path, "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "max_admissible_eps" in err

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_selftest_filter_without_match(self):
        assert main(["selftest", "--filter", "zzz-no-such-case"]) == EXIT_USAGE

    def test_selftest_single_case(self, capsys):
        assert main(["selftest", "--filter", "sphere_measures"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "sphere_measures" in out

    def test_selftest_failure_propagates(self, monkeypatch, capsys):
        """A failing corpus entry must surface as exit code 1."""
        from multipolar_hardy import cli

        monkeypatch.setattr(
            cli,
            "_SELFTEST_CASES",
            (("forced_failure", lambda seed: (False, "forced for the test")),),
        )
        assert main(["selftest"]) == EXIT_NUMERICAL
        assert "forced_failure" in capsys.readouterr().err


# --------------------------------------------------------------------------
# report files
# --------------------------------------------------------------------------


class TestReports:
    def test_verify_report_schema(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_OK
        csv_path = tmp_path / "out" / "verify.csv"
        lines = csv_path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any(ln.startswith("# seed:") for ln in comments)
        assert any(ln.startswith("# wall_time_s:") for ln in comments)
        body = [ln for ln in lines if not ln.startswith("#")]
        header = body[0].split(",")
        for ln in body[1:]:
            assert len(ln.split(",")) == len(header)
        numeric = [
            c
            for c in header
            if c not in ("function", "truncated", "residual_pass", "ratio_pass")
            and not c.endswith("_error")
        ]
        for col in numeric:
            assert f"{col}_error" in header, f"{col} lacks an error column"
        summary = json.loads((tmp_path / "out" / "verify_summary.json").read_text())
        assert summary["pass"] is True
        assert summary["command"] == "verify"

    def test_float_cells_round_trip_17_digits(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        main(["verify", "--config", path, "--quiet"])
        lines = csv_body(tmp_path / "out" / "verify.csv").splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        for name, cell in zip(header, row):
            if name in ("function", "truncated", "residual_pass", "ratio_pass"):
                continue
            if cell == "exact":
                continue
            assert f"{float(cell):.17g}" == cell

    def test_csv_body_is_deterministic(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        main(["verify", "--config", path, "--quiet"])
        first = csv_body(tmp_path / "out" / "verify.csv")
        shutil.rmtree(tmp_path / "out")
        main(["verify", "--config", path, "--quiet"])
        second = csv_body(tmp_path / "out" / "verify.csv")
        assert first == second

    def test_seed_flag_changes_the_body(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        main(["verify", "--config", path, "--quiet"])
        first = csv_body(tmp_path / "out" / "verify.csv")
        shutil.rmtree(tmp_path / "out")
        main(["verify", "--config", path, "--quiet", "--seed", "12345"])
        second = csv_body(tmp_path / "out" / "verify.csv")
        assert first != second

    def test_out_flag_overrides_directory(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        other = tmp_path / "elsewhere"
        main(["verify", "--config", path, "--quiet", "--out", str(other)])
        assert (other / "verify.csv").exists()

    def test_single_pole_ratio_skipped(self, tmp_path):
        data = base_config(tmp_path)
        data["problem"]["poles"] = [[0.0, 0.0, 0.0]]
        path = write_config(tmp_path, data)
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "verify_summary.json").read_text())
        assert any("single pole" in note for note in summary["notes"])
        body = csv_body(tmp_path / "out" / "verify.csv")
        assert "skipped" in body

    def test_truncated_flux_matches_the_sweep(self, tmp_path):
        """A borderline optimality candidate in verify is closed by the same
        flux, and carries the same ratio, as the sharpness sweep's record."""
        data = base_config(tmp_path)
        data["quadrature"].update(radial_levels=20, mc_samples=20_000, seed=1234)
        data["experiments"]["verify"]["functions"] = [
            {"kind": "optimality_phi", "R": 1.0, "eps": 0.2}
        ]
        path = write_config(tmp_path, data)
        main(["verify", "--config", path, "--quiet"])
        header, cells = csv_body(tmp_path / "out" / "verify.csv").splitlines()
        row = dict(zip(header.split(","), cells.split(",")))
        assert row["truncated"] == "true"

        cfg = PoleConfig(dim=3, poles=data["problem"]["poles"])
        spec = QuadratureSpec(**data["quadrature"])
        p = derive_params(cfg, 0.0)
        (rec,), _ = optimality_sweep(
            cfg, WeightSpec.unit(), p, [0.2], spec, R=1.0, fit=False
        )
        assert float(row["flux"]) == rec.flux
        assert float(row["flux_error"]) == rec.flux_error
        assert float(row["hardy_ratio"]) == rec.hardy_ratio
        assert float(row["hardy_ratio_error"]) == rec.ratio_error

    def test_beta_sweep_error_column_is_the_ledger_error(self, tmp_path):
        """Each beta-sweep row carries the residual and the combined error
        of the energy report at that exponent."""
        data = base_config(tmp_path)
        bump = {"kind": "gaussian_bump", "center": [1.0, 0.2, 0.0], "width": 1.1}
        data["experiments"]["beta_sweep"] = {
            "beta_list": [0.2, 0.5, 0.7], "function": bump, "residual_tol": 1.0,
        }
        path = write_config(tmp_path, data)
        assert main(["beta-sweep", "--config", path, "--quiet"]) == EXIT_OK
        header, *lines = csv_body(tmp_path / "out" / "beta_sweep.csv").splitlines()
        cfg = PoleConfig(dim=3, poles=data["problem"]["poles"])
        spec = QuadratureSpec(**data["quadrature"])
        p = derive_params(cfg, 0.0)
        phi = GaussianBump(center=np.array(bump["center"]), width=bump["width"])
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            beta = float(row["beta"])
            rep = energy_report(phi, cfg, WeightSpec.unit(), p, spec, beta=beta)
            assert float(row["identity_residual"]) == identity_residual(rep, p)
            error = float(row["identity_residual_error"])
            assert error == identity_residual_error(rep, p)
            assert error > 0.0

    @pytest.mark.parametrize(
        "command", ["verify", "optimality", "beta-sweep", "spectral", "certify"]
    )
    @pytest.mark.parametrize(
        "config, reports",
        [("unit_n3_two_poles", "unit_n3"), ("polyexp_n3_two_poles", "polyexp_n3")],
    )
    def test_shipped_reports_match(self, tmp_path, command, config, reports):
        """The committed reports under out/ are what the code writes now."""
        path = str(REPO / "configs" / f"{config}.json")
        assert main([command, "--config", path, "--quiet", "--out", str(tmp_path)]) \
            == EXIT_OK
        name = command.replace("-", "_")
        fresh = csv_body(tmp_path / f"{name}.csv").splitlines()
        committed = csv_body(REPO / "out" / reports / f"{name}.csv").splitlines()
        assert len(fresh) == len(committed)
        for new_line, old_line in zip(fresh, committed):
            new_cells, old_cells = new_line.split(","), old_line.split(",")
            assert len(new_cells) == len(old_cells)
            for new, old in zip(new_cells, old_cells):
                try:
                    old_value = float(old)
                except ValueError:
                    old_value = math.nan
                if math.isnan(old_value):
                    assert new == old
                else:
                    tol = 1e-9 * max(1.0, abs(old_value))
                    assert abs(float(new) - old_value) <= tol, (new, old)

    @pytest.mark.parametrize(
        "config, reports",
        [("unit_n3_two_poles", "unit_n3"), ("polyexp_n3_two_poles", "polyexp_n3")],
    )
    def test_shipped_certify_bodies_are_byte_identical(self, tmp_path, config, reports):
        """certify runs no Monte Carlo, so its committed body is what the
        code writes now byte for byte, the sign of every zero included
        (which the numeric comparison above cannot see)."""
        path = str(REPO / "configs" / f"{config}.json")
        assert main(["certify", "--config", path, "--quiet", "--out", str(tmp_path)]) \
            == EXIT_OK
        assert csv_body(tmp_path / "certify.csv") == csv_body(
            REPO / "out" / reports / "certify.csv"
        )

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        main(["verify", "--config", path, "--quiet"])
        assert capsys.readouterr().out == ""
        main(["verify", "--config", path])
        assert "verify" in capsys.readouterr().out


# --------------------------------------------------------------------------
# console entry point
# --------------------------------------------------------------------------


class TestEntryPoint:
    def test_module_invocation(self):
        """python -m multipolar_hardy.cli works as a subprocess."""
        proc = subprocess.run(
            [sys.executable, "-m", "multipolar_hardy.cli", "selftest",
             "--filter", "sphere_measures"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_runtime_runs_without_scipy(self, tmp_path):
        """Every report subcommand runs on the shipped unit config with scipy
        made unimportable, and leaves no scipy module loaded: the runtime
        needs numpy alone."""
        script = textwrap.dedent(
            """
            import json, sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name == "scipy" or name.startswith("scipy."):
                        raise ImportError(f"{name} is blocked")
                    return None

            sys.meta_path.insert(0, NoScipy())
            from multipolar_hardy.cli import main

            config, out, *commands = sys.argv[1:]
            codes = {
                cmd: main([cmd, "--config", config, "--quiet", "--out", out])
                for cmd in commands
            }
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            print(json.dumps({"codes": codes, "scipy": loaded}))
            """
        )
        commands = ["verify", "optimality", "beta-sweep", "spectral", "certify"]
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script,
             str(REPO / "configs" / "unit_n3_two_poles.json"), str(tmp_path),
             *commands],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == {cmd: EXIT_OK for cmd in commands}
        assert result["scipy"] == []
