"""Command-line interface: config parsing, exit codes, and report files.

Everything runs in-process through ``main(argv)`` so exit codes and report
bytes are asserted directly.  The reports contract: CSV bodies (everything
below the ``#`` comment block) are byte-identical across reruns of the same
config, every numeric column has a ``*_error`` companion, and floats carry
17 significant digits so they round-trip exactly.
"""

import json
import shutil
import subprocess
import sys

import pytest

from multipolar_hardy import ConfigError
from multipolar_hardy.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_run_config,
)


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
        ],
        ids=["top", "problem", "quadrature", "experiments", "output", "verify"],
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

    def test_top_level_seed_overrides_quadrature(self, tmp_path):
        data = base_config(tmp_path, seed=123456)
        run = parse_run_config(data)
        assert run.quadrature.seed == 123456

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

    def test_missing_experiment_block(self, tmp_path):
        data = base_config(tmp_path)
        del data["experiments"]["verify"]
        path = write_config(tmp_path, data)
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_USAGE

    def test_verify_passes_on_valid_config(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize("raw", ["abc", "0", "-2"])
    def test_bad_worker_count_is_config_error(self, tmp_path, monkeypatch, raw):
        monkeypatch.setenv("MHARDY_WORKERS", raw)
        path = write_config(tmp_path, base_config(tmp_path))
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_USAGE

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
