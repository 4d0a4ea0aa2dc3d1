"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import twofluid
from twofluid import cli, sim
from twofluid.cli import (_check_record, _equilibrium_metrics,
                          _fraction_map_roundtrip, main)
from twofluid.model import (AdmissibilityError, ConvergenceError,
                            ModelParams, solve_equilibrium)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_strict_json(path):
    """read_json that refuses the bare NaN and Infinity of lax JSON."""
    def refuse(name):
        raise ValueError(f"{path} holds a bare {name}")

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


SCIPY_PROBE = """
import json, sys
import twofluid.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for argv in (["spectrum", "--n-k", "50"], ["convolve", "--case", "K4"],
             ["simulate", "--grid", "8"]):
    rc = twofluid.cli.main(["--out", sys.argv[1]] + argv)
    loaded[argv[0]] = scipy_modules() if rc == 0 else f"exit {rc}"
print(json.dumps(loaded))
"""


def test_cli_path_loads_no_scipy(tmp_path):
    # importing scipy costs a CLI process about 0.7 s of CPU; only expm on
    # ill-conditioned modes loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(twofluid.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == {"import": [], "spectrum": [], "convolve": [],
                      "simulate": []}


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_missing_params_file(self, tmp_path, capsys):
        assert main(["--params", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path), "equilibrium"]) == 2

    def test_malformed_params_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mu_plus equals one\n")
        assert main(["--params", str(cfg), "--out", str(tmp_path),
                     "equilibrium"]) == 2

    def test_bad_tol_scale(self, tmp_path, capsys):
        assert main(["--tol-scale", "-1", "--out", str(tmp_path),
                     "equilibrium"]) == 2

    def test_unknown_convolution_case(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "convolve",
                     "--case", "K99"]) == 2

    def test_bad_greens_entry(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "greens",
                     "--entry", "one,two"]) == 2


MALFORMED = [
    ["convolve", "--t", "0"],
    ["convolve", "--t", "-4"],
    ["convolve", "--t", "nan"],
    ["convolve", "--t", "inf"],
    ["convolve", "--t", "4,0,16"],
    ["convolve", "--case", "K4", "--t", "64"],
    ["convolve", "--case", "K4", "--t", "64,64"],
    ["convolve", "--t", "4,1e300"],
    ["convolve", "--t", "4,1e4"],
    # only one time in the final decade [t_max/10, t_max]
    ["convolve", "--case", "K4", "--t", "4,1e3"],
    ["spectrum", "--n-k", "0"],
    ["spectrum", "--n-k", "-3"],
    ["spectrum", "--k-min", "0"],
    ["spectrum", "--k-min", "-1"],
    ["spectrum", "--k-min", "nan"],
    ["spectrum", "--k-max", "inf"],
    ["spectrum", "--k-max", "-5"],
    ["--tol-scale", "nan", "equilibrium"],
    ["--tol-scale", "inf", "equilibrium"],
    ["greens", "--entry", "5,1"],
    ["greens", "--entry", "0,2"],
    ["greens", "--entry", "1,5"],
    ["greens", "--entry=-1,2"],
    ["greens", "--t-list", "-2"],
    ["greens", "--t-list", "0"],
    ["greens", "--t-list", "nan"],
    ["greens", "--t-list", "inf"],
    ["greens", "--t-list=2,-10,50"],
    ["greens", "--t-list", "301"],
    ["greens", "--t-list", "1000"],
    ["greens", "--t-list", "2,1e6"],
    ["greens", "--r-max-factor", "nan"],
    ["greens", "--r-max-factor=-3"],
    ["greens", "--r-max-factor", "0"],
    ["greens", "--r-max-factor", "inf"],
    ["greens", "--r-max-factor", "4.5"],
    ["simulate", "--grid", "0", "--box", "16"],
    ["simulate", "--grid", "3", "--box", "16"],
    ["simulate", "--grid", "8", "--box", "nan"],
    ["simulate", "--grid", "8", "--box", "inf"],
    ["simulate", "--grid", "8", "--box", "-16"],
    ["simulate", "--grid", "8", "--box", "16", "--eps", "nan"],
    ["simulate", "--grid", "8", "--box", "16", "--eps", "inf"],
    ["simulate", "--grid", "8", "--box", "16", "--t-final", "-1"],
    ["simulate", "--grid", "8", "--box", "16", "--t-final", "0"],
    ["simulate", "--grid", "8", "--box", "16", "--t-final", "nan"],
    # disc < 0: the complex diffusive pair gives non-finite metrics and
    # kernel values, which have no strict JSON form and are not written
    ["--params", "@complex-pair", "greens", "--entry", "1,2"],
    ["--params", "@complex-pair", "greens", "--entry", "2,2"],
    ["--params", "@complex-pair", "certify-all"],
]

# sigma_plus = sigma_minus = 1 makes the diffusive-pair discriminant negative
COMPLEX_PAIR = "sigma_plus = 1.0\nsigma_minus = 1.0\n"


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_is_a_usage_error(argv, tmp_path, capsys):
    cfg = tmp_path / "complex_pair.cfg"
    cfg.write_text(COMPLEX_PAIR)
    argv = [str(cfg) if a == "@complex-pair" else a for a in argv]
    assert main(["--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "kernel.csv").exists()
    for path in tmp_path.glob("*.json"):
        read_strict_json(path)


def test_default_json_outputs_are_strict(tmp_path):
    for argv in (["equilibrium"], ["spectrum"], ["greens"], ["convolve"],
                 ["simulate"], ["certify-all"]):
        assert main(["--out", str(tmp_path), *argv]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in written] == [
        "certify.json", "convolve.json", "envelope.json", "equilibrium.json"]
    for path in written:
        read_strict_json(path)


class TestEquilibrium:
    def test_complex_pair_writes_null(self, tmp_path):
        cfg = tmp_path / "complex_pair.cfg"
        cfg.write_text(COMPLEX_PAIR)
        assert main(["--params", str(cfg), "--out", str(tmp_path),
                     "equilibrium"]) == 0
        rep = read_strict_json(tmp_path / "equilibrium.json")
        assert rep["disc"] < 0.0 and rep["R_disc"] is None

    def test_default_params(self, tmp_path):
        assert main(["--out", str(tmp_path), "equilibrium"]) == 0
        rep = read_json(tmp_path / "equilibrium.json")
        assert rep["schema"] == 1
        assert rep["rho_bar_plus"] == pytest.approx(2.0, abs=1e-10)

    def test_params_file(self, tmp_path):
        cfg = tmp_path / "asym.cfg"
        cfg.write_text("a_minus = 2.0\n# comment line\n")
        assert main(["--params", str(cfg), "--out", str(tmp_path),
                     "equilibrium"]) == 0
        rep = read_json(tmp_path / "equilibrium.json")
        assert rep["rho_bar_plus"] == pytest.approx(1.0 + math.sqrt(2.0),
                                                    abs=1e-10)


class TestSpectrum:
    def test_csv_shape_and_determinism(self, tmp_path):
        argv = ["--out", str(tmp_path), "spectrum", "--n-k", "25"]
        assert main(argv) == 0
        first = (tmp_path / "spectrum.csv").read_bytes()
        rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 25
        expect = (["k"] + [f"re_lambda{i}" for i in range(1, 5)]
                  + [f"im_lambda{i}" for i in range(1, 5)]
                  + ["band", "degenerate"]
                  + [f"expansion_err{i}" for i in range(1, 5)])
        assert list(rows[0].keys()) == expect
        assert main(argv) == 0
        assert (tmp_path / "spectrum.csv").read_bytes() == first


class TestGreens:
    def test_kernel_and_envelope(self, tmp_path):
        assert main(["--out", str(tmp_path), "greens", "--entry", "1,2",
                     "--t-list", "2,10"]) == 0
        rows = read_csv(tmp_path / "kernel.csv")
        assert list(rows[0].keys()) == ["r", "t", "value"]
        rep = read_json(tmp_path / "envelope.json")
        assert rep["schema"] == 1
        assert {"entry", "region", "C_est", "trend_ratio", "pass"} \
            <= set(rep)
        assert rep["pass"] is True


class TestConvolve:
    def test_case_report(self, tmp_path):
        assert main(["--out", str(tmp_path), "convolve",
                     "--case", "I1", "--t", "4,16,64"]) == 0
        rep = read_json(tmp_path / "convolve.json")
        assert rep["schema"] == 1 and rep["case"] == "I1"
        assert rep["pass"] is True
        assert {"r", "t", "region", "lhs", "bound", "ratio"} \
            == set(rep["samples"][0])
        assert set(rep["c_est_by_region"]) <= {"D1", "D2", "D3", "D4", "D5"}

    def test_determinism(self, tmp_path):
        argv = ["--out", str(tmp_path), "convolve", "--case", "I2",
                "--t", "4,16"]
        assert main(argv) == 0
        first = read_json(tmp_path / "convolve.json")
        assert main(argv) == 0
        assert read_json(tmp_path / "convolve.json") == first


class TestSimulate:
    def test_linear_run_outputs(self, tmp_path):
        assert main(["--out", str(tmp_path), "simulate", "--mode", "linear",
                     "--grid", "16", "--box", "16", "--t-final", "2"]) == 0
        rows = read_csv(tmp_path / "diagnostics.csv")
        assert list(rows[0].keys()) == [
            "t", "mass_p", "mass_m", "momentum", "l2_np", "l2_nm",
            "l2_mp", "l2_mm", "l2_combo", "ring_r"]
        eq = solve_equilibrium(ModelParams())
        final = sim.load_state(str(tmp_path / "state.bin"), eq)
        assert final.n == 16 and final.t == pytest.approx(2.0)

    def test_horizon_rejected(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "simulate", "--grid", "8",
                     "--box", "16", "--t-final", "100"]) == 2


class TestCheckRecord:
    def test_tol_scale_loosens_upper_bounds(self):
        rec = _check_record("bound", 1.5, 1.0, tol_scale=2.0)
        assert rec == {"name": "bound", "pass": True, "metric": 1.5,
                       "tolerance": 2.0}
        assert not _check_record("bound", 1.5, 1.0, tol_scale=1.0)["pass"]

    def test_tol_scale_leaves_inverted_threshold(self):
        # a negative control must exceed its base threshold whatever the
        # scale; scaling it would make loosening harder to pass
        rec = _check_record("must_fail", 5.0, 2.0, tol_scale=10.0,
                            invert=True)
        assert rec["tolerance"] == 2.0 and rec["pass"] is True
        assert not _check_record("must_fail", 1.5, 2.0, tol_scale=0.1,
                                 invert=True)["pass"]


class TestEquilibriumMetrics:
    @pytest.mark.parametrize("params", [ModelParams(),
                                        ModelParams(A_minus=2.0)],
                             ids=["default", "a_minus_2"])
    def test_pass_for_any_parameters(self, params):
        eq = solve_equilibrium(params)
        metrics = _equilibrium_metrics(eq)
        assert set(metrics) == {"equilibrium_density",
                                "equilibrium_sound_speed"}
        for name, metric in metrics.items():
            assert _check_record(name, metric, 1e-10, 1.0)["pass"], name

    def test_perturbed_state_fails(self):
        eq = solve_equilibrium(ModelParams(A_minus=2.0))
        off = dataclasses.replace(eq, rho_bar_plus=eq.rho_bar_plus * 1.001)
        assert _equilibrium_metrics(off)["equilibrium_density"] > 1e-4
        slow = dataclasses.replace(eq, c=eq.c * (1.0 - 1e-6))
        assert _equilibrium_metrics(slow)["equilibrium_sound_speed"] > 1e-7


class TestCertifyAll:
    def test_full_suite(self, tmp_path):
        assert main(["--out", str(tmp_path), "certify-all"]) == 0
        rep = read_json(tmp_path / "certify.json")
        assert rep["schema"] == 1
        assert len(rep["checks"]) >= 20
        assert rep["fail_count"] == 0
        assert rep["pass_count"] == len(rep["checks"])
        for check in rep["checks"]:
            assert {"name", "pass", "metric", "tolerance"} == set(check)


class TestFractionMapRoundtrip:
    """The certify-all recipe stays admissible off the defaults."""

    @pytest.mark.parametrize("params", [
        ModelParams(), ModelParams(A_plus=1000.0),
        ModelParams(A_minus=1000.0), ModelParams(gamma_plus=10.0),
        ModelParams(gamma_minus=10.0)],
        ids=["default", "a_plus_1000", "a_minus_1000", "gamma_plus_10",
             "gamma_minus_10"])
    def test_recipe_within_tolerance(self, params):
        eq = solve_equilibrium(params)
        assert _fraction_map_roundtrip(eq) <= 1e-10

    @pytest.mark.parametrize("error", [AdmissibilityError,
                                       ConvergenceError])
    def test_model_errors_exit_2(self, monkeypatch, tmp_path, capsys,
                                 error):
        def fail(args):
            raise error("state left the model")

        monkeypatch.setitem(cli._COMMANDS, "equilibrium", fail)
        assert main(["--out", str(tmp_path), "equilibrium"]) == 2
        err = capsys.readouterr().err
        assert err == "error: state left the model\n"

    def test_vacuum_in_simulate_exits_2(self, tmp_path, capsys):
        # a pulse this strong empties a cell within the first step
        assert main(["--out", str(tmp_path), "simulate", "--grid", "16",
                     "--box", "16", "--eps", "5", "--t-final", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
