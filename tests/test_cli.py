"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import twofluid
from twofluid import cli, greens, sim, waveconv
from twofluid.cli import (_check_record, _equilibrium_metrics,
                          _fraction_map_roundtrip, main)
from twofluid.model import (_CONFIG_KEYS, AdmissibilityError,
                            ConvergenceError, ModelParams, solve_equilibrium)


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


def write_csv_rows(rows: list[dict], header: list[str], path) -> None:
    """The CSV writer of row dicts that cli._write_csv replaced, verbatim:
    its oracle."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


class TestWriteCsv:
    def test_same_bytes_as_the_row_writer(self, tmp_path):
        # more rows than one chunk; round-off edge floats, Python and numpy
        # ints, and strings, one of them quoted
        n = 2 * cli.CSV_CHUNK + 3
        table = {"x": np.resize([math.nan, -0.0, 1e-320, 1e300, 0.1], n),
                 "i": list(range(-3, n - 3)),
                 "flag": np.resize([0, 1], n),
                 "band": np.resize(["low", "middle", 'a,"b"'], n)}
        rows = [dict(zip(table, values)) for values in zip(
            table["x"].tolist(), table["i"], table["flag"].tolist(),
            table["band"].tolist())]
        cli._write_csv(table, tmp_path / "table.csv")
        write_csv_rows(rows, list(table), tmp_path / "rows.csv")
        assert (tmp_path / "table.csv").read_bytes() \
            == (tmp_path / "rows.csv").read_bytes()


SCIPY_PROBE = """
import json, os, sys
import twofluid.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules(),
          "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
# with an output directory, run the subcommands too
commands = ((["spectrum", "--n-k", "50"], ["convolve", "--case", "K4"],
             ["simulate", "--grid", "8"]) if len(sys.argv) > 1 else ())
for argv in commands:
    rc = twofluid.cli.main(["--out", sys.argv[1]] + argv)
    loaded[argv[0]] = scipy_modules() if rc == 0 else f"exit {rc}"
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("module", [sim, waveconv, cli],
                         ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []


def test_cli_path_loads_no_scipy(tmp_path):
    # importing scipy costs a CLI process about 0.7 s of CPU; only expm on
    # ill-conditioned modes loads it.  The package defaults OpenBLAS to one
    # thread and keeps a value the user set.
    src = os.path.dirname(os.path.dirname(os.path.abspath(twofluid.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == {"import": [], "blas_threads": "1", "spectrum": [],
                      "convolve": [], "simulate": []}
    env["OPENBLAS_NUM_THREADS"] = "2"
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == {"import": [], "blas_threads": "2"}


@pytest.mark.parametrize("cfg", ["mu_plus = 1e50", "sigma_plus = 1e50"])
def test_round_off_overflow_is_one_error_line(cfg, tmp_path):
    # at mu_plus = 1e50 round-off gives the slow branches a growth
    # e^(lambda t) beyond the float range, and at sigma_plus = 1e50 the
    # squarings of expm overflow; numpy must not warn before the error line
    params = tmp_path / "params.cfg"
    params.write_text(cfg + "\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(twofluid.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "twofluid.cli", "--params",
                          str(params), "--out", str(tmp_path), "greens",
                          "--entry", "2,2"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


# files whose equilibrium the pressure-matching solve once refused: roots
# near 1e5 and 1e25 and pressure laws that overflow at the start rho+ = 2
NEWLY_SOLVED = ["gamma_minus = 100", "a_minus = 1e10", "a_plus = 1e-50",
                "a_minus = 1e50", "gamma_plus = 1e5", "gamma_minus = 1e5"]


@pytest.mark.parametrize("cfg", NEWLY_SOLVED)
def test_newly_solved_files_end_in_an_exit_code(cfg, tmp_path, capsys):
    params = tmp_path / "params.cfg"
    params.write_text(cfg + "\n")
    # greens refuses c t beyond the 600 its grids resolve (c >= 87), or,
    # at a_plus = 1e-50, a projector series that misses the exact
    # projectors at k = ETA1/2 by a relative 7; simulate and certify-all
    # stop at the pre-wrap horizon or at an unresolved middle-band gap;
    # c ~ 1.4 at a_plus = 1e-50 keeps its simulate run inside the
    # horizon; at c >= 1.4e5 convolve accepts 5.9 % (a_minus = 1e10) to
    # 12.8 % (a_minus = 1e50) of its quadrature panels at the depth cap,
    # an unresolved value
    runs = [(["equilibrium"], 0), (["spectrum"], 0), (["greens"], 2),
            (["simulate", "--grid", "8", "--box", "16", "--t-final", "1"],
             0 if cfg == "a_plus = 1e-50" else 2),
            (["certify-all"], 2),
            (["convolve", "--case", "K1"],
             0 if cfg in ("gamma_minus = 100", "a_plus = 1e-50") else 2)]
    for argv, expected in runs:
        # a numpy warning would be a second stderr line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--params", str(params), "--out", str(tmp_path),
                         *argv])
        assert code == expected, argv
        assert len(capsys.readouterr().err.splitlines()) <= 1, argv


# each field of a parameter file at 1e-300, 1e-50, 1e50 and 1e300 (gamma at
# 1.0000001 in place of the small values, since it must exceed 1), and an
# underflowing C2
EXTREME = list(dict.fromkeys(
    f"{key} = {1.0000001 if key.startswith('gamma') and v < 1.0 else v!r}"
    for key in _CONFIG_KEYS for v in (1e-300, 1e-50, 1e50, 1e300)))
EXTREME.append("a_plus = 1e-300\na_minus = 1e-300\ngamma_minus = 2.6")
# the files certify-all runs on too: 0.0 to 1.6 s of CPU each
CERTIFY_EXTREME = {"mu_plus = 1e-50", "sigma_minus = 1e-300",
                   "gamma_plus = 1.0000001", "mu_plus = 1e+50"}


@pytest.mark.parametrize("cfg", EXTREME, ids=lambda c: c.replace("\n", ", "))
def test_extreme_files_end_in_an_exit_code(cfg, tmp_path, capsys):
    params = tmp_path / "params.cfg"
    params.write_text(cfg + "\n")
    runs = [["equilibrium"], ["spectrum", "--n-k", "50"],
            ["simulate", "--grid", "8", "--box", "16", "--t-final", "1"],
            ["greens", "--t-list", "2"], ["convolve", "--case", "K1"]]
    if cfg in CERTIFY_EXTREME:
        runs.append(["certify-all"])
    for argv in runs:
        # a numpy warning would be a second stderr line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--params", str(params), "--out", str(tmp_path),
                         *argv])
        assert code in (0, 1, 2), argv
        assert len(capsys.readouterr().err.splitlines()) <= 1, argv


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
    # numpy's allocation error without the cap (745 GiB asked)
    ["spectrum", "--n-k", "100000000000"],
    ["spectrum", "--k-min", "0"],
    ["spectrum", "--k-min", "-1"],
    ["spectrum", "--k-min", "nan"],
    ["spectrum", "--k-max", "inf"],
    ["spectrum", "--k-max", "-5"],
    # every coefficient of the quartic underflows
    ["spectrum", "--k-min", "1e-200"],
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
    # the first radius puts k r at the band edge below greens.KR_MIN, where
    # the Riesz factors lose digits near the origin
    ["greens", "--t-list", "1e-7"],
    ["greens", "--t-list", "2,1e-5"],
    ["greens", "--t-list", "1e-320"],
    ["greens", "--r-max-factor", "1e-300"],
    ["simulate", "--grid", "0", "--box", "16"],
    ["simulate", "--grid", "3", "--box", "16"],
    # numpy's allocation error without the cap (7.1 PiB asked)
    ["simulate", "--grid", "100000"],
    ["simulate", "--grid", "8", "--box", "nan"],
    ["simulate", "--grid", "8", "--box", "inf"],
    ["simulate", "--grid", "8", "--box", "-16"],
    ["simulate", "--grid", "8", "--box", "16", "--eps", "nan"],
    ["simulate", "--grid", "8", "--box", "16", "--eps", "inf"],
    ["simulate", "--grid", "8", "--box", "16", "--t-final", "-1"],
    ["simulate", "--grid", "8", "--box", "16", "--t-final", "0"],
    ["simulate", "--grid", "8", "--box", "16", "--t-final", "nan"],
    ["simulate", "--grid", "8", "--box", "1e300", "--t-final", "1"],
    ["simulate", "--grid", "8", "--box", "9", "--eps", "1e300",
     "--t-final", "0.1"],
    ["simulate", "--grid", "8", "--box", "8", "--t-final", "0.1"],
    ["simulate", "--grid", "8", "--box", "4", "--t-final", "0.1"],
    # parameter files: non-finite fields, overflowing derived coefficients
    # and quartic roots that overflow on the k range
    ["--params", "@lambda_plus=inf", "spectrum"],
    ["--params", "@mu_plus=inf", "spectrum"],
    ["--params", "@sigma_plus=inf", "spectrum"],
    ["--params", "@lambda_plus=nan", "equilibrium"],
    ["--params", "@mu_plus=1e300", "equilibrium"],
    ["--params", "@lambda_minus=1e300", "equilibrium"],
    ["--params", "@gamma_plus=1e30", "equilibrium"],
    ["--params", "@sigma_minus=1e300", "spectrum"],
    ["--params", "@mu_plus=1e100", "spectrum"],
    ["spectrum", "--k-min", "1e150", "--k-max", "1e151"],
    # every middle-band mode fails the eigenvector test, and round-off
    # gives the slow branches a growth beyond exp's range
    ["--params", "@sigma_minus=1e100", "greens", "--entry", "2,2"],
    # the projectors' k-series misses the exact projectors at k = ETA1/2
    # by a relative 7: the low band is not asymptotic
    ["--params", "@a_plus=1e-50", "greens"],
    # c = 87: the default --t-list and the envelope grid reach c t beyond
    # the 600 the grids resolve
    ["--params", "@gamma_minus=100", "greens"],
    # c = 87 runs the simulator stage past its pre-wrap horizon
    ["--params", "@gamma_plus=100", "certify-all"],
    # the middle band's largest Re lambda is within the round-off of A(k)
    ["--params", "@mu_plus=1e50", "certify-all"],
    # C2 = s+^2 s-^2 / (...) underflows to zero
    ["--params", "@a_plus=1e-300;a_minus=1e-300;gamma_minus=2.6",
     "equilibrium"],
    # rho_bar+ - 1 ~ 1e-25 is below float spacing: rho_bar- is not
    # representable
    ["--params", "@a_plus=1e50", "equilibrium"],
]

# sigma_plus = sigma_minus = 1 makes the diffusive-pair discriminant negative
COMPLEX_PAIR = "sigma_plus = 1.0\nsigma_minus = 1.0\n"


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_is_a_usage_error(argv, tmp_path, capsys):
    # "@key=value;key=value" names a parameter file of one line per pair
    cfg = tmp_path / "params.cfg"
    for a in argv:
        if a.startswith("@"):
            cfg.write_text(a[1:].replace("=", " = ").replace(";", "\n")
                           + "\n")
    argv = [str(cfg) if a.startswith("@") else a for a in argv]
    assert main(["--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "kernel.csv").exists()
    for path in tmp_path.glob("*.json"):
        read_strict_json(path)


def test_complex_pair_runs_end_in_exit_0(tmp_path, capsys):
    # disc < 0: the complex diffusive pair's projector series is
    # conjugate, so its kernels and metrics are finite
    cfg = tmp_path / "complex_pair.cfg"
    cfg.write_text(COMPLEX_PAIR)
    for argv, out in ((["greens", "--entry", "1,2"], "envelope.json"),
                      (["greens", "--entry", "2,2"], "envelope.json"),
                      (["certify-all"], "certify.json")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--params", str(cfg), "--out", str(tmp_path),
                         *argv]) == 0, argv
        assert capsys.readouterr().err == ""
        rep = read_strict_json(tmp_path / out)
        if out == "envelope.json":
            assert rep["pass"] is True
        else:
            assert rep["fail_count"] == 0
        if argv[0] == "greens":
            rows = read_csv(tmp_path / "kernel.csv")
            assert all(math.isfinite(float(r["value"])) for r in rows)


def test_default_json_outputs_are_strict(tmp_path):
    for argv in (["equilibrium"], ["spectrum"], ["greens"], ["convolve"],
                 ["simulate"], ["certify-all"]):
        assert main(["--out", str(tmp_path), *argv]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in written] == [
        "certify.json", "convolve.json", "envelope.json", "equilibrium.json"]
    for path in written:
        read_strict_json(path)
    # the exact record schemas
    env = read_json(tmp_path / "envelope.json")
    assert set(env) == {"schema", "entry", "region", "C_est", "trend_ratio",
                        "growth_slope", "pass", "grid"}
    assert set(env["region"]) == {"core", "front", "elsewhere"}
    # the default times reach c t = 200: 32 nodes per middle panel
    assert env["grid"] == {"low": [64, 32], "mid": [256, 32], "ct_max": 200.0}
    conv = read_json(tmp_path / "convolve.json")
    assert set(conv) == {"schema", "case", "samples", "c_est_by_region",
                         "trend_ratio", "pass", "quadrature"}
    for sample in conv["samples"]:
        assert set(sample) == {"r", "t", "region", "lhs", "bound", "ratio"}
    assert set(conv["quadrature"]) == {"panels", "depth_cap_hits",
                                       "depth_cap_share"}
    cert = read_json(tmp_path / "certify.json")
    assert set(cert) == {"schema", "checks", "pass_count", "fail_count"}
    for check in cert["checks"]:
        assert set(check) == {"name", "pass", "metric", "tolerance"}


@pytest.mark.parametrize("argv,out", [
    (["greens", "--entry", "2,2"], "envelope.json"),
    (["convolve", "--case", "K4"], "convolve.json")])
def test_tol_scale_moves_the_trend_bound(argv, out, tmp_path):
    # a record passes when trend_ratio <= 2 tol_scale
    assert main(["--out", str(tmp_path), *argv]) == 0
    trend = read_json(tmp_path / out)["trend_ratio"]
    for scale, code in ((0.9 * trend / 2.0, 1), (1.1 * trend / 2.0, 0)):
        assert main(["--tol-scale", repr(scale), "--out", str(tmp_path),
                     *argv]) == code, scale
        rep = read_json(tmp_path / out)
        assert rep["pass"] is (code == 0)
        assert rep["trend_ratio"] == trend


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

    def test_t_300_runs_the_64_node_grid(self, tmp_path):
        # c t = 600: the grid and values of the library's default
        # reconstructor, bit for bit
        assert main(["--out", str(tmp_path), "greens", "--t-list",
                     "300"]) == 0
        eq = solve_equilibrium(ModelParams())
        recon = greens.GreenReconstructor(eq)
        want = greens.kernel_table(recon, 1, 2, [300.0])
        got = read_csv(tmp_path / "kernel.csv")
        assert {name: [float(row[name]) for row in got] for name in got[0]} \
            == {name: col.tolist() for name, col in want.items()}
        rep = read_json(tmp_path / "envelope.json")
        assert rep["grid"] == {"low": [64, 32], "mid": [256, 64],
                               "ct_max": 600.0}
        want = greens.verify_entry_envelope(
            recon, 1, 2, greens.default_envelopes(1, 2, eq.c), n_t=8, nr=128)
        assert {k: v for k, v in rep.items() if k != "pass"} == want

    @pytest.mark.parametrize("argv", [["--t-list", "1e-7"],
                                      ["--r-max-factor", "1e-300"]])
    def test_near_origin_radii_name_the_options(self, argv, tmp_path,
                                                capsys):
        assert main(["--out", str(tmp_path), "greens", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --t-list/--r-max-factor: first radius")
        assert not list(tmp_path.iterdir())


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
            "l2_mp", "l2_mm", "l2_combo", "ring_r", "momentum_x",
            "momentum_y", "momentum_z"]
        final, L, t = sim.load_state(str(tmp_path / "state.bin"))
        assert final.shape == (8, 16, 16, 16)
        assert L == 16.0 and t == pytest.approx(2.0)

    def test_diagnostics_csv_is_the_simulator_table(self, tmp_path):
        assert main(["--out", str(tmp_path), "simulate", "--mode", "linear",
                     "--grid", "16", "--box", "16", "--t-final", "2"]) == 0
        table, final = sim.run_simulation(
            solve_equilibrium(ModelParams()), mode="linear", n=16, L=16.0,
            t_final=2.0)
        rows = read_csv(tmp_path / "diagnostics.csv")
        assert list(rows[0]) == list(table)
        for key, col in table.items():
            assert [float(row[key]) for row in rows] == col.tolist()
        dumped, _, t = sim.load_state(str(tmp_path / "state.bin"))
        assert np.array_equal(dumped, final) and t == table["t"][-1]

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
        names = {check["name"] for check in rep["checks"]}
        assert {"log_obstruction_correlation",
                "log_obstruction_refined_saturates",
                "riesz_potential_stable"} <= names


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
        def fail(args, eq):
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
