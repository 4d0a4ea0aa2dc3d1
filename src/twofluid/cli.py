"""Command-line entry point for the two-fluid verification toolkit.

Subcommands: equilibrium, spectrum, greens, convolve, simulate, certify-all.
Exit codes: 0 all checks pass, 1 a verification failed, 2 usage or
configuration error, a state outside the model's admissible range or a
solve that did not converge, or a result that is not finite (nothing is
written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import greens, sim, spectral, waveconv
from .model import (AdmissibilityError, ConvergenceError, ModelParams,
                    ParameterError, equilibrium_report, load_params,
                    pressure_law, solve_equilibrium, solve_fraction_map,
                    wave_speed_alt)

__all__ = ["main"]


# the largest growth a certificate's empirical constant may show: the
# trend_ratio of an envelope or convolution record, the max/min ratio of
# the Riesz constants
RATIO_MAX = 2.0
# the most wavenumbers a spectrum sweep takes: its peak grows by about
# 0.6 KiB per k (a fresh process peaks at 150 MiB at 1e5), so 373 MiB here
N_K_MAX = 500_000
# rows per csv.writer call: a chunk's Python objects stay small
CSV_CHUNK = 4096
# every envelope check's (times, radii) grid; 256 radii would reject G12 on
# G22's pair but move the benchmark's greens --entry 2,2 (FOUND:, ROADMAP S9)
ENVELOPE_GRID = dict(n_t=8, nr=128)


class UsageError(Exception):
    """A command-line value the subcommand rejects, or a result that is not
    finite and so has no strict JSON form; main exits 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twofluid",
        allow_abbrev=False,
        description="Verification toolkit and desk-scale simulator for the "
                    "compressible two-fluid model.")
    parser.add_argument("--params", metavar="PATH",
                        help="key = value parameter file")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        metavar="FLOAT",
                        help="multiply the upper-bound tolerances of the "
                             "pass/fail checks")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("equilibrium", help="solve and report the background state")

    p = sub.add_parser("spectrum", help="eigenvalue sweep CSV")
    p.add_argument("--k-min", type=float, default=1e-3)
    p.add_argument("--k-max", type=float, default=100.0)
    p.add_argument("--n-k", type=int, default=400)

    p = sub.add_parser("greens", help="kernel values and envelope report")
    p.add_argument("--entry", default="1,2", metavar="I,J")
    p.add_argument("--t-list", default="2,10,50", metavar="T1,T2,...")
    p.add_argument("--r-max-factor", type=float,
                   default=greens.R_MAX_FACTOR, metavar="F",
                   help="radii up to F c t, 0 < F <= "
                        f"{greens.R_MAX_FACTOR:g}")

    p = sub.add_parser("convolve", help="certify one convolution case")
    p.add_argument("--case", default="K4",
                   help="case name from the registry, e.g. K4")
    p.add_argument("--t", default="4,16,64", metavar="T1,T2,...")

    p = sub.add_parser("simulate", help="evolve the system on a periodic box")
    p.add_argument("--mode", choices=("linear", "nonlinear"),
                   default="nonlinear")
    p.add_argument("--grid", type=int, default=48)
    p.add_argument("--box", type=float, default=64.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=None)

    sub.add_parser("certify-all", help="run the reduced certification suite")
    return parser


def _write_json(payload: dict, path: str) -> None:
    """Write payload and the output schema version, "schema": 1, as strict
    JSON; a NaN or infinite value writes nothing."""
    try:
        text = json.dumps({"schema": 1, **payload}, indent=2, sort_keys=True,
                          allow_nan=False)
    except ValueError:
        raise UsageError(f"{path}: a computed value is not finite; "
                         "nothing written") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _check_finite(table: dict, path: str) -> None:
    """Refuse a table with a value that is not finite: nothing written."""
    if not all(np.isfinite(col).all() for col in table.values()):
        raise UsageError(f"{path}: a computed value is not finite; "
                         "nothing written")


def _write_csv(table: dict, path: str) -> None:
    """Write a table, an insertion-ordered dict from column name to a 1-D
    column, as CSV: the keys are the header, and each column's .tolist()
    gives its values, CSV_CHUNK rows at a time."""
    cols = [np.asarray(col) for col in table.values()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table)
        for start in range(0, len(cols[0]), CSV_CHUNK):
            writer.writerows(zip(*(col[start:start + CSV_CHUNK].tolist()
                                   for col in cols)))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_equilibrium(args, eq) -> int:
    _write_json(equilibrium_report(eq),
                os.path.join(args.out, "equilibrium.json"))
    return 0


def _cmd_spectrum(args, eq) -> int:
    if not 1 <= args.n_k <= N_K_MAX:
        raise UsageError(f"--n-k must lie in [1, {N_K_MAX}]")
    if not all(math.isfinite(k) and k > 0.0
               for k in (args.k_min, args.k_max)):
        raise UsageError("--k-min and --k-max must be finite and positive")
    # every coefficient c_j of the characteristic quartic grows with k, and
    # so does the Fujiwara bound 2 max |c_j|^(1/(4-j)) on its roots; the
    # roots' Newton polish evaluates terms up to the bound's fourth power
    coeffs = spectral.char_poly_coeffs(args.k_max, eq)
    bound = 2.0 * max(abs(c) ** (1.0 / m)
                      for c, m in zip(coeffs, (1, 2, 3, 4)))
    if not math.isfinite(bound * bound * bound * bound):
        raise UsageError(f"--k-max {args.k_max:g}: the characteristic "
                         "quartic's roots overflow at these parameters")
    # and falls with k: a subnormal or zero c_j at k_min has lost its digits
    if min(spectral.char_poly_coeffs(args.k_min, eq)) < np.finfo(float).tiny:
        raise UsageError(f"--k-min {args.k_min:g}: the characteristic "
                         "quartic's coefficients underflow at these "
                         "parameters")
    ks = np.logspace(math.log10(args.k_min), math.log10(args.k_max),
                     args.n_k)
    _write_csv(spectral.spectrum_table(eq, ks),
               os.path.join(args.out, "spectrum.csv"))
    return 0


def _cmd_greens(args, eq) -> int:
    try:
        i, j = (int(s) for s in args.entry.split(","))
        t_list = [float(s) for s in args.t_list.split(",")]
    except ValueError:
        raise UsageError("--entry expects I,J and --t-list floats") from None
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise UsageError(f"--entry {i},{j} out of range; I and J run from "
                         "1 to 4")
    if not 0.0 < args.r_max_factor <= greens.R_MAX_FACTOR:
        raise UsageError("--r-max-factor must lie in "
                         f"(0, {greens.R_MAX_FACTOR:g}]")
    # both stages run before anything is written, on a middle grid sized
    # for the largest c t either evaluates; the reconstructor refuses a c t
    # beyond every grid, entry_profile any other time out of range
    recon = greens.GreenReconstructor(
        eq, ct_max=eq.c * max(t_list + [greens.T_ENVELOPE]))
    try:
        table = greens.kernel_table(recon, i, j, t_list,
                                    r_max_factor=args.r_max_factor)
    except ParameterError:
        raise
    except ValueError as exc:
        raise UsageError(f"--t-list/--r-max-factor: {exc}") from None
    report = greens.verify_entry_envelope(
        recon, i, j, greens.default_envelopes(i, j, eq.c), **ENVELOPE_GRID)
    path = os.path.join(args.out, "kernel.csv")
    _check_finite(table, path)
    _write_csv(table, path)
    report["pass"] = _check_record("envelope", report["trend_ratio"],
                                   RATIO_MAX, args.tol_scale)["pass"]
    _write_json(report, os.path.join(args.out, "envelope.json"))
    return 0 if report["pass"] else 1


def _cmd_convolve(args, eq) -> int:
    cases = waveconv.make_cases(eq.c)
    if args.case not in cases:
        raise UsageError(f"unknown case {args.case!r}; choose from "
                         f"{sorted(cases)}")
    try:
        t_list = tuple(float(s) for s in args.t.split(","))
    except ValueError:
        raise UsageError("--t expects comma-separated floats") from None
    try:
        report = waveconv.verify_case(cases[args.case], t_list=t_list)
    except ParameterError:
        raise
    except ValueError as exc:
        raise UsageError(f"--t: {exc}") from None
    report["pass"] = _check_record("convolution", report["trend_ratio"],
                                   RATIO_MAX, args.tol_scale)["pass"]
    _write_json(report, os.path.join(args.out, "convolve.json"))
    return 0 if report["pass"] else 1


def _cmd_simulate(args, eq) -> int:
    try:
        table, final = sim.run_simulation(
            eq, mode=args.mode, n=args.grid, L=args.box, eps=args.eps,
            t_final=args.t_final)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # finite diagnostics, the L2 norms among them, imply a finite state
    path = os.path.join(args.out, "diagnostics.csv")
    _check_finite(table, path)
    _write_csv(table, path)
    sim.dump_state(final, args.box, table["t"][-1],
                   os.path.join(args.out, "state.bin"))
    return 0


# ---------------------------------------------------------------------------
# reduced certification suite

def _check_record(name: str, metric: float, tol: float, tol_scale: float,
                  invert: bool = False) -> dict:
    """One {name, pass, metric, tolerance} check record.

    A check passes when metric <= tol * tol_scale.  An inverted check is a
    negative control that must exceed tol; tol_scale does not move its
    threshold, so loosening the tolerances cannot make it harder to trip.
    """
    if invert:
        ok = metric > tol
    else:
        tol = tol * tol_scale
        ok = metric <= tol
    return {"name": name, "pass": bool(ok), "metric": float(metric),
            "tolerance": float(tol)}


def _equilibrium_metrics(eq) -> dict:
    """Relative residuals of the background state's defining equations.

    Pressure balance P+(rho+) = P-(rho-) with the fractions summing to one,
    and c against the independent wave_speed_alt; valid for any parameters.
    """
    p = eq.params
    P_p = pressure_law(eq.rho_bar_plus, p.A_plus, p.gamma_plus)
    P_m = pressure_law(eq.rho_bar_minus, p.A_minus, p.gamma_minus)
    frac = eq.alpha_bar_plus + eq.alpha_bar_minus - 1.0
    return {"equilibrium_density": max(abs(P_p - P_m) / max(P_p, P_m),
                                       abs(frac)),
            "equilibrium_sound_speed": abs(eq.c - wave_speed_alt(eq)) / eq.c}


def _fraction_map_roundtrip(eq) -> float:
    """Relative error of solve_fraction_map at an off-equilibrium admissible
    state, so Newton has to move.

    The state has rho+ = 1.1^e rho_bar+ with e = min(1, gamma-/gamma+), its
    pressure partner rho- <= 1.1 rho_bar-, and alpha+ shifted by a share of
    the smaller fraction.  Both fractions stay positive and R+- inside
    |R - 1| <= 0.5 for every admissible parameter file; at equal gammas
    rho+- = 1.1 rho_bar+-.
    """
    params = eq.params
    rho_p = 1.1 ** min(1.0, params.gamma_minus / params.gamma_plus) \
        * eq.rho_bar_plus
    rho_m = (pressure_law(rho_p, params.A_plus, params.gamma_plus)
             / params.A_minus) ** (1.0 / params.gamma_minus)
    alpha_p = eq.alpha_bar_plus + 0.04 * min(eq.alpha_bar_plus,
                                             eq.alpha_bar_minus)
    rp, rm, _, _ = solve_fraction_map(alpha_p * rho_p,
                                      (1.0 - alpha_p) * rho_m, eq)
    return max(abs(rp - rho_p) / rho_p, abs(rm - rho_m) / rho_m)


def _certification_checks(eq, tol_scale: float = 1.0):
    """The {name, pass, metric, tolerance} check records of the state eq."""
    checks = []

    def add(name: str, metric: float, tol: float, invert: bool = False):
        checks.append(_check_record(name, metric, tol, tol_scale, invert))

    # background state
    for name, metric in _equilibrium_metrics(eq).items():
        add(name, metric, 1e-10)
    eq_asym = solve_equilibrium(ModelParams(A_minus=2.0))
    add("equilibrium_asymmetric",
        abs(eq_asym.rho_bar_plus - (1.0 + math.sqrt(2.0))), 1e-10)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        e = solve_equilibrium(ModelParams(
            A_plus=float(rng.uniform(0.5, 2.0)),
            A_minus=float(rng.uniform(0.5, 2.0)),
            gamma_plus=float(rng.uniform(1.2, 3.0)),
            gamma_minus=float(rng.uniform(1.2, 3.0))))
        worst = max(worst, abs(e.beta1 * e.beta4 - e.beta2 ** 2))
    add("beta_product_identity", worst, 1e-13)
    add("fraction_map_roundtrip", _fraction_map_roundtrip(eq), 1e-10)

    # spectrum
    lam = spectral.branches(1e-3, eq)[0]
    ref = spectral.low_freq_expansion(1e-3, eq)
    add("low_freq_expansion", float(np.abs(lam - ref).max()), 1e-8)
    gap = spectral.mid_band_gap(eq)
    add("mid_band_gap_positive", gap, 0.0, invert=True)
    add("high_freq_roots",
        float(max(spectral.high_freq_rel_err(50.0, eq).max(),
                  spectral.high_freq_rel_err(100.0, eq).max())), 0.05)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        k = float(rng.uniform(1e-3, 20.0))
        t = float(rng.uniform(0.1, 10.0))
        S = spectral.decompose_symbol(np.array([k]), eq).semigroup
        a, b = S(t)[0], S(t / 2)[0]
        worst = max(worst, float(np.abs(a - b @ b).max()))
    add("semigroup_dual_path", worst, 1e-8)
    add("singular_combination_cancels",
        spectral.singular_combination_residual(eq), 1e-6)

    # Green's function
    P0, _ = spectral.leading_projectors(eq)
    add("leading_matrices_sum_to_identity",
        float(np.abs(P0.sum(axis=0) - np.eye(4)).max()), 1e-12)
    # both reconstructors serve only the envelope grid's times
    recon = greens.GreenReconstructor(eq, ct_max=greens.T_ENVELOPE * eq.c)
    rep = greens.verify_entry_envelope(
        recon, 1, 2, greens.default_envelopes(1, 2, eq.c), **ENVELOPE_GRID)
    add("envelope_G12_riesz", rep["trend_ratio"], RATIO_MAX)
    rep = greens.verify_entry_envelope(
        recon, 2, 2, greens.default_envelopes(2, 2, eq.c), **ENVELOPE_GRID)
    add("envelope_G22", rep["trend_ratio"], RATIO_MAX)
    asym = solve_equilibrium(
        ModelParams(A_minus=2.0, mu_minus=0.7, sigma_plus=0.02))
    recon_a = greens.GreenReconstructor(asym,
                                        ct_max=greens.T_ENVELOPE * asym.c)
    rep = greens.verify_cancellation(recon_a)
    add("cancellation_combo", rep["trend_ratio"], RATIO_MAX)
    rep = greens.verify_cancellation(recon_a, swap_weights=True)
    add("cancellation_swapped_fails", rep["trend_ratio"], RATIO_MAX,
        invert=True)

    # convolution suite (fast members)
    cases = waveconv.make_cases(eq.c)
    for name in ("I1", "I2", "K1", "K4"):
        rep = waveconv.verify_case(cases[name])
        add(f"convolution_{name}", rep["trend_ratio"], RATIO_MAX)
    rep = waveconv.verify_case(waveconv.false_case(eq.c))
    add("convolution_false_case_fails", rep["trend_ratio"], RATIO_MAX,
        invert=True)
    table = waveconv.log_obstruction([64.0 * 4 ** k for k in range(6)],
                                     c=eq.c)
    add("log_obstruction_correlation", table["correlation"], 0.99,
        invert=True)
    # the refined source's increments per quadrupling of t collapse
    add("log_obstruction_refined_saturates", table["refined_saturation"],
        0.6)
    rp = waveconv.riesz_potential_check(
        waveconv.WavePattern("D", a=0.0, p=2.0), [1.0, 4.0, 16.0, 64.0, 256.0])
    add("riesz_potential_stable", rp["ratio"], RATIO_MAX)
    rs = np.linspace(1e-4, 8.0, 120)
    got = waveconv.riesz_gradient(lambda s: np.exp(-s * s), rs)
    erf = np.array([math.erf(r) for r in rs])
    exact = (math.sqrt(math.pi) / 4.0 * erf
             - 0.5 * rs * np.exp(-rs ** 2)) / rs ** 2
    add("riesz_gradient_gaussian", float(np.abs(got - exact).max()), 1e-8)
    add("double_riesz_stable",
        greens.double_riesz_check([1.0, 10.0, 100.0])["ratio"], RATIO_MAX)

    # simulator
    slopes = sim.decay_slope_table(eq)
    add("decay_slope_density", abs(slopes["n_p"] + 0.25), 0.05)
    add("decay_slope_momentum", abs(slopes["m_p"] + 0.75), 0.05)
    add("decay_slope_combination", abs(slopes["combo"] + 0.75), 0.05)
    try:
        run, _ = sim.run_simulation(eq, mode="nonlinear", n=24, L=24.0,
                                    eps=1e-3, t_final=6.0)
        lin, _ = sim.run_simulation(eq, mode="linear", n=32, L=64.0,
                                    eps=1e-3, t_final=8.0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    scale = 1e-3 * (2 * 24.0) ** 3
    mass_p, mass_m = run["mass_p"], run["mass_m"]
    drift = np.max(np.abs(mass_p - mass_p[0]) + np.abs(mass_m - mass_m[0]))
    add("mass_conservation", drift / scale, 1e-12)
    mscale = max(run["l2_mp"][0] * (2 * 24.0) ** 1.5, 1e-30)
    momentum = np.stack([run[f"momentum_{x}"] for x in "xyz"], axis=1)
    drift = np.abs(momentum - momentum[0]).max()
    add("momentum_conservation", drift / mscale, 1e-10)
    t = lin["t"][-1]
    add("huygens_ring_radius", abs(lin["ring_r"][-1] - eq.c * t),
        math.sqrt(1.0 + t))
    return checks


def _cmd_certify_all(args, eq) -> int:
    checks = _certification_checks(eq, tol_scale=args.tol_scale)
    payload = {
        "checks": checks,
        "pass_count": sum(c["pass"] for c in checks),
        "fail_count": sum(not c["pass"] for c in checks),
    }
    _write_json(payload, os.path.join(args.out, "certify.json"))
    return 0 if payload["fail_count"] == 0 else 1


_COMMANDS = {
    "equilibrium": _cmd_equilibrium,
    "spectrum": _cmd_spectrum,
    "greens": _cmd_greens,
    "convolve": _cmd_convolve,
    "simulate": _cmd_simulate,
    "certify-all": _cmd_certify_all,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if not (math.isfinite(args.tol_scale) and args.tol_scale > 0.0):
            raise UsageError("--tol-scale must be finite and positive")
        os.makedirs(args.out, exist_ok=True)
        # the command's one background state; solve_equilibrium validates
        eq = solve_equilibrium(load_params(args.params) if args.params
                               else ModelParams())
        return _COMMANDS[args.command](args, eq)
    except (UsageError, ParameterError, AdmissibilityError,
            ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
