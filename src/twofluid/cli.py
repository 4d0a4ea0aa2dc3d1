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
                    validate_params, wave_speed_alt)

__all__ = ["main"]


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


def _load(args) -> ModelParams:
    if args.params:
        return load_params(args.params)
    return validate_params(ModelParams())


def _write_json(payload: dict, path: str) -> None:
    """Write payload as strict JSON; a NaN or infinite value writes nothing."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise UsageError(f"{path}: a computed value is not finite; "
                         "nothing written") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_csv(rows: list[dict], header: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_equilibrium(args) -> int:
    eq = solve_equilibrium(_load(args))
    report = equilibrium_report(eq)
    report["schema"] = 1
    _write_json(report, os.path.join(args.out, "equilibrium.json"))
    return 0


def _cmd_spectrum(args) -> int:
    if args.n_k < 1:
        raise UsageError("--n-k must be at least 1")
    if not all(math.isfinite(k) and k > 0.0
               for k in (args.k_min, args.k_max)):
        raise UsageError("--k-min and --k-max must be finite and positive")
    eq = solve_equilibrium(_load(args))
    ks = np.logspace(math.log10(args.k_min), math.log10(args.k_max),
                     args.n_k)
    rows = spectral.spectrum_rows(eq, ks)
    header = (["k"] + [f"re_lambda{i}" for i in range(1, 5)]
              + [f"im_lambda{i}" for i in range(1, 5)]
              + ["band", "degenerate"]
              + [f"expansion_err{i}" for i in range(1, 5)])
    _write_csv(rows, header, os.path.join(args.out, "spectrum.csv"))
    return 0


def _default_envelopes(i: int, j: int, eq) -> list[waveconv.WavePattern]:
    """Riesz-IV entries get the slow R4 term; the rest the generic pair."""
    slow = {(1, 2), (3, 2), (1, 4), (3, 4)}
    env_h = waveconv.WavePattern("H", a=2.0, p=2.0, speed=eq.c)
    if (i, j) in slow:
        return [waveconv.WavePattern("R4"), env_h]
    return [waveconv.WavePattern("D", a=1.5, p=1.5), env_h]


def _cmd_greens(args) -> int:
    eq = solve_equilibrium(_load(args))
    try:
        i, j = (int(s) for s in args.entry.split(","))
        t_list = [float(s) for s in args.t_list.split(",")]
    except ValueError:
        raise UsageError("--entry expects I,J and --t-list floats") from None
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise UsageError(f"--entry {i},{j} out of range; I and J run from "
                         "1 to 4")
    # NaN fails the comparison too
    if not all(0.0 < t <= greens.T_MAX for t in t_list):
        raise UsageError(f"--t-list times must lie in (0, {greens.T_MAX:g}]")
    if not 0.0 < args.r_max_factor <= greens.R_MAX_FACTOR:
        raise UsageError("--r-max-factor must lie in "
                         f"(0, {greens.R_MAX_FACTOR:g}]")
    recon = greens.GreenReconstructor(eq)
    rows = greens.kernel_csv_rows(recon, i, j, t_list,
                                  r_max_factor=args.r_max_factor)
    path = os.path.join(args.out, "kernel.csv")
    if not all(math.isfinite(r["value"]) for r in rows):
        raise UsageError(f"{path}: a computed value is not finite; "
                         "nothing written")
    _write_csv(rows, ["r", "t", "value"], path)
    report = greens.verify_entry_envelope(
        recon, i, j, _default_envelopes(i, j, eq), n_t=8, nr=128)
    payload = report.to_json()
    payload["pass"] = bool(report.trend_ratio <= 2.0 * args.tol_scale)
    _write_json(payload, os.path.join(args.out, "envelope.json"))
    return 0 if payload["pass"] else 1


def _cmd_convolve(args) -> int:
    eq = solve_equilibrium(_load(args))
    cases = waveconv.make_cases(eq.c)
    if args.case not in cases:
        raise UsageError(f"unknown case {args.case!r}; choose from "
                         f"{sorted(cases)}")
    try:
        t_list = tuple(float(s) for s in args.t.split(","))
    except ValueError:
        raise UsageError("--t expects comma-separated floats") from None
    # NaN fails the comparison too
    if not all(0.0 < t <= waveconv.T_MAX for t in t_list):
        raise UsageError(f"--t times must lie in (0, {waveconv.T_MAX:g}]")
    try:
        report = waveconv.verify_case(cases[args.case], t_list=t_list)
    except ValueError as exc:
        raise UsageError(f"--t: {exc}") from None
    payload = report.to_json()
    payload["pass"] = bool(report.trend_ratio <= 2.0 * args.tol_scale)
    _write_json(payload, os.path.join(args.out, "convolve.json"))
    return 0 if payload["pass"] else 1


def _cmd_simulate(args) -> int:
    eq = solve_equilibrium(_load(args))
    try:
        rows, final = sim.run_simulation(
            eq, mode=args.mode, n=args.grid, L=args.box, eps=args.eps,
            t_final=args.t_final)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_rows = [{
        "t": d.t, "mass_p": d.mass_p, "mass_m": d.mass_m,
        "momentum": d.momentum_norm,
        "l2_np": d.l2["n_p"], "l2_nm": d.l2["n_m"],
        "l2_mp": d.l2["m_p"], "l2_mm": d.l2["m_m"],
        "l2_combo": d.l2["combo"], "ring_r": d.ring_r,
    } for d in rows]
    header = ["t", "mass_p", "mass_m", "momentum", "l2_np", "l2_nm",
              "l2_mp", "l2_mm", "l2_combo", "ring_r"]
    _write_csv(out_rows, header, os.path.join(args.out, "diagnostics.csv"))
    sim.dump_state(final, os.path.join(args.out, "state.bin"))
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
                                      (1.0 - alpha_p) * rho_m, params, eq=eq)
    return max(abs(rp - rho_p) / rho_p, abs(rm - rho_m) / rho_m)


def _certification_checks(params: ModelParams, tol_scale: float = 1.0):
    """Build the list of {name, pass, metric, tolerance} check records."""
    eq = solve_equilibrium(params)
    checks = []

    def add(name: str, metric: float, tol: float, invert: bool = False):
        checks.append(_check_record(name, metric, tol, tol_scale, invert))

    # background state
    for name, metric in _equilibrium_metrics(eq).items():
        add(name, metric, 1e-10)
    eq_asym = solve_equilibrium(
        validate_params(ModelParams(A_minus=2.0)))
    add("equilibrium_asymmetric",
        abs(eq_asym.rho_bar_plus - (1.0 + math.sqrt(2.0))), 1e-10)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        p = validate_params(ModelParams(
            A_plus=float(rng.uniform(0.5, 2.0)),
            A_minus=float(rng.uniform(0.5, 2.0)),
            gamma_plus=float(rng.uniform(1.2, 3.0)),
            gamma_minus=float(rng.uniform(1.2, 3.0))))
        e = solve_equilibrium(p)
        worst = max(worst, abs(e.beta1 * e.beta4 - e.beta2 ** 2))
    add("beta_product_identity", worst, 1e-13)
    add("fraction_map_roundtrip", _fraction_map_roundtrip(eq), 1e-10)

    # spectrum
    lam = spectral.eigen_branches(1e-3, eq).lambdas
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
        a = spectral.semigroup(k, t, eq)
        b = spectral.semigroup(k, t / 2, eq) @ spectral.semigroup(k, t / 2,
                                                                  eq)
        worst = max(worst, float(np.abs(a - b).max()))
    add("semigroup_dual_path", worst, 1e-8)
    add("singular_combination_cancels",
        spectral.singular_combination_residual(eq, 1e-4), 1e-6)

    # Green's function
    MP, _, M3r, _, M4r, _ = greens.coefficient_matrices(eq)
    add("leading_matrices_sum_to_identity",
        float(np.abs(MP + M3r + M4r - np.eye(4)).max()), 1e-12)
    recon = greens.GreenReconstructor(eq)
    env_kwargs = dict(n_t=8, nr=128)
    rep = greens.verify_entry_envelope(
        recon, 1, 2, _default_envelopes(1, 2, eq), **env_kwargs)
    add("envelope_G12_riesz", rep.trend_ratio, 2.0)
    rep = greens.verify_entry_envelope(
        recon, 2, 2, _default_envelopes(2, 2, eq), **env_kwargs)
    add("envelope_G22", rep.trend_ratio, 2.0)
    asym = solve_equilibrium(validate_params(
        ModelParams(A_minus=2.0, mu_minus=0.7, sigma_plus=0.02)))
    recon_a = greens.GreenReconstructor(asym)
    rep = greens.verify_cancellation(recon_a)
    add("cancellation_combo", rep.trend_ratio, 2.0)
    rep = greens.verify_cancellation(recon_a, swap_weights=True)
    add("cancellation_swapped_fails", rep.trend_ratio, 2.0, invert=True)

    # convolution suite (fast members)
    cases = waveconv.make_cases(eq.c)
    for name in ("I1", "I2", "K1", "K4"):
        rep = waveconv.verify_case(cases[name])
        add(f"convolution_{name}", rep.trend_ratio, 2.0)
    rep = waveconv.verify_case(waveconv.false_case(eq.c))
    add("convolution_false_case_fails", rep.trend_ratio, 2.0, invert=True)
    rs = np.linspace(1e-4, 8.0, 120)
    got = waveconv.riesz_gradient(lambda s: np.exp(-s * s), rs)
    erf = np.array([math.erf(r) for r in rs])
    exact = (math.sqrt(math.pi) / 4.0 * erf
             - 0.5 * rs * np.exp(-rs ** 2)) / rs ** 2
    add("riesz_gradient_gaussian", float(np.abs(got - exact).max()), 1e-8)
    dr = greens.double_riesz_check([1.0, 10.0, 100.0])
    add("double_riesz_stable",
        float(np.max(dr["C_by_t"]) / np.min(dr["C_by_t"])), 2.0)

    # simulator
    slopes = sim.decay_slope_table(eq)
    add("decay_slope_density", abs(slopes["n_p"] + 0.25), 0.05)
    add("decay_slope_momentum", abs(slopes["m_p"] + 0.75), 0.05)
    add("decay_slope_combination", abs(slopes["combo"] + 0.75), 0.05)
    rows, _ = sim.run_simulation(eq, mode="nonlinear", n=24, L=24.0,
                                 eps=1e-3, t_final=6.0)
    scale = 1e-3 * (2 * 24.0) ** 3
    drift = max(abs(r.mass_p - rows[0].mass_p)
                + abs(r.mass_m - rows[0].mass_m) for r in rows)
    add("mass_conservation", drift / scale, 1e-12)
    mscale = max(rows[0].l2["m_p"] * (2 * 24.0) ** 1.5, 1e-30)
    drift = max(np.abs(r.momentum - rows[0].momentum).max() for r in rows)
    add("momentum_conservation", drift / mscale, 1e-10)
    lrows, lfinal = sim.run_simulation(eq, mode="linear", n=32, L=64.0,
                                       eps=1e-3, t_final=8.0)
    add("huygens_ring_radius",
        abs(lrows[-1].ring_r - eq.c * lfinal.t),
        math.sqrt(1.0 + lfinal.t))
    return checks


def _cmd_certify_all(args) -> int:
    checks = _certification_checks(_load(args), tol_scale=args.tol_scale)
    payload = {
        "schema": 1,
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
        return _COMMANDS[args.command](args)
    except (UsageError, ParameterError, AdmissibilityError,
            ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
