"""Output checks for one CLI invocation of a benchmark iteration.

Each subcommand's outputs are reduced to a summary of named values.  The
same summaries, taken once at the reference commit for every invocation a
run can make (each ``--eps`` a seed can draw included), are stored in
``reference.json``; a later run must reproduce them within the tolerances
below.  Simulator runs are also held to the acceptance gate's own bounds
(mass and momentum drift, Huygens ring).
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# relative tolerances, as the ROADMAP states them for the certificates
ENVELOPE_TOL = 1e-8         # envelope trend_ratio and growth_slope
CONVOLUTION_TOL = 1e-6      # convolution ratios
SPECTRUM_TOL = 1e-8         # eigenvalues, relative to the row's largest
KERNEL_TOL = 1e-8           # kernel values, relative to the slice's largest
LINEAR_TOL = 1e-8           # simulator L2 norms, exactly linear flow
# simulator L2 norms, nonlinear flow: the nonlinear part moves the norms over
# eps by 6e-5 (eps = 5e-4) to 2e-4 (eps = 2e-3) of their size, so a dropped
# or halved nonlinear term misses this by a factor of 25 or more
NONLINEAR_TOL = 1e-6
# acceptance-gate bounds (tests/test_acceptance.py::test_nonlinear_simulator)
MASS_DRIFT = 1e-12
MOMENTUM_DRIFT = 1e-10
SPECTRUM_STRIDE = 20
KERNEL_STRIDE = 16


def command_key(argv: list) -> str:
    """Reference key of a CLI invocation."""
    return " ".join(argv)


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _flag(argv: list, name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def summarize(argv: list, outdir: str) -> dict:
    """Named values of one invocation's outputs (see the module docstring)."""
    cmd = argv[0]
    if cmd == "equilibrium":
        with open(os.path.join(outdir, "equilibrium.json")) as fh:
            rep = json.load(fh)
        return {"c": rep["c"], "rho_bar_plus": rep["rho_bar_plus"]}
    if cmd == "spectrum":
        rows = _read_csv(os.path.join(outdir, "spectrum.csv"))
        cols = [f"{p}_lambda{i}" for p in ("re", "im") for i in range(1, 5)]
        return {"rows": len(rows),
                "sampled": [[float(r[c]) for c in cols] + [r["band"],
                                                           r["degenerate"]]
                            for r in rows[::SPECTRUM_STRIDE]]}
    if cmd == "greens":
        with open(os.path.join(outdir, "envelope.json")) as fh:
            env = json.load(fh)
        rows = _read_csv(os.path.join(outdir, "kernel.csv"))
        scale: dict = {}
        for r in rows:
            scale[r["t"]] = max(scale.get(r["t"], 0.0), abs(float(r["value"])))
        times = sorted(scale, key=float)
        # sampled values as [index of the row's t-slice, value]
        return {"pass": env["pass"], "trend_ratio": env["trend_ratio"],
                "growth_slope": env["growth_slope"], "rows": len(rows),
                "kernel_scale": [scale[t] for t in times],
                "kernel_sampled": [[times.index(r["t"]), float(r["value"])]
                                   for r in rows[::KERNEL_STRIDE]]}
    if cmd == "convolve":
        with open(os.path.join(outdir, "convolve.json")) as fh:
            rep = json.load(fh)
        return {"pass": rep["pass"], "trend_ratio": rep["trend_ratio"],
                "ratios": [s["ratio"] for s in rep["samples"]],
                "regions": [s["region"] for s in rep["samples"]]}
    if cmd == "simulate":
        eps = float(_flag(argv, "--eps", "1e-3"))
        rows = [{k: float(v) for k, v in r.items()}
                for r in _read_csv(os.path.join(outdir, "diagnostics.csv"))]
        with open(os.path.join(outdir, "state.bin"), "rb") as fh:
            magic = fh.read(8)
            n, L, t = struct.unpack("<3d", fh.read(24))
        size = os.path.getsize(os.path.join(outdir, "state.bin"))
        first, last = rows[0], rows[-1]
        return {
            "rows": len(rows),
            "t_final": last["t"],
            "ring_r": last["ring_r"],
            "mass_drift": max(abs(r["mass_p"] - first["mass_p"])
                              + abs(r["mass_m"] - first["mass_m"])
                              for r in rows) / (eps * (2 * L) ** 3),
            "momentum_drift": max(abs(r["momentum"] - first["momentum"])
                                  for r in rows)
            / (first["l2_mp"] * (2 * L) ** 1.5),
            "l2_over_eps": [last[k] / eps for k in
                            ("l2_np", "l2_nm", "l2_mp", "l2_mm", "l2_combo")],
            "state_header": [magic.decode("latin-1"), n, L, t],
            "state_bytes": size,
        }
    raise ValueError(f"no output check for subcommand {cmd!r}")


def _close(got: float, want: float, rel: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= rel * max(abs(want), scale)


def compare(argv: list, got: dict, ref: dict) -> list[str]:
    """Names of the failed checks of one invocation (empty when all pass)."""
    cmd = argv[0]
    fails = []

    def need(name: str, ok: bool):
        if not ok:
            fails.append(f"{cmd}.{name}")

    if cmd == "spectrum":
        need("rows", got["rows"] == ref["rows"])
        for g, w in zip(got["sampled"], ref["sampled"]):
            row_scale = max(abs(v) for v in w[:8])
            need("eigenvalues", all(_close(a, b, SPECTRUM_TOL, row_scale)
                                    for a, b in zip(g[:8], w[:8])))
            need("band_labels", g[8:] == w[8:])
    elif cmd == "greens":
        need("pass", got["pass"] is True)
        for key in ("trend_ratio", "growth_slope"):
            need(key, _close(got[key], ref[key], ENVELOPE_TOL))
        need("rows", got["rows"] == ref["rows"])
        scales = ref["kernel_scale"]
        need("kernel_scale", len(got["kernel_scale"]) == len(scales) and
             all(_close(a, b, KERNEL_TOL)
                 for a, b in zip(got["kernel_scale"], scales)))
        need("kernel_values",
             len(got["kernel_sampled"]) == len(ref["kernel_sampled"]) and
             all(g[0] == w[0] and
                 _close(g[1], w[1], KERNEL_TOL, scales[w[0]])
                 for g, w in zip(got["kernel_sampled"],
                                 ref["kernel_sampled"])))
    elif cmd == "convolve":
        need("pass", got["pass"] is True)
        need("trend_ratio", _close(got["trend_ratio"], ref["trend_ratio"],
                                   CONVOLUTION_TOL))
        need("regions", got["regions"] == ref["regions"])
        need("sample_ratios", len(got["ratios"]) == len(ref["ratios"]) and
             all(_close(a, b, CONVOLUTION_TOL)
                 for a, b in zip(got["ratios"], ref["ratios"])))
    elif cmd == "simulate":
        nonlinear = _flag(argv, "--mode", "nonlinear") == "nonlinear"
        n = int(_flag(argv, "--grid", "48"))
        L = float(_flag(argv, "--box", "64"))
        t = got["t_final"]
        need("rows", got["rows"] == ref["rows"])
        need("t_final", _close(t, ref["t_final"], 1e-12))
        need("mass_conservation", got["mass_drift"] < MASS_DRIFT)
        need("momentum_conservation", got["momentum_drift"] < MOMENTUM_DRIFT)
        need("huygens_ring_radius",
             abs(got["ring_r"] - ref["c"] * t) <= math.sqrt(1.0 + t))
        rel = NONLINEAR_TOL if nonlinear else LINEAR_TOL
        need("l2_norms", all(_close(a, b, rel) for a, b in
                             zip(got["l2_over_eps"], ref["l2_over_eps"])))
        need("state_header", got["state_header"][:3] == ["TFSIM001", n, L]
             and _close(got["state_header"][3], t, 1e-12))
        need("state_bytes", got["state_bytes"] == 32 + 64 * n ** 3)
    return fails


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check(argv: list, outdir: str, reference: dict) -> list[str]:
    """Failed check names for one invocation's output directory."""
    key = command_key(argv)
    if key not in reference:
        return [f"{argv[0]}.no_reference"]
    try:
        got = summarize(argv, outdir)
    except (OSError, KeyError, ValueError, IndexError, struct.error) as exc:
        return [f"{argv[0]}.unreadable_output({type(exc).__name__})"]
    return compare(argv, got, reference[key])
