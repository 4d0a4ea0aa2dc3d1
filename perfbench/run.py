"""Benchmark of the twofluid command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every iteration runs the workload's CLI
invocations, each in a fresh interpreter that imports ``twofluid.cli`` from
``src/`` and calls ``main`` (see child.py), and checks every output against
``reference.json`` (see checks.py).  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs one untraced and two traced
iterations and prints the per-layer metrics (see tracer.py).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  README.md says why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402

SIM_N48 = ["simulate", "--mode", "nonlinear", "--grid", "48", "--box", "64",
           "--t-final", "8"]
SIM_N96 = ["simulate", "--mode", "linear", "--grid", "96", "--box", "64",
           "--t-final", "8"]


# workload -> the CLI invocations of one iteration, all with default
# parameters
WORKLOADS = {
    "certificates": [["spectrum"], ["greens", "--entry", "2,2"],
                     ["convolve", "--case", "K4"]],
    "nonlinear-n48": [SIM_N48],
    "linear-n96": [SIM_N96],
}
# The simulator's perturbation amplitude changes no work it does, so the
# seed draws it.  It is drawn from a fixed set because the nonlinear flow's
# outputs depend on it beyond first order: reference.json holds the outputs
# for each value, which lets the check see the nonlinear term.
EPS_CHOICES = ("0.0005", "0.001", "0.0015", "0.002")


def eps_variants(cmd: list) -> list:
    """Every invocation a run can make of a workload command."""
    if cmd[0] != "simulate":
        return [cmd]
    return [cmd + ["--eps", eps] for eps in EPS_CHOICES]


def invocations(workload: str, rng: random.Random) -> list:
    return [rng.choice(eps_variants(cmd)) for cmd in WORKLOADS[workload]]

SETUP_PROBES = 3            # import-only children per untraced run
TRACED_ITERATIONS = 2       # the exact counts must repeat across these
RUN_DEADLINE_S = 170.0      # the whole run ends within 180 s
POLL_S = 0.02


class Run:
    """Spawns the iteration children of one benchmark run."""

    def __init__(self, workdir: str, reference: dict, deadline: float):
        self.workdir = workdir
        self.reference = reference
        self.deadline = deadline
        self.serial = 0

    def child(self, argv: list, trace: bool):
        """(result dict or None, exit code, peak RSS MiB, console output)."""
        self.serial += 1
        tag = os.path.join(self.workdir, f"child{self.serial}")
        with open(tag + ".log", "wb") as log:
            t_spawn = tracer.now()
            proc = subprocess.Popen(
                [sys.executable, CHILD, tag + ".json", repr(t_spawn),
                 "1" if trace else "0", *argv],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if tracer.now() > self.deadline:
                        proc.kill()
                        pid, status, usage = os.wait4(proc.pid, 0)
                        break
                    time.sleep(POLL_S)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                proc.returncode = -1   # reaped above; stop Popen waiting
        code = os.waitstatus_to_exitcode(status)
        with open(tag + ".log", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        result = None
        if os.path.exists(tag + ".json"):
            with open(tag + ".json", encoding="utf-8") as fh:
                result = json.load(fh)
        return result, code, usage.ru_maxrss / 1024.0, text

    def probe(self) -> dict | None:
        """Set-up times of one import-only child, or None if it failed."""
        result, code, _, _ = self.child([], trace=False)
        return result if code == 0 and result else None

    def iteration(self, commands: list, trace: bool) -> dict:
        it = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mib": 0.0, "setups": [],
              "fails": [], "output_bytes": 0, "spans": [], "counts": {},
              "errors": {}, "absent": set()}
        t0 = tracer.now()
        for j, cmd in enumerate(commands):
            outdir = os.path.join(self.workdir, f"out{self.serial + 1}")
            result, code, rss, text = self.child(["--out", outdir, *cmd],
                                                  trace)
            it["rss_mib"] = max(it["rss_mib"], rss)
            fails = []
            if "Traceback (most recent call last)" in text:
                fails.append(f"{cmd[0]}.traceback")
            if code != 0:
                fails.append(f"{cmd[0]}.exit_code={code}")
            if result is None:
                fails.append(f"{cmd[0]}.no_result")
            else:
                it["setups"].append(result)
                it["wall_s"] += result.get("wall_s", 0.0)
                it["cpu_s"] += result.get("cpu_s", 0.0)
                if code == 0:
                    fails += checks.check(cmd, outdir, self.reference)
                if trace:
                    self._merge_trace(it, result, offset=(j + 1) * 10**9)
            it["fails"] += fails
            for path in glob.glob(os.path.join(outdir, "*")):
                it["output_bytes"] += os.path.getsize(path)
            shutil.rmtree(outdir, ignore_errors=True)
        it["elapsed_s"] = tracer.now() - t0
        return it

    @staticmethod
    def _merge_trace(it: dict, result: dict, offset: int) -> None:
        # span ids are per process; shift them apart before merging
        for s in result["spans"]:
            s = list(s)
            s[tracer.ID] += offset
            if s[tracer.PARENT] is not None:
                s[tracer.PARENT] += offset
            it["spans"].append(tuple(s))
        for key in ("counts", "errors"):
            for k, v in result[key].items():
                it[key][k] = it[key].get(k, 0) + v
        it["absent"].update(result["absent"])


def _source_facts() -> dict:
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    return {"commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest(), "src_lines": lines}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _machine() -> dict:
    import numpy
    import scipy
    cpu = [ln.split(":", 1)[1].strip() for ln in
           _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")]
    mem = [ln.split()[1] for ln in _read("/proc/meminfo").splitlines()
           if ln.startswith("MemTotal:")]
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu[0] if cpu else platform.processor(),
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .strip() or "unknown",
        "ram_mib": int(mem[0]) // 1024 if mem else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS") if k in os.environ},
    }


def _cpu_ticks():
    """(stolen, total) CPU ticks of the machine so far, from /proc/stat."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    if len(fields) < 9:
        return None
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7], sum(ticks)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _trace_overhead(untraced: dict, traced: list) -> dict:
    """Traced minus untraced iteration time.  The CPU-time difference is the
    one to read: wall time also carries the host's steal, which can be
    larger than the overhead.  Either is one untraced sample against the
    median of the traced ones, so it is only a rough figure."""
    out = {key: _median([it[key] for it in traced]) - untraced[key]
           for key in ("cpu_s", "wall_s")}
    out.update(untraced_samples=1, traced_samples=len(traced))
    return out


def _traced_metrics(traced: list) -> tuple[dict, list]:
    """Per-layer metrics (medians over traced iterations) and failed
    self-checks."""
    per_it = [tracer.layer_metrics(it["spans"], it["counts"], it["errors"])
              for it in traced]
    metrics = {name: _median([m[name] for m in per_it]) for name in per_it[0]}
    for name in tracer.EXACT_COUNTS:
        metrics[name] = per_it[0][name]
    metrics["cli.output_mib"] = _median([it["output_bytes"] / 2**20
                                         for it in traced])
    fails = [f"trace.counts_repeat({name})" for name in tracer.EXACT_COUNTS
             if len({m[name] for m in per_it}) != 1]
    return metrics, fails


def _span_table(traced: list) -> list[str]:
    it = traced[0]
    own = tracer.self_times(it["spans"])
    rows: dict = {}
    for s in it["spans"]:
        r = rows.setdefault(s[tracer.NAME], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s[tracer.END] - s[tracer.START]
        r[2] += own[s[tracer.ID]]
    lines = [f"{'span':34s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}"]
    for name, (n, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:34s} {n:7d} {tot:9.3f} {slf:9.3f}")
    for name, n in sorted(it["counts"].items()):
        lines.append(f"{name:34s} {n:7d} {'(count)':>9s}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = tracer.now()

    if not os.path.isfile(os.path.join(SRC, "twofluid", "cli.py")):
        print(f"error: no twofluid package under {SRC}", file=sys.stderr)
        return 2
    commands = invocations(args.workload, random.Random(args.seed))
    reference = checks.load_reference()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(workdir, reference, t_start + RUN_DEADLINE_S)
        first = run.probe()
        if first is None:
            print("error: twofluid.cli does not import from src/",
                  file=sys.stderr)
            return 2
        setups = [first]
        iterations = []
        ticks0 = _cpu_ticks()
        if args.trace:
            untraced = run.iteration(commands, trace=False)
            traced = [run.iteration(commands, trace=True)
                      for _ in range(TRACED_ITERATIONS)]
            iterations = [untraced] + traced
            metrics, self_fails = _traced_metrics(traced)
        else:
            setups += [s for s in (run.probe() for _ in
                                   range(SETUP_PROBES - 1)) if s is not None]
            t_measure = tracer.now()
            while True:
                iterations.append(run.iteration(commands, trace=False))
                elapsed = tracer.now() - t_measure
                per_it = _median([it["elapsed_s"] for it in iterations])
                if elapsed + per_it > args.seconds:
                    break
            self_fails = []
        ticks1 = _cpu_ticks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for it in iterations if it["fails"])
    for k, it in enumerate(iterations):
        if it["fails"]:
            print(f"iteration {k} FAILED: {', '.join(it['fails'])}")
    for name in self_fails:
        print(f"self-check FAILED: {name}")
    record = {"workload": args.workload, "seed": args.seed,
              "commands": [" ".join(c) for c in commands],
              "free_inputs": ("--eps drawn from the seed"
                              if any("--eps" in c for c in commands) else
                              "none: these subcommands take no input that "
                              "leaves the work unchanged"),
              "trace": args.trace, "iterations": len(iterations),
              "failed_ratio": failed / len(iterations),
              # host steal during the run: it inflates wall times only
              "steal_share": (tracer.ratio(ticks1[0] - ticks0[0],
                                           ticks1[1] - ticks0[1])
                              if ticks0 and ticks1 else None),
              **_source_facts(), "machine": _machine()}
    if args.trace:
        record["trace_overhead"] = _trace_overhead(untraced, traced)
        print("trace_overhead = " + json.dumps(record["trace_overhead"]))
        record["absent_targets"] = sorted(set().union(
            *(it["absent"] for it in traced)))
        for line in _span_table(traced):
            print(line)
        out = {k: {"value": v, "unit": tracer.unit(k)}
               for k, v in metrics.items()}
    else:
        setups += [s for it in iterations for s in it["setups"]]
        samples = {"wall_s": [it["wall_s"] for it in iterations],
                   "cpu_s": [it["cpu_s"] for it in iterations],
                   "setup_s": [s["setup_cpu_s"] for s in setups],
                   "setup_wall_s": [s["setup_s"] for s in setups]}
        record["samples"] = samples
        for name in ("wall_s", "setup_wall_s"):
            print(f"{name} = {_median(samples[name]):.6g} s")
        out = {
            "cpu_s": {"value": _median(samples["cpu_s"]), "unit": "s"},
            "peak_rss_mib": {"value": max(it["rss_mib"] for it in iterations),
                             "unit": "MiB"},
            "setup_s": {"value": _median(samples["setup_s"]), "unit": "s"},
        }
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {record['failed_ratio']:.6g} "
          f"({failed} of {len(iterations)} iterations)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not self_fails,
                      "attempted": len(iterations), "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
