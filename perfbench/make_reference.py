"""Write reference.json: the output summaries of every workload invocation.

    python3 perfbench/make_reference.py

Runs every invocation a workload can make (each ``--eps`` a seed can draw)
once and stores ``checks.summarize`` of its outputs under
``checks.command_key``.  The
stored file was made at the commit that introduced the benchmark; remaking it
on a later commit would accept whatever that commit outputs.
"""

import json
import os
import shutil
import sys
import tempfile

import checks
import run
import tracer


def main() -> int:
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    reference = {}
    try:
        runner = run.Run(workdir, {}, tracer.now() + 900.0)

        def outputs(argv):
            outdir = os.path.join(workdir, f"out{runner.serial + 1}")
            _, code, _, text = runner.child(["--out", outdir, *argv], False)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}:\n{text}")
            return checks.summarize(argv, outdir)

        c = outputs(["equilibrium"])["c"]
        for cmds in run.WORKLOADS.values():
            for argv in (v for cmd in cmds for v in run.eps_variants(cmd)):
                summary = outputs(argv)
                if argv[0] == "simulate":
                    summary["c"] = c
                reference[checks.command_key(argv)] = summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
