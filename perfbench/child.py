"""One benchmark iteration in a fresh interpreter.

    python3 child.py RESULT_JSON T_SPAWN TRACE [CLI ARGS...]

Imports ``twofluid.cli`` from the checkout's ``src``, then calls
``twofluid.cli.main`` with the CLI arguments (none: import only, to sample
set-up time).  T_SPAWN is the parent's CLOCK_MONOTONIC reading just before
it started this process; CLOCK_MONOTONIC is system-wide on Linux, so the
difference to the reading after the import is the set-up time.  With TRACE
set to 1 the package's public functions are wrapped before ``main`` runs and
the spans are written to RESULT_JSON on exit.

Besides wall times the child reports CPU times (``time.process_time``, all
threads).  On a virtual machine the CPU time excludes the time the host
stole from the guest, which wall time includes.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(result_path: str, t_spawn: float, trace: bool, argv: list) -> int:
    sys.path.insert(0, SRC)
    import twofluid
    import twofluid.cli
    t_ready = _now()
    cpu_ready = time.process_time()
    origin = os.path.dirname(os.path.abspath(twofluid.__file__))
    if origin != os.path.join(SRC, "twofluid"):
        raise ImportError(f"twofluid imported from {origin}, not from {SRC}")
    result = {"setup_s": t_ready - t_spawn, "setup_cpu_s": cpu_ready}
    tracer = None
    if trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    main = twofluid.cli.main
    if tracer is not None:
        main = tracer.span("cli.main", main)
    rc = 0
    if argv:
        t0, c0 = _now(), time.process_time()
        rc = main(argv)
        result["wall_s"] = _now() - t0
        result["cpu_s"] = time.process_time() - c0
    result["rc"] = rc
    if tracer is not None:
        result.update(tracer.dump())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1",
                 sys.argv[4:]))
