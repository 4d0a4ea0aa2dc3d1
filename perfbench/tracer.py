"""Span tracer that wraps twofluid's public functions from outside the package.

Targets are named by dotted path at each import site (``twofluid.sim.
semigroup_batch`` as well as ``twofluid.spectral.semigroup_batch``), because a
function imported with ``from x import f`` is a separate binding that patching
``x.f`` does not reach.  A target that no longer exists is reported as absent
and never fails the run, so the benchmark keeps working across refactors that
rename or delete functions.

Spans are kept in memory as tuples and written out by the caller when the
process exits.  The analysis half of this module (``self_times``,
``layer_metrics``) is pure Python over span tuples so that it can be unit
tested on synthetic spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time

# span tuple layout
ID, NAME, START, END, PARENT, THREAD, EXTRA = range(7)

_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
              "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _modes(args, kwargs, result):
    ks = args[0] if args else kwargs.get("ks")
    return int(getattr(ks, "size", None) or len(ks))


def _fft_bytes(args, kwargs, result):
    a = args[0] if args else kwargs.get("a")
    return int(getattr(a, "nbytes", 0) + getattr(result, "nbytes", 0))


# (dotted import site, span name, kind, extra measure).  "span" records a
# timed span; "count" only counts calls, for functions called tens of
# thousands of times per iteration where a span would distort the timing.
TARGETS = [
    ("twofluid.cli.solve_equilibrium", "model.solve_equilibrium", "span", None),
    ("twofluid.model.solve_equilibrium", "model.solve_equilibrium", "span",
     None),
    ("twofluid.cli.solve_fraction_map", "model.solve_fraction_map", "span",
     None),
    ("twofluid.sim.solve_fraction_map", "model.solve_fraction_map", "span",
     None),
    ("twofluid.model.solve_fraction_map", "model.solve_fraction_map", "span",
     None),
    ("twofluid.spectral.semigroup_batch", "spectral.semigroup_batch", "span",
     _modes),
    ("twofluid.sim.semigroup_batch", "spectral.semigroup_batch", "span",
     _modes),
    ("twofluid.spectral.eigen_branches", "spectral.eigen_branches", "span",
     None),
    ("scipy.linalg.expm", "scipy.linalg.expm", "span", None),
    ("twofluid.greens.GreenReconstructor.entry_values", "greens.entry_values",
     "span", None),
    ("twofluid.greens.GreenReconstructor.mid_semigroup",
     "greens.mid_semigroup", "span", None),
    ("twofluid.greens.verify_entry_envelope", "greens.verify_entry_envelope",
     "span", None),
    ("twofluid.waveconv.verify_case", "waveconv.verify_case", "span", None),
    ("twofluid.waveconv.eval_spacetime_conv", "waveconv.eval_spacetime_conv",
     "span", None),
    ("twofluid.waveconv.angular_reduce", "waveconv.angular_reduce", "count",
     None),
    ("twofluid.waveconv.adaptive_quad", "waveconv.adaptive_quad", "count",
     None),
    ("twofluid.sim.run_simulation", "sim.run_simulation", "span", None),
    ("twofluid.sim.step", "sim.step", "span", None),
    ("twofluid.sim.nonlinear_rhs", "sim.nonlinear_rhs", "span", None),
    ("twofluid.sim.diagnostics", "sim.diagnostics", "span", None),
    ("twofluid.sim.dump_state", "sim.dump_state", "span", None),
] + [(f"numpy.fft.{fn}", "fft", "span", _fft_bytes) for fn in _FFT_NAMES]


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def resolve(dotted: str):
    """(owner, attribute) for a dotted name, or None when any part is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Records spans and call counts for the wrapped targets of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        # per-thread call counts: each thread writes only its own dict, so
        # counting needs no lock, which the pool threads of verify_case
        # would otherwise contend for tens of thousands of times
        # per iteration
        self._counts: dict[int, dict[str, int]] = {}
        self.errors: dict[str, int] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _parent(self, stack: list[int]):
        # a span opened on a pool thread with nothing open on that thread
        # belongs to whatever the main thread has open (the span that
        # submitted the work and is waiting on it)
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def _error(self, name: str) -> None:
        module = name.split(".")[0]
        with self._lock:
            self.errors[module] = self.errors.get(module, 0) + 1

    def span(self, name: str, fn, measure=None):
        """Wrap fn so each call records (id, name, start, end, parent,
        thread, extra)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            sid = next(self._ids)
            parent = self._parent(stack)
            stack.append(sid)
            start = now()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                self._error(name)
                raise
            finally:
                end = now()
                stack.pop()
                if measure is not None and result is not None:
                    extra = measure(args, kwargs, result)
                self.spans.append((sid, name, start, end, parent, tid, extra))
        return wrapper

    @property
    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for per_thread in list(self._counts.values()):
            for name, n in per_thread.items():
                total[name] = total.get(name, 0) + n
        return total

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mine = self._counts.setdefault(threading.get_ident(), {})
            mine[name] = mine.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._error(name)
                raise
        return wrapper

    def install(self, targets=TARGETS) -> None:
        for dotted, name, kind, measure in targets:
            site = resolve(dotted)
            if site is None:
                self.absent.append(dotted)
                continue
            owner, attr = site
            fn = getattr(owner, attr)
            if not callable(fn):
                self.absent.append(dotted)
                continue
            wrapped = (self.span(name, fn, measure) if kind == "span"
                       else self.counter(name, fn))
            setattr(owner, attr, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "errors": self.errors, "absent": self.absent}


# ---------------------------------------------------------------------------
# analysis

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; children on different
    threads may overlap each other and are counted once where they do.
    """
    children: dict = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        kids = [(max(c[START], lo), min(c[END], hi))
                for c in children.get(s[ID], ())]
        covered = _union_length([(a, b) for a, b in kids if b > a])
        out[s[ID]] = (hi - lo) - covered
    return out


def _ancestor_names(spans) -> dict:
    """Span id -> set of names of all its ancestors."""
    by_id = {s[ID]: s for s in spans}
    memo: dict = {}

    def names(sid):
        if sid is None:
            return frozenset()
        if sid not in memo:
            s = by_id.get(sid)
            memo[sid] = (frozenset() if s is None
                         else names(s[PARENT]) | {s[NAME]})
        return memo[sid]

    return {s[ID]: names(s[PARENT]) for s in spans}


def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


MODULES = ("cli", "model", "spectral", "greens", "waveconv", "sim")


def layer_metrics(spans, counts, errors) -> dict:
    """Per-layer metrics of one iteration (all the spans of its processes)."""
    own = self_times(spans)
    anc = _ancestor_names(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return float(sum(own[s[ID]] for s in by_name.get(name, ())))

    def durs(name):
        return [s[END] - s[START] for s in by_name.get(name, ())]

    def under(name, prefix):
        return [s for s in by_name.get(name, ())
                if any(a.startswith(prefix) for a in anc[s[ID]])]

    m = {}
    m["cli.main.self_s"] = self_s("cli.main")
    for fn in ("solve_fraction_map", "solve_equilibrium"):
        m[f"model.{fn}.calls"] = calls(f"model.{fn}")
        m[f"model.{fn}.self_s"] = self_s(f"model.{fn}")
    sb = "spectral.semigroup_batch"
    m[f"{sb}.calls"] = calls(sb)
    m[f"{sb}.modes"] = int(sum(s[EXTRA] or 0 for s in by_name.get(sb, ())))
    m[f"{sb}.p50_s"] = _pct(durs(sb), 0.5)
    m[f"{sb}.self_s"] = self_s(sb)
    m["spectral.expm_fallbacks"] = len(under("scipy.linalg.expm",
                                             "spectral."))
    m["spectral.eigen_branches.calls"] = calls("spectral.eigen_branches")
    m["spectral.eigen_branches.self_s"] = self_s("spectral.eigen_branches")

    m["greens.entry_values.calls"] = calls("greens.entry_values")
    m["greens.entry_values.p50_s"] = _pct(durs("greens.entry_values"), 0.5)
    m["greens.entry_values.self_s"] = self_s("greens.entry_values")
    m["greens.verify_entry_envelope.self_s"] = \
        self_s("greens.verify_entry_envelope")
    mid = calls("greens.mid_semigroup")
    misses = len(under(sb, "greens.mid_semigroup"))
    m["greens.mid_semigroup.hit_ratio"] = ratio(mid - misses, mid)

    ev = "waveconv.eval_spacetime_conv"
    m[f"{ev}.calls"] = calls(ev)
    m[f"{ev}.p50_s"] = _pct(durs(ev), 0.5)
    m[f"{ev}.p90_s"] = _pct(durs(ev), 0.9)
    m["waveconv.angular_reduce.per_point"] = ratio(
        counts.get("waveconv.angular_reduce", 0), calls(ev))
    m["waveconv.adaptive_quad.calls"] = counts.get("waveconv.adaptive_quad",
                                                   0)
    busy = sum(s[END] - s[START] for s in under(ev, "waveconv.verify_case"))
    m["waveconv.verify_case.busy_over_wall"] = ratio(
        busy, sum(durs("waveconv.verify_case")))

    m["sim.step.calls"] = calls("sim.step")
    m["sim.step.p50_s"] = _pct(durs("sim.step"), 0.5)
    m["sim.nonlinear_rhs.calls"] = calls("sim.nonlinear_rhs")
    m["sim.nonlinear_rhs.p50_s"] = _pct(durs("sim.nonlinear_rhs"), 0.5)
    m["sim.nonlinear_rhs.self_s"] = self_s("sim.nonlinear_rhs")
    sim_fft = under("fft", "sim.")
    m["sim.fft.per_rhs"] = ratio(len(under("fft", "sim.nonlinear_rhs")),
                                  calls("sim.nonlinear_rhs"))
    m["sim.fft.per_step"] = ratio(len(under("fft", "sim.step")),
                                   calls("sim.step"))
    m["sim.fft.self_share"] = ratio(
        sum(own[s[ID]] for s in sim_fft),
        sum(s[END] - s[START] for s in spans
            if s[NAME].startswith("sim.")
            and not any(a.startswith("sim.") for a in anc[s[ID]])))
    m["sim.fft.mib_computed"] = sum(s[EXTRA] or 0 for s in sim_fft) / 2**20
    m["sim.dump_state.self_s"] = self_s("sim.dump_state")
    m["sim.diagnostics.self_s"] = self_s("sim.diagnostics")
    for mod in MODULES:
        m[f"{mod}.errors"] = errors.get(mod, 0)
    return m


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib") or metric.endswith(".mib_computed"):
        return "MiB"
    if metric.rsplit(".", 1)[-1] in ("hit_ratio", "self_share",
                                     "busy_over_wall"):
        return "ratio"
    if ".per_" in metric:
        return "count/call"
    return "count"


# metrics that count work exactly; they must repeat across iterations
EXACT_COUNTS = ("sim.fft.per_rhs", "sim.fft.per_step", "sim.step.calls",
                "sim.nonlinear_rhs.calls", "spectral.semigroup_batch.calls",
                "spectral.semigroup_batch.modes", "greens.entry_values.calls",
                "waveconv.eval_spacetime_conv.calls",
                "waveconv.adaptive_quad.calls", "spectral.expm_fallbacks")
