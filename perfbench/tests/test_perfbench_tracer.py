"""Self-time arithmetic and wrapping of the benchmark tracer.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracer  # noqa: E402

MAIN, POOL1, POOL2 = 1, 2, 3


def span(sid, name, start, end, parent=None, thread=MAIN, extra=None):
    return (sid, name, start, end, parent, thread, extra)


def test_nested_self_time_subtracts_union_of_children():
    spans = [
        span(1, "sim.step", 0.0, 10.0),
        span(2, "sim.nonlinear_rhs", 1.0, 4.0, parent=1),
        span(3, "sim.nonlinear_rhs", 3.0, 6.0, parent=1),
        span(4, "fft", 2.0, 3.0, parent=2),
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)     # children cover [1, 6]
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_overlapping_pool_thread_children_count_once():
    spans = [
        span(1, "waveconv.verify_case", 0.0, 10.0),
        span(2, "waveconv.eval_spacetime_conv", 1.0, 5.0, 1, POOL1),
        span(3, "waveconv.eval_spacetime_conv", 2.0, 7.0, 1, POOL2),
        span(4, "waveconv.eval_spacetime_conv", 5.0, 9.0, 1, POOL1),
        # starts before its parent: only the overlap is subtracted
        span(5, "greens.entry_values", -1.0, 0.5, 1),
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 8.5)     # [0, 0.5] and [1, 9]
    m = tracer.layer_metrics(spans, {}, {})
    assert m["waveconv.verify_case.busy_over_wall"] == pytest.approx(1.3)
    assert m["waveconv.eval_spacetime_conv.calls"] == 3


def test_layer_counts_per_step_and_per_rhs():
    spans = [span(1, "sim.run_simulation", 0.0, 10.0),
             span(2, "sim.step", 0.0, 10.0, 1)]
    sid = 3
    for k in range(2):
        rhs = sid
        spans.append(span(rhs, "sim.nonlinear_rhs", 1.0 + 4 * k,
                          4.0 + 4 * k, 2))
        sid += 1
        for f in range(3):
            spans.append(span(sid, "fft", 1.5 + 4 * k + 0.5 * f,
                              1.75 + 4 * k + 0.5 * f, rhs, extra=2**20))
            sid += 1
    spans.append(span(sid, "fft", 9.0, 9.5, 2, extra=2**20))
    m = tracer.layer_metrics(spans, {}, {"sim": 1})
    assert m["sim.fft.per_rhs"] == 3
    assert m["sim.fft.per_step"] == 7
    assert m["sim.fft.mib_computed"] == pytest.approx(7.0)
    assert m["sim.fft.self_share"] == pytest.approx((6 * 0.25 + 0.5) / 10.0)
    assert m["sim.nonlinear_rhs.self_s"] == pytest.approx(2 * (3.0 - 0.75))
    assert m["sim.errors"] == 1


def test_spans_on_pool_threads_belong_to_the_submitting_span():
    tr = tracer.Tracer()
    leaf = tr.span("waveconv.eval_spacetime_conv", lambda x: x * x)

    def verify(points):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, points))

    assert tr.span("waveconv.verify_case", verify)([1, 2, 3]) == [1, 4, 9]
    outer = [s for s in tr.spans if s[tracer.NAME] == "waveconv.verify_case"]
    inner = [s for s in tr.spans if s[tracer.NAME] != "waveconv.verify_case"]
    assert len(outer) == 1 and len(inner) == 3
    assert all(s[tracer.PARENT] == outer[0][tracer.ID] for s in inner)


def test_absent_targets_are_reported_and_present_ones_wrapped():
    mod = types.ModuleType("perfbench_fake_layer")
    mod.present = lambda: 1

    def boom():
        raise ValueError("x")
    mod.fails = boom
    sys.modules[mod.__name__] = mod
    try:
        tr = tracer.Tracer()
        tr.install([("perfbench_fake_layer.present", "sim.present", "span",
                     None),
                    ("perfbench_fake_layer.fails", "sim.fails", "count",
                     None),
                    ("perfbench_fake_layer.gone", "sim.gone", "span", None),
                    ("perfbench_no_such_module.fn", "sim.fn", "span", None)])
        assert tr.absent == ["perfbench_fake_layer.gone",
                             "perfbench_no_such_module.fn"]
        assert mod.present() == 1
        with pytest.raises(ValueError):
            mod.fails()
        assert [s[tracer.NAME] for s in tr.spans] == ["sim.present"]
        assert tr.counts == {"sim.fails": 1}
        assert tr.errors == {"sim": 1}
    finally:
        del sys.modules[mod.__name__]


def test_declared_per_layer_metrics_match_the_traced_output():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"]
                    for m in json.load(fh)["per_layer"]}
    produced = set(tracer.layer_metrics([], {}, {})) | {"cli.output_mib"}
    assert set(declared) == produced
    assert all(declared[name] == tracer.unit(name) for name in produced)
