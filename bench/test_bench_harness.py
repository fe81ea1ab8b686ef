"""Tests of the benchmark harness's own arithmetic: the tail percentile rule,
self time of spans, and the bases of its ratios."""

import json
import os

import pytest

from measure import PROBE_REF_S, host_factor, ratio, self_times, tail
from run import END_TO_END, PER_LAYER, layer_metrics, span_totals
from trace_child import SpanLog
from workloads import exact_response_constant


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) is None
    assert tail(list(range(11))) == (pytest.approx(100.0 / 11), 0)


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]  # unsorted on purpose
    percentile, value = tail(values)
    assert percentile == 90.0 and value == 90.0
    assert sum(v > value for v in values) == 10


def test_self_time_subtracts_children_once():
    # root [0, 10] with children [1, 4] and [5, 7]; [5.5, 6] is a grandchild
    start, end, parent = [0, 1, 5, 5.5], [10, 4, 7, 6], [-1, 0, 0, 2]
    assert self_times(start, end, parent) == pytest.approx([5.0, 3.0, 1.5, 0.5])


def test_self_time_merges_overlapping_children():
    # children from two threads cover [1, 8] together
    assert self_times([0, 1, 3], [10, 5, 8], [-1, 0, 0])[0] == pytest.approx(3.0)


def test_ratio_reads_zero_on_zero_base():
    assert ratio(3, 4) == 0.75
    assert ratio(5, 0) == 0.0


def test_host_factor_is_median_probe_over_reference():
    probes = [PROBE_REF_S * f for f in (3.0, 1.0, 2.0)]
    assert host_factor(probes) == pytest.approx(2.0)


def _doc(names, start, end, parent, attrs=None, distinct=None):
    return {"name": names, "start": start, "end": end, "parent": parent,
            "ok": [True] * len(names), "attrs": attrs or {}, "distinct": distinct or {}}


def test_layer_metric_bases():
    gk, sc = "perturbation.solve_gamma_k", "perturbation.solve_collision"
    op1 = _doc([gk, sc, sc, "elliptic.half_periods", "elliptic.half_periods"],
               [0, 1, 2, 3, 4], [10, 2, 3, 3.5, 4.5], [-1, 0, 0, -1, -1],
               attrs={"1": {"iters": 5}, "2": {"iters": 7}},
               distinct={"elliptic.half_periods": 1})
    op2 = _doc(["dynamics.julia_render"], [0], [2], [-1], attrs={"0": {"pixel_iters": 1000}})
    records = [{"status": "ok", "wall_s": 3.0, "bytes": 100, "layers": span_totals([op1])},
               {"status": "ok", "wall_s": 5.0, "bytes": 300, "layers": span_totals([op2])}]
    defects = [{"status": "failed"}, {"status": "ok"}, {"status": "wrong"}]
    m = layer_metrics(records, untraced_ok_walls=[2.0, 2.0, 6.0], defects=defects)
    assert m[f"{gk}.calls"] == 0.5                             # calls per traced op
    assert m[f"{gk}.self_s"] == pytest.approx(8.0 / 2)          # 10 - two 1 s children
    assert m[f"{gk}.collision_solves"] == 2.0                   # child spans per call
    assert m[f"{sc}.secant_iters"] == 6.0                       # (5 + 7) / 2 ops
    assert m["elliptic.half_periods.distinct_ratio"] == 0.5     # 1 gamma / 2 calls
    assert m["dynamics.julia_render.pixel_iters_per_s"] == 500.0
    assert m["cli.bytes_written"] == 200.0
    assert m["trace.overhead_ratio"] == 2.0                     # median 4 / median 2
    assert m["perturbation.verify_lemma3.known_defects_failing"] == 2.0
    assert set(m) == set(PER_LAYER)


def test_span_log_records_parent_and_failure():
    log = SpanLog("op0")

    def boom():
        raise ValueError

    inner = log.wrap("inner", boom)

    def outer_fn():
        try:
            inner()
        except ValueError:
            pass
        return 1

    assert log.wrap("outer", outer_fn)() == 1
    doc = log.document()
    assert doc["name"] == ["outer", "inner"]
    assert doc["parent"] == [-1, 0]
    assert doc["ok"] == [True, False]
    assert doc["start"][0] <= doc["start"][1] <= doc["end"][1] <= doc["end"][0]


def test_response_constants_match_the_cli():
    assert exact_response_constant(2, 1) == -1
    assert exact_response_constant(3, 2) == pytest.approx(-1.125)
    assert exact_response_constant(3, 3) == pytest.approx(-0.9)


def test_benchmark_json_matches_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
