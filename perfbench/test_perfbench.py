"""Tests of the benchmark itself: the span fold, and a tiny run of each workload.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_repo_sources  # noqa: E402
from fold import UNATTRIBUTED, fold_trace, fold_traces, prefix_table  # noqa: E402

use_repo_sources()

import offline  # noqa: E402
import serving  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402


def span(span_id, parent, name, start, duration):
    return {
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start": start,
        "duration_s": duration,
    }


LAYERS = prefix_table({"a": "A", "b": "B", "c": "C"})


class TestFold:
    def test_nested_children_take_their_own_time(self):
        spans = [
            span("r", None, "root", 0.0, 10.0),
            span("1", "r", "a", 1.0, 6.0),
            span("2", "1", "b", 2.0, 3.0),
        ]
        assert fold_trace(spans, LAYERS) == {UNATTRIBUTED: 4.0, "A": 3.0, "B": 3.0}

    def test_overlapping_children_count_once(self):
        spans = [
            span("r", None, "root", 0.0, 10.0),
            span("1", "r", "a", 1.0, 4.0),  # [1, 5]
            span("2", "r", "b", 3.0, 4.0),  # [3, 7]
        ]
        totals = fold_trace(spans, LAYERS)
        assert totals[UNATTRIBUTED] == pytest.approx(4.0)  # 10 - |[1, 7]|
        assert totals["A"] == 4.0 and totals["B"] == 4.0

    def test_children_are_clipped_to_their_parent(self):
        spans = [span("r", None, "root", 0.0, 2.0), span("1", "r", "a", 1.0, 5.0)]
        assert fold_trace(spans, LAYERS)[UNATTRIBUTED] == pytest.approx(1.0)

    def test_unknown_spans_are_transparent(self):
        spans = [
            span("r", None, "root", 0.0, 10.0),
            span("x", "r", "program.internal", 0.0, 8.0),
            span("1", "x", "c", 2.0, 2.0),
        ]
        # The unknown span's time stays with the root; its known child
        # re-attaches to the root.
        assert fold_trace(spans, LAYERS) == {UNATTRIBUTED: 8.0, "C": 2.0}

    def test_layers_sum_to_the_root_and_root_can_be_a_layer(self):
        spans = [
            span("r", None, "a-root", 0.0, 3.0),
            span("1", "r", "b", 0.5, 1.0),
            span("2", "r", "b", 2.0, 0.5),
        ]
        totals = fold_traces([{"spans": spans}, {"spans": spans}], LAYERS)
        assert totals == {"A": 3.0, "B": 3.0}
        assert UNATTRIBUTED not in totals

    def test_a_trace_needs_one_root(self):
        with pytest.raises(ValueError):
            fold_trace([span("1", "gone", "a", 0.0, 1.0), span("2", "gone", "b", 0.0, 1.0)], LAYERS)


# The smokes go through the same functions as real runs, at a small
# ``seconds``: a few calls or requests each.


@pytest.mark.parametrize("workload", ["jab-join", "wide-join"])
def test_offline_smoke(workload):
    metrics, info, calls = offline.untraced(workload, seed=3, seconds=0.5)
    assert set(metrics) == set(END_TO_END)
    assert info["mismatches"] == [] and info["oracle_rows_checked"] > 0
    assert calls == 3 and len(info["setup_runs_s"]) == 2 * offline.SETUP_REPEATS
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", ["jab-join", "wide-join"])
def test_offline_traced_smoke(workload):
    # Includes the untraced reference run in a fresh process.
    metrics, info, calls = offline.traced(workload, seed=3, seconds=1.0)
    assert set(metrics) == set(PER_LAYER)
    assert info["mismatches"] == [] and info["untraced_s"] > 0
    assert metrics["trace.folded"] == calls
    assert metrics["infer.self_s"] > 0 and metrics["join.self_s"] > 0
    if workload == "wide-join":
        assert metrics["kernel.pairs"] > 0 and metrics["index.cache_hits"] > 0


@pytest.mark.parametrize("workload", ["jab-join", "wide-join"])
def test_offline_check_catches_a_wrong_match(workload):
    st = offline.setup(workload, seed=3, seconds=0.5)
    calls, _ = offline.run_calls(st.pipeline, st.jobs)
    assert offline.check(workload, st.jobs, calls)["mismatches"] == []
    result = calls[-1].results[-1]
    wrong = next(t for t in st.jobs[-1].targets if t != result.matched)
    calls[-1].results[-1] = type(result)(
        result.source, result.predicted, wrong, result.expected, result.distance
    )
    assert len(offline.check(workload, st.jobs, calls)["mismatches"]) == 1


def test_column_scan_matches_the_brute_oracle():
    from repro.core.joiner import EditDistanceJoiner

    column = offline.wide_column(3, 400)
    oracle = EditDistanceJoiner()
    scan = offline.ColumnScan(column, oracle)
    probes = ["", column[7], column[7][:-3], "Astrophys J", "zzzz", column[0] + " Letters"]
    want = oracle.join_many(probes, column)
    assert [scan.match(p) for p in probes] == want
    # A hint only sets the first cap: a far one, a near one, or one that
    # is not in the column gives the same answer.
    for hint in (column[-1], column[7], "not in the column"):
        assert [scan.match(p, hint=hint) for p in probes] == want


def test_serving_smoke():
    metrics, info, attempted, failed = serving.untraced(seed=3, seconds=1.0, repeats=1)
    assert set(metrics) == set(END_TO_END)
    assert info["mismatches"] == [] and failed == 0 and attempted >= 1
    assert metrics["success_share"] == 1.0


def test_serving_traced_smoke():
    metrics, info, attempted, failed = serving.traced(seed=3, seconds=2.0)
    assert set(metrics) == set(PER_LAYER)
    assert info["mismatches"] == [] and failed == 0
    assert metrics["trace.folded"] == attempted and metrics["infer.steps"] > 0


def test_serving_check_catches_a_wrong_response():
    request_at = serving.closed_requests(3)
    right = serving.Oracle().expected(request_at(0))
    wrong = {"predictions": [dict(right["predictions"][0], value="x")]}
    samples = [
        serving.Sample(0, 200, 0.01, right, None),
        serving.Sample(1, 200, 0.01, wrong, None),
        serving.Sample(2, 503, 0.01, None, None),  # a failure, not a mismatch
    ]
    mismatches = serving.check(lambda i: request_at(0), samples)
    assert len(mismatches) == 1 and mismatches[0].startswith("request 1 ")
