"""Observability primitives and the run-manifest schema.

The metrics side enforces the scrape contract: fixed log-spaced
buckets, cumulative ``le`` semantics, callback-backed counters that
never double-count, and a Prometheus text rendering a real scraper can
parse.  The manifest side enforces the reproduction contract: key
metrics extracted under stable labels, deltas that never silently
shrink, self-describing artifact flags, and a verdict that fails on
every regression class ``reproduce_all.py`` exists to catch.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    BENCH_FLOORS,
    GATED_BENCHES,
    MANIFEST_VERSION,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    artifact_flags,
    bench_deltas,
    build_manifest,
    check_floors,
    key_metrics,
    load_manifest,
    manifest_trends,
    new_run_id,
    provenance,
    save_manifest,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_OCCUPANCY_BUCKETS,
    log_spaced_buckets,
    merge_labeled_snapshots,
)


class TestBuckets:
    def test_log_spacing(self):
        assert log_spaced_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_defaults_cover_the_service_ranges(self):
        # 100 µs up past 100 s; 1 up to 1024 rows.
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BUCKETS[-1] > 100.0
        assert DEFAULT_OCCUPANCY_BUCKETS == tuple(
            float(2**i) for i in range(11)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            log_spaced_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            log_spaced_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            log_spaced_buckets(1.0, 2.0, 0)


class TestCounterAndGauge:
    def test_counter_monotone(self):
        counter = Counter("events_total")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_callback_counter_reads_live_and_rejects_inc(self):
        state = {"hits": 7}
        counter = Counter("hits_total", fn=lambda: state["hits"])
        assert counter.value == 7
        state["hits"] = 9
        assert counter.value == 9
        with pytest.raises(ValueError):
            counter.inc()

    def test_gauge_set_and_callback(self):
        gauge = Gauge("depth")
        gauge.set(5.0)
        assert gauge.value == 5.0
        live = Gauge("depth_live", fn=lambda: 3)
        assert live.value == 3.0


class TestLatencyHistogram:
    def test_cumulative_le_semantics(self):
        hist = LatencyHistogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()
        # le=1.0 includes the observation AT the bound (Prometheus
        # semantics), le=4.0 includes everything but the overflow.
        assert [b["count"] for b in snap["buckets"]] == [2, 3, 4]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(106.0)
        assert snap["mean"] == pytest.approx(21.2)

    def test_negative_observations_clamp_to_zero(self):
        hist = LatencyHistogram("lat", buckets=(1.0,))
        hist.observe(-5.0)
        snap = hist.snapshot()
        assert snap["buckets"][0]["count"] == 1
        assert snap["sum"] == 0.0

    def test_quantile_is_bucket_coarse(self):
        hist = LatencyHistogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.6, 1.5, 3.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 4.0
        assert hist.quantile(0.0) == 0.0 or hist.quantile(0.0) == 1.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_overflow_bucket_reports_last_bound(self):
        hist = LatencyHistogram("lat", buckets=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.quantile(0.99) == 2.0

    def test_empty_quantile_is_zero(self):
        assert LatencyHistogram("lat", buckets=(1.0,)).quantile(0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram("lat", buckets=())
        with pytest.raises(ValueError):
            LatencyHistogram("lat", buckets=(2.0, 1.0))


class TestMetricsRegistry:
    def test_idempotent_registration(self):
        registry = MetricsRegistry(prefix="x_")
        first = registry.counter("events_total")
        second = registry.counter("events_total")
        assert first is second
        with pytest.raises(ValueError):
            registry.gauge("events_total")

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["a_total"] == 2
        assert snap["b"] == 1.5
        assert snap["c"]["count"] == 1

    def test_prometheus_text_rendering(self):
        registry = MetricsRegistry(prefix="serve_")
        registry.counter("hits_total", "cache hits").inc(3)
        registry.gauge("depth", "queue depth").set(2.0)
        hist = registry.histogram("lat_seconds", "latency", buckets=(0.5, 1.0))
        hist.observe(0.25)
        hist.observe(2.0)
        text = registry.render_text()
        lines = text.splitlines()
        assert "# HELP serve_hits_total cache hits" in lines
        assert "# TYPE serve_hits_total counter" in lines
        assert "serve_hits_total 3" in lines
        assert "# TYPE serve_depth gauge" in lines
        assert "serve_depth 2" in lines
        assert "# TYPE serve_lat_seconds histogram" in lines
        assert 'serve_lat_seconds_bucket{le="0.5"} 1' in lines
        assert 'serve_lat_seconds_bucket{le="1"} 1' in lines
        assert 'serve_lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "serve_lat_seconds_sum 2.25" in lines
        assert "serve_lat_seconds_count 2" in lines
        assert text.endswith("\n")


class TestProvenance:
    def test_fields_present_and_sane(self):
        prov = provenance()
        assert prov["cpu_count"] >= 1
        assert prov["cpu_affinity"] >= 1
        assert prov["python"].count(".") == 2
        assert prov["numpy"]
        assert prov["recorded_unix"] > 1.7e9

    def test_run_ids_sort_by_time_and_never_collide(self):
        early = new_run_id(now=1_700_000_000.0)
        late = new_run_id(now=1_800_000_000.0)
        assert early < late
        assert new_run_id(now=0.0) != new_run_id(now=0.0)


class TestKeyMetrics:
    def test_per_bench_extraction(self):
        generate = {"rows": [{"mode": "batched", "speedup": 3.5}]}
        assert key_metrics("generate", generate) == {
            "speedup[mode=batched]": 3.5,
            "headline": 3.5,
        }
        join_parallel = {
            "rows": [
                {"workers": 2, "speedup_vs_serial": 1.1},
                {"workers": 4, "speedup_vs_serial": 1.4},
            ],
            "disk_cache": [{"speedup": 9.0}],
        }
        metrics = key_metrics("join_parallel", join_parallel)
        assert metrics["speedup[workers=4]"] == 1.4
        assert metrics["headline"] == 1.4
        assert metrics["disk_warm_speedup"] == 9.0
        serve = {
            "rows": [{"clients": 16, "speedup_vs_serial": 2.5}],
            "warm_cache": {"speedup": 40.0},
        }
        metrics = key_metrics("serve", serve)
        assert metrics["headline"] == 2.5
        assert metrics["warm_cache_speedup"] == 40.0

    def test_unknown_bench_or_empty_report_is_a_hole_not_a_crash(self):
        assert key_metrics("nope", {"rows": [{"speedup": 2.0}]}) == {}
        assert key_metrics("generate", {}) == {}


class TestBenchDeltas:
    def test_shared_keys_produce_deltas(self):
        deltas = bench_deltas(
            {"headline": 2.0, "speedup[rows=500]": 1.5},
            {"headline": 1.6, "speedup[rows=20000]": 4.0},
        )
        assert deltas["metrics"]["headline"]["delta"] == pytest.approx(0.4)
        assert deltas["metrics"]["headline"]["ratio"] == pytest.approx(1.25)
        assert deltas["only_current"] == ["speedup[rows=500]"]
        assert deltas["only_committed"] == ["speedup[rows=20000]"]

    def test_zero_committed_value_has_null_ratio(self):
        deltas = bench_deltas({"headline": 1.0}, {"headline": 0.0})
        assert deltas["metrics"]["headline"]["ratio"] is None


class TestArtifactFlags:
    def test_starved_parallel_artifact_is_flagged(self):
        report = {
            "provenance": {"cpu_count": 1, "cpu_affinity": 1},
            "rows": [{"workers": 2}, {"workers": 4}],
        }
        flags = artifact_flags("join_parallel", report)
        assert flags == [
            "recorded_with_1_cores_for_4_workers:"
            "_parallel_speedups_measure_shard_locality_only"
        ]

    def test_well_provisioned_artifact_is_clean(self):
        report = {
            "provenance": {"cpu_count": 8, "cpu_affinity": 8},
            "rows": [{"workers": 4}],
        }
        assert artifact_flags("join_parallel", report) == []

    def test_legacy_top_level_cpu_count_is_honoured(self):
        report = {"cpu_count": 1, "rows": [{"workers": 4}]}
        assert artifact_flags("join_parallel", report)

    def test_missing_provenance_is_itself_a_flag(self):
        assert artifact_flags("generate", {}) == ["no_host_provenance"]

    def test_single_core_serve_artifact_is_flagged(self):
        report = {"provenance": {"cpu_affinity": 1}}
        assert artifact_flags("serve", report) == [
            "recorded_on_single_core_host:_client_threads_share_one_core"
        ]


def _passing_block() -> dict:
    return {
        "ran": True,
        "committed_found": True,
        "floors": {"passed": True, "detail": ""},
    }


class TestBuildManifest:
    def test_all_green_verdict_passes(self):
        benches = {name: _passing_block() for name in GATED_BENCHES}
        manifest = build_manifest("run-1", provenance(), benches, mode="smoke")
        assert manifest["verdict"] == {"passed": True, "failures": []}
        assert manifest["manifest_version"] == MANIFEST_VERSION

    def test_every_regression_class_fails_the_verdict(self):
        benches = {name: _passing_block() for name in GATED_BENCHES}
        benches["generate"]["ran"] = False
        benches["join_batch"]["committed_found"] = False
        benches["serve"]["floors"] = {"passed": False, "detail": "2x floor"}
        del benches["join_scaling"]  # absent entirely
        manifest = build_manifest("run-2", {}, benches)
        failures = manifest["verdict"]["failures"]
        assert manifest["verdict"]["passed"] is False
        assert "bench generate: did not run" in failures
        assert "bench join_scaling: did not run" in failures
        assert "bench join_batch: committed artifact missing" in failures
        assert "bench serve: floor check failed (2x floor)" in failures

    def test_save_load_round_trip(self, tmp_path):
        manifest = build_manifest(
            "run-3",
            provenance(),
            {name: _passing_block() for name in GATED_BENCHES},
            eval_rows=[{"dataset": "WT", "f1": 0.9}],
        )
        path = tmp_path / "run_manifest.json"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_version_mismatch_refuses_to_load(self, tmp_path):
        path = tmp_path / "old.json"
        save_manifest({"manifest_version": 0}, path)
        with pytest.raises(ValueError, match="version"):
            load_manifest(path)


class TestCallbackDegradation:
    def test_raising_callback_degrades_one_series_not_the_scrape(self):
        reg = MetricsRegistry(prefix="serve_")
        reg.counter("requests_total", "handled").inc(3)

        def boom() -> float:
            raise RuntimeError("backend went away")

        reg.gauge("queue_depth", "depth", fn=boom)
        text = reg.render_text()
        # The healthy series still renders; the broken one is skipped.
        assert "serve_requests_total 3" in text
        assert "serve_queue_depth" not in text
        assert reg.callback_errors.value == 1
        # The error counter renders before the gauge raises, so the
        # increment from scrape N appears on scrape N+1 — standard
        # counter-lag semantics, not a lost sample.
        assert "obs_callback_errors_total 1" in reg.render_text()

    def test_snapshot_degrades_the_same_way(self):
        reg = MetricsRegistry()

        def boom() -> int:
            raise RuntimeError("nope")

        reg.counter("broken_total", fn=boom)
        reg.gauge("fine", "ok").set(7.0)
        snap = reg.snapshot()
        assert "broken_total" not in snap
        assert snap["fine"] == 7.0
        assert reg.callback_errors.value == 1


class TestMergeLabeledSnapshots:
    def test_empty_input_renders_empty_page(self):
        assert merge_labeled_snapshots([]) == ""

    def test_disjoint_metric_names_each_render_once(self):
        merged = merge_labeled_snapshots(
            [
                ({"worker": "0"}, {"serve_requests_total": 4}),
                ({"worker": "1"}, {"engine_batches_total": 2}),
            ]
        )
        assert '# TYPE serve_requests_total counter' in merged
        assert 'serve_requests_total{worker="0"} 4' in merged
        assert 'engine_batches_total{worker="1"} 2' in merged
        assert merged.count("# TYPE") == 2

    def test_mismatched_histogram_bounds_refuse_to_merge(self):
        def hist(le: float) -> dict:
            return {
                "buckets": [{"le": le, "count": 1}],
                "sum": 0.5,
                "count": 2,
            }

        with pytest.raises(ValueError, match="mismatched bucket"):
            merge_labeled_snapshots(
                [
                    ({"worker": "0"}, {"latency_seconds": hist(1.0)}),
                    ({"worker": "1"}, {"latency_seconds": hist(2.0)}),
                ]
            )


class TestBenchFloors:
    def test_schema_covers_every_gated_bench(self):
        assert set(BENCH_FLOORS) == set(GATED_BENCHES)

    def test_every_spec_names_a_metric_and_a_positive_floor(self):
        for specs in BENCH_FLOORS.values():
            assert specs
            for spec in specs:
                assert spec["metric"]
                assert spec["min"] > 0


class TestCheckFloors:
    def test_all_floors_held(self):
        metrics = {
            "headline": 4.2,
            "auto_vs_best[pairs]": 1.0,
            "auto_vs_best[join]": 0.95,
        }
        result = check_floors("kernels", metrics, cores=8)
        assert result["passed"] is True
        assert result["checked"] and not result["skipped"]

    def test_slow_kernel_dispatch_fails(self):
        # auto 15% slower than the best fixed backend on the join rows.
        metrics = {
            "headline": 4.2,
            "auto_vs_best[pairs]": 1.0,
            "auto_vs_best[join]": 0.87,
        }
        result = check_floors("kernels", metrics)
        assert result["passed"] is False
        assert "auto_vs_best[join] 0.87 < floor 0.909" in result["detail"]

    def test_kernels_key_metrics_read_the_wide_rows(self):
        report = {
            "rows": [
                {"regime": "short", "backend": "bitparallel", "cap": 1,
                 "config": "short/cap1/bitparallel", "speedup": 3.6},
                {"regime": "short", "backend": "bitparallel", "cap": 2,
                 "config": "short/cap2/bitparallel", "speedup": 9.7},
            ],
            "wide": {"auto_vs_best": {"pairs": 0.97, "join": 1.01}},
        }
        metrics = key_metrics("kernels", report)
        assert metrics["headline"] == 9.7
        assert metrics["auto_vs_best[pairs]"] == 0.97
        assert metrics["auto_vs_best[join]"] == 1.01

    def test_below_floor_fails_with_detail(self):
        result = check_floors("kernels", {"headline": 1.0})
        assert result["passed"] is False
        assert "1.00 < floor 3.0" in result["detail"]

    def test_min_cores_unmet_skips_instead_of_failing(self):
        # A starved host recording speedup 0.5 must not fail the gated
        # bar it could never meet — the floor is skipped with a reason.
        result = check_floors(
            "join_parallel",
            {"speedup[workers=4]": 0.5, "disk_warm_speedup": 1.2},
            cores=1,
        )
        assert result["passed"] is True
        assert any("needs >= 4 cores" in s for s in result["skipped"])

    def test_absent_metric_is_a_skip_not_a_regression(self):
        result = check_floors(
            "serve", {"speedup[clients=16]": 3.0}, cores=16
        )
        assert result["passed"] is True
        assert len(result["checked"]) == 1
        assert len(result["skipped"]) == 2

    def test_unknown_bench_checks_nothing(self):
        result = check_floors("nope", {"headline": 0.0})
        assert result["passed"] is True
        assert not result["checked"] and not result["skipped"]


class TestManifestTrends:
    @staticmethod
    def _manifest(run_id: str, mode: str, headline: float) -> dict:
        return {
            "run_id": run_id,
            "mode": mode,
            "benches": {"kernels": {"metrics": {"headline": headline}}},
        }

    def test_identical_runs_report_zero_deltas(self):
        trends = manifest_trends(
            self._manifest("b", "smoke", 4.0),
            self._manifest("a", "smoke", 4.0),
        )
        assert trends["against_run_id"] == "a"
        assert trends["against_mode"] == "smoke"
        assert trends["comparable"] is True
        row = trends["benches"]["kernels"]["metrics"]["headline"]
        assert row == {
            "current": 4.0,
            "previous": 4.0,
            "delta": 0.0,
            "ratio": 1.0,
        }

    def test_mode_mismatch_is_flagged_not_hidden(self):
        trends = manifest_trends(
            self._manifest("b", "smoke", 4.0),
            self._manifest("a", "full", 5.0),
        )
        assert trends["comparable"] is False
        row = trends["benches"]["kernels"]["metrics"]["headline"]
        assert row["delta"] == -1.0
        assert row["ratio"] == 0.8

    def test_one_sided_metrics_are_listed_not_dropped(self):
        cur = {
            "run_id": "b",
            "mode": "smoke",
            "benches": {
                "serve": {"metrics": {"warm_cache_speedup": 30.0}}
            },
        }
        prev = {
            "run_id": "a",
            "mode": "smoke",
            "benches": {
                "serve": {"metrics": {"speedup[clients=16]": 3.0}}
            },
        }
        trends = manifest_trends(cur, prev)
        block = trends["benches"]["serve"]
        assert block["metrics"] == {}
        assert block["only_current"] == ["warm_cache_speedup"]
        assert block["only_previous"] == ["speedup[clients=16]"]
