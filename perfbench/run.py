"""perfbench: one end-to-end, layer-by-layer benchmark of the DTT repro.

Usage (from the repository root)::

    python3 perfbench/run.py --workload jab-join --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Human-readable detail goes to stdout first; the last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A wrong output makes ``correct`` false and the exit code
1; a run that cannot measure at all (no sources, dead server) exits 2
without a result line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback

from common import provenance, scrub_environment, use_repo_sources

WORKLOADS = ("jab-join", "wide-join", "serve-closed")

#: name -> unit, for the end-to-end metrics every workload reports.
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "throughput_rps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "accuracy": "ratio",
    "within_limit_share": "ratio",
    "success_share": "ratio",
    "peak_rss_mb": "MB",
}

#: name -> unit, for the per-layer metrics of a traced run.
PER_LAYER = {
    "serializer.self_s": "s",
    "infer.self_s": "s",
    "infer.prompts": "count",
    "infer.decoded_rows": "count",
    "infer.steps": "count",
    "infer.row_steps": "count",
    "aggregator.self_s": "s",
    "join.self_s": "s",
    "join.pending_share": "ratio",
    "index.build_s": "s",
    "index.cache_hits": "count",
    "index.cache_misses": "count",
    "kernel.self_s": "s",
    "kernel.pairs": "count",
    "kernel.pairs_per_probe": "count",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.batch_ms": "ms",
    "service.requests_per_batch": "count",
    "cache.hit_ratio": "ratio",
    "http.handler_ms": "ms",
    "http.transport_ms": "ms",
    "unattributed_s": "s",
    "trace.e2e_s": "s",
    "trace.overhead_s": "s",
    "trace.folded": "count",
    "trace.requests": "count",
}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, int, int]:
    """Run one workload; returns (metrics, details, attempted, failed)."""
    if workload in ("jab-join", "wide-join"):
        import offline

        run = offline.traced if trace else offline.untraced
        metrics, info, attempted = run(workload, seed, seconds)
        return metrics, info, attempted, 0
    import serving

    run = serving.traced if trace else serving.untraced
    return run(seed, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell starting this in the background ignores SIGINT, and the
    # servers would inherit that; they are stopped with SIGINT (drain).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    hygiene = scrub_environment()
    try:
        use_repo_sources()
        started = time.perf_counter()
        metrics, info, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        info["run_s"] = time.perf_counter() - started
    except Exception:
        traceback.print_exc()
        print("perfbench: run failed; no result", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: metrics missing {sorted(missing)}", file=sys.stderr)
        return 2
    report = {
        "provenance": provenance(args.workload, args.seed, hygiene),
        "details": info,
    }
    print(json.dumps(report, default=str))
    for name, unit in units.items():
        print(f"{args.workload:13s} {name:28s} {float(metrics[name]):14.6g} {unit}")
    correct = not info["mismatches"]
    for mismatch in info["mismatches"][:20]:
        print(f"perfbench: WRONG OUTPUT: {mismatch}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
