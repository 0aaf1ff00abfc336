"""The run-manifest schema: one machine-readable ledger per repro run.

``scripts/reproduce_all.py`` re-runs every gated bench emitter and the
eval tables, then folds the results into a single manifest JSON via
this module.  The schema (``MANIFEST_VERSION`` 1):

* ``run_id`` — sortable unique id (UTC timestamp + random hex);
* ``environment`` — interpreter/numpy/platform versions, host
  ``cpu_count`` and scheduler affinity (:func:`provenance`), so every
  number in the manifest is self-describing about the host that
  produced it;
* ``benches.<name>`` — the fresh report's seed and key metrics, the
  committed ``BENCH_<name>.json`` artifact's key metrics and recorded
  provenance, per-metric deltas (:func:`bench_deltas`), the floor
  verdict, and :func:`artifact_flags` calling out committed artifacts
  whose provenance invalidates a class of claims (the canonical case:
  parallel-join speedups recorded on a single-core host);
* ``eval`` — dataset-level score rows from the eval runner;
* ``verdict`` — overall pass/fail plus the reasons.

Key metrics are **dimensionless ratios** (speedups), extracted per
bench by :func:`key_metrics` under stable labels (``speedup[mode=...]``,
``speedup[workers=4]``).  Labels carry the sweep's scale, so a smoke
run and the committed full sweep only share keys where the scales
coincide; the scale-independent ``headline`` metric (the most loaded
configuration present in a report) always produces a delta, flagged
with ``scale_matches_committed`` so nobody mistakes a smoke-vs-full
comparison for like-for-like.
"""

from __future__ import annotations

import json
import os
import platform
import secrets
import sys
import time
from pathlib import Path

MANIFEST_VERSION = 1

#: The gated benches (``BENCH_<name>.json`` at the repo root) every
#: reproduction covers; ``reproduce_all.py`` fails when one is missing.
GATED_BENCHES = (
    "generate",
    "join_batch",
    "join_scaling",
    "join_parallel",
    "join_topk",
    "kernels",
    "serve",
)

#: Smoke-floor schema: the single source of truth for the CI acceptance
#: bars, keyed by :data:`GATED_BENCHES` name.  Each spec names a
#: :func:`key_metrics` label, the minimum acceptable value, and an
#: optional ``min_cores`` gate — parallel-scaling floors only apply on
#: hosts whose scheduler actually grants that many cores (starved
#: runners record the numbers and rely on :func:`artifact_flags` for
#: the caveat instead of failing spuriously).  Bench emitters import
#: their ``--smoke`` assertions from here and ``reproduce_all.py``
#: re-applies the same schema to every fresh report via
#: :func:`check_floors`, so the bars cannot drift apart.  Full-sweep
#: pytest paths may assert *stronger* bars on top; they must never be
#: weaker than these.
BENCH_FLOORS: dict[str, tuple[dict, ...]] = {
    "generate": ({"metric": "headline", "min": 1.5},),
    "join_batch": ({"metric": "headline", "min": 1.1},),
    "join_scaling": ({"metric": "headline", "min": 1.0},),
    "join_topk": ({"metric": "headline", "min": 1.2},),
    # ``auto_vs_best[...]`` is the best fixed backend's seconds over
    # ``auto``'s: 1/1.1 keeps the default within 10% of the fastest
    # backend on the entry point joins call and on the join itself.
    "kernels": (
        {"metric": "headline", "min": 3.0},
        {"metric": "auto_vs_best[pairs]", "min": 0.909},
        {"metric": "auto_vs_best[join]", "min": 0.909},
    ),
    "join_parallel": (
        {"metric": "speedup[workers=4]", "min": 1.3, "min_cores": 4},
        {"metric": "disk_warm_speedup", "min": 1.05},
    ),
    "serve": (
        {"metric": "speedup[clients=16]", "min": 2.0},
        {"metric": "warm_cache_speedup", "min": 10.0},
        {"metric": "speedup[serve_workers=4]", "min": 2.0, "min_cores": 4},
    ),
}


def check_floors(
    bench: str, metrics: dict[str, float], cores: int | None = None
) -> dict:
    """Apply the :data:`BENCH_FLOORS` schema to one bench's key metrics.

    Returns ``{"passed", "detail", "checked", "skipped"}``.  A floor
    whose ``min_cores`` exceeds ``cores`` (or whose metric is absent
    from the report — e.g. a sweep shape that omitted the labeled row)
    is *skipped*, not failed: the schema encodes acceptance bars, and a
    bar you could not measure is a hole to report, not a regression.
    ``passed`` is ``True`` iff every floor that could be checked held.
    """
    checked: list[str] = []
    skipped: list[str] = []
    failures: list[str] = []
    for spec in BENCH_FLOORS.get(bench, ()):
        metric = spec["metric"]
        min_cores = spec.get("min_cores")
        if min_cores is not None and (cores is None or cores < min_cores):
            skipped.append(
                f"{metric}: needs >= {min_cores} cores "
                f"(host grants {cores})"
            )
            continue
        value = metrics.get(metric)
        if value is None:
            skipped.append(f"{metric}: absent from report")
            continue
        if value < spec["min"]:
            failures.append(
                f"{metric} {value:.2f} < floor {spec['min']}"
            )
        else:
            checked.append(f"{metric} {value:.2f} >= {spec['min']}")
    if failures:
        detail = "; ".join(failures)
    else:
        detail = f"{len(checked)} floors held, {len(skipped)} skipped"
        if skipped:
            detail += f" ({'; '.join(skipped)})"
    return {
        "passed": not failures,
        "detail": detail,
        "checked": checked,
        "skipped": skipped,
    }


def provenance() -> dict:
    """Environment/host provenance stamped into reports and manifests.

    ``cpu_count`` is the raw host count; ``cpu_affinity`` is how many
    cores the scheduler actually grants this process (cgroup-limited CI
    runners often differ) — parallel-scaling claims need the latter.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        affinity = os.cpu_count() or 1
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity": affinity,
        "recorded_unix": round(time.time(), 3),
    }


def new_run_id(now: float | None = None) -> str:
    """Sortable run id: UTC timestamp plus 4 random bytes."""
    stamp = time.strftime(
        "%Y%m%dT%H%M%SZ", time.gmtime(time.time() if now is None else now)
    )
    return f"{stamp}-{secrets.token_hex(4)}"


def _labeled(rows: list, label_field: str, metric_field: str) -> dict:
    """``{'speedup[workers=4]': 1.65, ...}`` from a report's row list."""
    out: dict[str, float] = {}
    for row in rows:
        if label_field not in row or metric_field not in row:
            continue
        value = row[metric_field]
        if isinstance(value, (int, float)):
            out[f"speedup[{label_field}={row[label_field]}]"] = float(value)
    return out


def key_metrics(bench: str, report: dict) -> dict[str, float]:
    """Stable-labeled dimensionless metrics from one bench report.

    Returns an empty dict for an unrecognized bench or a report missing
    its rows — the caller records the absence rather than crashing,
    because a manifest that cannot be built is worse than a manifest
    with a hole it can point at.
    """
    rows = report.get("rows") or []
    metrics: dict[str, float] = {}
    if bench == "generate":
        metrics.update(_labeled(rows, "mode", "speedup"))
        if rows:
            metrics["headline"] = float(rows[0]["speedup"])
    elif bench == "join_batch":
        metrics.update(_labeled(rows, "rows", "speedup"))
        if rows:
            metrics["headline"] = float(rows[-1]["speedup"])
    elif bench == "join_scaling":
        metrics.update(_labeled(rows, "target_rows", "speedup"))
        if rows:
            metrics["headline"] = float(rows[-1]["speedup"])
    elif bench == "join_parallel":
        metrics.update(_labeled(rows, "workers", "speedup_vs_serial"))
        if rows:
            metrics["headline"] = float(rows[-1]["speedup_vs_serial"])
        disk = report.get("disk_cache") or []
        if disk:
            metrics["disk_warm_speedup"] = float(disk[-1]["speedup"])
    elif bench == "join_topk":
        metrics.update(_labeled(rows, "rows", "speedup"))
        if rows:
            metrics["headline"] = float(rows[-1]["speedup"])
        for row in rows:
            ratio = row.get("topk_cost_ratio")
            if isinstance(ratio, (int, float)):
                metrics[f"topk_cost_ratio[rows={row['rows']}]"] = float(ratio)
    elif bench == "kernels":
        metrics.update(_labeled(rows, "config", "speedup"))
        short = [
            row
            for row in rows
            if row.get("regime") == "short"
            and row.get("backend") == "bitparallel"
        ]
        # The headline is the short-string bit-parallel margin at cap 2
        # (the first such row in reports that predate the cap sweep).
        short = [row for row in short if row.get("cap") == 2] or short
        if short:
            metrics["headline"] = float(short[0]["speedup"])
        elif rows:
            metrics["headline"] = float(rows[-1]["speedup"])
        versus = (report.get("wide") or {}).get("auto_vs_best") or {}
        for section, value in versus.items():
            if isinstance(value, (int, float)):
                metrics[f"auto_vs_best[{section}]"] = float(value)
        encode = report.get("encode") or {}
        if isinstance(encode.get("speedup"), (int, float)):
            metrics["encode_speedup"] = float(encode["speedup"])
    elif bench == "serve":
        metrics.update(_labeled(rows, "clients", "speedup_vs_serial"))
        if rows:
            metrics["headline"] = float(rows[-1]["speedup_vs_serial"])
        warm = report.get("warm_cache") or {}
        if "speedup" in warm:
            metrics["warm_cache_speedup"] = float(warm["speedup"])
        multi = report.get("multiprocess") or []
        metrics.update(
            _labeled(multi, "serve_workers", "speedup_vs_inprocess")
        )
    return metrics


def bench_deltas(
    current: dict[str, float], committed: dict[str, float]
) -> dict:
    """Per-metric deltas between a fresh run and the committed artifact.

    Only keys present on both sides produce a delta; one-sided keys are
    listed so a sweep-shape change is visible instead of silently
    shrinking the comparison.
    """
    shared = sorted(current.keys() & committed.keys())
    deltas = {}
    for key in shared:
        new, old = current[key], committed[key]
        deltas[key] = {
            "current": new,
            "committed": old,
            "delta": round(new - old, 4),
            "ratio": round(new / old, 4) if old else None,
        }
    return {
        "metrics": deltas,
        "only_current": sorted(current.keys() - committed.keys()),
        "only_committed": sorted(committed.keys() - current.keys()),
    }


def manifest_trends(current: dict, previous: dict) -> dict:
    """Per-bench metric deltas between two runs' *fresh* measurements.

    Where :func:`bench_deltas` compares a fresh run against the
    committed artifacts (drift vs the recorded trajectory), this
    compares two manifests against each other — run-over-run trend
    history, e.g. today's CI run against yesterday's.  ``comparable``
    flags whether the two runs used the same mode (``smoke`` vs
    ``full``); cross-mode deltas compare different sweep scales and
    should be read as shape changes, not regressions.
    """
    current_benches = current.get("benches") or {}
    previous_benches = previous.get("benches") or {}
    benches: dict[str, dict] = {}
    for name in GATED_BENCHES:
        cur = (current_benches.get(name) or {}).get("metrics") or {}
        prev = (previous_benches.get(name) or {}).get("metrics") or {}
        if not cur and not prev:
            continue
        raw = bench_deltas(cur, prev)
        benches[name] = {
            # bench_deltas names its older side "committed"; in a
            # run-over-run trend that side is the previous manifest.
            "metrics": {
                key: {
                    "current": row["current"],
                    "previous": row["committed"],
                    "delta": row["delta"],
                    "ratio": row["ratio"],
                }
                for key, row in raw["metrics"].items()
            },
            "only_current": raw["only_current"],
            "only_previous": raw["only_committed"],
        }
    return {
        "against_run_id": previous.get("run_id"),
        "against_mode": previous.get("mode"),
        "comparable": current.get("mode") == previous.get("mode"),
        "benches": benches,
    }


def artifact_flags(bench: str, report: dict) -> list[str]:
    """Self-describing red flags derived from a report's provenance.

    The canonical case this exists for: ``BENCH_join_parallel.json``
    recorded on a host with fewer cores than its worker counts, whose
    "speedups" then measure shard locality, not parallelism.  CI uses
    the flag to skip parallel floors on starved runners instead of
    failing them, and readers see the caveat in the artifact itself.
    """
    flags: list[str] = []
    prov = report.get("provenance") or {}
    cores = prov.get("cpu_affinity") or prov.get("cpu_count")
    if cores is None:
        # Pre-manifest artifacts carried a bare top-level cpu_count.
        cores = report.get("cpu_count")
    if cores is None:
        flags.append("no_host_provenance")
        return flags
    if bench == "join_parallel":
        workers = [
            row["workers"]
            for row in report.get("rows") or []
            if "workers" in row
        ]
        if workers and cores < max(workers):
            flags.append(
                f"recorded_with_{cores}_cores_for_{max(workers)}_workers:"
                "_parallel_speedups_measure_shard_locality_only"
            )
    if bench == "serve":
        if cores < 2:
            flags.append(
                "recorded_on_single_core_host:_client_threads_share_one_core"
            )
        serve_workers = [
            row["serve_workers"]
            for row in report.get("multiprocess") or []
            if "serve_workers" in row
        ]
        if serve_workers and cores < max(serve_workers):
            flags.append(
                f"recorded_with_{cores}_cores_for_{max(serve_workers)}"
                "_serve_workers:_multiprocess_speedups_measure_"
                "dispatch_overhead_only"
            )
    return flags


def build_manifest(
    run_id: str,
    environment: dict,
    benches: dict[str, dict],
    eval_rows: list[dict] | None = None,
    mode: str = "full",
) -> dict:
    """Assemble the manifest and derive the overall verdict.

    Each value of ``benches`` is the per-bench block assembled by the
    reproduction driver: ``report`` presence, ``seed``, ``metrics``,
    ``committed`` (metrics + provenance + flags), ``deltas``,
    ``floors`` (``{"passed": bool, "detail": str}``).  The verdict
    fails on any missing bench, missing committed artifact, or failed
    floor — the three regression classes CI must catch.
    """
    failures: list[str] = []
    for name in GATED_BENCHES:
        block = benches.get(name)
        if block is None or not block.get("ran"):
            failures.append(f"bench {name}: did not run")
            continue
        if not block.get("committed_found"):
            failures.append(f"bench {name}: committed artifact missing")
        floors = block.get("floors") or {}
        if not floors.get("passed", False):
            failures.append(
                f"bench {name}: floor check failed"
                + (f" ({floors['detail']})" if floors.get("detail") else "")
            )
    return {
        "manifest_version": MANIFEST_VERSION,
        "run_id": run_id,
        "mode": mode,
        "environment": environment,
        "benches": benches,
        "eval": eval_rows or [],
        "verdict": {"passed": not failures, "failures": failures},
    }


def save_manifest(manifest: dict, path: str | os.PathLike[str]) -> None:
    """Write the manifest JSON (stable key order, trailing newline)."""
    Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=False) + "\n"
    )


def load_manifest(path: str | os.PathLike[str]) -> dict:
    """Read a manifest back; raises on version mismatch.

    A hard version check, not a warning: manifests are compared across
    runs, and silently mixing schema versions poisons every delta
    downstream.
    """
    manifest = json.loads(Path(path).read_text())
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"manifest {path} has version {version!r}, "
            f"expected {MANIFEST_VERSION}"
        )
    return manifest
