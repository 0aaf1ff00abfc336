"""Offline workloads: ``DTTPipeline.join`` over the JAB journal tables.

* ``jab-join`` joins 7 abbreviated sources of each JAB table into that
  table's own 40-row canonical column, 3 examples per table: the paper's
  small-column join.
* ``wide-join`` joins 3 sources of each JAB table into one standing
  5,000-row column (the 60 canonical titles plus seeded distractor
  titles built from the same vocabulary); the index is built during
  set-up, as a deployment reusing a reference column would.

Both use the serving CLI's default ``pretrained`` pipeline.  A ``Job``
is one ``DTTPipeline.join`` call on one table.  A run makes a fixed
number of calls, ``CALLS_PER_SECOND`` per second of ``--seconds``, each
on a different seeded table.  A table's cost is set mostly by its three
examples, and the induction model memoizes across tables, so a run
draws many small tables and never repeats one: repeating warm tables,
or drawing only 24, let the seed alone move throughput by a quarter.
Fixed work keeps what a run does, and its memory, independent of how
fast the host happens to be.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import percentile, self_peak_rss_mb

N_EXAMPLES = 3
#: Sources joined per table.
JAB_ROWS = 7
WIDE_ROWS = 3
#: Calls per second of run length: about what a 2-core host completes,
#: so a run lasts about ``--seconds``.
CALLS_PER_SECOND = 6
WIDE_COLUMN_ROWS = 5000
#: Set-ups timed before the run's calls, and again after them; the fastest
#: of all is reported.  The shared host runs a 40 ms wide-join set-up at
#: about 40 or about 80 ms for seconds at a time, so the median of a run
#: lands on either mode: over sets of ten runs its median moved by up to
#: 37%, the fastest set-up's by up to 21%.
SETUP_REPEATS = 8
#: Per-call latency limits for ``within_limit_share``: about 1.2 times the
#: p90 of seed runs on a 2-core host (0.28 s and 0.30 s), so the share
#: follows tail latency.
LIMIT_S = {"jab-join": 0.35, "wide-join": 0.36}


@dataclass(frozen=True)
class Job:
    """One ``DTTPipeline.join`` call and its ground truth."""

    name: str
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    examples: tuple
    expected: tuple[str, ...]


@dataclass
class Call:
    job: int
    seconds: float
    results: list


@dataclass
class Setup:
    pipeline: object
    jobs: list[Job]
    seconds: list[float]


def _examples(sources, targets):
    from repro.types import ExamplePair

    return tuple(
        ExamplePair(s, t) for s, t in zip(sources[:N_EXAMPLES], targets[:N_EXAMPLES])
    )


def jab_jobs(seed: int, n_tables: int, rows: int = JAB_ROWS) -> list[Job]:
    """``rows`` sources of each of ``n_tables`` JAB tables, each joining into
    its table's own 40-row canonical column.  A table's first rows are its
    examples; the sources are the rows after them."""
    from repro.datagen.benchmarks.registry import get_dataset

    jobs = []
    for t in get_dataset("JAB", seed, n_tables=n_tables, rows=40):
        picked = slice(N_EXAMPLES, N_EXAMPLES + rows)
        examples = _examples(t.sources, t.targets)
        jobs.append(Job(t.name, t.sources[picked], t.targets, examples, t.targets[picked]))
    return jobs


def wide_column(seed: int, n_rows: int = WIDE_COLUMN_ROWS) -> tuple[str, ...]:
    """The canonical titles plus seeded 2-6-word distractors, shuffled."""
    from repro.datagen.benchmarks.journals import JOURNAL_TITLES

    rng = random.Random(f"perfbench-wide-{seed}")
    vocabulary = sorted({w for title in JOURNAL_TITLES for w in title.split()})
    column = list(JOURNAL_TITLES)
    seen = set(column)
    while len(column) < n_rows:
        title = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(2, 6)))
        if title not in seen:
            seen.add(title)
            column.append(title)
    rng.shuffle(column)
    return tuple(column)


def wide_jobs(seed: int, n_tables: int) -> list[Job]:
    """``WIDE_ROWS`` sources of each table, all joining into one wide column."""
    column = wide_column(seed)
    return [
        Job(job.name, job.sources, column, job.examples, job.expected)
        for job in jab_jobs(seed, n_tables, WIDE_ROWS)
    ]


def build(workload: str, jobs: list[Job], hook=None) -> tuple[object, float]:
    """One timed set-up: a fresh pipeline and, for wide-join, a cold index
    built for the standing column.  Returns the pipeline and the seconds.

    ``hook(pipeline)`` runs on the fresh pipeline before it is timed
    further (the traced run installs its span wrappers there).
    """
    from repro.index.cache import default_index_cache
    from repro.serve.router import build_pipeline

    default_index_cache().clear()
    started = time.perf_counter()
    pipeline = build_pipeline("pretrained")
    if hook is not None:
        hook(pipeline)
    if workload == "wide-join":
        # Warm the standing column's index through the public joiner.
        pipeline.joiner.join_many([jobs[0].targets[0]], jobs[0].targets)
    return pipeline, time.perf_counter() - started


def setup(workload: str, seed: int, seconds: float, hook=None) -> Setup:
    """Generate the inputs for a run of ``seconds`` (untimed), then
    :func:`build` ``SETUP_REPEATS`` times and keep the last pipeline."""
    n_calls = max(1, round(seconds * CALLS_PER_SECOND))
    jobs = jab_jobs(seed, n_calls) if workload == "jab-join" else wide_jobs(seed, n_calls)
    seconds = []
    for _ in range(SETUP_REPEATS):
        pipeline, took = build(workload, jobs, hook)
        seconds.append(took)
    return Setup(pipeline, jobs, seconds)


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int]:
    """End-to-end metrics of one run with tracing off.

    Half the set-ups run before the timed calls and half after, so the
    set-up time samples the host at both ends of the run.
    """
    st = setup(workload, seed, seconds)
    calls, wall = run_calls(st.pipeline, st.jobs)
    st.seconds += [build(workload, st.jobs)[1] for _ in range(SETUP_REPEATS)]
    metrics = end_to_end(workload, st, calls, wall)  # peak RSS before the check
    info = check(workload, st.jobs, calls)
    info.update({"calls": len(calls), "wall_s": wall, "setup_runs_s": st.seconds})
    return metrics, info, len(calls)


def run_calls(pipeline, jobs: list[Job]) -> tuple[list[Call], float]:
    """Call every job once, in order."""

    def call(index: int) -> Call:
        job = jobs[index]
        t0 = time.perf_counter()
        results = pipeline.join(job.sources, job.targets, list(job.examples), expected=job.expected)
        return Call(index, time.perf_counter() - t0, results)

    started = time.perf_counter()
    calls = [call(index) for index in range(len(jobs))]
    return calls, time.perf_counter() - started


def check(workload: str, jobs: list[Job], calls: list[Call]) -> dict:
    """Compare every result of the calls with an oracle.

    jab-join re-joins every prediction with the retained brute oracle
    ``EditDistanceJoiner``; wide-join with :class:`ColumnScan`, which is
    the same argmin without the scalar scan's 1.5 s per probe.  Every
    mismatch is listed in the returned ``mismatches``.
    """
    from repro.core.joiner import EditDistanceJoiner

    oracle = EditDistanceJoiner()
    scans: dict[int, ColumnScan] = {}
    mismatches: list[str] = []
    checked = 0
    for call in calls:
        job = jobs[call.job]
        if [r.source for r in call.results] != list(job.sources):
            mismatches.append(f"{job.name}: results not aligned with sources")
            continue
        predicted = [r.predicted for r in call.results]
        if workload == "jab-join":
            want = oracle.join_many(predicted, job.targets)
        else:
            scan = scans.get(id(job.targets))
            if scan is None:
                scan = scans[id(job.targets)] = ColumnScan(job.targets, oracle)
            want = [scan.match(r.predicted, hint=r.matched) for r in call.results]
        for i, (got, expected) in enumerate(zip(call.results, want, strict=True)):
            if (got.matched, got.distance) != expected:
                mismatches.append(
                    f"{job.name} row {i}: got {(got.matched, got.distance)!r}, "
                    f"oracle {expected!r}"
                )
        checked += len(predicted)
    return {"oracle_rows_checked": checked, "mismatches": mismatches}


class ColumnScan:
    """A filter-free argmin over a whole column, with the numpy reference
    kernel and the column encoded once: fast enough to check every
    wide-join row.

    Each probe is scanned at a distance cap, doubled until some row lies
    within it.  Rows whose length differs from the probe's by more than
    the cap cannot lie within it and are skipped, so the minimum, and the
    earliest row holding it, are exact whatever the first cap was.
    Thresholds are the oracle joiner's own.
    """

    def __init__(self, targets, oracle) -> None:
        from repro.index.kernel import encode_strings

        self.targets = targets
        self.oracle = oracle
        self.codes, self.lengths = encode_strings(targets)

    def match(self, probe: str, hint: str | None = None) -> tuple[str | None, int]:
        """``(matched, distance)`` for ``probe``.  ``hint``, the match under
        test, only sets the first cap: when it is in the column, its
        distance to the probe bounds the minimum, so one scan suffices."""
        import numpy as np
        from repro.index.kernel import edit_distance_codes
        from repro.text.edit_distance import edit_distance

        if probe == "":
            return None, 0
        cap = 4 if hint is None else edit_distance(probe, hint)
        while True:
            rows = np.flatnonzero(np.abs(self.lengths - len(probe)) <= cap)
            if rows.size:
                distances = edit_distance_codes(probe, self.codes[rows], self.lengths[rows], cap)
                best = int(np.argmin(distances))  # first, so earliest row on ties
                if distances[best] <= cap:
                    value = self.targets[int(rows[best])]
                    return self.oracle._apply_thresholds(value, int(distances[best]))
            cap = max(2 * cap, 4)


def end_to_end(workload: str, st: Setup, calls: list[Call], wall: float) -> dict:
    """The end-to-end metrics of one untraced run."""
    latencies = [c.seconds for c in calls]
    rows = sum(len(c.results) for c in calls)
    limit = LIMIT_S[workload]
    return {
        "setup_s": min(st.seconds),
        "rows_per_s": rows / wall,
        "throughput_rps": len(calls) / wall,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p90_ms": percentile(latencies, 90) * 1e3,
        "accuracy": sum(r.correct for c in calls for r in c.results) / rows,
        "within_limit_share": sum(s <= limit for s in latencies) / len(calls),
        "success_share": 1.0,
        "peak_rss_mb": self_peak_rss_mb(),
    }


# -- traced run -----------------------------------------------------------

LAYER_SPANS = {
    "bench.serializer": "serializer",
    "bench.infer": "infer",
    "bench.aggregator": "aggregator",
    "bench.join_many": "join",
    "bench.index": "index",
    "bench.kernel": "kernel",
}


class _KernelProxy:
    """Stands in for a joiner's kernel backend, timing its entry points."""

    def __init__(self, inner, instruments: Instruments) -> None:
        self._inner = inner
        self._instruments = instruments
        self.name = inner.name

    def __getattr__(self, attr):
        value = getattr(self._inner, attr)
        if attr.startswith("edit_distance") and callable(value):
            return self._instruments.wrap(value, "bench.kernel")
        return value


class Instruments:
    """Spans around the public methods of the instances ``DTTPipeline.join``
    holds: serializer, engine, aggregator, joiner, index cache, kernel.

    Wrappers are instance attributes, so the program's classes are left
    untouched and the timed path is still ``DTTPipeline.join`` itself.
    """

    def __init__(self) -> None:
        from repro.obs.trace import get_tracer

        self.tracer = get_tracer()
        self.caches: list = []
        self._wrapped: set[int] = set()
        self.index_seconds = 0.0
        self.engine_stats: list = []
        self.pending = 0
        self.unique = 0

    def wrap(self, fn, name: str, after=None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self, pipeline) -> None:
        from repro.core.joiner import EditDistanceJoiner
        from repro.index.cache import default_index_cache

        pipeline.prepare_prompts = self.wrap(pipeline.prepare_prompts, "bench.serializer")
        pipeline.aggregate_candidates = self.wrap(
            pipeline.aggregate_candidates, "bench.aggregator"
        )
        engine = pipeline.engine
        engine.run_with_stats = self.wrap(
            engine.run_with_stats,
            "bench.infer",
            after=lambda args, result: self.engine_stats.extend(result[1]),
        )
        joiner = pipeline.joiner
        joiner.join_many = self.wrap(
            joiner.join_many, "bench.join_many", after=self._join_stats(joiner)
        )
        joiners = [joiner] + [
            v for v in vars(joiner).values() if isinstance(v, EditDistanceJoiner)
        ]
        caches = {id(c): c for j in joiners if (c := getattr(j, "cache", None)) is not None}
        if not caches:
            cache = default_index_cache()
            caches[id(cache)] = cache
        self.caches = list(caches.values())
        for cache in self.caches:
            # The process-wide cache outlives the pipelines of repeated
            # set-ups: wrap it once.
            if id(cache) not in self._wrapped:
                self._wrapped.add(id(cache))
                cache.get = self.wrap(self._timed(cache.get), "bench.index")
        for j in joiners:
            if getattr(j, "kernel", None) is not None:
                j.kernel = _KernelProxy(j.kernel, self)

    def _timed(self, fn):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.index_seconds += time.perf_counter() - started

        return timed

    def _join_stats(self, joiner):
        def after(args, result):
            probes, targets = args[0], args[1]
            stats = getattr(joiner, "last_join_stats", None)
            if stats is not None:
                self.pending += stats.pending
                self.unique += stats.unique_probes
                return
            # The brute scan publishes no JoinStats: count the same way.
            unique = set(probes)
            column = set(targets)
            self.unique += len(unique)
            self.pending += sum(1 for p in unique if p and p not in column)

        return after

    def cache_counts(self) -> tuple[int, int]:
        return (sum(c.hits for c in self.caches), sum(c.misses for c in self.caches))


def untraced_reference(workload: str, seed: int, seconds: float) -> float:
    """Wall time of the same calls made by an untraced run in a fresh process.

    A fresh process starts as cold as the traced pass that follows, which
    an earlier pass in the same process would not: the induction model
    memoizes across calls.
    """
    argv = [sys.executable, str(Path(__file__).with_name("run.py"))]
    argv += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    report = next(line for line in out.stdout.splitlines() if line.startswith('{"provenance"'))
    return json.loads(report)["details"]["wall_s"]


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int]:
    """An untraced run, then the same calls traced; returns per-layer metrics."""
    from fold import UNATTRIBUTED, fold_traces, prefix_table
    from repro.index.kernels import pairs_scored_snapshot
    from repro.obs.trace import configure_tracing

    instruments = Instruments()
    st = setup(workload, seed, seconds / 2, hook=instruments.install)
    setup_index_s = instruments.index_seconds / len(st.seconds)
    plain_wall = untraced_reference(workload, seed, seconds / 2)
    order = range(len(st.jobs))
    tracer = configure_tracing(capacity=len(order) + 1, slowest=0)
    instruments.engine_stats.clear()
    instruments.pending = instruments.unique = 0
    hits0, misses0 = instruments.cache_counts()
    pairs0 = sum(pairs_scored_snapshot().values())
    traced_calls: list[Call] = []
    started = time.perf_counter()
    for index in order:
        job = st.jobs[index]
        root = tracer.start_trace("bench.pipeline_join", force_sample=True)
        t0 = time.perf_counter()
        with tracer.activate(root):
            results = st.pipeline.join(
                job.sources, job.targets, list(job.examples), expected=job.expected
            )
        root.finish()
        traced_calls.append(Call(index, time.perf_counter() - t0, results))
    traced_wall = time.perf_counter() - started
    info = check(workload, st.jobs, traced_calls)
    traces = tracer.collector.snapshot()["recent"]
    totals = fold_traces(traces, prefix_table(LAYER_SPANS))
    hits1, misses1 = instruments.cache_counts()
    pairs = sum(pairs_scored_snapshot().values()) - pairs0
    stats = instruments.engine_stats
    metrics = zero_serve_metrics()
    metrics.update(
        {
            "serializer.self_s": totals.get("serializer", 0.0),
            "infer.self_s": totals.get("infer", 0.0),
            "infer.prompts": sum(s.prompts for s in stats),
            "infer.decoded_rows": sum(s.decoded_rows for s in stats),
            "infer.steps": sum(s.steps for s in stats),
            "infer.row_steps": sum(s.row_steps for s in stats),
            "aggregator.self_s": totals.get("aggregator", 0.0),
            "join.self_s": totals.get("join", 0.0),
            "join.pending_share": instruments.pending / max(instruments.unique, 1),
            "index.build_s": setup_index_s + totals.get("index", 0.0),
            "index.cache_hits": hits1 - hits0,
            "index.cache_misses": misses1 - misses0,
            "kernel.self_s": totals.get("kernel", 0.0),
            "kernel.pairs": pairs,
            "kernel.pairs_per_probe": pairs / max(instruments.pending, 1),
            "unattributed_s": totals.get(UNATTRIBUTED, 0.0),
            "trace.e2e_s": traced_wall,
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.folded": len(traces),
            "trace.requests": len(order),
        }
    )
    info.update({"untraced_s": plain_wall, "traced_s": traced_wall, "calls": len(order)})
    return metrics, info, len(order)


def zero_serve_metrics() -> dict:
    """Serving-layer metrics, which an offline workload does not cross."""
    return {
        "service.queue_wait_p50_ms": 0.0,
        "service.queue_wait_p99_ms": 0.0,
        "service.batch_ms": 0.0,
        "service.requests_per_batch": 0.0,
        "cache.hit_ratio": 0.0,
        "http.handler_ms": 0.0,
        "http.transport_ms": 0.0,
    }
