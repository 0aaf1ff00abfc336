"""The serving workload: HTTP traffic against a freshly started server process.

``serve-closed`` starts ``perfbench/server.py`` (a ByteSeq2Seq route
behind ``ServiceRouter``).  Two keep-alive connections send single-row
``/v1/transform`` requests back to back; about 40% repeat an earlier
row, so the result cache serves them.  An ETL client streaming rows.

One client process drives the load with at most ``nproc`` sending
threads, each owning one keep-alive connection.  Every 200 response is
compared, outside the timed window, with the direct in-process pipeline
call for the same request.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from common import (
    REPO_ROOT,
    BenchError,
    child_env,
    percentile,
    process_peak_rss_mb,
    supported_percentile,
)

HOST = "127.0.0.1"
#: Server starts per run; the median start-to-ready time is ``setup_s``.
SETUP_REPEATS = 3
CLOSED_CLIENTS = 2
CLOSED_REPEAT_SHARE = 0.4
#: A repeat names a row sent at least this many requests earlier, so the
#: first copy has usually completed and the repeat is a cache hit.
REPEAT_DISTANCE = 4
#: Latency limit for ``within_limit_share``: about 1.3 times the p90 of
#: seed runs on a 2-core host (70 ms), so the share follows tail latency.
#: Latencies here sit close together (p50 64 ms), so a limit nearer the
#: p90 puts the share on a cliff: at 80 ms it fell from 0.98 to 0.63
#: when the host slowed by a fifth.
LIMIT_MS = 90.0


@dataclass(frozen=True)
class Request:
    path: str
    body: dict

    @property
    def key(self) -> str:
        return json.dumps([self.path, self.body], sort_keys=True)


@dataclass
class Sample:
    index: int
    status: int
    latency_s: float
    payload: dict | None
    trace_id: str | None


# -- inputs ---------------------------------------------------------------


def closed_requests(seed: int):
    """Request ``i`` of the serve-closed stream (deterministic in ``seed``).

    Rows are citation strings (an abbreviated JAB title plus a volume);
    the examples map three of them to the canonical form.
    """
    from repro.datagen.benchmarks.registry import get_dataset

    tables = get_dataset("JAB", seed)
    rng = random.Random(f"perfbench-closed-{seed}")
    pool = [(s, t) for table in tables for s, t in zip(table.sources, table.targets)]
    examples = [[f"{s} {v}", f"{t} {v}"] for (s, t), v in zip(pool[:3], (12, 345, 67))]
    rows: list[str] = []
    seen: set[str] = set()

    def request(i: int) -> Request:
        while len(rows) <= i:
            j = len(rows)
            if j >= REPEAT_DISTANCE and rng.random() < CLOSED_REPEAT_SHARE:
                rows.append(rows[rng.randrange(j - REPEAT_DISTANCE + 1)])
                continue
            while True:
                source = pool[rng.randrange(len(pool))][0]
                volume = rng.randint(1, 999)
                if f"{source} {volume}" not in seen:
                    break
            seen.add(f"{source} {volume}")
            rows.append(f"{source} {volume}")
        return Request("/v1/transform", {"sources": [rows[i]], "examples": examples})

    return request


# -- server process -------------------------------------------------------


class Server:
    """A server process started from the checkout, ready when ``/readyz`` is 200."""

    def __init__(self, argv: list[str]) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            cwd=REPO_ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._read_port()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self) -> int:
        timer = threading.Timer(120.0, self.process.kill)
        timer.start()
        try:
            for line in self.process.stdout:
                if line.startswith("serving on http://"):
                    return int(line.rsplit(":", 1)[1].split()[0])
        finally:
            timer.cancel()
        raise BenchError(f"server exited before binding (code {self.process.poll()})")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise BenchError("server never became ready")

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT (the server drains and exits), then wait; kill as a last resort."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()


def start_servers(trace: bool, repeats: int) -> tuple[Server, list[float]]:
    """Start ``repeats`` servers one after another; keep the last one running."""
    argv = [sys.executable, str(REPO_ROOT / "perfbench" / "server.py")]
    argv += ["--trace-sample-rate", "1" if trace else "0"]
    times = []
    server = None
    for _ in range(repeats):
        if server is not None:
            server.stop()
        server = Server(argv)
        times.append(server.setup_s)
    return server, times


# -- load generator -------------------------------------------------------


def _send(conn: http.client.HTTPConnection, request: Request) -> tuple[int, dict | None, str | None]:
    conn.request(
        "POST",
        request.path,
        body=json.dumps(request.body).encode(),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    raw = response.read()
    payload = json.loads(raw) if response.status == 200 else None
    return response.status, payload, response.getheader("X-Repro-Trace-Id")


def closed_loop(port: int, request_at, seconds: float) -> tuple[list[Sample], float]:
    """``CLOSED_CLIENTS`` threads, one keep-alive connection each, sending
    back to back until ``seconds`` elapse."""
    samples: list[Sample] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    counter = itertools.count()
    started = time.perf_counter()
    end = started + seconds

    def worker() -> None:
        conn = http.client.HTTPConnection(HOST, port, timeout=60)
        try:
            while time.perf_counter() < end:
                with lock:
                    i = next(counter)
                    request = request_at(i)
                t0 = time.perf_counter()
                status, payload, trace_id = _send(conn, request)
                sample = Sample(i, status, time.perf_counter() - t0, payload, trace_id)
                with lock:
                    samples.append(sample)
        except BaseException as error:  # re-raised on the main thread
            errors.append(error)
        finally:
            conn.close()

    workers = [threading.Thread(target=worker) for _ in range(CLOSED_CLIENTS)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    if errors:
        raise errors[0]
    return samples, time.perf_counter() - started


# -- correctness ----------------------------------------------------------


class Oracle:
    """Direct in-process ``transform_column`` calls, one per distinct request."""

    def __init__(self) -> None:
        from server import byteseq_pipeline

        self.pipeline = byteseq_pipeline()
        self._memo: dict[str, dict] = {}

    def expected(self, request: Request) -> dict:
        from repro.types import ExamplePair

        key = request.key
        if key not in self._memo:
            examples = [ExamplePair(s, t) for s, t in request.body["examples"]]
            predictions = self.pipeline.transform_column(request.body["sources"], examples)
            want = {"predictions": [p.to_dict() for p in predictions]}
            self._memo[key] = json.loads(json.dumps(want))
        return self._memo[key]


def check(request_at, samples: list[Sample]) -> list[str]:
    """Compare every 200 response with the oracle; returns the mismatches."""
    oracle = Oracle()
    mismatches: list[str] = []
    for sample in samples:
        if sample.status != 200:
            continue
        request = request_at(sample.index)
        got = {k: v for k, v in sample.payload.items() if k != "schema_version"}
        want = oracle.expected(request)
        if got != want:
            mismatches.append(f"request {sample.index} {request.key[:120]}: {got!r:.300} != {want!r:.300}")
    return mismatches


# -- runs -----------------------------------------------------------------


def untraced(seed: int, seconds: float, repeats: int = SETUP_REPEATS):
    """End-to-end metrics of one run with tracing off."""
    server, setup_times = start_servers(False, repeats)
    try:
        request_at = closed_requests(seed)
        samples, wall = closed_loop(server.port, request_at, seconds)
        stats = server.get("/v1/stats")[1]
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    mismatches = check(request_at, samples)
    ok = [s for s in samples if s.status == 200]
    if not ok:
        raise BenchError(f"no request succeeded ({len(samples)} sent)")
    latencies = [s.latency_s * 1e3 for s in ok]
    # Serving is held to equivalence with the in-process pipeline, whose
    # ground-truth quality the offline workloads measure; the untrained
    # model has no ground truth at all.
    accuracy = (len(ok) - len(mismatches)) / len(ok)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "rows_per_s": len(ok) / wall,  # one row per request
        "throughput_rps": len(ok) / wall,
        "p50_ms": percentile(latencies, 50),
        "p90_ms": percentile(latencies, 90),
        "accuracy": accuracy,
        "within_limit_share": sum(x <= LIMIT_MS for x in latencies) / len(samples),
        "success_share": len(ok) / len(samples),
        "peak_rss_mb": rss,
    }
    info = _details(samples, setup_times, mismatches, stats)
    info["mean_latency_s"] = statistics.fmean(latencies) / 1e3
    return metrics, info, len(samples), len(samples) - len(ok)


def _details(samples: list[Sample], setup_times, mismatches, stats) -> dict:
    return {
        "sent": len(samples),
        "succeeded": sum(s.status == 200 for s in samples),
        "failed": sum(s.status != 200 for s in samples),
        "statuses": sorted({s.status for s in samples}),
        "supported_percentile": supported_percentile(len(samples)),
        "setup_runs_s": setup_times,
        "mismatches": mismatches,
        "server_stats": route_totals(stats),
    }


SERVE_LAYERS = {"POST ": "http", "serve.": "service", "engine.": "infer"}


def traced(seed: int, seconds: float):
    """Untraced and traced windows on fresh servers; per-layer metrics."""
    from fold import UNATTRIBUTED, fold_trace, prefix_table

    _, plain_info, _, _ = untraced(seed, seconds / 2, repeats=1)
    server, _ = start_servers(True, 1)
    try:
        request_at = closed_requests(seed)
        samples, wall = closed_loop(server.port, request_at, seconds / 2)
        stats = server.get("/v1/stats")[1]
        snapshot = server.get(f"/debug/traces?limit={len(samples) + 1}")[1]
    finally:
        server.stop()
    mismatches = check(request_at, samples) + plain_info["mismatches"]
    layer_of = prefix_table(SERVE_LAYERS)
    by_trace = {s.trace_id: s for s in samples if s.status == 200}
    traces = [t for t in snapshot["recent"] if t["trace_id"] in by_trace]
    totals: dict[str, float] = {}
    handler, transport, queue_wait, batch = [], [], [], []
    e2e = 0.0
    for trace in traces:
        folded = fold_trace(trace["spans"], layer_of)
        for layer, secs in folded.items():
            totals[layer] = totals.get(layer, 0.0) + secs
        sample = by_trace[trace["trace_id"]]
        e2e += sample.latency_s
        transport.append((sample.latency_s - trace["duration_s"]) * 1e3)
        handler.append(folded.get("http", 0.0) * 1e3)
        for span in trace["spans"]:
            if span["name"] == "serve.queue_wait":
                queue_wait.append(span["duration_s"] * 1e3)
            elif span["name"] == "serve.batch_execute":
                batch.append(span["duration_s"] * 1e3)
    totals["transport"] = sum(transport) / 1e3
    stats = route_totals(stats)
    traced_ok = len(by_trace)
    # The transform path crosses no serializer, aggregator, joiner, index
    # or kernel span.
    metrics = {
        name: 0.0
        for name in (
            "serializer.self_s",
            "aggregator.self_s",
            "join.self_s",
            "join.pending_share",
            "index.build_s",
            "index.cache_hits",
            "index.cache_misses",
            "kernel.self_s",
            "kernel.pairs",
            "kernel.pairs_per_probe",
        )
    }
    metrics.update(
        {
            "infer.self_s": totals.get("infer", 0.0),
            "infer.prompts": stats["engine_prompts"],
            "infer.decoded_rows": stats["engine_decoded_rows"],
            "infer.steps": stats["engine_steps"],
            "infer.row_steps": stats["engine_row_steps"],
            "service.queue_wait_p50_ms": _pct(queue_wait, 50),
            "service.queue_wait_p99_ms": _pct(queue_wait, 99),
            "service.batch_ms": _pct(batch, 50),
            "service.requests_per_batch": stats["batched_requests"] / max(stats["batches"], 1),
            "cache.hit_ratio": _ratio(stats, "cache_hits", "cache_misses"),
            "http.handler_ms": _pct(handler, 50),
            "http.transport_ms": _pct(transport, 50),
            "unattributed_s": e2e - sum(totals.values()) + totals.get(UNATTRIBUTED, 0.0),
            "trace.e2e_s": e2e,
            "trace.overhead_s": e2e - len(traces) * plain_info["mean_latency_s"],
            "trace.folded": len(traces),
            "trace.requests": len(samples),
        }
    )
    info = _details(samples, [], mismatches, stats)
    info.update({"untraced": plain_info, "layer_totals_s": totals, "wall_s": wall})
    return metrics, info, len(samples), len(samples) - traced_ok


def _pct(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def route_totals(stats: dict) -> dict:
    """Service counters summed over every route of a ``/v1/stats`` body."""
    routes = [r["stats"] for r in stats.get("routes", {}).values()] or [stats]
    return {
        key: sum(r[key] for r in routes)
        for key, value in routes[0].items()
        if isinstance(value, int)
    }


def _ratio(stats: dict, hits: str, misses: str) -> float:
    total = stats[hits] + stats[misses]
    return stats[hits] / total if total else 0.0
