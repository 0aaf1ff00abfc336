"""Parallel sharded execution for the batched join.

:class:`JoinWorkerPool` owns a :class:`~concurrent.futures.ProcessPoolExecutor`
that **persists across** :meth:`~repro.index.joiner.IndexedJoiner.join_many`
calls — the pool is created on the first parallel batch and reused until
:meth:`JoinWorkerPool.close` (the serving layer closes it on shutdown;
a garbage-collected joiner releases it through the executor's own
finalization).  Each call fans its length buckets out across the pool
and merges the results deterministically.  The contract is the
engine-wide one: **byte-identical results to the serial scan**, which
the sharding preserves by construction —

* a bucket probe's argmin depends only on ``(index, length, probe)``,
  never on which other probes share the bucket, so buckets can split
  anywhere;
* every worker scores against an equal-content index — resolved from
  its own content-keyed cache (seeded with the parent's cache under the
  ``fork`` start method, loaded from the shared on-disk tier, or
  rebuilt from the column shipped with the shard; all three construct
  the identical structure); and
* the merge keys results by probe value, so completion order is
  irrelevant.

Because the pool outlives any single call, shards are addressed by
**column fingerprint**: a column's bytes ship with its shards only the
first time the pool sees it, after which shards go fingerprint-only
and resolve through each worker's fingerprint memo (a worker that
still misses — freshly spawned, or its memo evicted the entry — raises
for a one-shot resend with the column attached).  That is what makes
reuse pay in a serving deployment: repeated joins against the same hot
target columns stop paying worker startup, index resolution, *and*
column serialization.

Shards are planned by **candidate mass**, not probe count: a bucket's
per-probe cost scales with how many targets sit within the near-length
window, so a skewed workload (thousands of probes at the column's modal
length) is split into more pieces than its probe share alone would
suggest.  Workers return ``(value_id, distance)`` pairs as reduced
``int32`` arrays — the parent maps ids back to strings through its own
index — so result pickling stays cheap even for very wide batches.

Worker startup prefers the ``fork`` start method where the platform
offers it and no other threads are alive (forking a multi-threaded
process is a deadlock hazard): the parent's index cache arrives by
copy-on-write, so workers usually begin scoring without building or
loading anything.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass

import numpy as np

from repro.index.cache import (
    IndexCache,
    column_fingerprint,
    default_index_cache,
)
from repro.index.qgram import QGramIndex


@dataclass(frozen=True)
class JoinStats:
    """Counters from one :meth:`IndexedJoiner.join_many` call.

    Attributes:
        probes: Probe rows requested (duplicates included).
        unique_probes: Distinct probe values after deduplication.
        exact_matches: Unique probes resolved by exact-match lookup.
        empty_probes: Unique probes that were abstentions (``""``).
        pending: Unique probes that went through bucketed scoring.
        buckets: Length buckets those probes formed.
        n_workers: Worker processes the pool could run for this call
            (capped by the shard count; 1 = serial execution).
        shards: Bucket shards dispatched to the pool (0 when serial).
        shard_sizes: Probe count of each shard, in dispatch order.
        cache_hits: In-memory index-cache hits during the call.
        cache_misses: In-memory index-cache misses during the call.
        disk_hits: On-disk index-cache hits — the parent's plus those
            newly reported by shard-executing workers during this call
            (fork-started workers inherit the parent's in-memory cache
            and usually pay none).
        disk_misses: On-disk index-cache misses, same accounting;
            zero when no disk tier is configured.
        kernel_backend: Resolved kernel backend the joiner scored with
            (``"auto"`` means per-call dispatch; the per-backend pairs
            show what actually ran).
        kernel_pairs: ``(backend_name, pairs_scored)`` tuples — how
            many (probe, candidate) pairs each concrete kernel backend
            scored during this call, parent process plus per-shard
            worker deltas.  Zero-count backends are omitted.  Parent
            counts come from the process-wide tally, so concurrent
            joins from other threads of the same process would be
            attributed to whichever call snapshots last — the engines
            serialize joins (the serving layer through its batch
            executor), which keeps the accounting exact.
        filter_s: Seconds spent generating candidates (the q-gram
            index's length, count and bag filters, plus the
            max-overlap neighbour probe) inside the kernel sweep.
        kernel_s: Seconds spent in kernel pair-DP calls inside the
            kernel sweep.  Both are summed across shard workers, so
            under parallelism they can exceed the sweep's wall time;
            what neither covers (gathers, merges, pool transport) is
            the sweep's remainder.
    """

    probes: int = 0
    unique_probes: int = 0
    exact_matches: int = 0
    empty_probes: int = 0
    pending: int = 0
    buckets: int = 0
    n_workers: int = 1
    shards: int = 0
    shard_sizes: tuple[int, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    kernel_backend: str = "auto"
    kernel_pairs: tuple[tuple[str, int], ...] = ()
    filter_s: float = 0.0
    kernel_s: float = 0.0

    def as_dict(self) -> dict:
        """JSON-friendly dict form (tuples become lists/mappings)."""
        out = asdict(self)
        out["shard_sizes"] = list(out["shard_sizes"])
        out["kernel_pairs"] = dict(out["kernel_pairs"])
        return out


@dataclass(frozen=True)
class PoolStats:
    """What one pool run can report back to ``join_many``."""

    workers: int
    shards: int
    shard_sizes: tuple[int, ...]
    disk_hits: int
    disk_misses: int
    #: Summed per-shard ``(backend, pairs)`` deltas from the workers.
    kernel_pairs: tuple[tuple[str, int], ...] = ()
    #: Summed per-shard filter and kernel seconds from the workers.
    filter_s: float = 0.0
    kernel_s: float = 0.0


# Target shards per worker: a few pieces of slack per process so one
# slow shard (a dense region of the column) doesn't leave the rest of
# the pool idle at the tail of the batch.
_OVERSPLIT = 4

# Worker-process state, set once per worker by :func:`_init_worker`.
_WORKER_CACHE: IndexCache | None = None
_WORKER_DISK_BASE: tuple[int, int] = (0, 0)
# Fingerprint -> resolved index, so warm shards carry no column at all.
_WORKER_INDEXES: OrderedDict[str, QGramIndex] = OrderedDict()
_WORKER_INDEX_CAP = 8


class _ColumnNeeded(Exception):
    """A worker lacks the index behind a column fingerprint.

    Raised by :func:`_score_shard` when a shard arrives fingerprint-only
    (the warm path) but this worker has never resolved that column — a
    freshly spawned worker, or one whose small fingerprint memo evicted
    it.  The parent catches it and resubmits the shard with the column
    attached, so the protocol is self-healing at the cost of one extra
    round trip on the cold path.
    """

    @property
    def shard_id(self) -> int:
        return self.args[0]


def plan_shards(
    index: QGramIndex, buckets: dict[int, list[str]], n_workers: int
) -> list[tuple[int, list[str]]]:
    """Split length buckets into pool shards balanced by candidate mass.

    A probe's scoring cost is dominated by how many targets sit near its
    length, so each bucket's mass is ``probes x near-window targets``.
    Buckets whose mass exceeds the per-shard target (total mass spread
    over ``n_workers x oversplit`` shards) are split into probe chunks;
    small buckets ship whole.  The plan is a pure function of the
    inputs, so parent and test harnesses can reproduce it exactly.
    """
    # Imported lazily: joiner imports this module for the pool, so a
    # module-level import here would cycle.
    from repro.index.joiner import IndexedJoiner

    sorted_lengths = np.sort(index.lengths)
    window = IndexedJoiner._NEAR_LENGTHS
    entries: list[tuple[int, list[str], int]] = []
    total_mass = 0
    for length, bucket in buckets.items():
        lo = np.searchsorted(sorted_lengths, length - window, side="left")
        hi = np.searchsorted(sorted_lengths, length + window, side="right")
        mass = max(int(hi - lo), 1)
        entries.append((length, bucket, mass))
        total_mass += mass * len(bucket)
    if not entries:
        return []
    shard_target = max(1, -(-total_mass // (n_workers * _OVERSPLIT)))
    shards: list[tuple[int, list[str]]] = []
    for length, bucket, mass in entries:
        chunk = max(1, shard_target // mass)
        for start in range(0, len(bucket), chunk):
            shards.append((length, bucket[start : start + chunk]))
    return shards


def pool_context() -> multiprocessing.context.BaseContext:
    """Pick a start method: ``fork`` when it is safe, else a fresh start.

    ``fork`` is preferred — cheap startup, and the parent's built state
    (index caches, model weights) arrives copy-on-write — but forking a
    multi-threaded process is a deadlock hazard: any lock held by
    another thread at fork time (the index cache's own lock included)
    stays held forever in the child.  With other threads alive (the
    serving layer's scheduler, a caller's thread pool), fall back to
    ``forkserver``/``spawn``, which start workers from a clean
    interpreter.

    This policy is shared process-spawning machinery: the join engine's
    :class:`JoinWorkerPool` and the serving tier's
    :class:`~repro.serve.workers.ServeWorkerPool` both decide fork
    safety through it, so "fork-first, but never fork a threaded
    parent" holds everywhere worker processes are started.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


#: Backwards-compatible alias (pre-PR-9 internal name).
_pool_context = pool_context


def _init_worker(
    inherited_cache: IndexCache | None,
    cache_dir: str | None,
    use_default_cache: bool,
) -> None:
    """Set up this worker's index cache, once per worker process.

    Under the ``fork`` start method the parent's cache object rides in
    directly (initargs are inherited memory, never pickled), so the
    worker starts with every index the parent had already built.
    Fresh-start workers build their own cache over the same on-disk
    tier instead.  Either way the worker records its disk-counter
    baseline so shards can report deltas attributable to pool work.
    """
    global _WORKER_CACHE, _WORKER_DISK_BASE
    if inherited_cache is not None:
        _WORKER_CACHE = inherited_cache
    elif use_default_cache:
        _WORKER_CACHE = default_index_cache()
    else:
        _WORKER_CACHE = IndexCache(cache_dir=cache_dir)
    _WORKER_DISK_BASE = (_WORKER_CACHE.disk_hits, _WORKER_CACHE.disk_misses)


def _resolve_worker_index(
    shard_id: int,
    fingerprint: str,
    column: tuple[str, ...] | None,
    q: int | None,
) -> QGramIndex:
    """Resolve one column's index through this worker's memo/cache.

    A miss with no column attached raises :class:`_ColumnNeeded` so the
    parent can resubmit the shard with the column bytes.
    """
    cache = _WORKER_CACHE
    assert cache is not None, "worker initialized without a cache"
    index = _WORKER_INDEXES.get(fingerprint)
    if index is None:
        if column is None:
            raise _ColumnNeeded(shard_id)
        index = cache.get(column, q=q)
        _WORKER_INDEXES[fingerprint] = index
        while len(_WORKER_INDEXES) > _WORKER_INDEX_CAP:
            _WORKER_INDEXES.popitem(last=False)
    else:
        _WORKER_INDEXES.move_to_end(fingerprint)
    return index


def _worker_scorer(q: int | None, kernel_backend: str = "auto"):
    """Build the per-shard serial scorer (lazy import breaks the cycle).

    ``kernel_backend`` is the parent joiner's *resolved* backend name,
    so workers score with the same kernel whatever their environment
    says (``"auto"`` stays per-call dispatch, which resolves the same
    way in every process).
    """
    from repro.core.join_config import JoinConfig
    from repro.index.joiner import IndexedJoiner

    cache = _WORKER_CACHE
    assert cache is not None, "worker initialized without a cache"
    return IndexedJoiner(
        JoinConfig(q=q, n_workers=1, kernel_backend=kernel_backend),
        cache=cache,
    )


def _worker_disk_counters() -> tuple[int, int]:
    """This worker's disk-tier deltas since worker start."""
    cache = _WORKER_CACHE
    assert cache is not None, "worker initialized without a cache"
    return (
        cache.disk_hits - _WORKER_DISK_BASE[0],
        cache.disk_misses - _WORKER_DISK_BASE[1],
    )


def _score_shard(
    shard_id: int,
    length: int,
    probes: list[str],
    fingerprint: str,
    column: tuple[str, ...] | None,
    q: int | None,
    kernel_backend: str = "auto",
    k: int | None = None,
) -> tuple:
    """Score one shard; ship the results as reduced int32 arrays.

    Shards are addressed by column *fingerprint*: warm shards (the
    persistent pool's steady state) carry no column bytes at all and
    resolve through this worker's fingerprint memo; a miss with no
    column attached raises :class:`_ColumnNeeded` so the parent can
    resubmit with the column, which the worker then resolves through
    its content-keyed cache (memory, disk tier, or rebuild).  The
    payload carries value ids, not matched strings — the parent owns an
    equal-content index and maps ids back — plus this worker's pid and
    disk-tier counters (cumulative since worker start) so the parent
    can aggregate per-process cache behaviour without double-counting
    shards.

    With ``k`` set the shard runs the top-k bucket instead of the
    argmin: the payload becomes a ragged triple — per-probe candidate
    counts plus flat ``(vids, distances)`` arrays in rank order — which
    the parent slices back per probe.

    Each payload also carries this shard's per-backend kernel-pairs
    delta (snapshotted around the scoring, so persistent workers never
    double-report across shards or calls) and its ``(filter_s,
    kernel_s)`` seconds.
    """
    from repro.index.kernels import pairs_scored_snapshot

    index = _resolve_worker_index(shard_id, fingerprint, column, q)
    scorer = _worker_scorer(q, kernel_backend)
    pairs_before = pairs_scored_snapshot()
    if k is not None:
        ranked = scorer._topk_bucket(index, length, probes, k)
        counts = np.fromiter(
            (len(ranked[probe]) for probe in probes),
            dtype=np.int32,
            count=len(probes),
        )
        flat = [pair for probe in probes for pair in ranked[probe]]
        distances = np.fromiter(
            (distance for distance, _ in flat), dtype=np.int32, count=len(flat)
        )
        vids = np.fromiter(
            (vid for _, vid in flat), dtype=np.int32, count=len(flat)
        )
        payload = (counts, vids, distances)
    else:
        argmin = scorer._argmin_bucket(index, length, probes)
        vids = np.fromiter(
            (argmin[probe][0] for probe in probes),
            dtype=np.int32,
            count=len(probes),
        )
        distances = np.fromiter(
            (argmin[probe][1] for probe in probes),
            dtype=np.int32,
            count=len(probes),
        )
        payload = (vids, distances)
    kernel_pairs = tuple(
        (name, count - pairs_before.get(name, 0))
        for name, count in pairs_scored_snapshot().items()
        if count - pairs_before.get(name, 0)
    )
    disk_hits, disk_misses = _worker_disk_counters()
    return (
        shard_id,
        os.getpid(),
        disk_hits,
        disk_misses,
        kernel_pairs,
        (scorer._clock.filter_s, scorer._clock.kernel_s),
        *payload,
    )


def _composite_shard(
    shard_id: int,
    probes: list[tuple[str, ...]],
    fingerprints: list[str],
    columns: list[tuple[str, ...]] | None,
    qs: list[int | None],
    kernel_backend: str = "auto",
) -> tuple:
    """Resolve one composite-probe shard against per-column indexes.

    Same fingerprint-addressed protocol as :func:`_score_shard`, one
    fingerprint per target column; the payload is the per-probe
    ``(best_row, best_sum, matched_length)`` triple as int32 arrays
    (thresholds are applied by the parent, keeping rejection semantics
    in one place).
    """
    from repro.index.joiner import IndexedJoiner

    indexes = [
        _resolve_worker_index(
            shard_id,
            fingerprint,
            columns[position] if columns is not None else None,
            qs[position],
        )
        for position, fingerprint in enumerate(fingerprints)
    ]
    scorer = _worker_scorer(qs[0], kernel_backend)
    row_vids = [IndexedJoiner._row_value_ids(index) for index in indexes]
    rows = np.empty(len(probes), dtype=np.int32)
    sums = np.empty(len(probes), dtype=np.int32)
    lengths = np.empty(len(probes), dtype=np.int32)
    for j, probe in enumerate(probes):
        best_row, best_sum, matched_length = scorer._composite_argmin(
            indexes, row_vids, probe
        )
        rows[j] = best_row
        sums[j] = best_sum
        lengths[j] = matched_length
    disk_hits, disk_misses = _worker_disk_counters()
    return shard_id, os.getpid(), disk_hits, disk_misses, rows, sums, lengths


class JoinWorkerPool:
    """A process pool reused across ``join_many`` calls.

    Args:
        n_workers: Maximum worker processes (the executor spawns them
            on demand, so a pool sized for peak load costs nothing
            while idle).
        cache: The owning joiner's index cache; under the ``fork``
            start method it is inherited by workers copy-on-write, and
            its ``cache_dir`` names the on-disk tier fresh-start
            workers share.
        q: Gram size the owning joiner resolves indexes at (``None`` =
            adaptive), forwarded to workers with every shard.
        kernel_backend: The owning joiner's *resolved* kernel-backend
            name, forwarded to workers with every shard so sharded
            scoring runs the exact kernel the serial path would.

    The pool is not itself thread-safe — it executes one ``join_many``
    at a time, which is how :class:`~repro.index.joiner.IndexedJoiner`
    drives it (the serving layer serializes joins through its batch
    executor).  ``close()`` is idempotent; a closed pool refuses new
    work.
    """

    def __init__(
        self,
        n_workers: int,
        cache: IndexCache,
        q: int | None = None,
        kernel_backend: str = "auto",
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.q = q
        self.kernel_backend = kernel_backend
        self._cache = cache
        self._executor: ProcessPoolExecutor | None = None
        self._fork_started = False
        self._closed = False
        # Per-pid cumulative disk counters already credited to earlier
        # calls, so each call reports only its own delta.
        self._credited_disk: dict[int, tuple[int, int]] = {}
        # Column fingerprints whose columns have already been shipped to
        # this executor's workers (warm shards go fingerprint-only).
        self._shipped_fps: set[str] = set()

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if (
            self._executor is not None
            and self._fork_started
            and threading.active_count() > 1
        ):
            # The fork decision was made while single-threaded, but the
            # executor forks workers lazily at submit time — doing that
            # now, with other threads alive, risks inheriting a held
            # lock forever.  Rebuild from a fresh-start context before
            # accepting more work (the per-call re-check PR4's one-shot
            # pools performed implicitly).
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._executor is None:
            context = _pool_context()
            self._fork_started = context.get_start_method() == "fork"
            self._credited_disk.clear()
            self._shipped_fps.clear()
            if self._fork_started:
                # Initargs are inherited through fork, not pickled, so
                # the cache object (locks and all) rides in directly.
                initargs = (self._cache, None, False)
            else:
                cache_dir = (
                    str(self._cache.cache_dir)
                    if self._cache.cache_dir is not None
                    else None
                )
                initargs = (
                    None,
                    cache_dir,
                    self._cache is default_index_cache(),
                )
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=initargs,
            )
        return self._executor

    def run_buckets(
        self,
        index: QGramIndex,
        buckets: dict[int, list[str]],
        targets: Sequence[str],
        k: int | None = None,
    ) -> tuple[dict, PoolStats]:
        """Run every bucket's argmin (or top-k) through the pool.

        With ``k=None`` returns the merged ``probe -> (winner_value_id,
        distance)`` mapping — byte-identical to running
        :meth:`IndexedJoiner._argmin_bucket` serially per bucket — plus
        the pool counters for :class:`JoinStats`.  With ``k`` set, the
        mapping is ``probe -> [(distance, value_id), ...]`` in rank
        order, byte-identical to :meth:`IndexedJoiner._topk_bucket`.
        """
        shards = plan_shards(index, buckets, self.n_workers)
        if not shards:
            return {}, PoolStats(0, 0, (), 0, 0, ())
        try:
            return self._run_shards(index, shards, targets, k)
        except BrokenProcessPool:
            # A killed worker (OOM, signal) breaks the executor for
            # good.  Fail this call, but discard the executor so the
            # next call starts a fresh one — a crash costs one batch,
            # exactly as it did with per-call pools.
            self._discard_executor()
            raise

    def run_composite(
        self,
        indexes: Sequence[QGramIndex],
        probes: list[tuple[str, ...]],
        columns: Sequence[Sequence[str]],
    ) -> dict[tuple[str, ...], tuple[int, int, int]]:
        """Shard composite probes across the pool and merge the results.

        Returns ``probe -> (best_row, best_sum, matched_length)``,
        byte-identical to :meth:`IndexedJoiner._composite_argmin` per
        probe (each probe's result depends only on the indexes and the
        probe itself, so the chunking is irrelevant).  Columns ship by
        fingerprint with the same first-sighting / resend protocol as
        :meth:`run_buckets`.
        """
        if not probes:
            return {}
        chunk = max(1, -(-len(probes) // (self.n_workers * _OVERSPLIT)))
        shards = [
            probes[start : start + chunk]
            for start in range(0, len(probes), chunk)
        ]
        try:
            return self._run_composite_shards(indexes, shards, columns)
        except BrokenProcessPool:
            self._discard_executor()
            raise

    def _run_composite_shards(
        self,
        indexes: Sequence[QGramIndex],
        shards: list[list[tuple[str, ...]]],
        columns: Sequence[Sequence[str]],
    ) -> dict[tuple[str, ...], tuple[int, int, int]]:
        executor = self._ensure_executor()
        column_tuples = [tuple(column) for column in columns]
        qs = [index.q for index in indexes]
        fingerprints = [
            column_fingerprint(column, q)
            for column, q in zip(column_tuples, qs, strict=True)
        ]
        cold = any(fp not in self._shipped_fps for fp in fingerprints)
        shipped = column_tuples if cold else None
        self._shipped_fps.update(fingerprints)
        futures = [
            executor.submit(
                _composite_shard,
                shard_id,
                shard,
                fingerprints,
                shipped,
                qs,
                self.kernel_backend,
            )
            for shard_id, shard in enumerate(shards)
        ]
        argmins: dict[tuple[str, ...], tuple[int, int, int]] = {}
        worker_disk: dict[int, tuple[int, int]] = {}
        for future in futures:
            try:
                result = future.result()
            except _ColumnNeeded as missing:
                result = executor.submit(
                    _composite_shard,
                    missing.shard_id,
                    shards[missing.shard_id],
                    fingerprints,
                    column_tuples,
                    qs,
                    self.kernel_backend,
                ).result()
            shard_id, pid, disk_hits, disk_misses, rows, sums, lengths = result
            for probe, row, total, length in zip(
                shards[shard_id],
                rows.tolist(),
                sums.tolist(),
                lengths.tolist(),
                strict=True,
            ):
                argmins[probe] = (row, total, length)
            worker_disk[pid] = (disk_hits, disk_misses)
        self._credit_disk(worker_disk)
        return argmins

    def _credit_disk(self, worker_disk: dict[int, tuple[int, int]]) -> tuple[int, int]:
        """Turn per-pid cumulative disk counters into this call's delta."""
        call_hits = 0
        call_misses = 0
        for pid, (disk_hits, disk_misses) in worker_disk.items():
            seen_hits, seen_misses = self._credited_disk.get(pid, (0, 0))
            call_hits += disk_hits - seen_hits
            call_misses += disk_misses - seen_misses
            self._credited_disk[pid] = (disk_hits, disk_misses)
        return call_hits, call_misses

    def _discard_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def _run_shards(
        self,
        index: QGramIndex,
        shards: list[tuple[int, list[str]]],
        targets: Sequence[str],
        k: int | None = None,
    ) -> tuple[dict, PoolStats]:
        executor = self._ensure_executor()
        column = tuple(targets)
        fingerprint = column_fingerprint(column, index.q)
        # First sighting of a column ships its bytes with every shard;
        # after that, shards go fingerprint-only and a worker that
        # still misses (fresh process, evicted memo) asks for a resend.
        shipped = None if fingerprint in self._shipped_fps else column
        self._shipped_fps.add(fingerprint)
        futures = [
            executor.submit(
                _score_shard,
                shard_id,
                length,
                probes,
                fingerprint,
                shipped,
                self.q,
                self.kernel_backend,
                k,
            )
            for shard_id, (length, probes) in enumerate(shards)
        ]
        argmins: dict = {}
        worker_disk: dict[int, tuple[int, int]] = {}
        call_pairs: dict[str, int] = {}
        filter_s = kernel_s = 0.0
        for future in futures:
            try:
                result = future.result()
            except _ColumnNeeded as missing:
                length, probes = shards[missing.shard_id]
                result = executor.submit(
                    _score_shard,
                    missing.shard_id,
                    length,
                    probes,
                    fingerprint,
                    column,
                    self.q,
                    self.kernel_backend,
                    k,
                ).result()
            if k is not None:
                (
                    shard_id,
                    pid,
                    disk_hits,
                    disk_misses,
                    shard_pairs,
                    shard_seconds,
                    counts,
                    vids,
                    distances,
                ) = result
                _, probes = shards[shard_id]
                offsets = np.concatenate(([0], np.cumsum(counts)))
                vid_list = vids.tolist()
                dist_list = distances.tolist()
                for j, probe in enumerate(probes):
                    lo, hi = int(offsets[j]), int(offsets[j + 1])
                    argmins[probe] = list(
                        zip(dist_list[lo:hi], vid_list[lo:hi], strict=True)
                    )
            else:
                (
                    shard_id,
                    pid,
                    disk_hits,
                    disk_misses,
                    shard_pairs,
                    shard_seconds,
                    vids,
                    distances,
                ) = result
                _, probes = shards[shard_id]
                for probe, vid, distance in zip(
                    probes, vids.tolist(), distances.tolist(), strict=True
                ):
                    argmins[probe] = (vid, distance)
            worker_disk[pid] = (disk_hits, disk_misses)
            for name, count in shard_pairs:
                call_pairs[name] = call_pairs.get(name, 0) + count
            filter_s += shard_seconds[0]
            kernel_s += shard_seconds[1]
        call_hits, call_misses = self._credit_disk(worker_disk)
        return argmins, PoolStats(
            workers=min(self.n_workers, len(shards)),
            shards=len(shards),
            shard_sizes=tuple(len(probes) for _, probes in shards),
            disk_hits=call_hits,
            disk_misses=call_misses,
            kernel_pairs=tuple(sorted(call_pairs.items())),
            filter_s=filter_s,
            kernel_s=kernel_s,
        )

    def close(self) -> None:
        """Shut the executor down; idempotent."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> JoinWorkerPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
