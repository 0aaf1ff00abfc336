"""Blocked join strategies, drop-in compatible with the brute joiner.

:class:`IndexedJoiner` resolves Eq. 5's argmin through a
:class:`~repro.index.qgram.QGramIndex` plus the batched DP kernel, with
**exact equivalence** to :class:`~repro.core.joiner.EditDistanceJoiner`:
identical matches, distances, earliest-row tie-breaking, and
``max_distance`` / ``normalized_threshold`` semantics.  The argmin uses
iterative cap deepening — candidates within cap ``k`` are generated
(provably completely), scored, and if none scores ``<= k`` the cap
doubles; because the candidate set at cap ``k`` contains *every* target
within ``k``, the first round that finds a distance ``<= k`` has found
the global minimum and all its ties.

Two batch layers amortize that work across a whole source column:

* :meth:`IndexedJoiner.join_many` deduplicates identical probes,
  resolves exact matches with one dictionary lookup each, buckets the
  remaining probes by length, and runs candidate generation and the
  pair DP kernel per bucket — one kernel sweep per (bucket, cap) round
  instead of one per probe.  Cap deepening **reuses scores**: the cap-1
  round scores its candidates with a cap-2 kernel, so the cap-2 round
  scores only the candidates the wider filters newly admit.
* A process-level :class:`~repro.index.cache.IndexCache` shares one
  index per target-column *content* (entries are keyed on the column
  values themselves, so stale or aliased indexes are impossible)
  across joiners, pipelines, and eval runs — optionally backed by an
  on-disk tier shared across processes.

Above a workload threshold (or at an explicit ``n_workers``),
``join_many`` shards its buckets across a **persistent** process pool
(:mod:`repro.index.parallel`) with a deterministic merge; the pool —
and each worker's resolved indexes — survive across calls, so repeated
joins pay worker startup once.  Results are byte-identical to the
serial engine in every configuration.  Long-lived owners should
``close()`` the joiner (or use it as a context manager) to tear the
pool down deterministically.

:class:`AutoJoiner` picks the brute scan for small target columns (where
index construction dominates) and the blocked engine above a row-count
threshold.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.exceptions import JoinError
from repro.index.cache import IndexCache, default_index_cache
from repro.index.kernel import encode_strings
from repro.index.kernels import pairs_scored_snapshot
from repro.index.qgram import QGramIndex
from repro.obs.trace import get_tracer

if TYPE_CHECKING:
    from repro.index.parallel import JoinStats, JoinWorkerPool


class _PhaseClock(threading.local):
    """Per-thread running seconds in candidate generation and the kernel.

    Cumulative: ``join_many`` (and each parallel shard) reports the
    difference across its own work, so joins on other threads of the
    same joiner never leak into its :class:`JoinStats`.
    """

    filter_s = 0.0
    kernel_s = 0.0


class IndexedJoiner(EditDistanceJoiner):
    """Q-gram-blocked edit-distance joiner (exactly equivalent to brute).

    Indexes are obtained from an :class:`IndexCache` keyed by the
    target column's content, so equal columns share one index across
    joiners and any mutation of a cached column — including same-length
    in-place cell edits — is detected and forces a rebuild.

    Args:
        config: All tunables in one frozen
            :class:`~repro.core.JoinConfig` — thresholds, ``q``
            (``None`` = adaptive per column via
            :func:`~repro.index.qgram.adaptive_q`), ``n_workers``
            (``None`` auto-picks ``os.cpu_count()`` capped when a batch
            has at least ``parallel_threshold`` unresolved probes and
            runs serially below; ``1`` forces serial; ``>= 2`` always
            shards — results are byte-identical in every
            configuration), ``parallel_threshold``, and the
            ``mode``/``k``/``margin`` query defaults.
        cache: Index cache to use; ``None`` means the process-wide
            shared cache (:func:`~repro.index.cache.default_index_cache`).
            An object dependency, so it stays a direct argument rather
            than a config field.

    Attributes:
        last_join_stats: :class:`~repro.index.parallel.JoinStats` for
            the most recent :meth:`join_many` call (``None`` before the
            first call).
    """

    DEFAULT_PARALLEL_THRESHOLD = 4096
    # Auto mode never spawns more workers than this, however many cores
    # the host reports: shard planning targets a few shards per worker,
    # and past ~8 workers pool startup and result pickling outweigh the
    # extra parallelism for column-scale batches.
    _MAX_AUTO_WORKERS = 8

    # Cells (distance-row entries) per pair-DP chunk: sized so the
    # sweep's working set stays cache-resident (int16 or int32 rows, a
    # few buffers) — measurably faster than streaming one huge block.
    _PAIR_CELL_BUDGET = 1 << 16
    # Pairs per assembly group: bounds the concatenated vids/distances
    # arrays of a (bucket, cap) round regardless of how many candidate
    # pairs the filters admit.
    _PAIR_GROUP_BUDGET = 1 << 22
    # Length-difference radius of the final stage's first wave: the
    # near-length slice of the column that almost always contains the
    # argmin, scored first to tighten the bound for the wide wave.
    _NEAR_LENGTHS = 2

    def __init__(
        self,
        config: JoinConfig | None = None,
        *,
        cache: IndexCache | None = None,
    ) -> None:
        super().__init__(config)
        config = self.config
        self.q = config.q
        self.cache = cache if cache is not None else default_index_cache()
        self.n_workers = config.n_workers
        self.parallel_threshold = config.parallel_threshold
        self.last_join_stats: JoinStats | None = None
        self._pool: JoinWorkerPool | None = None
        self._clock = _PhaseClock()

    def _filter(self, generate, *args):
        """Run a candidate generator of the index, timing it as filter."""
        started = time.perf_counter()
        out = generate(*args)
        self._clock.filter_s += time.perf_counter() - started
        return out

    def _score_pairs(
        self,
        query_codes: np.ndarray,
        cand_codes: np.ndarray,
        cand_lengths: np.ndarray,
        cap: int,
    ) -> np.ndarray:
        """The kernel's pair DP, timed as kernel."""
        started = time.perf_counter()
        out = self.kernel.edit_distance_pairs(
            query_codes, cand_codes, cand_lengths, cap
        )
        self._clock.kernel_s += time.perf_counter() - started
        return out

    def _index_for(self, targets: Sequence[str]) -> QGramIndex:
        return self.cache.get(targets, q=self.q)

    def _resolve_workers(self, pending: int) -> int:
        """Worker count for a batch with ``pending`` unresolved probes."""
        if self.n_workers is not None:
            return self.n_workers if pending else 1
        if pending >= self.parallel_threshold:
            return max(1, min(os.cpu_count() or 1, self._MAX_AUTO_WORKERS))
        return 1

    def _ensure_pool(self, n_workers: int) -> JoinWorkerPool:
        """Get the persistent worker pool, (re)building it on demand.

        One pool lives across ``join_many`` calls — worker startup and
        per-worker index resolution amortize over every batch the
        joiner ever runs — and is replaced only when the resolved
        worker count changes (auto mode crossing a threshold) or after
        an explicit :meth:`close`.
        """
        from repro.index.parallel import JoinWorkerPool

        pool = self._pool
        if pool is not None and (pool.closed or pool.n_workers != n_workers):
            pool.close()
            pool = None
        if pool is None:
            pool = JoinWorkerPool(
                n_workers,
                self.cache,
                q=self.q,
                kernel_backend=self.kernel.name,
            )
            self._pool = pool
        return pool

    def close(self) -> None:
        """Shut down the persistent worker pool (if one was started).

        The joiner remains usable — the next parallel batch simply
        starts a fresh pool — so ``close()`` is safe to call from
        teardown paths that might race a late caller.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _argmin(self, predicted: str, targets: Sequence[str]) -> tuple[str, int]:
        """Earliest-row argmin via the blocked index (same contract as brute).

        Guards and threshold rejection stay in the shared
        :meth:`EditDistanceJoiner.match` / ``_apply_thresholds``; only
        the argmin strategy differs.  A scalar match is simply a
        single-probe bucket, so it shares the batch engine's whole
        ladder — including score reuse and the upper-bound waves.
        """
        index = self._index_for(targets)
        if index.value_id(predicted) is not None:
            return predicted, 0
        vid, best = self._argmin_bucket(index, len(predicted), [predicted])[
            predicted
        ]
        return index.values[vid], best

    def join_many(
        self, probes: Sequence[str], targets: Sequence[str]
    ) -> list[tuple[str | None, int]]:
        """Batched :meth:`match` over a whole probe column.

        Byte-identical to ``[self.match(p, targets) for p in probes]``
        — same matches, distances, earliest-row tie-breaks, and
        threshold abstentions — but the work is amortized: the column
        hash and index lookup happen once, identical probes are
        resolved once, exact matches cost one dictionary lookup, and
        the remaining probes run through bucketed candidate generation
        plus the pair DP kernel.  Above the parallel threshold (or at
        an explicit ``n_workers``) the buckets are sharded across a
        process pool with a deterministic merge; per-probe results do
        not depend on which other probes share a shard, so the sharded
        output is byte-identical too.  Counters for the call land in
        :attr:`last_join_stats`.
        """
        if not probes:
            return []
        if not targets:
            raise JoinError("cannot join into an empty target column")
        # Imported lazily: parallel imports this module for its
        # worker-side scoring, so a module-level import would cycle.
        from repro.index.parallel import JoinStats

        tracer = get_tracer()
        join_span = tracer.start_span("join.join_many")
        cache_hits = self.cache.hits
        cache_misses = self.cache.misses
        disk_hits = self.cache.disk_hits
        disk_misses = self.cache.disk_misses
        pairs_before = pairs_scored_snapshot()
        filter_before = self._clock.filter_s
        kernel_before = self._clock.kernel_s
        # Dedupe: every occurrence of a probe value gets the one result.
        positions: dict[str, list[int]] = {}
        for i, probe in enumerate(probes):
            positions.setdefault(probe, []).append(i)
        try:
            phase_start = time.monotonic()
            index = self._index_for(targets)
            tracer.record_span(
                "join.index_build",
                join_span,
                phase_start,
                time.monotonic(),
                attributes={"targets": len(targets)},
            )
            resolved: dict[str, tuple[str | None, int]] = {}
            buckets: dict[int, list[str]] = {}
            exact_matches = 0
            empty_probes = 0
            phase_start = time.monotonic()
            for probe in positions:
                if probe == "":
                    # Abstention (footnote 2): no match, before thresholds.
                    resolved[probe] = (None, 0)
                    empty_probes += 1
                elif index.value_id(probe) is not None:
                    resolved[probe] = self._apply_thresholds(probe, 0)
                    exact_matches += 1
                else:
                    buckets.setdefault(len(probe), []).append(probe)
            pending = sum(len(bucket) for bucket in buckets.values())
            tracer.record_span(
                "join.candidate_filter",
                join_span,
                phase_start,
                time.monotonic(),
                attributes={
                    "unique_probes": len(positions),
                    "exact_matches": exact_matches,
                    "empty_probes": empty_probes,
                    "pending": pending,
                },
            )
            n_workers = self._resolve_workers(pending)
            phase_start = time.monotonic()
            if n_workers > 1 and pending:
                argmins, pool_stats = self._ensure_pool(n_workers).run_buckets(
                    index, buckets, targets
                )
                n_workers = pool_stats.workers
                shards = pool_stats.shards
                shard_sizes = pool_stats.shard_sizes
                worker_disk_hits = pool_stats.disk_hits
                worker_disk_misses = pool_stats.disk_misses
                worker_pairs = pool_stats.kernel_pairs
                worker_filter_s = pool_stats.filter_s
                worker_kernel_s = pool_stats.kernel_s
            else:
                n_workers = 1
                shards = 0
                shard_sizes = ()
                worker_disk_hits = 0
                worker_disk_misses = 0
                worker_pairs = ()
                worker_filter_s = worker_kernel_s = 0.0
                argmins = {}
                for length, bucket in buckets.items():
                    argmins.update(self._argmin_bucket(index, length, bucket))
            filter_s = self._clock.filter_s - filter_before + worker_filter_s
            kernel_s = self._clock.kernel_s - kernel_before + worker_kernel_s
            tracer.record_span(
                "join.kernel_sweep",
                join_span,
                phase_start,
                time.monotonic(),
                attributes={
                    "buckets": len(buckets),
                    "n_workers": n_workers,
                    "shards": shards,
                    "kernel_backend": self.kernel.name,
                    "filter_s": filter_s,
                    "kernel_s": kernel_s,
                },
            )
        except BaseException as error:
            join_span.set_error(repr(error))
            join_span.finish()
            raise
        for probe, (vid, distance) in argmins.items():
            resolved[probe] = self._apply_thresholds(index.values[vid], distance)
        kernel_pairs = {
            name: count - pairs_before.get(name, 0)
            for name, count in pairs_scored_snapshot().items()
        }
        for name, count in worker_pairs:
            kernel_pairs[name] = kernel_pairs.get(name, 0) + count
        self.last_join_stats = JoinStats(
            probes=len(probes),
            unique_probes=len(positions),
            exact_matches=exact_matches,
            empty_probes=empty_probes,
            pending=pending,
            buckets=len(buckets),
            n_workers=n_workers,
            shards=shards,
            shard_sizes=tuple(shard_sizes),
            cache_hits=self.cache.hits - cache_hits,
            cache_misses=self.cache.misses - cache_misses,
            disk_hits=self.cache.disk_hits - disk_hits + worker_disk_hits,
            disk_misses=self.cache.disk_misses - disk_misses + worker_disk_misses,
            kernel_backend=self.kernel.name,
            kernel_pairs=tuple(
                sorted(
                    (name, count)
                    for name, count in kernel_pairs.items()
                    if count
                )
            ),
            filter_s=filter_s,
            kernel_s=kernel_s,
        )
        join_span.set_attributes(self.last_join_stats.as_dict())
        join_span.finish()
        results: list[tuple[str | None, int]] = [(None, 0)] * len(probes)
        for probe, rows in positions.items():
            result = resolved[probe]
            for i in rows:
                results[i] = result
        return results

    def topk_many(
        self, probes: Sequence[str], targets: Sequence[str], k: int
    ) -> list[list[tuple[int, int, str]]]:
        """Blocked top-k, byte-identical to the brute reference.

        Same dedupe/bucketing frame as :meth:`join_many`; each bucket
        resolves through :meth:`_topk_bucket` (one bound round plus one
        provably sufficient candidate round).  There is no exact-match
        short-circuit — a top-k query needs the runners-up regardless —
        and no per-probe thresholds here; selection/abstention live in
        the shared :meth:`EditDistanceJoiner.topk_join_many`.  Above
        the parallel threshold the buckets shard across the persistent
        worker pool with a deterministic per-probe merge.
        """
        self._validate_topk(targets, k)
        if not probes:
            return []
        positions: dict[str, list[int]] = {}
        for i, probe in enumerate(probes):
            positions.setdefault(probe, []).append(i)
        index = self._index_for(targets)
        resolved: dict[str, list[tuple[int, int, str]]] = {}
        buckets: dict[int, list[str]] = {}
        for probe in positions:
            if probe == "":
                resolved[probe] = []
            else:
                buckets.setdefault(len(probe), []).append(probe)
        pending = sum(len(bucket) for bucket in buckets.values())
        n_workers = self._resolve_workers(pending)
        ranked: dict[str, list[tuple[int, int]]]
        if n_workers > 1 and pending:
            ranked, _ = self._ensure_pool(n_workers).run_buckets(
                index, buckets, targets, k=k
            )
        else:
            ranked = {}
            for length, bucket in buckets.items():
                ranked.update(self._topk_bucket(index, length, bucket, k))
        for probe, pairs in ranked.items():
            resolved[probe] = [
                (distance, int(index.first_rows[vid]), index.values[vid])
                for distance, vid in pairs
            ]
        return [list(resolved[probe]) for probe in probes]

    def _topk_bucket(
        self, index: QGramIndex, length: int, probes: list[str], k: int
    ) -> dict[str, list[tuple[int, int]]]:
        """Ranked ``probe -> [(distance, value_id), ...]`` for one bucket.

        Reuses the argmin ladder's machinery but needs only **one
        extra cap round** beyond the bound probe: exact distances to at
        least ``k`` plausible neighbour values (max-gram-overlap
        targets unioned with the ``k`` nearest-by-length values) make
        the ``k``-th smallest of them a provable upper bound on the
        ``k``-th best distance, so one ``candidates_bucket`` round at
        that bound contains the entire top-k with exact scores.  Like
        :meth:`_argmin_bucket`, each probe's result depends only on
        ``(index, length, probe, k)`` — the basis for dedupe and
        parallel-shard equivalence.
        """
        n_values = len(index.values)
        kk = min(k, n_values)
        vacuous = max(length, index.max_length)
        probe_codes, _ = encode_strings(probes)
        if n_values <= k:
            # The whole column ranks: score every value exactly once.
            all_vids = np.arange(n_values, dtype=np.int64)
            cand_lists = [all_vids] * len(probes)
            dist_lists = self._scored_lists(index, probe_codes, cand_lists, vacuous)
            return {
                probe: self._rank_topk(index, cand_lists[j], dist_lists[j], kk)
                for j, probe in enumerate(probes)
            }
        neighbour_lists = self._filter(index.overlap_best, probes, length, kk)
        # Guarantee >= kk distinct neighbour values per probe so the
        # kk-th smallest exact distance below is well defined.
        nearest = np.sort(
            np.argsort(np.abs(index.lengths - length), kind="stable")[:kk]
        )
        neighbour_lists = [
            np.union1d(neighbours, nearest) for neighbours in neighbour_lists
        ]
        bound_dists = self._scored_lists(
            index, probe_codes, neighbour_lists, vacuous
        )
        by_bound: dict[int, list[int]] = {}
        for j, dists in enumerate(bound_dists):
            bound = int(np.partition(dists, kk - 1)[kk - 1])
            by_bound.setdefault(bound, []).append(j)
        resolved: dict[str, list[tuple[int, int]]] = {}
        for bound, rows in sorted(by_bound.items()):
            group = [probes[j] for j in rows]
            cand_lists = self._filter(index.candidates_bucket, group, length, bound)
            dist_lists = self._scored_lists(
                index, probe_codes[rows], cand_lists, bound
            )
            for j, cands, dists in zip(rows, cand_lists, dist_lists, strict=True):
                keep = dists <= bound
                ranked = self._rank_topk(index, cands[keep], dists[keep], kk)
                if len(ranked) < kk:
                    raise RuntimeError(
                        "q-gram blocking missed top-k candidates within a "
                        "proven upper bound; the completeness invariant is "
                        "broken"
                    )
                resolved[probes[j]] = ranked
        return resolved

    @staticmethod
    def _rank_topk(
        index: QGramIndex,
        cands: np.ndarray,
        dists: np.ndarray,
        kk: int,
    ) -> list[tuple[int, int]]:
        """Top ``kk`` candidates by ``(distance, earliest row)``."""
        order = np.lexsort((index.first_rows[cands], dists))[:kk]
        return [(int(dists[i]), int(cands[i])) for i in order]

    def join_composite(
        self,
        probes: Sequence[Sequence[str]],
        target_columns: Sequence[Sequence[str]],
    ) -> list[tuple[int | None, int]]:
        """Blocked composite join, byte-identical to the brute reference.

        Each target column gets its own cached q-gram index; a probe
        resolves by intersecting per-column candidate **row** sets at a
        summed-distance cap (complete, because a row with summed
        distance ``<= K`` is within ``K`` in every column), scoring the
        surviving rows exactly, and deepening the cap until the best
        scored sum is proven global.  Thresholds apply through the
        shared :meth:`EditDistanceJoiner._apply_composite_thresholds`.
        Above the parallel threshold the deduplicated probes shard
        across the persistent worker pool.
        """
        columns = self._validate_composite(probes, target_columns)
        positions: dict[tuple[str, ...], list[int]] = {}
        for i, probe in enumerate(probes):
            positions.setdefault(tuple(probe), []).append(i)
        resolved: dict[tuple[str, ...], tuple[int | None, int]] = {}
        pending = [
            probe
            for probe in positions
            if not all(part == "" for part in probe)
        ]
        for probe in positions:
            if all(part == "" for part in probe):
                resolved[probe] = (None, 0)
        if pending:
            indexes = [self.cache.get(column, q=self.q) for column in columns]
            n_workers = self._resolve_workers(len(pending))
            if n_workers > 1:
                argmins = self._ensure_pool(n_workers).run_composite(
                    indexes, pending, columns
                )
            else:
                row_vids = [self._row_value_ids(index) for index in indexes]
                argmins = {
                    probe: self._composite_argmin(indexes, row_vids, probe)
                    for probe in pending
                }
            for probe, (best_row, best_sum, matched_length) in argmins.items():
                resolved[probe] = self._apply_composite_thresholds(
                    best_row, best_sum, matched_length
                )
        results: list[tuple[int | None, int]] = [(None, 0)] * len(probes)
        for probe, rows in positions.items():
            result = resolved[probe]
            for i in rows:
                results[i] = result
        return results

    @staticmethod
    def _row_value_ids(index: QGramIndex) -> np.ndarray:
        """Map each target row to its value id, derived from the index.

        Index-only on purpose: parallel workers hold the resolved index
        but (on the warm path) never see the raw column bytes.
        """
        n_values = len(index.values)
        n_rows = sum(len(index.rows_for(vid)) for vid in range(n_values))
        out = np.empty(n_rows, dtype=np.int64)
        for vid in range(n_values):
            out[np.asarray(index.rows_for(vid), dtype=np.int64)] = vid
        return out

    def _composite_argmin(
        self,
        indexes: list[QGramIndex],
        row_vids: list[np.ndarray],
        probe: tuple[str, ...],
    ) -> tuple[int, int, int]:
        """Earliest-row argmin of the summed per-column distance.

        Returns ``(best_row, best_sum, matched_length)`` where
        ``matched_length`` is the total tuple length of the winning row
        (the normalized-threshold denominator).  Cap deepening: if any
        intersected candidate row scores within the cap its sum is the
        proven global minimum (every row within the cap survives the
        per-column filters); otherwise the best scored sum is a proven
        upper bound, so the next round at that cap must resolve.
        """
        vacuous_cols = [
            max(len(part), index.max_length)
            for part, index in zip(probe, indexes, strict=True)
        ]
        total_vacuous = sum(vacuous_cols)
        cap = 1
        while True:
            cap = min(cap, total_vacuous)
            row_set: set[int] | None = None
            for part, index, vacuous in zip(
                probe, indexes, vacuous_cols, strict=True
            ):
                vids = index.candidates(part, min(cap, vacuous))
                rows: set[int] = set()
                for vid in vids:
                    rows.update(int(r) for r in index.rows_for(int(vid)))
                row_set = rows if row_set is None else row_set & rows
                if not row_set:
                    break
            if row_set:
                rows_arr = np.fromiter(
                    sorted(row_set), dtype=np.int64, count=len(row_set)
                )
                totals = np.zeros(rows_arr.size, dtype=np.int64)
                for part, index, vacuous, vids in zip(
                    probe, indexes, vacuous_cols, row_vids, strict=True
                ):
                    unique_vids, inverse = np.unique(
                        vids[rows_arr], return_inverse=True
                    )
                    codes, lengths = index.batch_codes(unique_vids)
                    distances = self.kernel.edit_distance_codes(
                        part, codes, lengths, vacuous
                    )
                    totals += distances[inverse]
                # rows_arr ascends, so argmin lands on the earliest row.
                best_pos = int(np.argmin(totals))
                best_sum = int(totals[best_pos])
                if best_sum <= cap:
                    best_row = int(rows_arr[best_pos])
                    matched_length = sum(
                        len(index.values[int(vids[best_row])])
                        for index, vids in zip(indexes, row_vids, strict=True)
                    )
                    return best_row, best_sum, matched_length
                cap = best_sum
            else:
                if cap >= total_vacuous:
                    raise RuntimeError(
                        "composite candidate intersection empty at the "
                        "vacuous cap; the completeness invariant is broken"
                    )
                cap *= 2

    def _argmin_bucket(
        self, index: QGramIndex, length: int, probes: list[str]
    ) -> dict[str, tuple[int, int]]:
        """Blocked argmin for a bucket of same-length probes.

        Returns ``probe -> (winner_value_id, distance)``; value ids
        keep the hot path (and the parallel workers' result payloads)
        in integer space — callers map ids back to strings through the
        index.  Each probe's result depends only on ``(index, length,
        probe)``, never on which other probes share the bucket, which
        is what makes both probe deduplication and parallel sharding
        byte-identical to the serial scan.

        Two cheap rounds at caps 1 and 2 resolve the near probes — the
        common case for model predictions — on small count-filtered
        candidate blocks, scoring each candidate **once** across the
        ladder (the cap-1 round already scores with the cap-2 kernel,
        so the cap-2 round only scores newly admitted candidates).
        Every probe still unresolved then gets an **upper bound** (the
        exact distance to its max-gram-overlap targets) and finishes in
        two waves, no cap ladder needed:

        * **Wave 1** scores only the near-length candidates
          (``|len - length| <= 2``) at the bound.  The argmin almost
          always lives there, so the wave-1 minimum ``b1`` is a much
          tighter upper bound (``b1 <= bound`` always, since the
          candidate set at the bound provably contains the argmin or
          wave 2 covers it).
        * **Wave 2** scores the remaining candidates at cap ``b1`` —
          any target beating or tying ``b1`` is within edit distance
          ``b1``, hence within the ``b1`` length window and count
          filter — with the kernel's per-pair settlement trimming
          doomed pairs after about ``b1`` DP steps.

        This is the batched analogue of the brute scan's best-so-far
        pruning: far/garbage probes scan the wide part of the column
        exactly once, against the tightest bound known.
        """
        resolved: dict[str, tuple[int, int]] = {}
        pending = self._ladder_rounds(index, length, probes, resolved)
        if not pending:
            return resolved
        probe_codes, _ = encode_strings(pending)
        bounds = self._upper_bounds(index, length, pending, probe_codes)
        by_bound: dict[int, list[int]] = {}
        for j, bound in enumerate(bounds):
            by_bound.setdefault(int(bound), []).append(j)
        near_scores: dict[int, tuple[int, np.ndarray]] = {}
        by_refined: dict[int, list[int]] = {}
        for bound, rows in sorted(by_bound.items()):
            group = [pending[j] for j in rows]
            cand_lists = self._filter(index.candidates_bucket, group, length, bound)
            near_lists = [
                cands[np.abs(index.lengths[cands] - length) <= self._NEAR_LENGTHS]
                for cands in cand_lists
            ]
            wave1 = self._wave_scores(
                index, probe_codes[rows], near_lists, bound
            )
            for j, score in zip(rows, wave1, strict=True):
                near_scores[j] = score
                by_refined.setdefault(min(bound, score[0]), []).append(j)
        for refined, rows in sorted(by_refined.items()):
            group = [pending[j] for j in rows]
            group_codes = probe_codes[rows]
            cand_lists = self._filter(
                index.candidates_bucket, group, length, refined
            )
            far_lists = [
                cands[np.abs(index.lengths[cands] - length) > self._NEAR_LENGTHS]
                for cands in cand_lists
            ]
            wave2 = self._wave_scores(index, group_codes, far_lists, refined)
            for j, probe, (far_best, far_tied) in zip(
                rows, group, wave2, strict=True
            ):
                near_best, near_tied = near_scores[j]
                best = min(near_best, far_best)
                if best > refined:
                    raise RuntimeError(
                        "q-gram blocking missed a match within a proven "
                        "upper bound; the completeness invariant is broken"
                    )
                waves = ((near_best, near_tied), (far_best, far_tied))
                tied = np.concatenate(
                    [tied for tied_best, tied in waves if tied_best == best]
                )
                winner = tied[np.argmin(index.first_rows[tied])]
                resolved[probe] = (int(winner), best)
        return resolved

    def _ladder_rounds(
        self,
        index: QGramIndex,
        length: int,
        probes: list[str],
        resolved: dict[str, tuple[int, int]],
    ) -> list[str]:
        """Caps-1-and-2 rounds with score reuse across the deepening.

        The cap-1 candidates are scored once with a **cap-2 kernel**
        (the lookahead costs a little settlement slack but yields exact
        distances up to 2), so when a probe survives to the cap-2
        round, only the candidates the wider filters *newly* admit are
        scored — the previous round's candidates are never re-scored.
        Resolution stays byte-identical to independent rounds: a
        distance within cap 1 is the same number under either kernel
        cap, candidate sets are monotone in the cap, and reused scores
        clamped at 3 (beyond the lookahead) can never win a cap-2
        round.  Resolves probes into ``resolved`` (as
        ``(winner_value_id, distance)``) and returns the survivors.
        """
        max_cap = max(length, index.max_length)
        lookahead = min(2, max_cap)
        probe_codes, _ = encode_strings(probes)
        cand_lists = self._filter(
            index.candidates_bucket, probes, length, min(1, max_cap)
        )
        dist_lists = self._scored_lists(index, probe_codes, cand_lists, lookahead)
        survivors: list[int] = []
        for j, probe in enumerate(probes):
            segment = dist_lists[j]
            if segment.size:
                best = int(segment.min())
                if best <= 1:
                    tied = cand_lists[j][segment == best]
                    winner = tied[np.argmin(index.first_rows[tied])]
                    resolved[probe] = (int(winner), best)
                    continue
            survivors.append(j)
        if not survivors or max_cap < 2:
            return [probes[j] for j in survivors]
        rem = [probes[j] for j in survivors]
        wide_lists = self._filter(index.candidates_bucket, rem, length, 2)
        # Newly admitted candidates only: both arrays are ascending, so
        # a searchsorted membership test keeps the set difference O(n).
        fresh_lists: list[np.ndarray] = []
        for j, wide in zip(survivors, wide_lists, strict=True):
            narrow = cand_lists[j]
            if not narrow.size:
                fresh_lists.append(wide)
                continue
            slot = np.searchsorted(narrow, wide)
            slot[slot == narrow.size] = narrow.size - 1
            fresh_lists.append(wide[narrow[slot] != wide])
        fresh_dists = self._scored_lists(
            index, probe_codes[survivors], fresh_lists, lookahead
        )
        still: list[str] = []
        for j, probe, fresh, fresh_d in zip(
            survivors, rem, fresh_lists, fresh_dists, strict=True
        ):
            vids = np.concatenate((cand_lists[j], fresh))
            dists = np.concatenate((dist_lists[j], fresh_d))
            if not vids.size:
                still.append(probe)
                continue
            best = int(dists.min())
            if best > 2:
                still.append(probe)
                continue
            tied = vids[dists == best]
            winner = tied[np.argmin(index.first_rows[tied])]
            resolved[probe] = (int(winner), best)
        return still

    def _scored_lists(
        self,
        index: QGramIndex,
        probe_codes: np.ndarray,
        cand_lists: list[np.ndarray],
        cap: int,
    ) -> list[np.ndarray]:
        """Capped distances per probe over its candidate list.

        Scores all (probe, candidate) pairs with the lockstep pair DP
        in bounded groups; entry ``i`` aligns with ``cand_lists[i]``
        (distances above ``cap`` clamp to ``cap + 1``).
        """
        out: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(cand_lists)
        for start, stop in self._probe_groups(cand_lists):
            group_lists = cand_lists[start:stop]
            sizes = np.fromiter(
                (c.size for c in group_lists), dtype=np.int64, count=stop - start
            )
            vids = (
                np.concatenate(group_lists)
                if sizes.any()
                else np.empty(0, dtype=np.int64)
            )
            probe_rep = np.repeat(np.arange(start, stop), sizes)
            distances = self._pair_distances(
                probe_codes, probe_rep, vids, index, cap
            )
            offsets = np.concatenate(([0], np.cumsum(sizes)))
            for j in range(start, stop):
                lo, hi = int(offsets[j - start]), int(offsets[j - start + 1])
                if lo != hi:
                    out[j] = distances[lo:hi]
        return out

    def _wave_scores(
        self,
        index: QGramIndex,
        probe_codes: np.ndarray,
        cand_lists: list[np.ndarray],
        cap: int,
    ) -> list[tuple[int, np.ndarray]]:
        """``(best, tied_value_ids)`` per probe over given candidates.

        Scores all (probe, candidate) pairs with the lockstep pair DP
        in bounded groups.  ``best`` is ``cap + 1`` (with an empty tie
        array) when no candidate scores within the cap; otherwise the
        ties are every candidate at exactly ``best``.
        """
        empty = np.empty(0, dtype=np.int64)
        results: list[tuple[int, np.ndarray]] = []
        dist_lists = self._scored_lists(index, probe_codes, cand_lists, cap)
        for cands, segment in zip(cand_lists, dist_lists, strict=True):
            best = int(segment.min()) if segment.size else cap + 1
            if best <= cap:
                results.append((best, cands[segment == best]))
            else:
                results.append((cap + 1, empty))
        return results

    def _upper_bounds(
        self,
        index: QGramIndex,
        length: int,
        pending: list[str],
        probe_codes: np.ndarray,
    ) -> np.ndarray:
        """Exact distance from each pending probe to a plausible neighbour.

        One small pair-DP batch (a few candidates per probe) against the
        max-gram-overlap targets from :meth:`QGramIndex.overlap_best`;
        the per-probe minimum upper-bounds the probe's best distance.
        """
        neighbour_lists = self._filter(index.overlap_best, pending, length)
        sizes = np.fromiter(
            (a.size for a in neighbour_lists),
            dtype=np.int64,
            count=len(neighbour_lists),
        )
        vids = np.concatenate(neighbour_lists)
        probe_rep = np.repeat(np.arange(len(pending)), sizes)
        cand_codes, cand_lengths = index.batch_codes(vids)
        # Any target is within max(length, longest target), so the
        # distances come back exact.
        vacuous = max(length, index.max_length)
        distances = self._score_pairs(
            probe_codes[probe_rep], cand_codes, cand_lengths, vacuous
        )
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        return np.minimum.reduceat(distances, starts)

    def _probe_groups(
        self, cand_lists: list[np.ndarray]
    ) -> list[tuple[int, int]]:
        """Split a bucket round into probe slices of bounded pair count.

        Keeps one round's concatenated pair block within the cell
        budget even when a late (near-vacuous) cap admits most of the
        column for every probe.
        """
        groups: list[tuple[int, int]] = []
        start = 0
        accumulated = 0
        for j, candidates in enumerate(cand_lists):
            if accumulated and accumulated + candidates.size > self._PAIR_GROUP_BUDGET:
                groups.append((start, j))
                start = j
                accumulated = 0
            accumulated += candidates.size
        groups.append((start, len(cand_lists)))
        return groups

    def _pair_distances(
        self,
        probe_codes: np.ndarray,
        probe_rep: np.ndarray,
        vids: np.ndarray,
        index: QGramIndex,
        cap: int,
    ) -> np.ndarray:
        """Chunked pair-DP over ``(probe_rep[i], vids[i])`` pairs.

        Candidate codes are gathered per chunk so peak memory stays
        within the cell budget no matter how wide the index matrix is.
        Chunk boundaries come from the *actual* candidate lengths (the
        kernel pads each chunk only to its own longest candidate), so
        one pathological mega-cell in the column shrinks just the chunk
        that contains it instead of collapsing every chunk to a handful
        of pairs.
        """
        n = vids.size
        out = np.empty(n, dtype=np.int64)
        cells = np.cumsum(index.lengths[vids] + 1)
        lo = 0
        while lo < n:
            consumed = int(cells[lo - 1]) if lo else 0
            hi = int(
                np.searchsorted(
                    cells, consumed + self._PAIR_CELL_BUDGET, side="right"
                )
            )
            hi = max(lo + 1, min(hi, n))
            cand_codes, cand_lengths = index.batch_codes(vids[lo:hi])
            out[lo:hi] = self._score_pairs(
                probe_codes[probe_rep[lo:hi]], cand_codes, cand_lengths, cap
            )
            lo = hi
        return out

    def match_many(
        self, predicted: str, targets: Sequence[str], lower: int = 0, upper: int = 0
    ) -> list[tuple[str, int]]:
        """Identical contract to :meth:`EditDistanceJoiner.match_many`."""
        self._validate_many(targets, lower, upper)
        if predicted == "":
            return []
        index = self._index_for(targets)
        vids = index.candidates(predicted, upper)
        if not vids.size:
            return []
        batch_codes, batch_lengths = index.batch_codes(vids)
        distances = self.kernel.edit_distance_codes(
            predicted, batch_codes, batch_lengths, upper
        )
        keep = (distances >= lower) & (distances <= upper)
        # The brute scan appends in row order and sorts stably by
        # distance, i.e. orders by (distance, row); duplicate values
        # contribute one entry per row.
        entries = [
            (int(distance), row, int(vid))
            for vid, distance in zip(vids[keep], distances[keep], strict=True)
            for row in index.rows_for(int(vid))
        ]
        entries.sort(key=lambda item: (item[0], item[1]))
        return [(index.values[vid], distance) for distance, _, vid in entries]


class AutoJoiner(EditDistanceJoiner):
    """Size-adaptive strategy: brute below ``threshold`` rows, else blocked.

    Index construction is linear in the column with a noticeable
    constant, so tiny columns (the common per-table benchmark case) stay
    on the scalar scan while large columns get sub-linear candidate
    generation.  Both delegates are exactly equivalent, so the switch
    never changes results.

    Args:
        config: All tunables in one frozen
            :class:`~repro.core.JoinConfig`; ``auto_threshold`` is the
            minimum target-column length (in rows) at which the q-gram
            engine takes over.
        cache: Index cache for the blocked delegate (``None`` = the
            process-wide shared cache).
    """

    DEFAULT_THRESHOLD = 256

    def __init__(
        self,
        config: JoinConfig | None = None,
        *,
        cache: IndexCache | None = None,
    ) -> None:
        super().__init__(config)
        config = self.config
        self.threshold = config.auto_threshold
        self.last_join_stats: JoinStats | None = None
        self._brute = EditDistanceJoiner(config)
        self._indexed = IndexedJoiner(config, cache=cache)

    def _delegate(self, targets: Sequence[str]) -> EditDistanceJoiner:
        delegate = (
            self._indexed if len(targets) >= self.threshold else self._brute
        )
        # Thresholds and the query-surface defaults are read from this
        # wrapper on every call so that post-construction mutation
        # (joiner.max_distance = 2) behaves exactly as it does on a
        # plain EditDistanceJoiner.
        delegate.max_distance = self.max_distance
        delegate.normalized_threshold = self.normalized_threshold
        delegate.mode = self.mode
        delegate.k = self.k
        delegate.margin = self.margin
        return delegate

    def match(self, predicted: str, targets: Sequence[str]) -> tuple[str | None, int]:
        return self._delegate(targets).match(predicted, targets)

    def join_many(
        self, probes: Sequence[str], targets: Sequence[str]
    ) -> list[tuple[str | None, int]]:
        delegate = self._delegate(targets)
        results = delegate.join_many(probes, targets)
        # Surface the blocked delegate's batch counters (the brute scan
        # keeps none) so eval reports see stats wherever they exist.
        self.last_join_stats = getattr(delegate, "last_join_stats", None)
        return results

    def match_many(
        self, predicted: str, targets: Sequence[str], lower: int = 0, upper: int = 0
    ) -> list[tuple[str, int]]:
        return self._delegate(targets).match_many(predicted, targets, lower, upper)

    def topk_many(
        self, probes: Sequence[str], targets: Sequence[str], k: int
    ) -> list[list[tuple[int, int, str]]]:
        return self._delegate(targets).topk_many(probes, targets, k)

    def join_composite(
        self,
        probes: Sequence[Sequence[str]],
        target_columns: Sequence[Sequence[str]],
    ) -> list[tuple[int | None, int]]:
        first = target_columns[0] if target_columns else ()
        return self._delegate(first).join_composite(probes, target_columns)

    def close(self) -> None:
        """Tear down the blocked delegate's persistent worker pool."""
        self._indexed.close()


def make_joiner(
    strategy: str = "auto",
    config: JoinConfig | None = None,
    *,
    cache: IndexCache | None = None,
) -> EditDistanceJoiner:
    """Build a join strategy by name.

    Args:
        strategy: ``"brute"`` (scalar scan), ``"indexed"`` (q-gram
            blocked), or ``"auto"`` (switch on target-column size).
        config: All tunables in one frozen
            :class:`~repro.core.JoinConfig` (thresholds, ``q``,
            ``auto_threshold``, worker-pool settings, and the
            ``mode``/``k``/``margin`` query defaults).
        cache: Index cache for the blocked strategies (``None`` = the
            process-wide shared cache).
    """
    if strategy == "brute":
        return EditDistanceJoiner(config)
    if strategy == "indexed":
        return IndexedJoiner(config, cache=cache)
    if strategy == "auto":
        return AutoJoiner(config, cache=cache)
    raise ValueError(
        f"unknown join strategy {strategy!r}; expected 'brute', 'indexed', or 'auto'"
    )
