"""Q-gram inverted index with length, count and bag filtering.

Blocking for the edit-distance join (Eq. 5): given a probe string and a
distance cap ``k``, return a **provably complete** candidate set — every
target within edit distance ``k`` is in the set — without scanning the
whole column.  Three filters, applied in this order, make the set small:

* **Length filter** — an edit operation changes the length by at most 1,
  so ``|len(t) - len(p)| <= k`` for any match ``t``.
* **Count filter** (Gravano et al., *Approximate String Joins in a
  Database (Almost) for Free*, VLDB 2001) — one edit operation destroys
  at most ``q`` overlapping q-grams, so ``p`` and ``t`` must share at
  least ``(len(p) - q + 1) - k*q`` q-grams.  When that bound is not
  positive the filter is vacuous and every length-compatible target
  survives it.
* **Bag filter** (the bag distance of Bartolini, Ciaccia and Patella,
  *String Matching with Metric Trees Using an Approximate Distance*,
  SPIRE 2002) — one edit operation changes at most one character of
  each side's multiset of characters, so
  ``ED(p, t) >= max(|p|, |t|) - sum_b min(h_p[b], h_t[b])`` where
  ``h`` counts characters.  Here ``h`` counts code points folded into
  :data:`BAG_BINS` bins (``code % BAG_BINS``); folding can only raise
  the shared count, so the folded bound is weaker than the true bag
  distance and the filter stays complete.  It runs on the survivors of
  the other two filters, the vacuous-count path included, which is
  where it matters: at the caps of far model predictions (10-17 edits
  on 25-35-character titles, ``q = 3``) the count bound is vacuous,
  and the bag bound cut the pairs per pending probe of the
  ``wide-join`` benchmark from about 2,460 to about 925.

The shared-gram count used here sums target-side multiplicities over the
*distinct* grams of the probe, which can only over-count the true
multiset intersection — the filter only ever admits extra candidates,
never drops a true match.

Duplicated column values are indexed once: candidates are unique-value
ids, and :meth:`QGramIndex.rows_for` expands a value back to its
(ascending) row numbers for row-level semantics such as tie-breaking.
The per-value character histograms are derived lazily on first use and
are not part of :meth:`QGramIndex.to_state`, so on-disk snapshots are
unchanged by the bag filter.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.index.kernel import encode_strings
from repro.text.edit_distance import codepoints

#: Histogram bins of the bag filter: code points fold in as
#: ``code % BAG_BINS``.  More bins tighten the bound on wide alphabets
#: but cost memory and per-candidate work; 64 separates the letters,
#: digits and punctuation of ASCII text.
BAG_BINS = 64


def adaptive_q(targets: Sequence[str]) -> int:
    """Pick a gram size from the column's length statistics.

    Longer grams are more selective on long strings (each gram carries
    more context, so posting lists shrink) but make the count bound
    ``(len(p) - q + 1) - k*q`` go vacuous sooner on short ones.  The
    median value length balances the two: table-cell columns keep
    ``q = 2`` — measured faster than ``q = 3`` even at 12-18 char
    cells, because the count bound surviving deeper caps beats the
    smaller posting lists — while columns of sentence-like values step
    up.  Any choice is correctness-neutral — the filters stay provably
    complete for every ``q`` — so this only tunes candidate-set size.
    """
    if not targets:
        return 2
    lengths = sorted(len(value) for value in targets)
    median = lengths[len(lengths) // 2]
    if median >= 40:
        return 4
    if median >= 20:
        return 3
    return 2


class QGramIndex:
    """Inverted q-gram index over a target column.

    Args:
        targets: The target-column values (duplicates allowed).
        q: Gram size; 2 suits the short cell values of the benchmarks
            (longer grams filter better on long strings but make the
            count bound vacuous sooner).
    """

    def __init__(self, targets: Sequence[str], q: int = 2) -> None:
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        self.q = q
        value_ids: dict[str, int] = {}
        rows: list[list[int]] = []
        for row, value in enumerate(targets):
            vid = value_ids.setdefault(value, len(rows))
            if vid == len(rows):
                rows.append([])
            rows[vid].append(row)
        self.values: list[str] = list(value_ids)
        self._value_ids = value_ids
        self._rows = rows
        self.first_rows = np.fromiter(
            (r[0] for r in rows), dtype=np.int64, count=len(rows)
        )
        self.lengths = np.fromiter(
            (len(v) for v in self.values), dtype=np.int64, count=len(self.values)
        )
        self.max_length = int(self.lengths.max()) if self.lengths.size else 0
        # Pre-encode the whole column only while the dense matrix stays
        # modest: one pathologically long cell would otherwise inflate
        # every row to its width (n * max_len uint32 cells).  Past the
        # budget, candidate batches are encoded on demand instead —
        # padded only to the batch's own maximum.
        if len(self.values) * self.max_length <= self._DENSE_BUDGET:
            self._codes, _ = encode_strings(self.values)
        else:
            self._codes = None
        postings: dict[str, list[int]] = {}
        for vid, value in enumerate(self.values):
            for i in range(len(value) - q + 1):
                postings.setdefault(value[i : i + q], []).append(vid)
        self._postings = {
            gram: np.asarray(vids, dtype=np.int64)
            for gram, vids in postings.items()
        }
        self._bag: np.ndarray | None = None

    # Cells (uint32) allowed for the precomputed code matrix: 1 << 26
    # cells = 256 MB.  Way above any benchmark column, low enough that a
    # single corrupt mega-cell cannot balloon index construction.
    _DENSE_BUDGET = 1 << 26

    # Code cells per ``bincount`` when deriving the bag histograms:
    # bounds the temporary index arrays on very wide columns.
    _BAG_CHUNK_CELLS = 1 << 22

    def __len__(self) -> int:
        """Number of distinct values in the index."""
        return len(self.values)

    def to_state(self) -> dict[str, np.ndarray]:
        """Flat numpy snapshot of the index, for the on-disk cache tier.

        Every component is a plain array (ragged structures become
        ``flat + offsets`` pairs; strings become UTF-8 blobs encoded
        with ``surrogatepass`` so lone surrogates round-trip), which
        keeps the format loadable with ``allow_pickle=False`` — a
        corrupted or malicious cache file can fail to parse but cannot
        execute code.  :meth:`from_state` inverts this exactly.
        """
        value_blobs = [v.encode("utf-8", "surrogatepass") for v in self.values]
        rows_offsets = np.zeros(len(self._rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in self._rows], out=rows_offsets[1:])
        gram_blobs = [g.encode("utf-8", "surrogatepass") for g in self._postings]
        posting_offsets = np.zeros(len(self._postings) + 1, dtype=np.int64)
        if self._postings:
            np.cumsum(
                [p.size for p in self._postings.values()],
                out=posting_offsets[1:],
            )
        state = {
            "q": np.int64(self.q),
            "values_blob": np.frombuffer(b"".join(value_blobs), dtype=np.uint8),
            "values_offsets": np.cumsum([0] + [len(b) for b in value_blobs]),
            "rows_flat": np.fromiter(
                (row for rows in self._rows for row in rows),
                dtype=np.int64,
                count=int(rows_offsets[-1]),
            ),
            "rows_offsets": rows_offsets,
            "grams_blob": np.frombuffer(b"".join(gram_blobs), dtype=np.uint8),
            "grams_offsets": np.cumsum([0] + [len(b) for b in gram_blobs]),
            "postings_flat": (
                np.concatenate(list(self._postings.values()))
                if self._postings
                else np.empty(0, dtype=np.int64)
            ),
            "postings_offsets": posting_offsets,
            "has_codes": np.int64(self._codes is not None),
        }
        if self._codes is not None:
            state["codes"] = self._codes
        return state

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> QGramIndex:
        """Rebuild an index from a :meth:`to_state` snapshot.

        Skips gram extraction and code-matrix encoding — the expensive
        parts of ``__init__`` — leaving only the value/posting dict
        rebuilds, which is what makes a warm disk-cache load cheaper
        than indexing the column from scratch.
        """

        def decode(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
            raw = blob.tobytes()
            return [
                raw[offsets[i] : offsets[i + 1]].decode("utf-8", "surrogatepass")
                for i in range(len(offsets) - 1)
            ]

        self = cls.__new__(cls)
        self.q = int(state["q"])
        if self.q <= 0:
            raise ValueError(f"corrupt index state: q = {self.q}")
        self.values = decode(state["values_blob"], state["values_offsets"])
        self._value_ids = {value: vid for vid, value in enumerate(self.values)}
        if len(self._value_ids) != len(self.values):
            raise ValueError("corrupt index state: duplicate values")
        rows_flat = np.asarray(state["rows_flat"], dtype=np.int64)
        rows_offsets = np.asarray(state["rows_offsets"], dtype=np.int64)
        if len(rows_offsets) != len(self.values) + 1:
            raise ValueError("corrupt index state: rows/values misaligned")
        self._rows = [
            rows_flat[rows_offsets[i] : rows_offsets[i + 1]].tolist()
            for i in range(len(self.values))
        ]
        if any(not rows for rows in self._rows):
            raise ValueError("corrupt index state: value with no rows")
        self.first_rows = np.fromiter(
            (r[0] for r in self._rows), dtype=np.int64, count=len(self._rows)
        )
        self.lengths = np.fromiter(
            (len(v) for v in self.values), dtype=np.int64, count=len(self.values)
        )
        self.max_length = int(self.lengths.max()) if self.lengths.size else 0
        grams = decode(state["grams_blob"], state["grams_offsets"])
        postings_flat = np.asarray(state["postings_flat"], dtype=np.int64)
        postings_offsets = np.asarray(state["postings_offsets"], dtype=np.int64)
        if len(postings_offsets) != len(grams) + 1:
            raise ValueError("corrupt index state: postings/grams misaligned")
        self._postings = {
            gram: postings_flat[postings_offsets[i] : postings_offsets[i + 1]]
            for i, gram in enumerate(grams)
        }
        if int(state["has_codes"]):
            self._codes = np.asarray(state["codes"], dtype=np.uint32)
            if self._codes.shape[0] != len(self.values):
                raise ValueError("corrupt index state: code matrix misaligned")
        else:
            self._codes = None
        self._bag = None
        return self

    @property
    def nbytes(self) -> int:
        """Approximate bytes retained by the index's numpy state.

        Covers the dense code matrix (the dominant term when present),
        the posting lists, the per-value arrays and the bag histograms;
        the value strings themselves are shared with the caller's column
        and not counted.
        Used by :class:`~repro.index.cache.IndexCache` for its byte
        budget.
        """
        total = self.first_rows.nbytes + self.lengths.nbytes
        # The bag histograms are reserved whether or not a query has
        # derived them yet, so the figure never changes under a cache.
        total += len(self.values) * BAG_BINS * self._bag_dtype().itemsize
        if self._codes is not None:
            total += self._codes.nbytes
        for array in self._postings.values():
            total += array.nbytes
        return total

    def batch_codes(self, value_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, lengths)`` for a candidate batch, kernel-ready.

        Slices the precomputed matrix when it exists, otherwise encodes
        just the batch (padded to the batch maximum).
        """
        if self._codes is not None:
            return self._codes[value_ids], self.lengths[value_ids]
        return encode_strings([self.values[int(v)] for v in value_ids])

    def _bag_dtype(self) -> np.dtype:
        """Narrowest unsigned dtype holding any per-value count unclipped."""
        return np.min_scalar_type(self.max_length)

    def bag_counts(self) -> np.ndarray:
        """``(BAG_BINS, n_values)`` folded character counts per value.

        Bin-major, so a query gathers only the rows of the bins its own
        characters fall in.  Derived on first use from the dense code
        matrix (or, without one, by encoding the values chunk by chunk)
        with one ``bincount`` per chunk.  A single assignment publishes
        it, so concurrent first callers each build an equal matrix and
        the last store wins harmlessly.
        """
        bag = self._bag
        if bag is None:
            bag = self._build_bag()
            self._bag = bag
        return bag

    def _build_bag(self) -> np.ndarray:
        n = len(self.values)
        bag = np.empty((BAG_BINS, n), dtype=self._bag_dtype())
        step = max(1, self._BAG_CHUNK_CELLS // max(self.max_length, 1))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            if self._codes is not None:
                codes, lengths = self._codes[lo:hi], self.lengths[lo:hi]
            else:
                codes, lengths = encode_strings(self.values[lo:hi])
            valid = np.arange(codes.shape[1]) < lengths[:, None]
            cells = np.nonzero(valid)[0] * BAG_BINS + codes[valid] % BAG_BINS
            counts = np.bincount(cells, minlength=(hi - lo) * BAG_BINS)
            bag[:, lo:hi] = counts.reshape(hi - lo, BAG_BINS).T
        return bag

    def value_id(self, value: str) -> int | None:
        """Exact-match lookup: the value id, or ``None`` if absent."""
        return self._value_ids.get(value)

    def rows_for(self, value_id: int) -> list[int]:
        """Ascending row numbers holding the given value."""
        return self._rows[value_id]

    def candidates(self, query: str, cap: int) -> np.ndarray:
        """Value ids of every target possibly within ``cap`` of ``query``.

        Completeness guarantee: any indexed value ``t`` with
        ``edit_distance(query, t) <= cap`` is in the returned array.
        The array is ascending (so candidate order is deterministic).
        Single-query form of :meth:`candidates_bucket`, which holds the
        one copy of the filter logic.
        """
        return self.candidates_bucket([query], len(query), cap)[0]

    def _gram_postings(self, query: str) -> list[np.ndarray]:
        """Posting arrays for the distinct q-grams of ``query``."""
        grams = {
            query[i : i + self.q] for i in range(len(query) - self.q + 1)
        }
        return [
            self._postings[gram] for gram in grams if gram in self._postings
        ]

    def overlap_best(
        self, queries: Sequence[str], length: int, k: int = 8
    ) -> list[np.ndarray]:
        """Plausible near-neighbour value ids for each query.

        Returns, per query, up to ``k`` ids of the indexed values
        sharing the most q-grams with it (target-side multiplicities
        included), falling back to the value of closest length when no
        gram is shared.  The returned targets are *not* guaranteed to
        contain the argmin — the minimum of their exact distances is an
        **upper bound** on the query's best distance, which the batch
        engine uses to jump cap deepening straight to a provably
        sufficient candidate set.

        Args:
            queries: Probe strings, each of exactly ``length`` characters.
            length: The shared probe length.
            k: Neighbour candidates per query.
        """
        fallback = np.asarray(
            [int(np.argmin(np.abs(self.lengths - length)))], dtype=np.int64
        )
        out: list[np.ndarray] = []
        for query in queries:
            arrays = self._gram_postings(query)
            if not arrays:
                out.append(fallback)
                continue
            counts = np.bincount(np.concatenate(arrays))
            if counts.size > k:
                top = np.argpartition(counts, -k)[-k:]
                out.append(top[counts[top] > 0])
            else:
                out.append(np.nonzero(counts)[0])
        return out

    def candidates_bucket(
        self, queries: Sequence[str], length: int, cap: int
    ) -> list[np.ndarray]:
        """Per-query candidate ids for a bucket of same-length queries.

        Identical sets to calling :meth:`candidates` per query, but the
        length filter — which depends only on ``length`` and ``cap`` —
        is evaluated once for the whole bucket, and when the count bound
        is vacuous the single shared length-compatible array feeds every
        query's bag filter.  This is the batch engine's candidate
        generator.

        Args:
            queries: Probe strings, each of exactly ``length`` characters.
            length: The shared probe length.
            cap: Distance cap, as in :meth:`candidates`.
        """
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        length_ok = np.abs(self.lengths - length) <= cap
        bound = (length - self.q + 1) - cap * self.q
        if bound <= 0:
            base = np.nonzero(length_ok)[0]
            return self._bag_filter(queries, length, cap, [base] * len(queries))
        empty = np.empty(0, dtype=np.int64)
        out: list[np.ndarray] = []
        for query in queries:
            arrays = self._gram_postings(query)
            if not arrays:
                out.append(empty)
                continue
            counts = np.bincount(
                np.concatenate(arrays), minlength=len(self.values)
            )
            out.append(np.nonzero(length_ok & (counts >= bound))[0])
        return self._bag_filter(queries, length, cap, out)

    def _bag_filter(
        self,
        queries: Sequence[str],
        length: int,
        cap: int,
        cand_lists: list[np.ndarray],
    ) -> list[np.ndarray]:
        """Cut each query's candidates to those with bag bound ``<= cap``.

        No bound exceeds the longer string's length, so at a cap of at
        least every length the histograms are not even consulted.
        """
        if cap >= max(length, self.max_length):
            return cand_lists
        return [
            cands[self.bag_bounds(query, cands) <= cap] if cands.size else cands
            for query, cands in zip(queries, cand_lists, strict=True)
        ]

    def bag_bounds(self, query: str, value_ids: np.ndarray) -> np.ndarray:
        """Folded bag-distance lower bounds on ``ED(query, value)``.

        ``max(|query|, |value|)`` minus the characters the two share
        once code points fold into :data:`BAG_BINS` bins; never above
        the true edit distance.
        """
        bag = self.bag_counts()
        folded = np.bincount(codepoints(query) % BAG_BINS, minlength=BAG_BINS)
        bins = np.nonzero(folded)[0]
        # Capping the query's counts at the longest value is exact: no
        # value holds more of a bin, so every min() is unchanged.
        mine = np.minimum(folded[bins], self.max_length).astype(bag.dtype)
        # Gather whichever block is smaller: the query's bin rows across
        # the column, or every bin of just these candidates.
        if bins.size * bag.shape[1] <= BAG_BINS * value_ids.size:
            counts = np.take(bag[bins], value_ids, axis=1)
        else:
            counts = np.take(bag, value_ids, axis=1)[bins]
        shared = np.minimum(counts, mine[:, None]).sum(axis=0, dtype=np.int64)
        return np.maximum(self.lengths[value_ids], len(query)) - shared
