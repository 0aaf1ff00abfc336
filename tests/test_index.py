"""Property/fuzz tests for the blocked-join kernel and q-gram index.

One seeded harness generates a few thousand random unicode string pairs
(half derived by a known number of edits so small distances are well
represented) and checks:

* ``edit_distance_capped`` agrees with ``edit_distance`` whenever the
  true distance is within the cap, and exceeds the cap otherwise;
* the batched numpy kernel ``edit_distance_many`` agrees with the
  scalar capped DP on every pair;
* ``QGramIndex.candidates`` is complete — every value within the cap is
  in the candidate set — for arbitrary columns with duplicates and
  empty strings.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest
from repro.utils.fuzz import FUZZ_ALPHABET, random_edits, random_unicode_string

from repro.index import QGramIndex, edit_distance_many, encode_strings
from repro.index.kernel import edit_distance_codes
from repro.text.edit_distance import edit_distance, edit_distance_capped

_SEED = 20260728


def _pair_stream(rng: random.Random, count: int):
    """Yield ``(a, b, cap)`` with a mix of near and far pairs."""
    for _ in range(count):
        a = random_unicode_string(rng)
        if rng.random() < 0.5:
            b = random_edits(rng, a, rng.randint(0, 4))
        else:
            b = random_unicode_string(rng)
        yield a, b, rng.randint(0, 7)


class TestCappedFuzz:
    def test_capped_agrees_with_exact(self):
        rng = random.Random(_SEED)
        for a, b, cap in _pair_stream(rng, 3000):
            exact = edit_distance(a, b)
            capped = edit_distance_capped(a, b, cap)
            if exact <= cap:
                assert capped == exact, (a, b, cap)
            else:
                assert capped > cap, (a, b, cap)


class TestBatchedKernel:
    def test_agrees_with_scalar_fuzz(self):
        rng = random.Random(_SEED + 1)
        for _ in range(150):
            query = random_unicode_string(rng)
            candidates = [
                random_edits(rng, query, rng.randint(0, 4))
                if rng.random() < 0.6
                else random_unicode_string(rng)
                for _ in range(rng.randint(1, 24))
            ]
            cap = rng.randint(0, 7)
            batched = edit_distance_many(query, candidates, cap)
            for got, candidate in zip(batched, candidates):
                scalar = edit_distance_capped(query, candidate, cap)
                expected = scalar if scalar <= cap else cap + 1
                assert got == expected, (query, candidate, cap)

    def test_empty_candidate_list(self):
        result = edit_distance_many("abc", [], 3)
        assert result.shape == (0,)
        assert result.dtype == np.int64

    def test_empty_query_and_empty_candidates(self):
        assert list(edit_distance_many("", ["", "ab", "abcd"], 3)) == [0, 2, 4]
        assert list(edit_distance_many("xy", ["", "xy"], 5)) == [2, 0]

    def test_over_cap_clamps_to_cap_plus_one(self):
        assert list(edit_distance_many("aaaa", ["zzzz", "aaab"], 2)) == [3, 1]

    def test_cap_zero(self):
        assert list(edit_distance_many("ab", ["ab", "ac"], 0)) == [0, 1]

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            edit_distance_many("a", ["b"], -1)

    def test_astral_plane_characters(self):
        # Each emoji is one code point; the kernel must not split
        # surrogates or let the pad value collide with real characters.
        assert list(edit_distance_many("\U0001F600x", ["\U0001F600x", "x"], 3)) == [0, 1]

    def test_lone_surrogates_match_scalar_path(self):
        # Lone surrogates (surrogateescape artifacts) cannot be UTF-32
        # encoded; the kernel must fall back instead of crashing, and
        # agree with the scalar DP which compares characters directly.
        probe = "alph\ud800a"
        candidates = ["alpha", "alph\ud800a", "\udc80\udc80", ""]
        got = edit_distance_many(probe, candidates, 6)
        expected = [
            min(edit_distance_capped(probe, c, 6), 7) for c in candidates
        ]
        assert list(got) == expected


class TestEncodeStrings:
    def test_shapes_and_padding(self):
        codes, lengths = encode_strings(["ab", "", "abcd"])
        assert codes.shape == (3, 4)
        assert list(lengths) == [2, 0, 4]
        assert codes[0, 0] == ord("a")
        # Padding is outside the unicode range.
        assert codes[1, 0] > 0x10FFFF

    def test_all_empty(self):
        codes, lengths = encode_strings(["", ""])
        assert codes.shape == (2, 0)
        assert list(lengths) == [0, 0]
        assert list(edit_distance_codes("ab", codes, lengths, 5)) == [2, 2]


class TestQGramIndex:
    def test_candidates_complete_fuzz(self):
        rng = random.Random(_SEED + 2)
        for _ in range(120):
            targets = [
                random_unicode_string(rng, max_length=10)
                for _ in range(rng.randint(1, 40))
            ]
            # Force duplicates and empties into the column.
            targets += [rng.choice(targets) for _ in range(rng.randint(0, 4))]
            targets += [""] * rng.randint(0, 2)
            rng.shuffle(targets)
            index = QGramIndex(targets, q=rng.choice((2, 3)))
            query = (
                random_edits(rng, rng.choice(targets), rng.randint(0, 3))
                if rng.random() < 0.6
                else random_unicode_string(rng)
            )
            cap = rng.randint(0, 6)
            candidate_ids = set(index.candidates(query, cap).tolist())
            for vid, value in enumerate(index.values):
                if edit_distance(query, value) <= cap:
                    assert vid in candidate_ids, (query, value, cap, targets)

    def test_vacuous_bound_returns_all_length_compatible(self):
        index = QGramIndex(["ab", "abcdefgh", "x"], q=2)
        # len(query)=1 < q: the count filter is vacuous, so the length
        # filter passes "ab" and "x"; the bag filter then drops "ab"
        # (no shared character: bound max(1, 2) - 0 = 2 > cap 1).
        ids = index.candidates("z", 1)
        assert [index.values[i] for i in ids] == ["x"]
        # At the vacuous cap nothing is filtered beyond length.
        ids = index.candidates("z", 8)
        assert [index.values[i] for i in ids] == ["ab", "abcdefgh", "x"]

    def test_bag_filter_exact_past_the_count_dtype(self):
        # Short values store counts as uint8; a query holding 256 of one
        # bin must not wrap around and overstate the bound (ED = 252).
        index = QGramIndex(["aaaa", "bbbb"], q=2)
        assert index.bag_counts().dtype == np.uint8
        ids = index.candidates("a" * 256, 252)
        assert [index.values[i] for i in ids] == ["aaaa"]
        # And a long value's counts are stored unclipped.
        wide = QGramIndex(["a" * 300, "b"], q=2)
        assert wide.bag_counts()[ord("a") % 64].tolist() == [300, 0]

    def test_bag_counts_match_with_and_without_dense_codes(self, monkeypatch):
        values = ["ab\U0001f600", "\ud800x", "", "Łaa"]
        dense = QGramIndex(values, q=2).bag_counts()
        monkeypatch.setattr(QGramIndex, "_DENSE_BUDGET", 0)
        monkeypatch.setattr(QGramIndex, "_BAG_CHUNK_CELLS", 3)
        sparse = QGramIndex(values, q=2)
        assert sparse._codes is None
        np.testing.assert_array_equal(sparse.bag_counts(), dense)

    def test_bag_bounds_do_not_depend_on_the_batch(self):
        # A whole-column batch gathers the query's bin rows; a single
        # candidate gathers its own column of bins.  Same bounds.
        rng = random.Random(5)
        index = QGramIndex(
            [random_unicode_string(rng, max_length=20) for _ in range(300)], q=2
        )
        every = np.arange(len(index), dtype=np.int64)
        for _ in range(10):
            query = random_unicode_string(rng, max_length=20, min_length=8)
            bulk = index.bag_bounds(query, every)
            single = [int(index.bag_bounds(query, every[i : i + 1])[0]) for i in every]
            assert bulk.tolist() == single
            for vid, bound in enumerate(single):
                assert bound <= edit_distance(query, index.values[vid])

    def test_concurrent_first_use_of_the_bag(self):
        # The histograms are published by one unlocked assignment; every
        # thread racing through first use must still filter correctly.
        rng = random.Random(11)
        targets = [random_unicode_string(rng, max_length=12) for _ in range(400)]
        queries = [random_unicode_string(rng, max_length=12) for _ in range(16)]
        expected = [
            QGramIndex(targets, q=2).candidates(query, 3).tolist()
            for query in queries
        ]
        index = QGramIndex(targets, q=2)
        results: dict[int, list[int]] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda j=j: results.__setitem__(
                        j, index.candidates(queries[j], 3).tolist()
                    )
                )
                for j in range(len(queries))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [results[j] for j in range(len(queries))] == expected

    def test_disk_state_leaves_bag_out(self):
        index = QGramIndex(["alpha", "beta"], q=2)
        index.candidates("alpah", 2)
        state = index.to_state()
        assert not any("bag" in key for key in state)
        restored = QGramIndex.from_state(state)
        np.testing.assert_array_equal(restored.bag_counts(), index.bag_counts())

    def test_duplicates_collapse_to_one_value(self):
        index = QGramIndex(["dup", "other", "dup", "dup"], q=2)
        assert len(index) == 2
        vid = index.value_id("dup")
        assert index.rows_for(vid) == [0, 2, 3]
        assert index.first_rows[vid] == 0

    def test_value_id_exact_lookup(self):
        index = QGramIndex(["alpha", "beta"], q=2)
        assert index.value_id("beta") == 1
        assert index.value_id("gamma") is None

    def test_candidates_ascending_and_deterministic(self):
        targets = [f"row{i:03d}" for i in range(50)]
        index = QGramIndex(targets, q=2)
        ids = index.candidates("row01", 2)
        assert list(ids) == sorted(ids.tolist())
        assert list(ids) == list(index.candidates("row01", 2))

    def test_no_shared_grams_means_no_candidates(self):
        index = QGramIndex(["aaaa", "bbbb"], q=2)
        assert index.candidates("zzzz", 1).size == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QGramIndex(["a"], q=0)
        with pytest.raises(ValueError):
            QGramIndex(["a"], q=2).candidates("a", -1)

    def test_alphabet_exercises_multiple_planes(self):
        # Guard: the fuzz alphabet really covers BMP and astral planes.
        assert any(ord(ch) > 0xFFFF for ch in FUZZ_ALPHABET)
        assert any(0x7F < ord(ch) <= 0xFFFF for ch in FUZZ_ALPHABET)
