"""Kernel backends: registry semantics and byte equivalence everywhere.

The pluggable kernel layer (``repro.index.kernels``) claims the Myers
bit-parallel and banded (Ukkonen) backends are *byte-identical* to the
reference numpy DP — and, transitively, to the scalar
:func:`repro.text.edit_distance.edit_distance` oracle.  These tests
enforce that claim with randomized cross-backend fuzz (caps 0-8, empty
strings, multi-block queries past 64 characters, pad-boundary lengths
63/64/65), closed-form cases straddling the pair DP's int16/int32
switch, end-to-end joiner equivalence on every registered dataset at
1/2/4 workers, registry/env resolution semantics, ``auto``'s dispatch,
and the per-backend pairs-scored accounting surfaced through
``JoinStats`` and the serving layer.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from repro.utils.fuzz import FUZZ_ALPHABET, random_edits, random_unicode_string

from repro.core.join_config import KERNEL_BACKENDS, JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.datagen.benchmarks.registry import dataset_names, get_dataset
from repro.index import IndexCache, IndexedJoiner
from repro.index.kernel import edit_distance_pairs, encode_strings
from repro.index.kernels import (
    get_backend,
    pairs_scored_snapshot,
    resolve_backend,
)
from repro.text.edit_distance import edit_distance

_SEED = 987
_CONCRETE = ("reference", "bitparallel", "banded")


def _oracle(query: str, candidates: list[str], cap: int) -> list[int]:
    """The scalar uncapped DP, clamped to the capped contract."""
    return [min(edit_distance(query, c), cap + 1) for c in candidates]


class TestRegistry:
    def test_every_declared_backend_resolves(self):
        for name in KERNEL_BACKENDS:
            assert get_backend(name).name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("simd9000")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("simd9000")

    def test_join_config_validates_backend(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            JoinConfig(kernel_backend="simd9000")
        assert JoinConfig(kernel_backend="banded").kernel_backend == "banded"

    def test_env_var_steers_auto_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "banded")
        assert resolve_backend(None).name == "banded"
        assert resolve_backend("auto").name == "banded"
        # An explicit choice always wins over the environment.
        assert resolve_backend("bitparallel").name == "bitparallel"

    def test_empty_env_var_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "")
        assert resolve_backend(None).name == "auto"

    def test_env_var_typo_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bitparalel")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend(None)

    def test_auto_dispatch_matches_reference(self):
        auto = get_backend("auto")
        queries = ["abc", "", "x" * 70, "y" * 64]
        candidates = ["abd", "", "x" * 69 + "z", "y" * 63]
        for cap in (0, 2, 40):
            for query in queries:
                got = auto.edit_distance_many(query, candidates, cap)
                want = _oracle(query, candidates, cap)
                assert got.tolist() == want, (query, cap)


class TestScalarOracleFuzz:
    @pytest.mark.parametrize("backend", _CONCRETE)
    def test_randomized_columns(self, backend):
        rng = random.Random(_SEED)
        kernel = get_backend(backend)
        for trial in range(25):
            max_len = rng.choice((6, 14, 63, 64, 65, 90))
            candidates = [
                random_unicode_string(rng, max_length=max_len)
                for _ in range(rng.randint(1, 60))
            ]
            candidates.append("")  # always cover the empty candidate
            base = rng.choice(candidates)
            query = random_edits(rng, base, rng.randint(0, 3))
            cap = rng.randint(0, 8)
            got = kernel.edit_distance_many(query, candidates, cap)
            assert got.dtype == np.int64
            assert got.tolist() == _oracle(query, candidates, cap), (
                backend,
                trial,
                query,
                cap,
            )

    @pytest.mark.parametrize("backend", _CONCRETE)
    def test_pad_boundary_and_multiblock_queries(self, backend):
        # Queries straddling the 64-bit word boundary exercise the
        # multi-block chaining (bitparallel) and wide rows (banded).
        rng = random.Random(_SEED + 1)
        kernel = get_backend(backend)
        for m in (63, 64, 65, 128, 130):
            query = "".join(
                rng.choice(FUZZ_ALPHABET) for _ in range(m)
            )
            candidates = [
                query,
                query[:-1],
                query + "x",
                random_edits(rng, query, 3),
                random_edits(rng, query, 9),
                query[: m // 2],
                "",
            ]
            for cap in (0, 1, 4, 8):
                got = kernel.edit_distance_many(query, candidates, cap)
                assert got.tolist() == _oracle(query, candidates, cap), (
                    backend,
                    m,
                    cap,
                )

    @pytest.mark.parametrize("backend", _CONCRETE)
    def test_empty_query_and_empty_batch(self, backend):
        kernel = get_backend(backend)
        assert kernel.edit_distance_many("", ["", "ab", "abcd"], 2).tolist() == [
            0,
            2,
            3,
        ]
        assert kernel.edit_distance_many("abc", [], 2).size == 0

    @pytest.mark.parametrize("backend", _CONCRETE)
    def test_pairs_lockstep_matches_oracle(self, backend):
        rng = random.Random(_SEED + 2)
        kernel = get_backend(backend)
        for m in (3, 17, 64, 80):
            queries = [
                "".join(rng.choice(FUZZ_ALPHABET) for _ in range(m))
                for _ in range(40)
            ]
            candidates = [
                random_edits(rng, q, rng.randint(0, 4)) for q in queries
            ]
            query_codes, _ = encode_strings(queries)
            cand_codes, cand_lengths = encode_strings(candidates)
            for cap in (0, 2, 5):
                got = kernel.edit_distance_pairs(
                    query_codes, cand_codes, cand_lengths, cap
                )
                want = [
                    min(edit_distance(q, c), cap + 1)
                    for q, c in zip(queries, candidates, strict=True)
                ]
                assert got.tolist() == want, (backend, m, cap)

    @pytest.mark.parametrize("backend", ("bitparallel", "banded"))
    def test_compaction_under_large_batches(self, backend):
        # Enough settled candidates to trip the batch-compaction path.
        rng = random.Random(_SEED + 3)
        kernel = get_backend(backend)
        query = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(30))
        candidates = [random_edits(rng, query, rng.randint(0, 2)) for _ in range(300)]
        candidates += [
            random_unicode_string(rng, max_length=34, min_length=26)
            for _ in range(1500)
        ]
        for cap in (1, 3):
            got = kernel.edit_distance_many(query, candidates, cap)
            assert got.tolist() == _oracle(query, candidates, cap), cap


class TestPairDtypeBoundary:
    """The pair DP sweeps in int16 below ``width + query_len`` 32767.

    Query ``"a" * 200`` against ``"a" * 200 + "b" * L`` is exactly ``L``
    edits, and the candidate sets ``width + query_len = 401 + L``, so
    the two cases straddle the int16/int32 switch without a scalar
    oracle.
    """

    @pytest.mark.parametrize("total", (32766, 32767))
    def test_straddle_is_exact(self, total):
        query = "a" * 200
        n_b = total - 401
        candidate = query + "b" * n_b
        query_codes, _ = encode_strings([query, query])
        cand_codes, cand_lengths = encode_strings([candidate, query])
        assert cand_codes.shape[1] + 1 + query_codes.shape[1] == total
        for cap, want in ((n_b, [n_b, 0]), (n_b - 1, [n_b, 0]), (3, [4, 0])):
            got = edit_distance_pairs(query_codes, cand_codes, cand_lengths, cap)
            assert got.dtype == np.int64
            assert got.tolist() == want, (total, cap)


class TestJoinerEquivalence:
    """Forcing each backend must leave every join surface byte-identical."""

    @pytest.mark.parametrize("backend", ("bitparallel", "banded"))
    @pytest.mark.parametrize("name", dataset_names())
    def test_backends_match_brute_on_dataset(self, backend, name):
        rng = random.Random(_SEED + 4)
        tables = get_dataset(name, seed=0, scale=0.05)
        brute = EditDistanceJoiner(JoinConfig())
        config = JoinConfig(kernel_backend=backend)
        for table in tables:
            targets = list(table.targets)
            probes = [
                random_edits(rng, t, rng.randint(0, 2))
                for t in targets[: max(4, len(targets) // 3)]
            ]
            joiner = IndexedJoiner(config, cache=IndexCache())
            assert joiner.join_many(probes, targets) == brute.join_many(
                probes, targets
            ), (backend, name, table.name)
            assert joiner.topk_many(probes, targets, k=3) == brute.topk_many(
                probes, targets, k=3
            ), (backend, name, table.name)

    @pytest.mark.parametrize("backend", ("bitparallel", "banded"))
    @pytest.mark.parametrize("n_workers", (2, 4))
    def test_workers_inherit_backend(self, backend, n_workers):
        rng = random.Random(_SEED + 5)
        targets = [
            random_unicode_string(rng, max_length=20, min_length=4) + f"#{i}"
            for i in range(240)
        ]
        probes = [random_edits(rng, t, 1) for t in targets[:40]]
        brute = EditDistanceJoiner(JoinConfig())
        joiner = IndexedJoiner(
            JoinConfig(n_workers=n_workers, kernel_backend=backend),
            cache=IndexCache(),
        )
        try:
            assert joiner.join_many(probes, targets) == brute.join_many(
                probes, targets
            )
            stats = joiner.last_join_stats
            assert stats.kernel_backend == backend
            # Worker deltas fold into the same per-backend ledger, and a
            # forced backend must be the only one that scored anything.
            scored = dict(stats.kernel_pairs)
            assert set(scored) <= {backend}
        finally:
            joiner.close()

    @pytest.mark.parametrize("backend", ("bitparallel", "banded"))
    def test_composite_keys_match_brute(self, backend):
        rng = random.Random(_SEED + 6)
        left = [
            random_unicode_string(rng, max_length=16, min_length=3)
            for _ in range(120)
        ]
        right = [
            random_unicode_string(rng, max_length=10, min_length=1)
            for _ in range(120)
        ]
        probes = [
            (random_edits(rng, left[i], 1), random_edits(rng, right[i], 1))
            for i in range(0, 120, 4)
        ]
        brute = EditDistanceJoiner(JoinConfig())
        joiner = IndexedJoiner(
            JoinConfig(kernel_backend=backend), cache=IndexCache()
        )
        assert joiner.join_composite(probes, [left, right]) == (
            brute.join_composite(probes, [left, right])
        )


class TestPairsAccounting:
    def test_join_stats_record_pairs_scored(self):
        rng = random.Random(_SEED + 7)
        targets = [
            random_unicode_string(rng, max_length=18, min_length=6) + f"#{i}"
            for i in range(150)
        ]
        probes = [random_edits(rng, t, 1) for t in targets[:25]]
        joiner = IndexedJoiner(
            JoinConfig(kernel_backend="bitparallel"), cache=IndexCache()
        )
        joiner.join_many(probes, targets)
        stats = joiner.last_join_stats
        scored = dict(stats.kernel_pairs)
        assert scored.get("bitparallel", 0) > 0
        assert stats.as_dict()["kernel_pairs"] == scored

    @staticmethod
    def _credited(run) -> dict[str, int]:
        before = pairs_scored_snapshot()
        run()
        after = pairs_scored_snapshot()
        return {name: after[name] - before[name] for name in _CONCRETE}

    def test_auto_pairs_run_the_reference_dp(self):
        query_codes, _ = encode_strings(["abcdef"] * 5)
        cand_codes, cand_lengths = encode_strings(["abcdxf"] * 5)
        for cap in (1, 2, 40):
            credited = self._credited(
                lambda cap=cap: get_backend("auto").edit_distance_pairs(
                    query_codes, cand_codes, cand_lengths, cap
                )
            )
            assert credited == {"reference": 5, "bitparallel": 0, "banded": 0}

    def test_auto_codes_take_the_band_at_narrow_caps(self):
        auto = get_backend("auto")
        for cap, backend in ((1, "banded"), (6, "banded"), (7, "bitparallel")):
            credited = self._credited(
                lambda cap=cap: auto.edit_distance_many("abcdef", ["abcdxf"] * 3, cap)
            )
            assert credited[backend] == 3 and sum(credited.values()) == 3, cap

    def test_auto_codes_keep_the_band_to_cap_8_past_one_word(self):
        auto = get_backend("auto")
        long_query = "abcdefghij" * 7
        long_cands = [long_query[:-1] + "x"] * 3
        for query, cands, cap, backend in (
            (long_query, long_cands, 7, "banded"),
            (long_query, long_cands, 8, "banded"),
            (long_query, long_cands, 9, "bitparallel"),
            ("abcdef", ["abcdxf"] * 3, 8, "bitparallel"),
        ):
            credited = self._credited(
                lambda q=query, c=cands, cap=cap: auto.edit_distance_many(q, c, cap)
            )
            assert credited[backend] == 3 and sum(credited.values()) == 3, (
                len(query),
                cap,
            )

    def test_snapshot_is_cumulative_and_resettable(self):
        before = pairs_scored_snapshot()
        get_backend("banded").edit_distance_many("abcdef", ["abcdxf"] * 7, 2)
        after = pairs_scored_snapshot()
        assert after["banded"] - before.get("banded", 0) == 7


class TestServeExport:
    def test_join_stats_snapshot_surfaces_kernel_pairs(self):
        from repro.core.pipeline import DTTPipeline
        from repro.serve import TransformService
        from repro.surrogate import PretrainedDTT
        from repro.types import ExamplePair

        examples = [
            ExamplePair("Justin Trudeau", "jtrudeau"),
            ExamplePair("Stephen Harper", "sharper"),
        ]
        targets = ["jtrudeax", "sharpex", "pmartin"] + [
            f"filler-{i:03d}" for i in range(400)
        ]
        pipeline = DTTPipeline(
            PretrainedDTT(seed=0), n_trials=3, seed=1, joiner="indexed"
        )
        with TransformService(pipeline, max_wait_ms=5.0) as service:
            service.join(["Justin Trudeau"], targets, examples)
            snapshot = service.join_stats_snapshot()
            assert snapshot["last_join"] is not None
            assert sum(snapshot["kernel_pairs_total"].values()) > 0
            text = service.metrics_text()
        assert "serve_join_kernel_pairs_" in text
