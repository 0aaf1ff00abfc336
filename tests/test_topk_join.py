"""Contract tests for the redesigned join API (top-k / composite / reverse).

The brute reference (``EditDistanceJoiner``) defines every contract;
the blocked (``IndexedJoiner``) and parallel (``n_workers > 1``) paths
must be byte-identical to it — same ranked triples, same earliest-row
tie-breaks, same margin abstentions — on every registered benchmark
dataset including the journal-abbreviation family.  ``k=1`` with the
margin disabled must collapse back to ``join_many`` exactly, so the
old argmin surface is a special case of the new one, not a sibling.
"""

from __future__ import annotations

import random

import pytest
from repro.utils.fuzz import random_edits, random_unicode_string

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner, invert_matches
from repro.datagen.benchmarks.registry import dataset_names, get_dataset
from repro.exceptions import JoinError
from repro.index import AutoJoiner, IndexCache, IndexedJoiner
from repro.types import Prediction

_SEED = 4021


def _probes_for(targets, rng):
    """Noisy probes: exact, near-miss, far, and empty rows."""
    probes = []
    for target in targets:
        roll = rng.random()
        if roll < 0.35:
            probes.append(target)
        elif roll < 0.75:
            probes.append(random_edits(rng, target, rng.randint(1, 3)))
        elif roll < 0.9:
            probes.append(random_unicode_string(rng, max_length=12))
        else:
            probes.append("")
    return probes


class TestTopKEquivalence:
    """Blocked and parallel top-k must match the brute reference."""

    @pytest.mark.parametrize("name", dataset_names())
    def test_topk_identical_on_dataset(self, name):
        rng = random.Random(_SEED)
        tables = get_dataset(name, seed=0, scale=0.05)
        brute = EditDistanceJoiner()
        blocked = IndexedJoiner(cache=IndexCache())
        for table in tables:
            targets = list(table.targets)
            probes = _probes_for(targets, rng)
            for k in (1, 3, 7):
                assert blocked.topk_many(probes, targets, k) == brute.topk_many(
                    probes, targets, k
                ), (name, table.name, k)

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("name", dataset_names())
    def test_parallel_topk_identical_on_dataset(self, name, n_workers):
        rng = random.Random(_SEED + n_workers)
        tables = get_dataset(name, seed=0, scale=0.05)
        brute = EditDistanceJoiner()
        config = JoinConfig(n_workers=n_workers, parallel_threshold=0)
        with IndexedJoiner(config, cache=IndexCache()) as sharded:
            for table in tables:
                targets = list(table.targets)
                probes = _probes_for(targets, rng)
                assert sharded.topk_many(probes, targets, 4) == brute.topk_many(
                    probes, targets, 4
                ), (name, table.name, n_workers)

    def test_topk_join_many_identical_with_margin(self):
        rng = random.Random(_SEED + 50)
        tables = get_dataset("JAB", seed=0, scale=0.15)
        config = JoinConfig(margin=0.08)
        brute = EditDistanceJoiner(config)
        blocked = IndexedJoiner(config, cache=IndexCache())
        for table in tables:
            targets = list(table.targets)
            probes = _probes_for(targets, rng)
            assert blocked.topk_join_many(probes, targets, k=3) == (
                brute.topk_join_many(probes, targets, k=3)
            ), table.name

    def test_auto_joiner_delegates_topk(self):
        targets = [f"value-{i:04d}" for i in range(30)]
        probes = ["value-0007", "valeu-0012", ""]
        brute = EditDistanceJoiner()
        for auto_threshold in (1, 10_000):
            auto = AutoJoiner(JoinConfig(auto_threshold=auto_threshold))
            assert auto.topk_many(probes, targets, 3) == brute.topk_many(
                probes, targets, 3
            ), auto_threshold


class TestTopKContract:
    """The ranked-candidate-set semantics the engines all share."""

    def test_ranks_distinct_values_earliest_row(self):
        targets = ["abc", "abd", "abc", "xyz", "abd"]
        joiner = EditDistanceJoiner()
        [ranked] = joiner.topk_many(["abc"], targets, 3)
        assert ranked == [(0, 0, "abc"), (1, 1, "abd"), (3, 3, "xyz")]

    def test_k_larger_than_distinct_values(self):
        targets = ["aa", "aa", "bb"]
        [ranked] = EditDistanceJoiner().topk_many(["aa"], targets, 10)
        assert ranked == [(0, 0, "aa"), (2, 2, "bb")]

    def test_empty_probe_ranks_nothing(self):
        assert EditDistanceJoiner().topk_many([""], ["abc"], 2) == [[]]
        assert IndexedJoiner(cache=IndexCache()).topk_many(
            [""], ["abc"], 2
        ) == [[]]

    def test_validation(self):
        joiner = EditDistanceJoiner()
        with pytest.raises(JoinError):
            joiner.topk_many(["a"], [], 1)
        for bad_k in (0, -1, 1.5, True, "2"):
            with pytest.raises(ValueError):
                joiner.topk_many(["a"], ["b"], bad_k)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            EditDistanceJoiner().topk_join_many(["a"], ["b"], margin=-0.1)


class TestK1BackCompat:
    """``k=1`` margin-disabled must be byte-identical to ``join_many``."""

    @pytest.mark.parametrize("name", dataset_names())
    def test_k1_matches_join_many(self, name):
        rng = random.Random(_SEED + 100)
        tables = get_dataset(name, seed=0, scale=0.05)
        for config in (JoinConfig(), JoinConfig(normalized_threshold=0.34)):
            brute = EditDistanceJoiner(config)
            blocked = IndexedJoiner(config, cache=IndexCache())
            for table in tables:
                targets = list(table.targets)
                probes = _probes_for(targets, rng)
                argmin = blocked.join_many(probes, targets)
                topk = brute.topk_join_many(probes, targets, k=1, margin=0.0)
                assert [(r.matched, r.distance) for r in topk] == argmin, (
                    name,
                    table.name,
                    config,
                )

    def test_k1_margin_zero_disables_abstention(self):
        targets = ["abcd", "abce"]
        results = EditDistanceJoiner().topk_join_many(
            ["abcd"], targets, k=1, margin=0.0
        )
        assert results[0].matched == "abcd"
        # With the rule disabled, the rank-2 candidate is never ranked
        # at k=1, so no gap is observed.
        assert results[0].margin is None


class TestMarginAbstention:
    def test_ambiguous_probe_abstains(self):
        # Two candidates one edit apart: gap = 1/len(probe).
        targets = ["abcdefgh", "abcdefgx"]
        joiner = EditDistanceJoiner()
        [tight] = joiner.topk_join_many(["abcdefgh"], targets, k=1, margin=0.5)
        assert tight.matched is None
        assert tight.margin == pytest.approx(1 / 8)
        [loose] = joiner.topk_join_many(["abcdefgh"], targets, k=1, margin=0.1)
        assert loose.matched == "abcdefgh"

    def test_single_candidate_column_is_accepted(self):
        [result] = EditDistanceJoiner().topk_join_many(
            ["abc"], ["abc", "abc"], k=1, margin=0.9
        )
        assert result.matched == "abc"
        assert result.margin is None

    def test_margin_ranks_two_even_at_k1(self):
        targets = ["aaaa", "zzzz"]
        [result] = EditDistanceJoiner().topk_join_many(
            ["aaaa"], targets, k=1, margin=0.5
        )
        # The rank-2 candidate was consulted (gap recorded) but only k
        # candidates are returned.
        assert result.margin == pytest.approx(1.0)
        assert len(result.candidates) == 1
        assert result.matched == "aaaa"

    def test_config_defaults_apply(self):
        joiner = EditDistanceJoiner(JoinConfig(k=2, margin=0.5))
        [result] = joiner.topk_join_many(["abcdefgh"], ["abcdefgh", "abcdefgx"])
        assert result.matched is None
        assert len(result.candidates) == 2


class TestJoinTopK:
    def test_carries_source_and_expected(self):
        predictions = [Prediction(source="s0", value="abc")]
        results = EditDistanceJoiner().join_topk(
            predictions, ["abc", "abd"], ["abc"], k=2
        )
        assert results[0].source == "s0"
        assert results[0].expected == "abc"
        assert results[0].correct
        assert [c.value for c in results[0].candidates] == ["abc", "abd"]

    def test_expected_length_mismatch(self):
        with pytest.raises(JoinError):
            EditDistanceJoiner().join_topk(
                [Prediction(source="s", value="a")], ["a"], ["a", "b"]
            )

    def test_to_dict_round_trip_shape(self):
        [result] = EditDistanceJoiner().join_topk(
            [Prediction(source="s0", value="abc")], ["abc"], k=1
        )
        payload = result.to_dict()
        assert payload["matched"] == "abc"
        assert payload["candidates"] == [
            {"value": "abc", "distance": 0, "row": 0}
        ]


class TestReverseJoin:
    @pytest.mark.parametrize("name", dataset_names())
    def test_reverse_identical_on_dataset(self, name):
        rng = random.Random(_SEED + 200)
        tables = get_dataset(name, seed=0, scale=0.05)
        brute = EditDistanceJoiner()
        blocked = IndexedJoiner(cache=IndexCache())
        for table in tables:
            targets = list(table.targets)
            probes = _probes_for(targets, rng)
            assert blocked.reverse_many(probes, targets) == brute.reverse_many(
                probes, targets
            ), (name, table.name)

    def test_groups_on_earliest_duplicate_row(self):
        targets = ["aa", "bb", "aa"]
        groups = EditDistanceJoiner().reverse_many(["aa", "bb", "ab"], targets)
        # "ab" ties between "aa" (row 0) and "bb" (row 1); earliest wins.
        assert groups == [[0, 2], [1], []]

    def test_unmatched_probes_appear_nowhere(self):
        joiner = EditDistanceJoiner(JoinConfig(max_distance=0))
        groups = joiner.reverse_many(["aa", "zz", ""], ["aa", "bb"])
        assert groups == [[0], []]

    def test_invert_matches_is_the_shared_inversion(self):
        targets = ["x", "y", "x"]
        matches = [("x", 0), (None, 3), ("y", 1)]
        assert invert_matches(matches, targets) == [[0], [2], []]


class TestCompositeKeys:
    @pytest.mark.parametrize("name", dataset_names())
    def test_composite_identical_on_dataset(self, name):
        rng = random.Random(_SEED + 300)
        tables = get_dataset(name, seed=0, scale=0.05)
        brute = EditDistanceJoiner()
        blocked = IndexedJoiner(cache=IndexCache())
        for table in tables[:4]:
            targets = list(table.targets)
            aux = [f"{len(t):03d}" for t in targets]
            probes = [
                (probe, random_edits(rng, key, rng.randint(0, 1)))
                for probe, key in zip(_probes_for(targets, rng), aux)
            ]
            assert blocked.join_composite(probes, [targets, aux]) == (
                brute.join_composite(probes, [targets, aux])
            ), (name, table.name)

    def test_jab_issn_column_disambiguates(self):
        """The JAB metadata ISSNs resolve title-only ties."""
        tables = get_dataset("JAB", seed=0, scale=0.15)
        brute = EditDistanceJoiner()
        blocked = IndexedJoiner(cache=IndexCache())
        for table in tables:
            titles = list(table.targets)
            issns = list(table.metadata["target_issns"])
            probes = list(
                zip(table.sources, table.metadata["source_issns"])
            )
            composite = blocked.join_composite(probes, [titles, issns])
            assert composite == brute.join_composite(probes, [titles, issns])
            # Alignment is the ground truth: the summed key must
            # recover at least as many correct rows as the title alone.
            title_only = blocked.join_many(table.sources, titles)
            earliest = {}
            for row, title in enumerate(titles):
                earliest.setdefault(title, row)
            title_hits = sum(
                1
                for i, (matched, _) in enumerate(title_only)
                if matched is not None and earliest[matched] == i
            )
            composite_hits = sum(
                1 for i, (row, _) in enumerate(composite) if row == i
            )
            assert composite_hits >= title_hits, table.name

    def test_validation(self):
        joiner = EditDistanceJoiner()
        with pytest.raises(JoinError):
            joiner.join_composite([("a",)], [])
        with pytest.raises(JoinError):
            joiner.join_composite([("a",)], [[], []])
        with pytest.raises(JoinError):
            joiner.join_composite([("a", "b")], [["x"]])
        with pytest.raises(JoinError):
            joiner.join_composite([("a",)], [["x"], ["y", "z"]])

    def test_all_empty_probe_abstains(self):
        assert EditDistanceJoiner().join_composite(
            [("", "")], [["a"], ["b"]]
        ) == [(None, 0)]

    def test_composite_thresholds_sum_semantics(self):
        columns = [["abcd"], ["wxyz"]]
        # Summed distance 2 (one edit per column) over tuple length 8.
        capped = EditDistanceJoiner(JoinConfig(max_distance=1))
        assert capped.join_composite([("abcx", "wxyj")], columns) == [(None, 2)]
        normalized = EditDistanceJoiner(JoinConfig(normalized_threshold=0.25))
        assert normalized.join_composite([("abcx", "wxyj")], columns) == [
            (0, 2)
        ]
        tight = EditDistanceJoiner(JoinConfig(normalized_threshold=0.1))
        assert tight.join_composite([("abcx", "wxyj")], columns) == [(None, 2)]


class TestJoinConfig:
    def test_defaults(self):
        config = JoinConfig()
        assert config.mode == "argmin"
        assert config.k == 1
        assert config.margin is None
        assert config.auto_threshold == 256

    def test_frozen(self):
        with pytest.raises(AttributeError):
            JoinConfig().k = 2

    def test_validation(self):
        with pytest.raises(ValueError):
            JoinConfig(mode="nearest")
        for bad_k in (0, -2, True, 1.5):
            with pytest.raises(ValueError):
                JoinConfig(k=bad_k)
        with pytest.raises(ValueError):
            JoinConfig(margin=-0.5)
        with pytest.raises(ValueError):
            JoinConfig(n_workers=0)
        with pytest.raises(ValueError):
            JoinConfig(parallel_threshold=-1)

    def test_config_flows_to_joiner_attributes(self):
        config = JoinConfig(mode="topk", k=4, margin=0.2, max_distance=3)
        joiner = IndexedJoiner(config, cache=IndexCache())
        assert joiner.mode == "topk"
        assert joiner.k == 4
        assert joiner.margin == 0.2
        assert joiner.max_distance == 3
