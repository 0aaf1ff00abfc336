"""Property tests of the q-gram index's candidate filters.

Two properties hold the blocked join to the brute scan: the folded bag
bound never exceeds the true edit distance, and ``candidates_bucket``
returns every value within the cap (for every ``q`` and every cap up to
the vacuous one).  The strings mix characters that collide in the bag
filter's ``code % 64`` folding, astral characters, lone surrogates,
empty and duplicate values, and lengths straddling one 64-bit word.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import QGramIndex
from repro.text.edit_distance import edit_distance

# "a" (97) folds onto "!" (33) and "Ł" (321); the astral emoji and
# the lone surrogates exercise the non-BMP and non-encodable paths.
_ALPHABET = "ab!c Łé\U0001f600\U00010041\ud800\udfff"

_short = st.text(alphabet=_ALPHABET, max_size=8)
_word_edge = st.integers(62, 66).flatmap(
    lambda n: st.text(alphabet=_ALPHABET, min_size=n, max_size=n)
)
_strings = st.one_of(_short, _short, _word_edge)

_DERANDOMIZED = settings.get_profile("derandomized")


@st.composite
def _column(draw) -> list[str]:
    values = draw(st.lists(_strings, min_size=1, max_size=6))
    # Duplicates collapse to one value id; make sure some occur.
    return values + draw(st.lists(st.sampled_from(values), max_size=2))


@settings(_DERANDOMIZED, max_examples=200)
@given(a=_strings, b=_strings)
def test_bag_bound_never_exceeds_edit_distance(a, b):
    index = QGramIndex([b], q=2)
    (bound,) = index.bag_bounds(a, np.zeros(1, dtype=np.int64))
    assert bound <= edit_distance(a, b)


@settings(_DERANDOMIZED, max_examples=60)
@given(
    column=_column(),
    queries=st.lists(_strings, min_size=1, max_size=4),
    q=st.sampled_from((2, 3, 4)),
)
def test_candidates_bucket_complete_against_scalar_oracle(column, queries, q):
    index = QGramIndex(column, q=q)
    by_length: dict[int, list[str]] = {}
    for query in dict.fromkeys(queries):
        by_length.setdefault(len(query), []).append(query)
    for length, bucket in by_length.items():
        truth = [
            [edit_distance(query, value) for value in index.values]
            for query in bucket
        ]
        previous = [set() for _ in bucket]
        for cap in range(max(length, index.max_length) + 1):
            lists = index.candidates_bucket(bucket, length, cap)
            for query, ids, distances, before in zip(
                bucket, lists, truth, previous, strict=True
            ):
                got = set(ids.tolist())
                assert ids.tolist() == sorted(got)
                within = {v for v, d in enumerate(distances) if d <= cap}
                assert within <= got, (query, cap, column)
                # Monotone in the cap: the join's cap ladder reuses the
                # scores of a narrower round.
                assert before <= got, (query, cap, column)
                before.clear()
                before.update(got)
