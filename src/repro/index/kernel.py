"""Batched capped edit distance: one query against many candidates.

The blocked joiner scores a whole candidate set at once instead of
calling the scalar DP per target.  Candidates are encoded into a padded
``(n, max_len)`` code-point matrix and a single numpy DP sweeps the
query characters, keeping one ``(n, max_len + 1)`` distance row per
step.  The row-serial insertion recurrence is resolved with the classic
prefix-min trick::

    D[i][j] = min_{t <= j} (C[i][t] + (j - t))
            = j + min_{t <= j} (C[i][t] - t)

which turns the scan into ``np.minimum.accumulate`` along the candidate
axis — every operation is vectorized over all candidates.

Distances are capped: any value that provably exceeds ``cap`` is
reported as ``cap + 1``, matching the contract of
:func:`repro.text.edit_distance.edit_distance_capped`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.text.edit_distance import codepoints

# Pad value for the code matrix.  Unicode code points stop at 0x10FFFF,
# so padding can never spuriously match a query character.
_PAD = np.uint32(0xFFFFFFFF)


def encode_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Encode strings into a padded uint32 code-point matrix.

    Returns:
        ``(codes, lengths)`` where ``codes`` has shape
        ``(len(strings), max_len)`` padded with a non-code-point value
        and ``lengths[i]`` is ``len(strings[i])``.
    """
    lengths = np.fromiter(
        (len(s) for s in strings), dtype=np.int64, count=len(strings)
    )
    max_len = int(lengths.max()) if lengths.size else 0
    codes = np.full((len(strings), max_len), _PAD, dtype=np.uint32)
    if max_len == 0:
        return codes, lengths
    # One join + one frombuffer instead of a Python-level loop per
    # string: utf-32-le yields exactly one uint32 per code point, and a
    # ragged boolean mask scatters the flat buffer into the padded rows.
    try:
        flat = np.frombuffer(
            "".join(strings).encode("utf-32-le"), dtype=np.uint32
        )
    except UnicodeEncodeError:
        # Lone surrogates can't round-trip through utf-32; fall back to
        # the per-string scalar path (codepoints() handles them).
        for i, s in enumerate(strings):
            if s:
                codes[i, : len(s)] = codepoints(s)
        return codes, lengths
    mask = np.arange(max_len) < lengths[:, None]
    codes[mask] = flat
    return codes, lengths


def edit_distance_codes(
    query: str, codes: np.ndarray, lengths: np.ndarray, cap: int
) -> np.ndarray:
    """Capped distances from ``query`` to every pre-encoded candidate.

    Args:
        query: The probe string.
        codes: Padded code matrix from :func:`encode_strings` (rows may
            be a fancy-indexed subset of a larger matrix).
        lengths: True length of each row of ``codes``.
        cap: Distances above this are clamped to ``cap + 1``.

    Returns:
        ``int64`` array of shape ``(len(codes),)`` where entry ``i`` is
        ``edit_distance(query, candidate_i)`` when that is ``<= cap``
        and ``cap + 1`` otherwise.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    n = codes.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    big = cap + 1
    if not query:
        return np.minimum(lengths, big)
    # The rows are often a fancy-indexed subset of a wider index matrix;
    # trim the pad columns past the longest *present* candidate so one
    # long outlier value in the column doesn't tax every query.
    longest = int(lengths.max())
    if codes.shape[1] > longest:
        codes = codes[:, :longest]
    out = np.full(n, big, dtype=np.int64)
    # Maps compacted row positions back to caller candidate indices.
    active = np.arange(n)
    width = codes.shape[1] + 1
    col = np.arange(width, dtype=np.int64)
    previous = np.minimum(np.tile(col, (n, 1)), big)
    current = np.empty_like(previous)
    query_codes = codepoints(query)
    query_len = len(query_codes)
    for i in range(1, query_len + 1):
        current[:, 0] = i
        substitution = previous[:, :-1] + (codes != query_codes[i - 1])
        deletion = previous[:, 1:] + 1
        np.minimum(substitution, deletion, out=current[:, 1:])
        # Insertion closure via prefix-min of (value - column index).
        current -= col
        np.minimum.accumulate(current, axis=1, out=current)
        current += col
        np.minimum(current, big, out=current)
        previous, current = current, previous
        if i & 1 and i != query_len:
            continue
        # A candidate whose row minimum exceeds the cap is settled —
        # row minima never decrease as the DP advances — so its
        # distance is reported as ``big`` and the row drops out of the
        # sweep.  Same settled-count/compaction policy as
        # :func:`edit_distance_pairs`: checking every other row halves
        # the full-matrix min scans, and compaction keeps a batch that
        # mixes doomed and promising candidates from paying full width
        # for the doomed majority.
        row_min = previous.min(axis=1)
        settled = int(np.count_nonzero(row_min > cap))
        if settled == active.size:
            return out
        if settled >= 256 and settled * 4 >= active.size:
            keep = row_min <= cap
            active = active[keep]
            previous = previous[keep]
            codes = codes[keep]
            lengths = lengths[keep]
            longest = int(lengths.max())
            if codes.shape[1] > longest:
                codes = codes[:, :longest]
                previous = previous[:, : longest + 1]
                col = col[: longest + 1]
            current = np.empty_like(previous)
    out[active] = previous[np.arange(active.size), lengths]
    return out


def edit_distance_pairs(
    query_codes: np.ndarray,
    cand_codes: np.ndarray,
    cand_lengths: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Capped distances for ``n`` independent (query, candidate) pairs.

    The multi-probe generalization of :func:`edit_distance_codes`: row
    ``i`` scores ``query_i`` against ``candidate_i``, and the DP is
    vectorized across *all pairs of all probes at once* — one numpy
    sweep per query character instead of one kernel launch per probe.
    Every query must have the same true length (the batch engine buckets
    probes by length for exactly this reason), so the sweep advances all
    pairs in lockstep.

    Args:
        query_codes: ``(n, query_len)`` code matrix; each row is a full
            (unpadded) query of exactly ``query_len`` characters.
        cand_codes: ``(n, max_cand_len)`` padded candidate code matrix
            (rows may be a fancy-indexed subset of an index matrix).
        cand_lengths: True length of each candidate row.
        cap: Distances above this are clamped to ``cap + 1``.

    Returns:
        ``int64`` array of shape ``(n,)``; entry ``i`` is
        ``edit_distance(query_i, candidate_i)`` when that is ``<= cap``
        and ``cap + 1`` otherwise.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    n = cand_codes.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    big = cap + 1
    query_len = query_codes.shape[1]
    if query_len == 0:
        return np.minimum(cand_lengths, big)
    longest = int(cand_lengths.max())
    if cand_codes.shape[1] > longest:
        cand_codes = cand_codes[:, :longest]
    out = np.full(n, big, dtype=np.int64)
    # Maps compacted column positions back to caller pair indices.
    active = np.arange(n)
    # The sweep runs the *exact* (unclamped) DP in **reduced space**
    # ``E[i][j] = D[i][j] - j``, where the row-serial insertion
    # recurrence collapses to a plain prefix-min
    # (``D[i][j] = min(D'[i][j], D[i][j-1] + 1)`` becomes
    # ``E[i][j] = min(E'[i][j], E[i][j-1])``) and the initial row is
    # all zeros.  State is stored **transposed** — ``(width, n)`` with
    # pairs along the contiguous axis — so the prefix-min accumulate
    # runs its data-dependent loop across rows while its inner loop
    # stays a fully vectorized sweep over all pairs (the row-serial
    # layout made ``np.minimum.accumulate`` dominate kernel profiles).
    # Distances clamp to ``big`` only on output.
    cand_codes = np.ascontiguousarray(cand_codes.T)
    width = cand_codes.shape[0] + 1
    # ``E[i][j]`` lies in ``[-j, i]`` and the settlement sum ``E + j``
    # is at most ``query_len + width``, so int16 holds every value the
    # sweep forms whenever that bound fits — halving memory traffic
    # again over int32, the fallback for longer strings.
    if width + query_len < np.iinfo(np.int16).max:
        dtype = np.int16
    else:
        dtype = np.int32
    col = np.arange(width, dtype=dtype)[:, None]
    previous = np.zeros((width, n), dtype=dtype)
    current = np.empty_like(previous)
    unequal = np.empty(cand_codes.shape, dtype=dtype)
    scratch = np.empty(cand_codes.shape, dtype=dtype)
    for i in range(1, query_len + 1):
        current[0, :] = i
        # Each pair substitutes against its own query character:
        # E-substitution = E_prev[j-1] + (mismatch) - 1.
        query_row = query_codes[:, i - 1]
        np.not_equal(cand_codes, query_row, out=unequal, casting="unsafe")
        np.add(previous[:-1, :], unequal, out=unequal)
        unequal -= 1
        # E-deletion = E_prev[j] + 1.
        np.add(previous[1:, :], 1, out=scratch)
        np.minimum(unequal, scratch, out=current[1:, :])
        # Insertion closure: prefix-min along the (row) width axis.
        np.minimum.accumulate(current, axis=0, out=current)
        previous, current = current, previous
        if i & 1 and i != query_len:
            continue
        # A pair whose row minimum (in D space: E + j) exceeds the cap
        # is settled — row minima never decrease as the DP advances —
        # so its distance is reported as ``big`` and the pair drops out
        # of the sweep.  This is the per-pair analogue of the scalar
        # kernel's global early exit, and it is what makes mixing
        # doomed and promising pairs in one batch affordable: a pair
        # many edits beyond the cap stops paying after about ``cap``
        # steps instead of the full query length.
        row_min = np.add(previous, col, out=current).min(axis=0)
        settled = int(np.count_nonzero(row_min > cap))
        if settled == active.size:
            return out
        if settled >= 256 and settled * 4 >= active.size:
            keep = row_min <= cap
            active = active[keep]
            previous = previous[:, keep]
            cand_codes = cand_codes[:, keep]
            query_codes = query_codes[keep]
            cand_lengths = cand_lengths[keep]
            # Surviving candidates may all be shorter than the batch
            # pad width; shrink the sweep to match (row-prefix slices
            # of the transposed state stay contiguous).
            longest = int(cand_lengths.max()) if cand_lengths.size else 0
            if cand_codes.shape[0] > longest:
                cand_codes = cand_codes[:longest, :]
                previous = previous[: longest + 1, :]
                col = col[: longest + 1]
            current = np.empty_like(previous)
            unequal = np.empty(cand_codes.shape, dtype=dtype)
            scratch = np.empty(cand_codes.shape, dtype=dtype)
    final = previous[cand_lengths, np.arange(active.size)] + cand_lengths
    out[active] = np.minimum(final, big)
    return out


def edit_distance_many(
    query: str, candidates: Sequence[str], cap: int
) -> np.ndarray:
    """Capped edit distance from ``query`` to each of ``candidates``.

    Equivalent to ``[edit_distance_capped(query, c, cap) for c in
    candidates]`` (with the over-cap sentinel fixed at ``cap + 1``) but
    computed as one vectorized DP over a padded candidate matrix.
    """
    codes, lengths = encode_strings(candidates)
    return edit_distance_codes(query, codes, lengths, cap)
