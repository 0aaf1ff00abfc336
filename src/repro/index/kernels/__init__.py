"""Pluggable edit-distance kernel backends behind one equivalence contract.

Every join in the Eq. 5 resolution path bottoms out in three kernel
entry points — ``edit_distance_codes`` (one query vs. a candidate
matrix), ``edit_distance_pairs`` (lockstep per-pair scoring) and
``edit_distance_many`` (encode + codes) — historically served only by
the pure-numpy DP in :mod:`repro.index.kernel`.  This package turns
that call surface into a registry of interchangeable backends:

* ``"reference"`` — the numpy DP sweeps, always available; they
  define the capped contract every other backend must match
  byte-for-byte (values ``<= cap`` exact, everything else ``cap + 1``).
  The pair DP sweeps in int16 whenever ``width + query_len`` fits
  (int32 otherwise), so it moves half the bytes on title-length
  strings.
* ``"bitparallel"`` — Myers' bit-parallel DP over uint64 bit-vectors
  (:mod:`repro.index.kernels.bitparallel`); one word per 64 query
  characters, so its cost grows with the cap more slowly than the
  band's.
* ``"banded"`` — Ukkonen's diagonal-band DP
  (:mod:`repro.index.kernels.banded`); its ``2*cap + 1`` band makes it
  cheapest at small caps.
* ``"auto"`` — the backend measured fastest per entry point, from the
  rows of ``BENCH_kernels.json`` (``benchmarks/bench_kernels.py``; 2-core
  host, CPython 3.11, numpy 2.4):

  - ``edit_distance_pairs`` → ``reference``.  Replaying the 345 pair
    calls of a wide join (5,000-row title column, ~70 pairs per call
    at the median and up to ~2,200 behind the bag filter, caps 2-67):
    reference 0.94 s, banded 1.40 s, bitparallel 1.89 s; the same join
    end to end 1.02 / 1.49 / 1.88 s.
  - ``edit_distance_codes`` / ``edit_distance_many`` → ``banded`` up
    to cap 6 for queries of at most 64 characters (one bit-parallel
    word) and up to cap 8 for longer ones, ``bitparallel`` above.  On
    60 abbreviation probes against 4,000 titles, banded/bitparallel
    took 0.015/0.048 s at cap 1, 0.128/0.147 s at cap 6, 0.227/0.181 s
    at cap 8 and 2.91/0.73 s at cap 40.  On concatenated titles past
    one word, where bit-parallel pays for a second word, the band still
    wins at cap 8 (0.100/0.154 s) and loses from cap 16.

Selection: an explicit ``JoinConfig(kernel_backend=...)`` wins; a
config left at ``"auto"`` defers to the ``REPRO_KERNEL_BACKEND``
environment variable (so CI can sweep the whole test suite across
backends without touching call sites); otherwise ``auto`` dispatches
as above.  Backend names are validated against
:data:`repro.core.join_config.KERNEL_BACKENDS`.  ``BENCH_FLOORS`` keeps
``auto`` within 10% of the best fixed backend on the pairs and join
rows, so a dispatch regression fails CI.

Every concrete backend counts the candidate pairs it scores into a
process-wide tally (:func:`pairs_scored_snapshot`), which
``IndexedJoiner.join_many`` turns into per-call ``JoinStats`` deltas —
parallel workers report their own deltas per shard — and the serving
layer exports through ``/v1/stats`` and ``/metrics``.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence

import numpy as np

from repro.core.join_config import KERNEL_BACKENDS
from repro.index import kernel as _reference
from repro.index.kernel import encode_strings
from repro.index.kernels import banded as _banded
from repro.index.kernels import bitparallel as _bitparallel

#: Largest cap at which ``auto`` scores codes with the banded DP, for
#: queries that fit one 64-bit word and for longer ones.
_BANDED_MAX_CAP = 6
_BANDED_MAX_CAP_MULTIWORD = 8
_WORD_BITS = 64

_COUNTS_LOCK = threading.Lock()
_PAIRS_SCORED: dict[str, int] = {
    "reference": 0,
    "bitparallel": 0,
    "banded": 0,
}


def _count_pairs(backend: str, n: int) -> None:
    """Credit ``n`` scored candidate pairs to a concrete backend."""
    if n:
        with _COUNTS_LOCK:
            _PAIRS_SCORED[backend] += n


def pairs_scored_snapshot() -> dict[str, int]:
    """Cumulative pairs scored per concrete backend, process-wide.

    Callers (``join_many``, parallel shard workers) snapshot before and
    after a unit of work and report the difference, so the tally never
    needs resetting between calls.
    """
    with _COUNTS_LOCK:
        return dict(_PAIRS_SCORED)


def reset_pairs_scored() -> None:
    """Zero the tally (test isolation hook)."""
    with _COUNTS_LOCK:
        for name in _PAIRS_SCORED:
            _PAIRS_SCORED[name] = 0


class KernelBackend:
    """One edit-distance kernel implementation behind the shared contract.

    Subclasses implement the three entry points with semantics
    byte-identical to :mod:`repro.index.kernel` (the enforcement lives
    in ``tests/test_kernels.py``) and credit the pairs they score to
    the process-wide tally under their ``name``.
    """

    name: str = "abstract"

    def edit_distance_codes(
        self, query: str, codes: np.ndarray, lengths: np.ndarray, cap: int
    ) -> np.ndarray:
        raise NotImplementedError

    def edit_distance_pairs(
        self,
        query_codes: np.ndarray,
        cand_codes: np.ndarray,
        cand_lengths: np.ndarray,
        cap: int,
    ) -> np.ndarray:
        raise NotImplementedError

    def edit_distance_many(
        self, query: str, candidates: Sequence[str], cap: int
    ) -> np.ndarray:
        codes, lengths = encode_strings(candidates)
        return self.edit_distance_codes(query, codes, lengths, cap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class _DelegatingBackend(KernelBackend):
    """Counts pairs at entry, then delegates to a kernel module."""

    _module = _reference

    def edit_distance_codes(
        self, query: str, codes: np.ndarray, lengths: np.ndarray, cap: int
    ) -> np.ndarray:
        _count_pairs(self.name, codes.shape[0])
        return self._module.edit_distance_codes(query, codes, lengths, cap)

    def edit_distance_pairs(
        self,
        query_codes: np.ndarray,
        cand_codes: np.ndarray,
        cand_lengths: np.ndarray,
        cap: int,
    ) -> np.ndarray:
        _count_pairs(self.name, cand_codes.shape[0])
        return self._module.edit_distance_pairs(
            query_codes, cand_codes, cand_lengths, cap
        )

    def edit_distance_many(
        self, query: str, candidates: Sequence[str], cap: int
    ) -> np.ndarray:
        _count_pairs(self.name, len(candidates))
        return self._module.edit_distance_many(query, candidates, cap)


class ReferenceBackend(_DelegatingBackend):
    """The pure-numpy DP sweeps — always available, defines the contract."""

    name = "reference"
    _module = _reference


class BitParallelBackend(_DelegatingBackend):
    """Myers' bit-parallel DP in uint64 bit-vectors."""

    name = "bitparallel"
    _module = _bitparallel


class BandedBackend(_DelegatingBackend):
    """Ukkonen's banded DP over the ``2*cap + 1`` diagonal."""

    name = "banded"
    _module = _banded


class AutoBackend(KernelBackend):
    """Per-entry-point dispatch to the backend measured fastest there.

    * ``edit_distance_pairs`` (argmin and top-k joins) always runs the
      reference pair DP, which won every cap of the wide-join pair
      batches in ``BENCH_kernels.json``.
    * ``edit_distance_codes`` / ``edit_distance_many`` (composite keys,
      ``match_many``) run the banded DP while the cap is at most
      :data:`_BANDED_MAX_CAP` (:data:`_BANDED_MAX_CAP_MULTIWORD` for
      queries longer than one 64-bit word) and bit-parallel above it.

    Pairs scored are credited to whichever concrete backend ran.
    """

    name = "auto"

    @staticmethod
    def _pick_codes(cap: int, query_length: int) -> KernelBackend:
        limit = (
            _BANDED_MAX_CAP_MULTIWORD
            if query_length > _WORD_BITS
            else _BANDED_MAX_CAP
        )
        if cap <= limit:
            return _BACKENDS["banded"]
        return _BACKENDS["bitparallel"]

    def edit_distance_codes(
        self, query: str, codes: np.ndarray, lengths: np.ndarray, cap: int
    ) -> np.ndarray:
        return self._pick_codes(cap, len(query)).edit_distance_codes(
            query, codes, lengths, cap
        )

    def edit_distance_pairs(
        self,
        query_codes: np.ndarray,
        cand_codes: np.ndarray,
        cand_lengths: np.ndarray,
        cap: int,
    ) -> np.ndarray:
        return _BACKENDS["reference"].edit_distance_pairs(
            query_codes, cand_codes, cand_lengths, cap
        )

    def edit_distance_many(
        self, query: str, candidates: Sequence[str], cap: int
    ) -> np.ndarray:
        return self._pick_codes(cap, len(query)).edit_distance_many(
            query, candidates, cap
        )


_BACKENDS: dict[str, KernelBackend] = {
    "reference": ReferenceBackend(),
    "bitparallel": BitParallelBackend(),
    "banded": BandedBackend(),
    "auto": AutoBackend(),
}
assert set(_BACKENDS) == set(KERNEL_BACKENDS)


def get_backend(name: str) -> KernelBackend:
    """Look a backend up by exact name; raises on unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        ) from None


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Resolve a configured backend name to a backend object.

    An explicit name other than ``"auto"`` wins outright.  ``None`` /
    ``""`` / ``"auto"`` defer to the ``REPRO_KERNEL_BACKEND``
    environment variable (empty value = unset), falling back to the
    auto heuristic.  Unknown names — from config or environment —
    raise ``ValueError``.
    """
    if name in (None, "", "auto"):
        name = os.environ.get("REPRO_KERNEL_BACKEND", "").strip() or "auto"
    return get_backend(name)


__all__ = [
    "AutoBackend",
    "BandedBackend",
    "BitParallelBackend",
    "KernelBackend",
    "ReferenceBackend",
    "get_backend",
    "pairs_scored_snapshot",
    "reset_pairs_scored",
    "resolve_backend",
]
