"""Blocked join engine: sub-linear candidate generation for Eq. 5.

The brute joiner scans every target with a scalar DP — O(|sources| x
|targets| x len^2) — which caps the join at toy column sizes.  This
package keeps the paper's exact semantics while scaling the target
column:

* :mod:`repro.index.qgram` — an inverted q-gram index whose length,
  count (Gravano-style) and bag (character-count) filters yield a
  **provably complete** candidate set for any distance cap.  The bag
  filter keeps far probes, whose caps make the count bound vacuous,
  from passing half the column to the kernel.
* :mod:`repro.index.kernel` — :func:`edit_distance_many`, a batched
  capped edit-distance DP over a padded candidate matrix, vectorized
  across candidates.
* :mod:`repro.index.kernels` — pluggable kernel backends behind that
  contract (Myers bit-parallel, Ukkonen banded, per-call auto
  dispatch), selected via ``JoinConfig.kernel_backend`` or the
  ``REPRO_KERNEL_BACKEND`` environment variable; every backend is
  byte-identical to the reference DP.
* :mod:`repro.index.joiner` — :class:`IndexedJoiner` (drop-in,
  byte-identical results to :class:`~repro.core.joiner.EditDistanceJoiner`),
  :class:`AutoJoiner` (switches strategy on target-column size), and the
  :func:`make_joiner` factory used by ``DTTPipeline(joiner="auto")``.

Batch execution rides on top of the same guarantee:

* :mod:`repro.index.cache` — :class:`IndexCache`, a process-level LRU of
  indexes keyed on **column content** (so equal columns share one index
  and any mutation — even a same-length in-place edit — forces a
  rebuild), plus adaptive gram-size selection.
* :meth:`IndexedJoiner.join_many` — the many-probe batch API: dedupe,
  exact-match short-circuit, length-bucketed candidate generation, and
  a pair DP kernel (:func:`~repro.index.kernel.edit_distance_pairs`)
  that scores all (probe, candidate) pairs of a bucket in one sweep.

The guarantee throughout is *exact equivalence* with the brute scan —
enforced by the equivalence test harness in ``tests/`` — so blocking and
batching are purely performance choices.
"""

from repro.core.join_config import JoinConfig
from repro.index.cache import (
    IndexCache,
    column_fingerprint,
    default_index_cache,
)
from repro.index.joiner import AutoJoiner, IndexedJoiner, make_joiner
from repro.index.kernel import (
    edit_distance_many,
    edit_distance_pairs,
    encode_strings,
)
from repro.index.kernels import (
    KernelBackend,
    get_backend,
    pairs_scored_snapshot,
    resolve_backend,
)
from repro.index.parallel import JoinStats
from repro.index.qgram import QGramIndex, adaptive_q

__all__ = [
    "AutoJoiner",
    "IndexCache",
    "IndexedJoiner",
    "JoinConfig",
    "JoinStats",
    "KernelBackend",
    "QGramIndex",
    "adaptive_q",
    "column_fingerprint",
    "default_index_cache",
    "edit_distance_many",
    "edit_distance_pairs",
    "encode_strings",
    "get_backend",
    "make_joiner",
    "pairs_scored_snapshot",
    "resolve_backend",
]
