"""One frozen configuration object for every join strategy.

Prior to the join-API redesign each joiner grew its own keyword sprawl
(``max_distance`` / ``normalized_threshold`` / ``q`` / ``n_workers`` /
``parallel_threshold`` / ``threshold`` ...), duplicated across
``EditDistanceJoiner``, ``IndexedJoiner``, ``AutoJoiner``,
``make_joiner`` and ``DTTPipeline``.  :class:`JoinConfig` collapses all
of it — including the new query-surface knobs ``mode`` / ``k`` /
``margin`` — into one validated, frozen dataclass that every
constructor accepts as its first argument.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Join modes understood by the engines and the serve schema.
JOIN_MODES = ("argmin", "topk", "reverse")

#: Edit-distance kernel backends understood by the join engines.  The
#: names live here (not in :mod:`repro.index.kernels`) so config
#: validation never imports the kernel implementations — the index
#: package imports this module, and the reverse would cycle.
#:
#: * ``"auto"`` — the backend measured fastest per entry point: the
#:   reference pair DP for ``edit_distance_pairs``; banded at narrow
#:   caps, bit-parallel above them, for ``edit_distance_codes``.
#: * ``"reference"`` — the pure-numpy DP sweeps in
#:   :mod:`repro.index.kernel`, always available, defines the contract.
#: * ``"bitparallel"`` — Myers' bit-parallel DP in uint64 bit-vectors.
#: * ``"banded"`` — Ukkonen's banded DP over the ``2*cap + 1`` diagonal.
KERNEL_BACKENDS = ("auto", "reference", "bitparallel", "banded")


@dataclass(frozen=True)
class JoinConfig:
    """All tunables of the Eq. 5 join engines in one frozen object.

    Attributes:
        mode: Default query mode — ``"argmin"`` (classic Eq. 5),
            ``"topk"`` (ranked candidate sets with margin abstention) or
            ``"reverse"`` (target row -> source rows).  Per-call
            arguments override it.
        k: Default candidate-set size for top-k queries (``>= 1``).
        margin: Calibrated abstention for top-k: when set and positive,
            abstain unless the normalized distance gap between the
            rank-1 and rank-2 candidates is at least ``margin``.
            ``None`` or ``0.0`` disables the rule.
        max_distance: Reject matches farther than this many edits.
        normalized_threshold: Reject matches whose distance divided by
            the matched value's length exceeds this.
        q: Q-gram width for the blocked engine (``None`` = adaptive).
        auto_threshold: Column size at which :class:`AutoJoiner`
            switches from the brute scan to the blocked engine.
        n_workers: Worker processes for the parallel sharded join
            (``None`` = auto from cpu count above the threshold, ``1``
            forces serial, ``>= 2`` always shards).
        parallel_threshold: Minimum number of pending probes before the
            blocked engine's auto mode engages the worker pool.
        kernel_backend: Edit-distance kernel the blocked engines score
            with — one of :data:`KERNEL_BACKENDS`.  ``"auto"`` (the
            default) defers to the ``REPRO_KERNEL_BACKEND`` environment
            variable when set, else picks per call; every backend is
            byte-identical to the reference, so this is purely a
            performance knob.
    """

    mode: str = "argmin"
    k: int = 1
    margin: float | None = None
    max_distance: int | None = None
    normalized_threshold: float | None = None
    q: int | None = None
    auto_threshold: int = 256
    n_workers: int | None = None
    parallel_threshold: int = 4096
    kernel_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in JOIN_MODES:
            raise ValueError(
                f"mode must be one of {JOIN_MODES}, got {self.mode!r}"
            )
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be an int >= 1, got {self.k!r}")
        if self.margin is not None and self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.max_distance is not None and self.max_distance < 0:
            raise ValueError(
                f"max_distance must be >= 0, got {self.max_distance}"
            )
        if self.normalized_threshold is not None and self.normalized_threshold < 0:
            raise ValueError(
                "normalized_threshold must be >= 0, "
                f"got {self.normalized_threshold}"
            )
        if self.q is not None and self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.auto_threshold < 0:
            raise ValueError(
                f"auto_threshold must be >= 0, got {self.auto_threshold}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.parallel_threshold < 0:
            raise ValueError(
                f"parallel_threshold must be >= 0, got {self.parallel_threshold}"
            )
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
