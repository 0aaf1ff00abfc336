"""Edit-distance kernel backends, timed at the entry points joins call.

The pluggable kernel layer (``repro.index.kernels``) promises byte
equivalence with the reference numpy DP; ``auto`` must pick, per entry
point, the backend measured fastest there.  Three sections:

* **pairs** — ``edit_distance_pairs``, the only entry point the argmin
  and top-k joins call.  The calls are recorded from a real wide join
  (DTT predictions for 3 sources of each JAB table, joined table by
  table into one standing 5,000-row title column: ~70 pairs per call
  at the median, up to ~2,200; queries of ~30 characters; caps 2-40
  plus the near-vacuous upper-bound batches) and replayed on every
  backend, ``auto`` included.
* **join** — the same per-table ``IndexedJoiner.join_many`` argmin
  calls end to end (serial, warm index) with each backend forced.
* **codes** — ``edit_distance_codes`` (composite keys, ``match_many``)
  over a cap sweep: journal-abbreviation probes against a title column
  (**short**, one 64-bit word) and concatenated titles past one word
  (**long**).  These rows set the banded/bit-parallel crossover of
  ``auto`` and carry the ``headline`` bit-parallel floor.

Every output is checked byte-for-byte against the reference before its
clock is trusted; each call runs on every backend back to back, and a
backend's time is the sum of each call's best of the repeats.  A separate row records the ``encode_strings`` vectorized
codepoint path against the retired per-string loop.

Results go to ``BENCH_kernels.json`` at the repository root.  Run
directly for the full sweep, or with ``--smoke`` for the CI-gated
seconds-scale run.
"""

from __future__ import annotations

import json
import time

import numpy as np

from bench_utils import (
    artifact_path,
    emit_report,
    parse_bench_args,
    stamp_provenance,
)
from conftest import persist

from repro.core.join_config import JoinConfig
from repro.datagen.benchmarks.journals import JOURNAL_TITLES, PROFILES
from repro.datagen.benchmarks.registry import get_dataset
from repro.index import IndexCache, IndexedJoiner
from repro.index.kernel import encode_strings
from repro.index.kernels import get_backend
from repro.obs.manifest import BENCH_FLOORS, check_floors, key_metrics
from repro.serve.router import build_pipeline
from repro.text.edit_distance import codepoints
from repro.types import ExamplePair

_SEED = 31
_CODES_CAPS = (1, 2, 4, 6, 8, 16, 40)
_FIXED = ("reference", "bitparallel", "banded")
_BACKENDS = (*_FIXED, "auto")
# (candidate rows, probes) per codes regime.
_SIZES = {"short": (4000, 60), "long": (1500, 30)}
_SMOKE_SIZES = {"short": (1500, 25), "long": (600, 12)}
# Wide join: standing column rows, JAB tables (3 sources each), and
# repeats.  ``auto`` runs the same code as the best fixed backend, so
# its ratio is noise: timing whole passes read 0.93-1.03 at smoke
# scale on a shared 2-core host, each call's interleaved best-of-3
# reads 0.96-1.03.
_WIDE = {"rows": 5000, "tables": 40, "repeats": 3}
_SMOKE_WIDE = {"rows": 5000, "tables": 8, "repeats": 3}
_N_EXAMPLES = 3
_SOURCES_PER_TABLE = 3
_JSON_PATH = artifact_path("kernels")

# CI-enforced floor on the bit-parallel speedup over the reference DP
# for short strings at caps 2 and 4.  Measured margin is ~12x at full
# scale and 5-6x at smoke scale; the smoke floor is the shared
# BENCH_FLOORS schema's headline bar (headroom for noisy runners) while
# the full sweep must record the >= 5x the kernel layer was built to
# deliver — full bars may be stronger than the schema's, never weaker.
_FULL_FLOOR = 5.0
_SMOKE_FLOOR = next(
    spec["min"] for spec in BENCH_FLOORS["kernels"] if spec["metric"] == "headline"
)

#: Vocabulary harvested from the canonical titles, for scaling the
#: column past the real pool without leaving the domain.
_VOCABULARY = sorted({word for title in JOURNAL_TITLES for word in title.split()})


def _titles(rng: np.random.Generator, n_rows: int) -> list[str]:
    """The JAB-style scaled title column (same recipe as bench_join_topk)."""
    targets = list(JOURNAL_TITLES)
    seen = set(targets)
    while len(targets) < n_rows:
        n_words = int(rng.integers(2, 6))
        words = [
            _VOCABULARY[int(i)]
            for i in rng.integers(0, len(_VOCABULARY), size=n_words)
        ]
        title = " ".join(words)
        if title not in seen:
            seen.add(title)
            targets.append(title)
    return targets[:n_rows]


def _workload(
    rng: np.random.Generator, regime: str, n_rows: int, n_probes: int
) -> tuple[list[str], list[str]]:
    """Candidate strings and noisy probes for one codes regime."""
    titles = _titles(rng, n_rows if regime == "short" else 2 * n_rows)
    if regime == "short":
        candidates = titles
    else:
        # Concatenated titles push past one 64-bit word (multi-block
        # bit-parallel, wide reference DP rows).
        candidates = [
            f"{titles[2 * i]} {titles[2 * i + 1]}" for i in range(n_rows)
        ]
    profiles = list(PROFILES.values())
    probes = []
    for _ in range(n_probes):
        base = candidates[int(rng.integers(0, len(candidates)))]
        if regime == "short":
            abbreviate = profiles[int(rng.integers(0, len(profiles)))]
            probes.append(abbreviate(base, rng))
        else:
            # Character noise keeps long probes in the length window,
            # where the kernels do real work.
            chars = list(base)
            for _ in range(int(rng.integers(0, 4))):
                pos = int(rng.integers(0, len(chars)))
                chars[pos] = chr(ord("a") + int(rng.integers(0, 26)))
            probes.append("".join(chars))
    return candidates, probes


def _encode_loop(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The retired per-string ``encode_strings`` loop, kept as baseline."""
    lengths = np.fromiter(
        (len(s) for s in strings), count=len(strings), dtype=np.int64
    )
    max_len = int(lengths.max()) if lengths.size else 0
    codes = np.full((len(strings), max_len), 0xFFFFFFFF, dtype=np.uint32)
    for i, value in enumerate(strings):
        if value:
            codes[i, : lengths[i]] = codepoints(value)
    return codes, lengths


def _interleaved(run, units: list, repeats: int) -> tuple[dict, dict]:
    """Seconds per backend over ``units``: each unit's best of ``repeats``.

    Every unit runs on every backend back to back, in an order rotated
    per unit and per repeat, so a slow phase of a shared host lands on
    all backends alike instead of on whichever ran during it; keeping
    each unit's fastest run drops the phases that hit a unit anyway.
    ``run(name, unit)`` returns the unit's output; the first repeat's
    outputs come back, per backend, for the equivalence check.
    """
    best = {name: [float("inf")] * len(units) for name in _BACKENDS}
    outputs: dict[str, list] = {name: [] for name in _BACKENDS}
    for rep in range(repeats):
        for k, unit in enumerate(units):
            shift = (k + rep) % len(_BACKENDS)
            for name in _BACKENDS[shift:] + _BACKENDS[:shift]:
                started = time.perf_counter()
                result = run(name, unit)
                elapsed = time.perf_counter() - started
                best[name][k] = min(best[name][k], elapsed)
                if rep == 0:
                    outputs[name].append(result)
    return {name: sum(times) for name, times in best.items()}, outputs


def _assert_equal(outputs: dict, what: str) -> None:
    want = outputs["reference"]
    for name, got in outputs.items():
        assert got == want, f"{what}: {name} != reference"


def _versus_best(seconds: dict) -> float:
    """Best fixed backend's seconds over ``auto``'s (>= 1: auto is best)."""
    return min(seconds[name] for name in _FIXED) / seconds["auto"]


class _Recorder:
    """Stands in for a joiner's kernel, keeping each pair call's inputs."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = inner.name
        self.calls: list[tuple] = []

    def edit_distance_pairs(self, query_codes, cand_codes, cand_lengths, cap):
        self.calls.append((query_codes, cand_codes, cand_lengths, cap))
        return self._inner.edit_distance_pairs(
            query_codes, cand_codes, cand_lengths, cap
        )

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _wide_tables(seed: int, n_tables: int) -> list[list[str]]:
    """DTT predictions for ``_SOURCES_PER_TABLE`` sources of each table."""
    pipeline = build_pipeline("pretrained")
    tables: list[list[str]] = []
    for table in get_dataset("JAB", seed, n_tables=n_tables, rows=40):
        examples = [
            ExamplePair(s, t)
            for s, t in zip(
                table.sources[:_N_EXAMPLES],
                table.targets[:_N_EXAMPLES],
                strict=True,
            )
        ]
        sources = table.sources[_N_EXAMPLES : _N_EXAMPLES + _SOURCES_PER_TABLE]
        tables.append(
            [p.value for p in pipeline.transform_column(sources, examples)]
        )
    return tables


def run_wide(seed: int = _SEED, wide: dict = _WIDE) -> dict:
    """Pairs replay and end-to-end join rows for every backend.

    Each table's predictions are joined in their own ``join_many``
    call, as ``DTTPipeline.join`` does per table.
    """
    column = _titles(np.random.default_rng(seed), wide["rows"])
    tables = _wide_tables(seed, wide["tables"])
    cache = IndexCache()
    joiners = {
        name: IndexedJoiner(
            JoinConfig(kernel_backend=name, n_workers=1), cache=cache
        )
        for name in _BACKENDS
    }
    recorder = _Recorder(joiners["reference"].kernel)
    joiners["reference"].kernel = recorder
    for probes in tables:  # the first call also builds the index
        joiners["reference"].join_many(probes, column)
    joiners["reference"].kernel = recorder._inner
    calls = recorder.calls

    def replay(name: str, call: tuple) -> list[int]:
        return get_backend(name).edit_distance_pairs(*call).tolist()

    def join(name: str, probes: list[str]) -> list:
        return joiners[name].join_many(probes, column)

    repeats = wide["repeats"]
    pair_seconds, pair_outputs = _interleaved(replay, calls, repeats)
    _assert_equal(pair_outputs, "pairs replay")
    join_seconds, join_outputs = _interleaved(join, tables, repeats)
    _assert_equal(join_outputs, "join_many")
    sizes = np.array([call[1].shape[0] for call in calls])
    query_lengths = np.array([call[0].shape[1] for call in calls])
    caps = np.array([call[3] for call in calls])
    shape = {
        "column_rows": len(column),
        "tables": len(tables),
        "probes": sum(len(probes) for probes in tables),
        "calls": len(calls),
        "pairs": int(sizes.sum()),
        "pairs_per_call_median": float(np.median(sizes)),
        "pairs_per_call_max": int(sizes.max()),
        "query_len_median": float(np.median(query_lengths)),
        "caps": [int(caps.min()), int(caps.max())],
    }
    return {
        "shape": shape,
        "pairs": [
            {
                "config": f"pairs/{name}",
                "backend": name,
                "seconds": round(pair_seconds[name], 4),
            }
            for name in _BACKENDS
        ],
        "join": [
            {
                "config": f"join/{name}",
                "backend": name,
                "seconds": round(join_seconds[name], 4),
            }
            for name in _BACKENDS
        ],
        "auto_vs_best": {
            "pairs": round(_versus_best(pair_seconds), 3),
            "join": round(_versus_best(join_seconds), 3),
        },
    }


def run_codes(
    seed: int = _SEED, sizes: dict[str, tuple[int, int]] = _SIZES
) -> list[dict]:
    """The ``edit_distance_codes`` cap sweep, every backend."""
    rows = []
    for regime, (n_rows, n_probes) in sizes.items():
        rng = np.random.default_rng(seed + n_rows)
        candidates, probes = _workload(rng, regime, n_rows, n_probes)
        codes, lengths = encode_strings(candidates)
        for cap in _CODES_CAPS:

            def sweep(name: str, probe: str, cap=cap) -> list[int]:
                backend = get_backend(name)
                return backend.edit_distance_codes(
                    probe, codes, lengths, cap
                ).tolist()

            seconds, outputs = _interleaved(sweep, probes, 1)
            _assert_equal(outputs, f"codes {regime}/cap{cap}")
            for name in _BACKENDS:
                rows.append(
                    {
                        "config": f"{regime}/cap{cap}/{name}",
                        "regime": regime,
                        "cap": cap,
                        "backend": name,
                        "rows": n_rows,
                        "probes": n_probes,
                        "seconds": round(seconds[name], 4),
                        "speedup": round(
                            seconds["reference"] / seconds[name], 2
                        ),
                    }
                )
    return rows


def run_kernels(
    seed: int = _SEED,
    sizes: dict[str, tuple[int, int]] = _SIZES,
    wide: dict = _WIDE,
) -> dict:
    """Run every section and return the JSON-serializable report."""
    wide_report = run_wide(seed, wide)
    rows = run_codes(seed, sizes)
    # encode_strings micro-bench: vectorized frombuffer path vs the
    # retired per-string loop, on the short-regime column.
    column = _titles(
        np.random.default_rng(seed), max(sizes["short"][0], 2000)
    )
    started = time.perf_counter()
    loop_codes, loop_lengths = _encode_loop(column)
    loop_seconds = time.perf_counter() - started
    started = time.perf_counter()
    fast_codes, fast_lengths = encode_strings(column)
    fast_seconds = time.perf_counter() - started
    assert np.array_equal(loop_codes, fast_codes)
    assert np.array_equal(loop_lengths, fast_lengths)
    encode = {
        "rows": len(column),
        "loop_seconds": round(loop_seconds, 5),
        "vectorized_seconds": round(fast_seconds, 5),
        "speedup": round(loop_seconds / fast_seconds, 2),
    }
    return stamp_provenance({
        "bench": "kernels",
        "seed": seed,
        "caps": list(_CODES_CAPS),
        "workload": "pairs/join: DTT predictions (pretrained pipeline, "
        f"{_SOURCES_PER_TABLE} sources per JAB table) joined into one "
        "vocabulary-scaled title column, pair calls recorded and "
        "replayed per backend; codes: journal-abbreviation probes (JAB "
        "noise profiles) over a title column, the long regime "
        "concatenating titles past one 64-bit word",
        "wide": wide_report,
        "rows": rows,
        "encode": encode,
    })


def _short_cap_rows(report: dict) -> list[dict]:
    # Caps 2 and 4, the rows this margin has always gated; at cap 1 the
    # reference DP settles almost at once and the margin is thinner.
    return [
        row
        for row in report["rows"]
        if row["regime"] == "short"
        and row["backend"] == "bitparallel"
        and 2 <= row["cap"] <= 4
    ]


def _check(report: dict, bitparallel_floor: float) -> None:
    """The bit-parallel margin plus the shared floor schema."""
    for row in _short_cap_rows(report):
        assert row["speedup"] >= bitparallel_floor, (
            f"bit-parallel kernel under {bitparallel_floor}x on {row}"
        )
    verdict = check_floors("kernels", key_metrics("kernels", report))
    assert verdict["passed"] and not verdict["skipped"], verdict["detail"]


def test_kernels(results_dir):
    report = run_kernels()
    _JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    wide = report["wide"]
    lines = ["Wide join: edit_distance_pairs replay and join_many (seconds)"]
    lines.append(json.dumps(wide["shape"]))
    for row in wide["pairs"] + wide["join"]:
        lines.append(f"{row['config']:<28s}{row['seconds']:>10.3f}")
    lines.append(f"auto vs best fixed backend: {wide['auto_vs_best']}")
    lines.append("\nedit_distance_codes sweep (seconds per probe set)")
    lines.append(
        "config".ljust(28) + "seconds".rjust(10) + "speedup".rjust(10)
    )
    for row in report["rows"]:
        lines.append(
            f"{row['config']:<28s}{row['seconds']:>10.3f}"
            f"{row['speedup']:>9.1f}x"
        )
    encode = report["encode"]
    lines.append(
        f"\nencode_strings: {encode['loop_seconds']:.4f}s loop vs "
        f"{encode['vectorized_seconds']:.4f}s vectorized "
        f"({encode['speedup']:.1f}x) over {encode['rows']} rows"
    )
    lines.append(f"\n[json written to {_JSON_PATH}]")
    persist(results_dir, "kernels", "\n".join(lines))
    _check(report, _FULL_FLOOR)


if __name__ == "__main__":
    args = parse_bench_args(__doc__)
    if args.smoke:
        report = run_kernels(sizes=_SMOKE_SIZES, wide=_SMOKE_WIDE)
        emit_report(report, _JSON_PATH, args)
        _check(report, _SMOKE_FLOOR)
    else:
        report = run_kernels()
        emit_report(report, _JSON_PATH, args)
        _check(report, _FULL_FLOOR)
