"""Fold trace spans into self time per layer plus an unattributed remainder.

A trace is a list of span dicts as :mod:`repro.obs.trace` records them
(``span_id``, ``parent_id``, ``name``, ``start``, ``duration_s``).  A
layer table maps span names to layer names.  Spans the table does not
know are *transparent*: their time stays with their nearest known
ancestor, and their known descendants re-attach to that ancestor.  This
keeps the fold stable when the program gains or loses internal spans.

A known span's self time is its interval minus the union of its known
children's intervals (clipped to the parent), so overlapping children
are not counted twice.  The root always counts: its self time goes to
its own layer, or to ``unattributed`` when the table does not know it.
The layer totals of one trace therefore sum to the root's duration.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

UNATTRIBUTED = "unattributed"

LayerOf = Callable[[str], "str | None"]


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def fold_trace(spans: Iterable[dict], layer_of: LayerOf) -> dict[str, float]:
    """Self seconds per layer for one trace (see the module docstring)."""
    spans = [s for s in spans if s.get("duration_s") is not None]
    by_id = {s["span_id"]: s for s in spans}
    roots = [s for s in spans if s["parent_id"] not in by_id]
    if len(roots) != 1:
        raise ValueError(f"a trace needs exactly one root span, got {len(roots)}")
    root = roots[0]

    def kept(span: dict) -> bool:
        return span is root or layer_of(span["name"]) is not None

    def kept_parent(span: dict) -> dict:
        parent = by_id[span["parent_id"]]
        while not kept(parent):
            parent = by_id[parent["parent_id"]]
        return parent

    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span is root or not kept(span):
            continue
        interval = (span["start"], span["start"] + span["duration_s"])
        children.setdefault(kept_parent(span)["span_id"], []).append(interval)

    totals: dict[str, float] = {}
    for span in spans:
        if not kept(span):
            continue
        start = span["start"]
        end = start + span["duration_s"]
        covered = _union_length(children.get(span["span_id"], []), start, end)
        layer = layer_of(span["name"]) or UNATTRIBUTED
        totals[layer] = totals.get(layer, 0.0) + (end - start - covered)
    return totals


def fold_traces(traces: Iterable[dict], layer_of: LayerOf) -> dict[str, float]:
    """Sum :func:`fold_trace` over ``/debug/traces``-shaped trace dicts."""
    totals: dict[str, float] = {}
    for trace in traces:
        for layer, seconds in fold_trace(trace["spans"], layer_of).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def prefix_table(prefixes: dict[str, str]) -> LayerOf:
    """A ``layer_of`` matching span names by their longest listed prefix."""
    ordered = sorted(prefixes, key=len, reverse=True)

    def layer_of(name: str) -> str | None:
        for prefix in ordered:
            if name.startswith(prefix):
                return prefixes[prefix]
        return None

    return layer_of
