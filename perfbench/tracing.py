"""In-memory spans recorded around calls into the program, and what is
derived from them: self times, per-layer medians and the rank-growth table.

A span is (name, start, end, parent, item, phase).  Spans of one item share
the item id; the phase is "setup" or "timed".  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.items: dict[str, dict] = {}
        self.phase = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if item is None and parent is not None:
            item = self.spans[parent]["item"]
        record = {"name": name, "start": time.perf_counter_ns(), "end": None,
                  "parent": parent, "item": item, "phase": self.phase}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()


def self_times(spans: list[dict]) -> list[int]:
    """Self time of each span, in nanoseconds."""
    result = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            result[s["parent"]] -= s["end"] - s["start"]
    return result


def layer_medians_ms(spans: list[dict]) -> dict[str, float]:
    """Median span duration per name, in ms.

    A layer's value comes from the timed part when the timed part calls it,
    otherwise from the set-up.
    """
    by_phase: dict[str, dict[str, list[int]]] = {"timed": {}, "setup": {}}
    for s in spans:
        by_phase[s["phase"]].setdefault(s["name"], []).append(s["end"] - s["start"])
    names = set(by_phase["timed"]) | set(by_phase["setup"])
    return {name: statistics.median(by_phase["timed"].get(name) or by_phase["setup"][name]) / 1e6
            for name in names}


CLASSICAL = ("A", "B", "C", "D")


def rank_table(traces: list[dict]) -> str:
    """Median self time per stage, in ms, of the classical items of each rank."""
    cells: dict[int, dict[str, list[int]]] = {}
    stages: list[str] = []  # in order of first call
    for trace in traces:
        items = trace["items"]
        for s, own in zip(trace["spans"], self_times(trace["spans"])):
            meta = items.get(s["item"])
            if s["phase"] != "timed" or meta is None or meta["family"] not in CLASSICAL:
                continue
            cells.setdefault(meta["rank"], {}).setdefault(s["name"], []).append(own)
            if s["name"] not in stages and s["name"] != "item":
                stages.append(s["name"])
    if not cells:
        return "(no classical items traced)"
    header = ["rank", "items"] + [name.split(".", 1)[1] for name in stages]
    rows = [header]
    for rank in sorted(cells):
        row = [str(rank), str(len(cells[rank]["item"]))]
        for name in stages:
            values = cells[rank].get(name)
            row.append(f"{statistics.median(values) / 1e6:.2f}" if values else "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows)
