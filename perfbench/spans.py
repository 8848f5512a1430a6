"""In-memory span recorder for the traced run, and the self-time arithmetic.

A span is one call into a layer: its name, start and end (seconds on the
monotonic clock), the id of the span that enclosed it, and the request it
belongs to. Work counts are stored on the span as extra fields. Spans are
kept in memory and written as JSON lines once the run is over.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._open = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "request": self.request,
            **counts,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def clear(self):
        self.spans.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans) -> dict:
    """Span id -> its duration minus the time its direct children cover.

    Spans of one process are strictly nested and sequential, so the
    children of a span never overlap and their durations simply add up.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def per_request(spans) -> dict:
    """request -> span name -> {"n", "s" (summed duration), "self_s", and summed counts}."""
    selfs = self_times(spans)
    out = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for s in spans:
        agg = out[s["request"]][s["name"]]
        agg["n"] += 1
        agg["s"] += s["end"] - s["start"]
        agg["self_s"] += selfs[s["id"]]
        for key, val in s.items():
            if key not in ("id", "name", "parent", "request", "start", "end"):
                agg[key] += val
    return out
