"""In-memory spans of a traced run: name, start, end, parent.

Spans are kept in a list and written out once, when the run ends. Times
are seconds on the harness's monotonic clock; spans a probe process
recorded are re-based onto the span that covers that process.
"""

import contextlib
import time


class Recorder:
    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=None, **attrs):
        sid = len(self.spans)
        self.spans.append(
            {"id": sid, "parent": parent, "name": name, "start": start, "end": end, **attrs}
        )
        return sid

    @contextlib.contextmanager
    def span(self, name, parent=None, **attrs):
        sid = self.add(name, time.monotonic(), None, parent, **attrs)
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.monotonic()

    def import_probe(self, probe_spans, parent):
        """Attach spans recorded inside a probe process under ``parent``.
        Probe times count from the probe's start, which is taken to be the
        parent span's start."""
        base = self.spans[parent]["start"]
        ids = {
            s["id"]: self.add(s["name"], base + s["start_s"], base + s["end_s"], parent)
            for s in probe_spans
        }
        for s in probe_spans:
            if s["parent"] is not None:
                self.spans[ids[s["id"]]]["parent"] = ids[s["parent"]]

    def self_times(self):
        """Seconds per span name: duration minus the part of the interval
        its children cover."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered = union_length(
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])
            )
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out


def union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
