"""Spans and counters recorded around calls into spectra_lab.

The benchmark never edits the package: `Tracer.wrap` swaps a public function
(or method) for a wrapper that records a span, and rebinds every spectra_lab
module global that aliased the original, so calls the CLI makes into other
modules are seen too.  Spans stay in memory; `write_jsonl` dumps them when
the round ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []    # dicts: id, name, start, end, parent, op
        self.counts = {}
        self.active = True  # wrappers pass calls straight through when False
        self._stack = []

    def begin(self, name):
        """Open a span; spans under one outermost call share its op id."""
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": parent["id"] if parent else None,
                "op": parent["op"] if parent else len(self.spans)}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def inside(self, name):
        return any(s["name"] == name for s in self._stack)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, owner, attr, name, after=None):
        """Record a span named `name` (or `name(args, kwargs)`) around each
        call of owner.attr; `after(tracer, args, kwargs, result)` may count."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            span = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("spectra_lab") and mod.__dict__.get(attr) is orig:
                setattr(mod, attr, traced)

    def layer_times(self):
        """Busy seconds per span name and self seconds per module.

        Busy time counts a span only when no ancestor has the same name, so
        nested calls into one layer are not counted twice.  Self time is a
        span's duration minus the durations of its direct children."""
        by_id = {s["id"]: s for s in self.spans}
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        busy, module_self = {}, {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            p, nested = s["parent"], False
            while p is not None:
                if by_id[p]["name"] == s["name"]:
                    nested = True
                    break
                p = by_id[p]["parent"]
            if not nested:
                busy[s["name"]] = busy.get(s["name"], 0.0) + dur
            module = s["name"].split(".")[0]
            module_self[module] = (module_self.get(module, 0.0) + dur
                                   - child_time.get(s["id"], 0.0))
        return busy, module_self

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
