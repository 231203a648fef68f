"""Spans recorded around calls into the library's layers, from outside it.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, ``op`` is the round that caused it (or "setup").
Spans stay in memory until the run ends.  Wrapping works because the library
looks these names up at call time: the module functions through their
module, the heuristics through ``HEURISTICS`` or the callable handed to
``enumerate_space``.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import resource
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.values = []         # (span index, key, number) recorded inside spans
        self.op = None
        self._stack = []

    def wrap(self, name, fn, after=None, rss=False):
        """``fn`` recording one span per call.  ``after(args, result)`` may
        return a dict of numbers to attach to the span; with ``rss`` the
        growth of the process's peak resident memory during the call is
        attached as ``rss_growth_mb``."""
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            peak = maxrss_mb() if rss else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if rss:
                self.values.append((idx, "rss_growth_mb", maxrss_mb() - peak))
            if after is not None:
                for key, value in after(args, result).items():
                    self.values.append((idx, key, value))
            return result
        return traced

    def write(self, path):
        """One JSON line per span: [index, name, start, end, parent, op,
        attached values]; gzip-compressed."""
        attached = {}
        for i, key, value in self.values:
            attached.setdefault(i, {})[key] = value
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span, attached.get(i, {})]) + "\n")

    def self_times(self):
        """Per span index: duration minus the time its child spans cover.
        Children of one span never overlap (one thread, nested calls)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own


@contextlib.contextmanager
def patched(targets):
    """Replace ``(owner, attribute, replacement)`` entries for the duration
    of the block; ``owner`` is a module or a dict."""
    saved = []
    try:
        for owner, attr, value in targets:
            if isinstance(owner, dict):
                saved.append((owner, attr, owner[attr]))
                owner[attr] = value
            else:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
