"""Run-time instrumentation for the ledger: patches, spans and self time.

Nothing here edits the program.  `Patches` swaps an attribute (a method,
a classmethod or a module-level function binding) for a wrapper and puts
the original back on exit.  `SpanRecorder` makes wrappers that keep one
span per call in memory -- name, start, end and the index of the span
that was open when the call began -- and folds them into per-layer call
counts and self times once the run is over.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Called after a wrapped call returns: (recorder, args, result).
OnResult = Callable[["SpanRecorder", tuple, Any], None]


class Patches:
    """Context manager that installs wrappers and restores the originals.

    Each patch is ``(owner, attribute, make_wrapper)``: `make_wrapper`
    receives the plain function currently bound there and returns its
    replacement.  Classmethods stay classmethods.
    """

    def __init__(self, patches: List[Tuple[Any, str, Callable]]):
        self._patches = patches
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patches":
        for owner, attr, make_wrapper in self._patches:
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
            else:
                setattr(owner, attr, make_wrapper(raw))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class SpanRecorder:
    """Keeps every span of a traced run in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: One ``[name id, start, end, parent index or -1]`` per call.
        self.spans: List[List[float]] = []
        self._stack: List[int] = []
        #: Exact counts taken at span boundaries (reports, bytes, tiers).
        self.counts: Dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrapper(self, name: str,
                on_result: Optional[OnResult] = None) -> Callable:
        """A `Patches` wrapper factory recording span `name`."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(spans)
                span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
                spans.append(span)
                stack.append(idx)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if on_result is not None:
                    on_result(self, args, result)
                return result
            return traced
        return make

    def _child_seconds(self) -> List[float]:
        """Per span, the summed durations of the spans opened inside it."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[int(parent)] += end - start
        return child

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over all spans.

        Self time is a span's duration minus the durations of the spans
        opened inside it (one thread, so children never overlap).
        """
        child = self._child_seconds()
        totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                  for name in self.names}
        for i, (nid, start, end, parent) in enumerate(self.spans):
            row = totals[self.names[int(nid)]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return totals

    def root_coverage(self) -> Tuple[float, float]:
        """(wall time of the root spans, share of it inside child spans)."""
        child = self._child_seconds()
        wall = covered = 0.0
        for i, (nid, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                wall += end - start
                covered += child[i]
        return wall, (covered / wall if wall > 0 else 0.0)

    def dump(self, path: Path) -> None:
        """Write every span once, as JSON, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": self.names, "spans": self.spans,
                       "counts": self.counts}, fh)
