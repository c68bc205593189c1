"""In-memory span tracer that wraps library functions at their module attributes.

A traced run replaces selected public functions and methods of sdohkit with
wrappers that record one span per call: name, start, end, parent span and the
trace (one timed pass or one set-up) it belongs to. Counters are recorded at
the same boundaries. Spans stay in memory until the run ends, when
``write_jsonl`` writes them out. Untraced runs never install the wrappers.

Parents come from a per-thread stack, so a future concurrent pipeline still
gets correct nesting; appending to a list is atomic under the interpreter lock.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.trace_id = "setup"
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._id_lock:
            self.counts[(self.trace_id, name)] += amount

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(tracer, args, kwargs, result)`` and ``on_error(tracer,
        exc)`` record counters at the same boundary.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self._id_lock:
                span_id = self._next_id
                self._next_id += 1
            stack = self._stack()
            parent = stack[-1] if stack else None
            trace_id = self.trace_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, trace_id, name, start, end))
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- analysis ------------------------------------------------------------

    def summarize(self, trace_id: str) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, durations.

        Self time is a span's duration minus the part of its interval that
        its child spans cover.
        """
        spans = [s for s in self.spans if s[2] == trace_id]
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, parent, _, _, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
        )
        for span_id, _, _, name, start, end in spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            entry["durations"].append(end - start)
        return out

    def counters(self, trace_id: str) -> dict[str, float]:
        return {name: v for (tid, name), v in self.counts.items() if tid == trace_id}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, trace_id, name, start, end in self.spans:
                f.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace_id,
                    "name": name, "start": start, "end": end,
                }) + "\n")
