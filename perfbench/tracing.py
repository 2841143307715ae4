"""Span tracing for the benchmark's traced runs.

The tracer reaches each layer from outside the package: it replaces a
public function with a wrapper in every ``wakespot`` module that holds a
reference to it, so callers that imported the function by name are traced
too, and it restores the originals when the ``with`` block ends.

Each wrapped call records a span: name, start, end, parent span and the id
of the top-level operation the benchmark loop was running. Self time is a
span's duration minus the time covered by its direct child spans; it is
aggregated per name as spans close, and the first ``MAX_KEPT_SPANS`` spans
are also kept in memory and written out by :meth:`Tracer.write`.

A wrapper may name *fold-under* spans: when it is called while one of them
is the innermost open span, it calls straight through and its time stays
with that parent. This keeps per-frame helpers (``gru_step`` inside
``run``, ``CtcForwardScorer.step`` inside ``forward_logprob``,
``Vad.classify_frame`` inside ``trim_to_speech``) from splitting the
batch layers' self time while still timing them on the streaming path.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

_perf = time.perf_counter
MAX_KEPT_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = 0
        self._next_span = 0
        self._stack: list[list] = []  # open spans: [name, start, child time, span id]
        self._restore: list[tuple[object, str, object]] = []

    def next_op(self) -> None:
        """Start a new top-level operation; later spans carry its id."""
        self.op_id += 1

    @property
    def span_count(self) -> int:
        return self._next_span

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        fold_under: tuple[str, ...] = (),
        on_call: Callable | None = None,
        span: bool = True,
    ) -> None:
        """Trace ``owner.attr`` (a module function or a class method).

        For a module function, every loaded ``wakespot`` module whose
        attribute is the same object is patched as well. ``on_call(tracer,
        args, result)`` runs after each recorded call to update counts.
        With ``span=False`` calls are only counted, and their time stays
        with the enclosing span.
        """
        original = getattr(owner, attr)
        if span:
            wrapper = self._make_wrapper(original, name, frozenset(fold_under), on_call)
        else:
            wrapper = self._make_counter(original, name, on_call)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                module
                for key, module in list(sys.modules.items())
                if (key == "wakespot" or key.startswith("wakespot."))
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._restore.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _make_counter(self, fn, name, on_call):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] += 1
            if on_call is not None:
                on_call(self, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _make_wrapper(self, fn, name, fold_under, on_call):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] in fold_under:
                return fn(*args, **kwargs)
            span_id = self._next_span
            self._next_span += 1
            frame = [name, _perf(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                parent = stack[-1][3] if stack else -1
                if stack:
                    stack[-1][2] += duration
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((span_id, name, frame[1], end, parent, self.op_id))
            if on_call is not None:
                on_call(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def write(self, path) -> None:
        """Write kept spans as JSON lines, in order of span id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
