"""Wrappers around public specopt functions: timestamps and traced spans.

Both wrap a public function at the name its caller looks it up by and
restore the original when done; a name that is gone fails loudly.

- Stamps, in every run: a timestamp as each call starts and one as it
  returns, kept in order, on run_training and on the task's
  loss_and_grads, train_loss and eval_loss, so that a run_training call
  splits into its parts (set-up, forward and backward passes, optimizer
  updates, eval rows) at the cost of two perf_counter reads per call.
- Tracer, in the traced run only: one span per call (name, start, end,
  parent span, optional attributes). A layer's self time is its span's
  duration minus the time its child spans cover; spans are only kept in
  memory and written out once, at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict


class MissingLayerError(RuntimeError):
    """A name the tracer must wrap no longer exists in the program."""


class Patches:
    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, attrs=None):
        raise NotImplementedError

    def install(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace owner.attr by a wrapper; fail loudly if it is gone."""
        if not hasattr(owner, attr):
            label = getattr(owner, "__name__", repr(owner))
            raise MissingLayerError(f"cannot wrap {label}.{attr}: no such name")
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, attrs))
        self._patched.append((owner, attr, original))


    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class Stamps(Patches):
    def __init__(self):
        super().__init__()
        # (name, perf_counter, attributes or None); a return is "/" + name.
        self.events: list[tuple[str, float, object]] = []

    def wrap(self, fn, name: str, attrs=None):
        events = self.events

        def stamped(*args, **kwargs):
            events.append((name, time.perf_counter(), attrs(*args, **kwargs) if attrs else None))
            try:
                return fn(*args, **kwargs)
            finally:
                events.append(("/" + name, time.perf_counter(), None))

        return stamped


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        # Each span is [name, start, end, parent index or -1, attributes].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    attrs(*args, **kwargs) if attrs else None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> list[float]:
        """Seconds of each span not covered by its children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def totals(self) -> dict[tuple, list[float]]:
        """(name, attributes) -> [calls, self seconds, wall seconds]."""
        out: dict[tuple, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            entry = out[(span[0], span[4])]
            entry[0] += 1
            entry[1] += own
            entry[2] += span[2] - span[1]
        return out
