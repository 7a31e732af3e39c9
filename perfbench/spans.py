"""In-memory span recorder that times calls into wctsv from outside the package.

Wrappers are installed by rebinding the module attribute a caller looks up
(``wctsv.backtest.estimate_moments`` and so on), so no package source is
touched.  :class:`Patches` records every rebinding and undoes it.

Two kinds of record:

* spans, one per call, with id, parent id, name, start, end and self time
  (duration minus the time covered by child spans and leaves);
* leaves, for hot calls (closed forms, simplex projections): aggregated
  count and nanoseconds per (enclosing span name, leaf name), so a million
  calls cost a counter update each instead of a span each.

An op span ("one unit of user-visible work") is opened by :meth:`begin_op`,
which first closes the previous op, because the engine loops over ops
inside one call and there is no call boundary that ends an op.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Patches:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    """Span and leaf names are ``<layer>.<what>``; the layer is the package module."""
    return name.split(".", 1)[0]


class Recorder:
    def __init__(self) -> None:
        # (span_id, parent_id, name, start_ns, end_ns, self_ns)
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        # (enclosing span name, leaf name) -> [calls, ns, raised]
        self.leaves: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counters: dict[str, int] = defaultdict(int)
        # open frames: [span_id, name, start_ns, child_ns, {leaf: [calls, ns, raised]}, is_op]
        self._stack: list[list] = [[0, "root", 0, 0, {}, False]]
        self._next_id = 1

    # -- spans -------------------------------------------------------------

    def open(self, name: str, is_op: bool = False) -> None:
        self._stack.append([self._next_id, name, perf_counter_ns(), 0, {}, is_op])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter_ns()
        span_id, name, start, child_ns, leaves, _ = self._stack.pop()
        duration = end - start
        parent = self._stack[-1]
        parent[3] += duration
        self.spans.append((span_id, parent[0], name, start, end, duration - child_ns))
        for leaf, (calls, ns, raised) in leaves.items():
            agg = self.leaves[(name, leaf)]
            agg[0] += calls
            agg[1] += ns
            agg[2] += raised

    def begin_op(self, name: str) -> None:
        self.end_op()
        self.open(name, is_op=True)

    def end_op(self) -> None:
        if self._stack[-1][5]:
            self.close()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name: str, fn, on_result=None, on_error=None, ends_ops=False):
        """One span per call; ``on_result``/``on_error`` add counts.

        ``ends_ops`` marks a call that loops over ops: the last op it
        opened is closed before its own span.
        """

        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.count(f"{name}.errors")
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                if ends_ops:
                    self.end_op()
                self.close()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def leaf_wrapper(self, name: str, fn):
        """Aggregated count + ns; exceptions are counted and re-raised."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = stack[-1]
            start = perf_counter_ns()
            raised = 0
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised = 1
                raise
            finally:
                ns = perf_counter_ns() - start
                frame[3] += ns
                stat = frame[4].get(name)
                if stat is None:
                    frame[4][name] = [1, ns, raised]
                else:
                    stat[0] += 1
                    stat[1] += ns
                    stat[2] += raised

        return wrapper

    # -- summaries ---------------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for _, _, n, start, end, _ in self.spans if n == name]

    def self_ns(self, name: str) -> int:
        return sum(s for _, _, n, _, _, s in self.spans if n == name)

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer: span self times plus leaf times."""
        out: dict[str, int] = defaultdict(int)
        for _, _, name, _, _, own in self.spans:
            out[layer_of(name)] += own
        for (_, leaf), (_, ns, _) in self.leaves.items():
            out[layer_of(leaf)] += ns
        return out

    def leaf_totals(self, leaf: str, parent: str | None = None) -> tuple[int, int, int]:
        """(calls, ns, raised) of ``leaf``, under one enclosing span or all."""
        calls = ns = raised = 0
        for (p, name), (c, n, r) in self.leaves.items():
            if name == leaf and (parent is None or p == parent):
                calls += c
                ns += n
                raised += r
        return calls, ns, raised

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, own in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end, "self_ns": own}
                    )
                    + "\n"
                )
            for (parent, leaf), (calls, ns, raised) in sorted(self.leaves.items()):
                fh.write(
                    json.dumps(
                        {"leaf": leaf, "under": parent, "calls": calls,
                         "ns": ns, "raised": raised}
                    )
                    + "\n"
                )
