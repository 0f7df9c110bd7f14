"""In-memory spans recorded by the benchmark around its calls into each layer.

A span has a name (``<module>.<function>``, or ``op.<kind>`` for the root
of one operation), start and end in ``perf_counter_ns``, the index of its
parent span, the operation id it belongs to, a probe flag and work counts
filled in after the call returns.  Probes are extra calls made only to
time a stage that the package runs internally; they are kept out of the
operation's own time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class LayerError(Exception):
    """An exception raised inside a layer call, tagged with that layer."""

    def __init__(self, layer: str, cause: BaseException):
        super().__init__(f"{layer}: {type(cause).__name__}: {cause}")
        self.layer = layer
        self.cause = cause


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: str | None
    probe: bool
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.op, probe)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except LayerError:
            raise
        except Exception as exc:
            raise LayerError(name.split(".")[0], exc) from exc
        finally:
            record.end = time.perf_counter_ns()
            self._stack.pop()


def call(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """Call ``fn`` as layer ``name``: inside a span when tracing, and tagged
    with the layer when it raises either way."""
    if tracer is not None:
        with tracer.span(name):
            return fn(*args, **kwargs)
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise LayerError(name.split(".")[0], exc) from exc


@dataclass
class LayerTotals:
    calls: int = 0
    self_ns: int = 0
    counts: dict[str, int] = field(default_factory=dict)


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls, self time (span minus its children) and summed counts per span name."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    totals: dict[str, LayerTotals] = {}
    for span, children in zip(spans, child_ns):
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.self_ns += span.end - span.start - children
        for key, value in span.counts.items():
            entry.counts[key] = entry.counts.get(key, 0) + value
    return totals


def to_json(spans: list[Span]) -> list[dict]:
    return [
        {
            "id": index,
            "name": span.name,
            "start_ns": span.start,
            "end_ns": span.end,
            "parent": span.parent,
            "op": span.op,
            "probe": span.probe,
            **({"counts": span.counts} if span.counts else {}),
        }
        for index, span in enumerate(spans)
    ]


def last_span(tracer: Tracer | None) -> Span | None:
    """The span most recently opened; right after a leaf ``call`` returns,
    that is the call's own span, whose counts the caller then fills in."""
    return tracer.spans[-1] if tracer is not None else None
