"""Outside-in span recording around the package's own call bindings.

A span is recorded at each layer boundary by replacing, for the duration of
a traced run, the attribute that the caller actually looks up: the module
global through which one package module calls another, or a method on its
class.  Nothing in the package is edited; ``Tracer.installed`` restores
every original attribute on exit, even when the traced code raises.

A span's self time is its duration minus the durations of its direct
children.  Because children nest inside their parent, the self times of all
spans under one root add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    invocation: int
    start: float
    end: float = 0.0


def _path_size(tracer, args, kwargs, result):
    tracer.counts["meshio.input_bytes"] += os.path.getsize(args[0])


def _report_bytes(tracer, args, kwargs, result):
    tracer.counts["meshio.report_bytes"] += len(result.encode())


def _components(tracer, args, kwargs, result):
    tracer.counts["surface.components"] += len(result)


def _path_edges(tracer, args, kwargs, result):
    tracer.counts["forest.path_edges"] += len(result.edges)


def _support(tracer, args, kwargs, result):
    tracer.counts["generators.count"] += len(result.generators)
    tracer.counts["generators.support_edges"] += sum(
        len(g.cochain.coeffs) for g in result.generators
    )


def _cells(key):
    def count(tracer, args, kwargs, result):
        rows = args[0]
        tracer.counts[key] += len(rows) * (len(rows[0]) if rows else 0)

    return count


# (module, attribute, span name, optional counter).  Each entry is the
# binding a caller resolves at call time, so the wrapper sees every call
# made through it.  ``meshio.build_complex`` is the load call and
# ``surface.build_complex`` is only reached by the per-component rebuild.
BINDINGS = [
    ("globalloops.meshio", "load_off", "meshio.load_off", _path_size),
    ("globalloops.meshio", "parse_off", "meshio.parse_off", None),
    ("globalloops.meshio", "build_complex", "surface.build_complex", None),
    ("globalloops.meshio", "load_contacts", "meshio.load_contacts", _path_size),
    ("globalloops.meshio", "report_dict", "meshio.report_dict", None),
    ("globalloops.meshio", "render_report", "meshio.render_report", _report_bytes),
    ("globalloops.surface", "build_complex", "surface.build_complex.rebuild", None),
    ("globalloops.cli", "compute_generators", "generators.compute_generators", _support),
    ("globalloops.cli", "classify_boundary", "surface.classify_boundary", None),
    ("globalloops.generators", "connected_components", "surface.connected_components", _components),
    ("globalloops.generators", "classify_boundary", "surface.classify_boundary", None),
    ("globalloops.generators", "build_dual", "dual.build_dual", None),
    ("globalloops.generators", "build_tree_cotree", "forest.build_tree_cotree", None),
    ("globalloops.generators", "handles", "generators.handles", None),
    ("globalloops.generators", "holes", "generators.holes", None),
    ("globalloops.generators", "contacts", "generators.contacts", None),
    ("globalloops.generators", "transport", "transport.transport", None),
    ("globalloops.forest:Tree", "path", "forest.path", _path_edges),
    ("globalloops.oracle", "verify", "oracle.verify", None),
    ("globalloops.oracle", "betti1_relative", "oracle.betti1_relative", None),
    ("globalloops.oracle", "homology_snf", "oracle.homology_snf", None),
    ("globalloops.oracle", "is_orientable", "oracle.is_orientable", None),
    ("globalloops.oracle", "exact_rank", "oracle.exact_rank", _cells("oracle.exact_rank.cells")),
    (
        "globalloops.oracle",
        "smith_invariant_factors",
        "oracle.smith_invariant_factors",
        _cells("oracle.smith_invariant_factors.cells"),
    ),
]


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Keeps spans and exact counts in memory for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._invocation = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._invocation += 1
        record = Span(len(self.spans), name, parent, self._invocation, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, count) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap every binding in ``BINDINGS`` and restore them on exit.

        A binding the package no longer has is skipped and listed in
        ``missing``; its time then shows in its caller's self time.
        """
        try:
            for target, attr, name, count in BINDINGS:
                try:
                    owner = _resolve(target)
                except (ImportError, AttributeError):
                    owner = None
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{target}.{attr}")
                    continue
                self._wrap(owner, attr, name, count)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[s.id]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans)
