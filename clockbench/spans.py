"""Span tracing of the clocklab modules, wrapped from outside the library.

``Tracer.install`` replaces every public module-level function of the seven
clocklab modules with a timing wrapper, in every namespace that holds it:
the defining module (so intra-module calls are caught), each module that
imported it by name, the package namespace and any module-level dict of
functions (such as the CLI's subcommand table).  ``uninstall`` restores the
originals.  Spans are kept in memory as ``[name, start, end, parent]`` rows,
with ``parent`` the index of the enclosing span or -1.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("algebra", "gcs", "constraint", "dynamics", "phase", "classical", "cli")

# Span names whose metric name is shorter than the function name.
_ALIASES = {
    "classical.classical_constraint_check": "classical.constraint_check",
    "constraint.precs_decomposition_check": "constraint.precs_decomposition",
    "gcs.identity_resolution_check": "gcs.identity_resolution",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        self.spans: list[list] = []
        self.active = False
        self.table_bytes = 0
        self._stack = [-1]
        self._patches: list[tuple[dict, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _record(self, name: str, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        if name == "classical.beta_distribution":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = self._record(name, fn, *args, **kwargs)
                # computed from the array size, not measured
                self.table_bytes = max(self.table_bytes, int(result.values.nbytes))
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._record(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        if self.active:
            return
        wrapped = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for namespace in [vars(self.package)] + [vars(m) for m in self.modules]:
            for key, value in list(namespace.items()):
                containers = [(namespace, key, value)]
                if isinstance(value, dict):
                    containers = [(value, k, v) for k, v in value.items()]
                for container, k, v in containers:
                    if id(v) in wrapped:
                        self._patches.append((container, k, v))
                        container[k] = wrapped[id(v)]
        self.active = True

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()
        self.active = False

    @contextlib.contextmanager
    def span(self, name: str):
        """A span from the harness itself; records nothing when inactive."""
        if not self.active:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def reset(self) -> None:
        self.spans = []
        self._stack = [-1]
        self.table_bytes = 0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]


def metric_name(span_name: str) -> str:
    """Metric stem for a span: CLI runners become ``cli.run.<subcommand>``."""
    if span_name.startswith("cli.run_"):
        return "cli.run." + span_name[len("cli.run_"):].replace("_", "-")
    return _ALIASES.get(span_name, span_name)


def span_stats(spans: list[list]) -> dict[str, float]:
    """Per-name inclusive seconds and call counts, plus per-module self time.

    ``<stem>_s`` is the summed duration of the spans of one name and
    ``<stem>_calls`` their count; ``<module>.self_s`` and ``<module>.calls``
    aggregate every span of that module.
    """
    stats: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        stem = metric_name(name)
        stats[f"{stem}_s"] += end - start
        stats[f"{stem}_calls"] += 1
        module = name.split(".", 1)[0]
        if module in MODULES:
            stats[f"{module}.self_s"] += own
            stats[f"{module}.calls"] += 1
    return dict(stats)
