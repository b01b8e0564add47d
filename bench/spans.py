"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function, in every module of the
package that holds a reference to it (or only in the modules named with
it), to a wrapper that records a span: its name, start, end, parent span
and operation id.  ``uninstall`` puts the originals back, so untraced
runs execute the library exactly as shipped.  Spans stay in memory; ``layer_summary`` turns them into
per-layer durations and self times once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import weakref
from time import perf_counter

# (module, function, span name[, modules to rebind it in]).  Generator
# functions record the time spent inside the generator itself, not the
# consumer's time between items.
TRACED = (
    ("io", "read_document", "io.read"),
    ("io", "dumps_document", "io.dumps"),
    ("io", "export_dot", "io.dot"),
    ("core", "validate", "core.validate"),
    # ``connections`` and ``semidirect`` walk ``support`` item by item
    # inside their own loops, where a per-item wrapper would mostly time
    # itself; it is traced where ``dumps_document`` calls it.
    ("core", "support", "core.support", ("io",)),
    ("connections", "forward_edges", "connections.forward_edges"),
    ("connections", "components", "connections.components"),
    ("connections", "components_oracle", "connections.oracle"),
    ("connections", "find_connection", "connections.find_connection"),
    ("connections", "verify_connection", "connections.verify"),
    ("connections", "reverse_connection", "connections.reverse"),
    ("decomposition", "decompose", "decomposition.decompose"),
    ("decomposition", "restrict", "decomposition.restrict"),
    ("decomposition", "verify_submodule", "decomposition.verify_submodule"),
    ("minimality", "is_minimal", "minimality.is_minimal"),
    ("minimality", "is_mu_multiplicative", "minimality.mu_multiplicative"),
    ("minimality", "directed_closure", "minimality.directed_closure"),
    ("minimality", "check_minimality_equivalence", "minimality.equivalence"),
    ("semidirect", "build_semidirect", "semidirect.build"),
    ("semidirect", "pairing", "semidirect.pairing"),
    ("cli", "cli_main", "cli.main"),
)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``modbasis.io``."""

    def __init__(self, module, loads):
        self._module = module
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    # Spans are kept until the run ends; past this many, no further call
    # is traced, which bounds the memory they take.
    MAX_SPANS = 250_000

    def __init__(self, package):
        self.spans: list = []        # [name, start, end, parent, op]
        self.counts: list = []       # (name, value)
        self.op = 0
        self._stack: list[int] = []
        self._seen_mu: dict[int, object] = {}
        self._patches = self._plan(package)

    # -- installation -------------------------------------------------

    def _plan(self, package):
        prefix = package.__name__ + "."
        modules = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(prefix)]
        patches = []
        for module_name, attr, span, *scope in TRACED:
            original = getattr(sys.modules[prefix + module_name], attr)
            wrapper = self._wrap(span, original)
            targets = modules
            if scope:
                targets = [package] + [sys.modules[prefix + name] for name in scope[0]]
            for module in targets:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original, wrapper))
        mu = sys.modules[prefix + "connections"].mu
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is mu:
                    patches.append((module, name, mu, self._wrap_mu(mu)))
        io = sys.modules[prefix + "io"]
        loads = self._wrap("io.parse", io.json.loads)
        patches.append((io, "json", io.json, _JsonProxy(io.json, loads)))
        structure = sys.modules[prefix + "core"].KModuleStructure
        post_init = structure.__dict__["__post_init__"]
        patches.append((structure, "__post_init__", post_init,
                        self._wrap("core.build", post_init)))
        return patches

    def has_room(self) -> bool:
        return len(self.spans) < self.MAX_SPANS

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- recording ----------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index, start, end):
        self._stack.pop()
        span = self.spans[index]
        span[1], span[2] = start, end

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, perf_counter())
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            op = self.op
            busy = 0.0
            first = None
            inner = fn(*args, **kwargs)
            try:
                while True:
                    start = perf_counter()
                    if first is None:
                        first = start
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter() - start
                        return
                    busy += perf_counter() - start
                    yield item
            finally:
                inner.close()
                if first is not None:
                    self.spans.append([name, first, first + busy, parent, op])

        return traced

    def _wrap_mu(self, mu):
        # The first mu on a structure pays for whatever index the library
        # builds lazily; later calls on the same object are plain lookups.
        first = self._wrap("connections.first_mu", mu)
        later = self._wrap("connections.mu", mu)
        seen = self._seen_mu

        @functools.wraps(mu)
        def traced(structure, *args, **kwargs):
            key = id(structure)
            ref = seen.get(key)
            if ref is not None and ref() is structure:
                return later(structure, *args, **kwargs)
            seen[key] = weakref.ref(structure, lambda _: seen.pop(key, None))
            return first(structure, *args, **kwargs)

        return traced


def _read_counts(counts, args, result):
    counts.append(("io.bytes", os.path.getsize(args[0])))
    tables = [getattr(result, "table", None)]
    if hasattr(result, "action"):
        tables = [result.action.table, result.algebra.table]
    counts.append(("io.entries", sum(len(t) for t in tables if t is not None)))


def _chain_counts(counts, args, result):
    if result is not None:
        counts.append(("connections.chain_steps", len(result.steps)))


_HOOKS = {"io.read": _read_counts, "connections.find_connection": _chain_counts}


def layer_summary(spans, counts) -> dict:
    """Per span name: calls and total self time, and the per-layer metrics.

    A span's self time is its duration minus the durations of the spans
    it directly caused.  Each ``<span>_ms`` metric is the median duration
    of that span; ratios and counts come from the spans' relations and
    the counters recorded beside them.
    """
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children.setdefault(parent, []).append(index)
    durations: dict[str, list[float]] = {}
    selves: dict[str, list[float]] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        selves.setdefault(name, []).append(end - start - child_time[index])
    layers = {name: {"calls": len(values), "self_ms": sum(selves[name]) * 1e3}
              for name, values in durations.items()}

    def child_durations(index, name):
        return [spans[c][2] - spans[c][1] for c in children.get(index, ())
                if spans[c][0] == name]

    ratios, builds = [], []
    for index, (name, start, end, _, _) in enumerate(spans):
        if name != "io.read":
            continue
        parse = child_durations(index, "io.parse")
        if parse and parse[0] > 0:
            ratios.append((end - start) / parse[0])
        builds.extend(child_durations(index, "core.build"))
    derived = {}
    if ratios:
        derived["io.read_over_parse"] = (statistics.median(ratios), "ratio")
    if builds:
        derived["core.build_ms"] = (statistics.median(builds) * 1e3, "ms")
    if "cli.main" in durations:
        derived["cli.dispatch_ms"] = (statistics.median(selves["cli.main"]) * 1e3, "ms")
    by_count: dict[str, list] = {}
    for name, value in counts:
        by_count.setdefault(name, []).append(value)
    for name, values in by_count.items():
        derived[name] = (statistics.median(values), "count")
    for name, values in durations.items():
        if name != "core.build":
            derived[f"{name}_ms"] = (statistics.median(values) * 1e3, "ms")
    return {"layers": layers, "metrics": derived}
