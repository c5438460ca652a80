"""Per-layer call counts and self times for the arclocal package, taken from outside it.

A ``Tracer`` wraps named package functions at every place the package looks
them up.  For each target it resolves the function object once, then
replaces every module global and class attribute under ``arclocal.*`` that
*is* that object.  Later lookups through any of those names reach the
wrapper, so a function that moves between modules or is re-exported under
another name is still traced, and nothing under ``src/`` changes.  A target
that no longer resolves is recorded as absent instead of failing the run.

Each wrapper records one span per call.  A layer's self time is the sum of
its spans' durations minus the time covered by the spans of traced callees
that ran inside them.  Spans are not stored one by one: the benchmark only
needs per-layer sums, which keeps tracing memory flat on million-call runs.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "arclocal"


@dataclass
class Layer:
    """Counters of one traced layer.

    ``calls`` counts calls, raising ones included, or items yielded for a
    generator.  ``hits`` counts results that ``Target.hit`` accepted;
    ``kinds`` tallies the labels ``Target.kind`` gave results.
    """

    calls: int = 0
    self_ns: int = 0
    hits: int = 0
    kinds: dict[str, int] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9


@dataclass(frozen=True)
class Target:
    """One traced layer: where its functions live and what to note about results.

    ``specs`` are ``"module:Qualified.name"`` strings; ``"module:*"`` means
    every public function defined in that module.  ``hit`` marks results
    that count as hits; ``kind`` labels results for a histogram.
    """

    name: str
    specs: tuple[str, ...]
    hit: Callable[[object], bool] | None = None
    kind: Callable[[object], str] | None = None


def _lookup(owner, qualname: str):
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return owner if callable(owner) else None


def _resolve(spec: str) -> list[Callable]:
    """The functions a spec names.  A name missing from its module is looked
    up in every loaded module of the package, so a moved function is found."""
    module_name, _, qualname = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        module = None
    if qualname == "*":
        return [
            obj
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module_name
        ] if module is not None else []
    candidates = [module] if module is not None else []
    candidates += [owner for owner, _ in _package_namespaces() if inspect.ismodule(owner)]
    for owner in candidates:
        found = _lookup(owner, qualname)
        if found is not None:
            return [found]
    return []


def _package_namespaces():
    """Every loaded module and class namespace of the package, as (owner, dict) pairs."""
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.partition(".")[0] != PACKAGE:
            continue
        yield module, vars(module)
        for obj in list(vars(module).values()):
            if inspect.isclass(obj) and obj.__module__.partition(".")[0] == PACKAGE:
                yield obj, vars(obj)


class Tracer:
    """Installs span-recording wrappers over a package's functions."""

    def __init__(self, targets: list[Target]):
        self.layers: dict[str, Layer] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, Callable] = {}
        self._patched: list[tuple[object, str, object]] = []
        for target in targets:
            functions = [fn for spec in target.specs for fn in _resolve(spec)]
            if not functions:
                self.absent.append(target.name)
                continue
            layer = self.layers[target.name] = Layer()
            for fn in functions:
                self._wrappers[id(fn)] = self._wrap(fn, layer, target)

    def install(self) -> None:
        """Replace every reference to a traced function under the package."""
        seen = set()
        for owner, namespace in _package_namespaces():
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for name, value in list(namespace.items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((owner, name, value))
                    setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def reset(self) -> None:
        """Zero every counter; the wrappers keep feeding the same Layer objects."""
        for layer in self.layers.values():
            layer.calls = layer.self_ns = layer.hits = 0
            layer.kinds.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, layer: Layer, target: Target) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        hit, kind = target.hit, target.kind

        def close(start: int) -> None:
            elapsed = clock() - start
            layer.self_ns += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

        def note(result) -> None:
            if hit is not None and hit(result):
                layer.hits += 1
            if kind is not None:
                label = kind(result)
                layer.kinds[label] = layer.kinds.get(label, 0) + 1

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    stack.append(0)
                    start = clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        close(start)
                    layer.calls += 1
                    note(item)
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(start)
                layer.calls += 1
            note(result)
            return result

        return traced
