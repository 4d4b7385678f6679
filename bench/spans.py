"""In-memory span recorder that wraps ``boson_decay`` from the outside.

``install`` replaces every public function of the traced modules in each
namespace where callers look it up (the defining module and every module
that imported it by name) and every public method, plus hand-written
``__init__``, on the class itself. Nothing in ``src/`` knows about tracing.

A span is ``[name, start, end, parent, attrs]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span on the
same thread (or None), ``attrs`` an optional dict of counts the span's
attribute function computed from the call's arguments and result.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import threading
import time

MODULES = ("config", "bath", "propagator", "decay", "thermal", "runner", "cli")


class Tracer:
    def __init__(self, attrs: dict):
        self.spans: list[list] = []
        self._attrs = attrs
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func):
        spans = self.spans
        attrs = self._attrs.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced


def _wrap_class(tracer: Tracer, short: str, cls) -> None:
    for key, value in list(vars(cls).items()):
        # Generated dataclass __init__ is field plumbing, not a layer.
        hand_init = key == "__init__" and not dataclasses.is_dataclass(cls)
        if key.startswith("_") and not hand_init:
            continue
        name = f"{short}.{cls.__qualname__}.{key}"
        if isinstance(value, (classmethod, staticmethod)):
            setattr(cls, key, type(value)(tracer.wrap(name, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, key, tracer.wrap(name, value))


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of the traced ``boson_decay`` modules."""
    modules = {short: importlib.import_module(f"boson_decay.{short}") for short in MODULES}
    wrappers = {}
    for short, module in modules.items():
        for key, value in list(vars(module).items()):
            if key.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                _wrap_class(tracer, short, value)
            elif inspect.isfunction(value):
                wrappers[value] = tracer.wrap(f"{short}.{value.__qualname__}", value)
    namespaces = [importlib.import_module("boson_decay"), *modules.values()]
    for namespace in namespaces:
        for key, value in list(vars(namespace).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(namespace, key, wrappers[value])


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-module self time: span duration minus the durations of its children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {short: 0.0 for short in MODULES}
    for (name, start, end, _, _), children in zip(spans, child_time):
        module = name.split(".", 1)[0]
        totals[module] = totals.get(module, 0.0) + (end - start) - children
    return totals
