"""In-memory spans and counters around program functions, installed from outside.

``Tracer.install`` swaps wrappers in for named functions of the package, and
``uninstall`` puts the originals back, so one process can alternate
untraced and traced passes.  A function is rebound in every module of the
package whose namespace refers to it, which covers ``from .x import f``
copies (the CLI and ``crypto_bell`` import most of what they call); a
method is rebound on its class.

A span is (sid, parent, op, name, start, end, attrs): ``parent`` is the sid
of the enclosing span, ``op`` the id of the CLI invocation it belongs to.
The program is single-threaded, so an explicit stack gives the parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import tracemalloc
from collections import namedtuple
from time import perf_counter
from typing import Callable, NamedTuple

Span = namedtuple("Span", "sid parent op name start end attrs")


class Probe(NamedTuple):
    """What a span records beyond its times.

    ``note(arguments, result)`` returns extra attributes from the bound call
    arguments and the return value; ``alloc`` records the tracemalloc peak
    inside the call as ``peak_alloc`` bytes.
    """

    note: Callable[[dict, object], dict] | None = None
    alloc: bool = False


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self, spanned: dict[str, Probe], counted: tuple[str, ...]) -> None:
        """Wrap each ``module.qualname`` target; missing targets are noted."""
        self.missing = []
        for target, probe in spanned.items():
            owner, attr, fn = self._resolve(target)
            if fn is None:
                self.missing.append(target)
            else:
                self._rebind(owner, attr, fn, self._span_wrapper(target, fn, probe))
        for target in counted:
            owner, attr, fn = self._resolve(target)
            if fn is None:
                self.missing.append(target)
            else:
                self.counts[target] = 0
                self._rebind(owner, attr, fn, self._count_wrapper(target, fn))

    def uninstall(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)

    def reset(self) -> None:
        """Drop recorded spans and zero the counters (wrappers stay)."""
        self.spans.clear()
        for name in self.counts:
            self.counts[name] = 0

    def _resolve(self, target: str):
        module_name, _, qualname = target.partition(".")
        *path, attr = qualname.split(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ModuleNotFoundError:
            return None, attr, None
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, attr, None
        return owner, attr, getattr(owner, attr, None)

    def _rebind(self, owner, attr: str, fn, wrapper) -> None:
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            prefix = self.package + "."
            sites = [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module_name == self.package or module_name.startswith(prefix)
                for name, value in list(vars(module).items())
                if value is fn
            ]
        for obj, name in sites:
            self._undo.append((obj, name, fn))
            setattr(obj, name, wrapper)

    # -- recording ----------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent, name: str, start: float, end: float, attrs) -> None:
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, self.op, name, start, end, attrs)

    def call(self, op, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of op ``op``."""
        self.op = op
        sid, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, name, start, perf_counter(), {})

    def _span_wrapper(self, name: str, fn: Callable, probe: Probe) -> Callable:
        signature = inspect.signature(fn) if probe.note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            attrs = {}
            start = perf_counter()
            if probe.alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if probe.alloc:
                    attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                end = perf_counter()
                self._close(sid, parent, name, start, end, attrs)
            if probe.note:
                arguments = signature.bind(*args, **kwargs).arguments
                attrs.update(probe.note(arguments, result))
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper
