"""In-memory span recorder that wraps the program's public layer functions.

The program is not modified: :class:`Tracer.patch` replaces a function
with a wrapper in every loaded ``repro`` module that holds a reference
to it (``from x import f`` copies the binding), so calls between layers
go through the wrapper. Each wrapper records one span — name, start,
end, parent — on a per-thread stack. :meth:`Tracer.unpatch` restores
every original object.

Self time of a span is its duration minus the time its direct children
cover; summing self times per name gives the per-layer breakdown.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_time")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Dict[str, Any] = {}
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def has_ancestor(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False

    def to_dict(self, index: Dict[int, int]) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": index.get(id(self.parent)) if self.parent is not None else None,
            "attrs": self.attrs,
        }


Annotate = Callable[[Span, Tuple, Dict, Any], None]


class Tracer:
    """Records spans around patched functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []
        self.enabled = False

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable, annotate: Optional[Annotate] = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate is not None:
                annotate(span, args, kwargs, out)
            return out

        return wrapper

    # -- patching --------------------------------------------------------
    def patch(self, module: str, attr: str, name: str,
              annotate: Optional[Annotate] = None, only_in: Optional[str] = None) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module binds it.

        ``attr`` may be ``"Class.method"``; methods are patched on the
        class. ``only_in`` restricts the rebinding to one module.
        """
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._set(cls, meth, self.wrap(name, original, annotate))
            return
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, annotate)
        targets = [only_in] if only_in else [
            m for m in list(sys.modules) if m == "repro" or m.startswith("repro.")
        ]
        for mod_name in targets:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def unpatch(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- output ----------------------------------------------------------
    def export(self) -> List[Dict[str, Any]]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_dict(index) for s in self.spans]


def self_times(spans: List[Span], key: Callable[[Span], str] = lambda s: s.name
               ) -> Dict[str, Dict[str, float]]:
    """``{key: {"s": total self seconds, "calls": n, "max_n": ...}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(key(span), {"s": 0.0, "calls": 0, "max_n": 0})
        entry["s"] += span.self_time
        entry["calls"] += 1
        if "n" in span.attrs:
            entry["max_n"] = max(entry["max_n"], span.attrs["n"])
    return out


def coverage(spans: List[Span], root: str) -> float:
    """Share of the ``root`` spans' wall time covered by child spans."""
    total = sum(s.duration for s in spans if s.name == root)
    covered = sum(s.child_time for s in spans if s.name == root)
    return covered / total if total > 0 else 0.0
