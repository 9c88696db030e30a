"""In-memory span recorder that times switchlin's layers from outside.

A traced function is replaced, at every name a ``switchlin`` module binds
it to, by a wrapper.  That matters because modules import functions by
name (``sim`` calls its own ``supervisor``, not ``controllers.supervisor``),
so patching only the defining module would miss most calls.  Methods are
patched on their class.

Each wrapped call records a span: name, start, end, parent span and the
id of the benchmark operation it ran under.  Spans stay in flat arrays
until :meth:`Tracer.save` writes them out.  Per-name totals are kept as
the spans close: call counts, and self time, which is the span's
duration minus the time its child spans cover.  Exact work counts (rows,
bytes, steps, points, switches, witnesses) are kept apart from timings
in :attr:`Tracer.counts`.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []  # indices of the open spans
        self._covered: list[float] = []  # child time inside each open span
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn, on_return=None, reentrant: bool = True):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``on_return(args, result)`` runs after the span closes, outside
        it.  With ``reentrant=False`` a call made while the innermost open
        span already has this name runs unrecorded, so a recursive
        function counts one span per outside call.
        """
        nid = self.name_index(name)
        stack, covered = self._stack, self._covered
        start, end, name_ids, parents, ops = (
            self.start, self.end, self.name_id, self.parent, self.op
        )
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            if not reentrant and stack and name_ids[stack[-1]] == nid:
                return fn(*args, **kwargs)
            index = len(start)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ops.append(self.op_id)
            stack.append(index)
            covered.append(0.0)
            t0 = perf_counter()
            start.append(t0)
            end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[index] = t1
                stack.pop()
                duration = t1 - t0
                self_s[name] += duration - covered.pop()
                if covered:
                    covered[-1] += duration
                calls[name] += 1
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def counter(self, metric: str, fn, inside: str | None = None):
        """Wrap ``fn`` to count calls under ``metric`` without a span.

        With ``inside`` set, only calls made while a span of that name is
        open are counted.
        """
        counts, stack, name_ids = self.counts, self._stack, self.name_id
        target = None if inside is None else self.name_index(inside)

        def wrapper(*args, **kwargs):
            if target is None or any(name_ids[i] == target for i in stack):
                counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def innermost(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- patching ------------------------------------------------------

    def patch_function(self, original, wrapper) -> None:
        """Bind ``wrapper`` at every switchlin module name bound to ``original``."""
        found = False
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "switchlin" or module_name.startswith("switchlin.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapper))
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not bound in any switchlin module")

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, vars(cls)[attr], wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def save(self, path) -> None:
        """Write every span as flat arrays; ``names[name_id]`` is the span name."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
