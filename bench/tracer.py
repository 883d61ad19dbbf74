"""Spans around hinfgcc's public functions, recorded from outside the package.

`Tracer.install` replaces module attributes with timing wrappers and
`Tracer.remove` puts the originals back. Calls inside hinfgcc look their
callees up as module globals (solver.update_y, kernels.sym_eig, ...), so a
wrapped attribute catches the package's own calls too. Each span records its
name, start, end, parent span and the operation it belongs to; spans stay in
memory and `save` writes them out once at the end of a run.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Totals:
    """Per-name aggregate over one operation's spans."""

    calls: int = 0
    units: int = 0  # work items, e.g. matrices eigendecomposed
    inclusive: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    names: list[str] = field(default_factory=list)
    missing: set[str] = field(default_factory=set)
    ops: list[str] = field(default_factory=list)
    totals: dict[str, Totals] = field(default_factory=dict)
    _name_id: array = field(default_factory=lambda: array("i"))
    _op_id: array = field(default_factory=lambda: array("i"))
    _parent: array = field(default_factory=lambda: array("q"))
    _start: array = field(default_factory=lambda: array("d"))
    _end: array = field(default_factory=lambda: array("d"))
    _stack: list[int] = field(default_factory=list)
    _child: list[float] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self, targets) -> None:
        """Wrap (module, attribute, span name, units-or-None) targets.

        An attribute the module no longer has is noted in `missing`; the
        metrics that depend on it are then reported as missing.
        """
        for module, attr, name, units in targets:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            if name not in self.names:
                self.names.append(name)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, self.names.index(name), units))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin(self, op: str) -> None:
        """Start a new operation: spans share its id, totals restart."""
        self.ops.append(op)
        self.totals = {}

    def _wrap(self, fn, name_id: int, units):
        tracer = self
        name = self.names[name_id]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, child = tracer._stack, tracer._child
            idx = len(tracer._start)
            tracer._name_id.append(name_id)
            tracer._op_id.append(len(tracer.ops) - 1)
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                covered = child.pop()
                tracer._start[idx] = t0
                tracer._end[idx] = t1
                if child:
                    child[-1] += t1 - t0
                agg = tracer.totals.get(name)
                if agg is None:
                    agg = tracer.totals[name] = Totals()
                agg.calls += 1
                agg.units += units(*args) if units else 1
                agg.inclusive += t1 - t0
                agg.self_time += t1 - t0 - covered

        return wrapper

    def save(self, path: str) -> None:
        """Write every span as parallel arrays (numpy .npz)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            ops=np.array(self.ops),
            name_id=np.frombuffer(self._name_id, dtype=np.int32),
            op_id=np.frombuffer(self._op_id, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )
