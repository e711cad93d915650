"""In-memory span tracing of the program's layers, wrapped from outside.

The benchmark does not edit the program to trace it.  :class:`Instrumentation`
replaces a layer's public function with a timing wrapper at every attribute a
caller resolves it through: the defining class for methods, and every loaded
``repro`` module that binds the function object for module-level functions
(``from x import f`` copies the binding, so patching ``x.f`` alone would miss
those callers).  Leaving the ``with`` block puts the originals back, so
untraced passes run the unmodified program.

A span is ``(name, start, end, parent, pass id)``.  Spans stay in memory in
parallel typed arrays (a traced run records about a million) and are written
out once, when the run ends.  A span's self time is its duration minus the
durations of its direct children; the program is single-threaded, so children
never overlap and the self times of a tree add up to the duration of its root.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


class Tracer:
    """Collects spans; :meth:`wrap` makes a function record one per call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.pass_id = 0
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_of = array("i")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def intern(self, name: str) -> int:
        """The integer id spans of ``name`` are stored under."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped to record a span named ``name`` around every call."""
        code = self.intern(name)
        clock, stack = self.clock, self._stack
        name_id, starts, ends = self.name_id, self.start, self.end
        parents, passes = self.parent, self.pass_of
        tracer = self

        def traced(*args, **kwargs):
            span = len(name_id)
            name_id.append(code)
            parents.append(stack[-1] if stack else -1)
            passes.append(tracer.pass_id)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path) -> None:
        """Write every span to ``path`` as compressed NumPy columns.

        ``name`` indexes the JSON list in ``names``; ``parent`` is the index of
        the enclosing span, or -1.
        """
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            pass_id=np.frombuffer(self.pass_of, dtype=np.int32))


@dataclass(frozen=True)
class Target:
    """One layer entry point: ``owner.attr`` (a module or a class) traced as ``span``."""

    owner: object
    attr: str
    span: str


class Instrumentation:
    """Installs tracing wrappers for a set of targets while the block runs.

    A target whose attribute does not exist is skipped and listed in
    :attr:`dropped`, so a renamed entry point shows up as a missing layer
    rather than a crash.
    """

    def __init__(self, tracer: Tracer, targets: Sequence[Target], prefix: str = "repro") -> None:
        self.dropped: List[str] = []
        self._patches: List[Tuple[object, str, object, object]] = []
        by_id: Dict[int, Tuple[object, object]] = {}
        for target in targets:
            label = f"{getattr(target.owner, '__name__', target.owner)}.{target.attr}"
            if isinstance(target.owner, type):
                original = target.owner.__dict__.get(target.attr)
                if not callable(original):
                    self.dropped.append(label)
                    continue
                self._patches.append(
                    (target.owner, target.attr, original, tracer.wrap(original, target.span)))
            else:
                original = getattr(target.owner, target.attr, None)
                if not callable(original):
                    self.dropped.append(label)
                    continue
                if id(original) not in by_id:
                    by_id[id(original)] = (original, tracer.wrap(original, target.span))
        # Every module-level binding of a wrapped function, under any name.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == prefix
                                      or module_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(module).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, key, value, entry[1]))

    def __enter__(self) -> "Instrumentation":
        for holder, key, _, wrapped in self._patches:
            setattr(holder, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original, _ in reversed(self._patches):
            setattr(holder, key, original)


@dataclass
class PassProfile:
    """Per-layer totals of one traced pass."""

    self_s: Dict[str, float]
    total_s: Dict[str, float]
    calls: Dict[str, int]
    attributed_s: float


def _columns(tracer: Tracer):
    """``(name, start, end, parent, pass)`` as NumPy arrays (copies, so the
    tracer can keep appending)."""
    return (np.frombuffer(tracer.name_id, dtype=np.int32).astype(np.int64),
            np.frombuffer(tracer.start).copy(), np.frombuffer(tracer.end).copy(),
            np.frombuffer(tracer.parent, dtype=np.int64).copy(),
            np.frombuffer(tracer.pass_of, dtype=np.int32).astype(np.int64))


def profile_passes(tracer: Tracer) -> Dict[int, PassProfile]:
    """Self time, inclusive time and call count per layer, per pass id.

    ``attributed_s`` is the summed duration of a pass's root spans (spans with
    no traced parent): the part of the pass some layer accounts for.
    """
    if not len(tracer):
        return {}
    names, start, end, parent, passes = _columns(tracer)
    duration = end - start
    nested = parent >= 0
    children = np.zeros(len(names))
    np.add.at(children, parent[nested], duration[nested])
    own = duration - children
    profiles: Dict[int, PassProfile] = {}
    for pass_id in np.unique(passes).tolist():
        rows = passes == pass_id
        width = len(tracer.names)
        self_s = np.bincount(names[rows], weights=own[rows], minlength=width)
        total_s = np.bincount(names[rows], weights=duration[rows], minlength=width)
        calls = np.bincount(names[rows], minlength=width)
        profiles[pass_id] = PassProfile(
            self_s={name: float(self_s[i]) for i, name in enumerate(tracer.names)},
            total_s={name: float(total_s[i]) for i, name in enumerate(tracer.names)},
            calls={name: int(calls[i]) for i, name in enumerate(tracer.names)},
            attributed_s=float(duration[rows & ~nested].sum()),
        )
    return profiles


def count_parents_with_child(tracer: Tracer, parent_name: str, child_name: str) -> int:
    """How many ``parent_name`` spans have a direct ``child_name`` child."""
    if parent_name not in tracer.names or child_name not in tracer.names:
        return 0
    names, _, _, parent, _ = _columns(tracer)
    rows = (names == tracer.names.index(child_name)) & (parent >= 0)
    rows[rows] = names[parent[rows]] == tracer.names.index(parent_name)
    return len(np.unique(parent[rows]))
