"""In-memory spans around the public functions of a package, installed from
outside the package by rebinding every name that refers to them.

A span records its name, start, end, parent span and job id.  A call that
makes no traced call of its own (a leaf, such as a cache hit or one
`binomial`) is not stored as a span: it is added to a (name, tag) count
and total under its parent span.  That keeps a few hundred thousand hits
per job from costing memory, and it leaves self time exact, because a
leaf's self time is its whole duration.

Self time is a span's duration minus the part of it that child spans
cover, minus the duration of its folded leaves.  Over one root span the
self times of all spans and leaves add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from types import ModuleType
from typing import Callable

# Operator methods that count as public functions of a class.
_OPERATORS = frozenset({"__add__", "__sub__", "__neg__", "__mul__", "__pow__"})


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None  # span_id of the parent, None for a root
    job: int
    tag: int = 0


@dataclass(frozen=True)
class Leaf:
    parent: int  # span_id of the span the calls were made from
    name: str
    tag: int
    count: int
    total: float


def layer_of(name: str) -> str:
    """Spans are named module.function or module.Class.method."""
    return name.split(".", 1)[0]


def _function_of(member: object) -> object:
    return member.__func__ if isinstance(member, (classmethod, staticmethod)) else member


def public_functions(module: ModuleType) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, function) for each public function and public
    method defined in `module`; properties, enums and exceptions are left
    out."""
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj))
        elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr not in _OPERATORS:
                    continue
                if inspect.isfunction(_function_of(member)):
                    found.append((obj, attr, _function_of(member)))
    return found


class Tracer:
    """Wraps functions in spans; `install` rebinds every module attribute
    that refers to a wrapped function, so callers that imported the name
    (`from .triangles import value`) see the wrapper too."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.leaves: list[Leaf] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._wrappers: list[tuple[Callable, Callable]] = []  # (original, wrapper)
        self._patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def wrap(
        self,
        fn: Callable,
        name: str,
        probe: Callable[[], int] | None = None,
        count: Callable[[defaultdict, tuple, object], None] | None = None,
    ) -> Callable:
        """Trace `fn` as span `name`.  If given, `probe` is read at the start
        and the end of the span, and the span is tagged 1 when it grew;
        `count(counts, args, result)` adds to `self.counts`."""
        stack = self._stack
        clock = time.perf_counter
        close = self._close
        tracer = self

        # A frame is [span id, start, leaf totals or None, made a traced call].
        def wrapper(*args, **kwargs):
            if stack:
                stack[-1][3] = True
            tracer._next_id += 1
            frame = [tracer._next_id, clock(), None, False]
            stack.append(frame)
            before = probe() if probe is not None else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                tag = 1 if probe is not None and probe() > before else 0
                end = clock()
                stack.pop()
                close(name, frame, end, tag)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        self._wrappers.append((fn, wrapper))
        return wrapper

    def _close(self, name: str, frame: list, end: float, tag: int) -> None:
        span_id, start, leaves, has_children = frame
        parent = self._stack[-1] if self._stack else None
        if parent is not None and not has_children:
            agg = parent[2]
            if agg is None:
                agg = parent[2] = {}
            slot = agg.get((name, tag))
            if slot is None:
                agg[(name, tag)] = [1, end - start]
            else:
                slot[0] += 1
                slot[1] += end - start
            return
        self.spans.append(
            Span(span_id, name, start, end, parent[0] if parent else None, self.job, tag)
        )
        if leaves:
            self.leaves.extend(
                Leaf(span_id, leaf_name, leaf_tag, n, total)
                for (leaf_name, leaf_tag), (n, total) in leaves.items()
            )

    def install(self, modules: list[ModuleType]) -> None:
        """Rebind, in every module given and every class defined there, each
        attribute that refers to a wrapped function."""
        by_id = {id(orig): wrapper for orig, wrapper in self._wrappers}
        classes = [obj for m in modules for obj in vars(m).values()
                   if inspect.isclass(obj) and obj.__module__ == m.__name__]
        for owner in [*modules, *classes]:
            for attr, member in list(vars(owner).items()):
                wrapper = by_id.get(id(_function_of(member)))
                if wrapper is not None:
                    self._patch(owner, attr, wrapper if member is _function_of(member) else type(member)(wrapper))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every span and leaf count recorded so far as JSON."""
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [[s.span_id, s.name, s.start, s.end, s.parent, s.job, s.tag] for s in self.spans],
                    "leaves": [[x.parent, x.name, x.tag, x.count, x.total] for x in self.leaves],
                },
                f,
            )


@dataclass
class Summary:
    """Aggregates of the spans and leaves of one job."""

    root_s: float = 0.0  # summed duration of the root spans
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))  # (name, tag) -> s
    calls: defaultdict = field(default_factory=lambda: defaultdict(int))  # (name, tag) -> n
    inclusive_s: defaultdict = field(default_factory=lambda: defaultdict(float))  # name -> s
    entry_s: defaultdict = field(default_factory=lambda: defaultdict(float))  # layer -> s

    def add(self, other: "Summary") -> None:
        self.root_s += other.root_s
        for mine, theirs in ((self.self_s, other.self_s), (self.calls, other.calls),
                             (self.inclusive_s, other.inclusive_s), (self.entry_s, other.entry_s)):
            for key, value in theirs.items():
                mine[key] += value

    def layer_self(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for (name, _), s in self.self_s.items():
            out[layer_of(name)] += s
        return dict(out)

    def calls_of(self, name: str, tag: int | None = None) -> int:
        return sum(c for (n, t), c in self.calls.items() if n == name and tag in (None, t))


def covered(parent: Span, children: list[Span]) -> float:
    """Length of the part of `parent` that the union of `children` covers."""
    total, reach = 0.0, parent.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans: list[Span], leaves: list[Leaf]) -> Summary:
    """Self time, calls and inclusive time per (name, tag) over the given
    spans and leaves.  `entry_s` is the time entered into each layer from
    another one: the duration of spans whose parent is in another layer."""
    out = Summary()
    by_id = {s.span_id: s for s in spans}
    children: defaultdict[int, list[Span]] = defaultdict(list)
    leaf_time: defaultdict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    for x in leaves:
        leaf_time[x.parent] += x.total
        out.self_s[(x.name, x.tag)] += x.total
        out.calls[(x.name, x.tag)] += x.count
        out.inclusive_s[x.name] += x.total
        if layer_of(x.name) != layer_of(by_id[x.parent].name):
            out.entry_s[layer_of(x.name)] += x.total
    for s in spans:
        duration = s.end - s.start
        out.self_s[(s.name, s.tag)] += duration - covered(s, children[s.span_id]) - leaf_time[s.span_id]
        out.calls[(s.name, s.tag)] += 1
        out.inclusive_s[s.name] += duration
        parent = by_id.get(s.parent)
        if parent is None:
            out.root_s += duration
        if parent is None or layer_of(parent.name) != layer_of(s.name):
            out.entry_s[layer_of(s.name)] += duration
    return out
