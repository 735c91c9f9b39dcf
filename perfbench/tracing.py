"""Spans around the calls into each sgranks module's public functions.

The wrappers live here, not in the package: install() replaces every public
function and public method of the six modules, under every name that the
package looks it up by (``sgranks.ranks.enumerate_endomorphisms_structural``
as well as ``sgranks.endo.enumerate_endomorphisms_structural``), and
uninstall() puts the originals back.  Spans are kept in memory as
(name, start_ns, end_ns, parent_index, op_id) and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("cli", "verify", "ranks", "core", "endo", "brandt")

# budgeted walks: their outcome says whether the search ran to completion
SEARCHES = {
    "ranks.intermediate_rank": lambda out: out.exact,
    "ranks.upper_rank": lambda out: out.exact,
    "ranks.verify_conjecture": lambda out: out.verdict != "inconclusive",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active = False
        self.op_id = -1
        self.searches: list[bool] = []  # completed? one entry per budgeted walk
        self.clocks: list = []  # every search clock, read for its node count
        self._patched: list = []

    def _wrap(self, name: str, fn):
        observe = SEARCHES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op_id)
            if observe is not None:
                tracer.searches.append(bool(observe(out)))
            elif name == "ranks.Budget.clock":
                tracer.clocks.append(out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the public callables of every layer of ``package`` (imported sgranks)."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrapped = {}  # id(original function) -> its wrapper
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue  # private, or imported from elsewhere
                if inspect.isfunction(value):
                    wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    self._install_methods(layer, value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
                    self._patched.append((mod, attr, value))

    def _install_methods(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                setattr(cls, attr, self._wrap(name, value))
            elif isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, value.__func__)))
            else:
                continue  # properties and plain class attributes stay as they are
            self._patched.append((cls, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def nodes(self) -> int:
        """Search nodes fully visited; a cut walk ticks once past its max_nodes."""
        total = 0
        for clock in self.clocks:
            cap = clock.max_nodes
            total += clock.nodes if cap is None else min(clock.nodes, cap)
        return total

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so time in private helpers counts toward the nearest
        public caller.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child[i]) / 1e9
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
