"""Bounded call graph over a :class:`~repro.analysis.project.ProjectModel`.

The CONC-* passes need one question answered: *can this function run
inside a process-pool worker?*  :class:`CallGraph` approximates the
answer with a reachability query from the contract's declared entry
point (``repro.parallel.jobs.run_job``) over edges built from three
bounded resolution strategies:

1. **Qualified calls/references** — ``run_job(spec)``,
   ``jobs.run_job``, ``from x import f; f()`` resolve through the
   module's import bindings to a unique definition.  A bare *reference*
   (a function passed as a callback) counts as an edge too: the
   simulation engine executes scheduled callbacks, so a reachable
   reference is a reachable call.
2. **Constructor calls** — ``SomeClass(...)`` edges into ``__init__``
   and ``__post_init__`` (dataclasses), since instantiating a class on
   a worker path runs those bodies there.
3. **Name-matched method calls** — ``obj.m(...)`` where ``obj`` cannot
   be typed statically edges into *every* project method named ``m``,
   except names on the builtin-container skip list (``get``, ``items``,
   ``append``, ...), which would connect everything to everything.

Strategy 3 over-approximates (it may mark a method reachable that never
runs on a worker) and under-approximates only for methods whose names
collide with builtin container methods — both limits are deliberate,
bounded, and pinned by ``tests/analysis/test_callgraph.py``.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import qualified_name
from repro.analysis.project import FunctionInfo, ProjectModel

#: Method names shared with builtin containers/strings/files: matching
#: these by name would link virtually every function to every class.
#: Project methods with these names are resolved only through strategy
#: 1 (a documented limit of the bounded graph).
SKIP_METHOD_NAMES = frozenset({
    "add", "append", "appendleft", "clear", "close", "copy", "count",
    "discard", "encode", "endswith", "extend", "find", "flush", "format",
    "get", "index", "insert", "intersection", "items", "join", "keys",
    "lower", "lstrip", "pop", "popitem", "popleft", "read", "readline",
    "remove", "replace", "reverse", "rstrip", "setdefault", "sort",
    "split", "splitlines", "startswith", "strip", "union", "update",
    "upper", "values", "write",
})

#: Constructor-adjacent methods run by instantiation itself.
_INIT_METHODS = ("__init__", "__post_init__")


class CallGraph:
    """Edges between project functions plus reachability queries."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        #: ``caller qname -> callee qnames``.
        self.edges: dict[str, set[str]] = {}
        for info in project.functions.values():
            self.edges[info.qname] = self._edges_of(info)

    # -- edge construction --------------------------------------------------

    def _edges_of(self, info: FunctionInfo) -> set[str]:
        project = self.project
        aliases = project.aliases.get(info.module, {})
        out: set[str] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            qname = qualified_name(node, aliases)
            if qname is not None:
                resolved = project.resolve(info.module, qname)
                if resolved is not None:
                    self._add_resolved(out, resolved)
                    continue
            if isinstance(node, ast.Attribute):
                # Strategy 3: untyped method reference, matched by name.
                name = node.attr
                if name in SKIP_METHOD_NAMES:
                    continue
                for method in project.methods_by_name.get(name, ()):
                    out.add(method.qname)
        out.discard(info.qname)
        return out

    def _add_resolved(self, out: set[str], resolved: str) -> None:
        project = self.project
        if resolved in project.classes:
            cls = project.classes[resolved]
            for method_name in _INIT_METHODS:
                method = cls.methods.get(method_name)
                if method is not None:
                    out.add(method.qname)
            return
        if resolved in project.functions:
            out.add(resolved)

    # -- reachability -------------------------------------------------------

    def reachable_from(
        self, entry_points: tuple[str, ...]
    ) -> dict[str, tuple[str, ...]]:
        """BFS from the declared entry points.

        Returns ``qname -> shortest call path from an entry point``
        (the path includes both endpoints; an entry point maps to a
        one-element path).  Functions outside the worker surface are
        absent — that is the true-negative half of the CONC contract.
        """
        roots = self.project.resolve_entry_points(entry_points)
        paths: dict[str, tuple[str, ...]] = {}
        frontier: list[str] = []
        for root in roots:
            if root.qname not in paths:
                paths[root.qname] = (root.qname,)
                frontier.append(root.qname)
        while frontier:
            next_frontier: list[str] = []
            for caller in frontier:
                base = paths[caller]
                for callee in sorted(self.edges.get(caller, ())):
                    if callee not in paths:
                        paths[callee] = (*base, callee)
                        next_frontier.append(callee)
            frontier = next_frontier
        return paths


def format_path(path: tuple[str, ...], limit: int = 4) -> str:
    """Render a call path compactly: ``a -> b -> ... -> z``."""
    if len(path) <= limit:
        return " -> ".join(path)
    return " -> ".join((*path[: limit - 1], "...", path[-1]))
