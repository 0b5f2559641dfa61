"""Concurrency-safety lint: the process-pool worker surface (CONC-*).

The parallel job pool re-runs the same code inside worker processes,
and the repo's core guarantee — pooled == serial, byte for byte —
holds only if worker-reachable code neither accumulates cross-run
state nor draws from undisciplined RNG streams.  These rules
machine-check that contract over the bounded call graph rooted at the
declared entry points (``[concurrency] entry_points`` in
``layering.toml``):

``CONC-GLOBAL-MUT``
    A worker-reachable function mutates module-level state (rebinding a
    ``global``, writing ``X[k] = v`` / ``X.attr = v``, or calling a
    mutating method on a module-level container).  Worker state diverges
    from the parent's and, with pool reuse, from run to run.
``CONC-RNG-FACTORY``
    A worker-reachable function constructs a generator
    (``np.random.default_rng``, ``RngRegistry``) outside the sanctioned
    factory modules (``[concurrency] rng_factories``).  Ad-hoc
    generators bypass the master-seed derivation scheme.
``CONC-RNG-STREAM``
    A ``registry.stream("name")`` call whose literal stream name matches
    none of the declared prefixes (``[concurrency] streams``) — an
    undeclared stream silently collides with or forks from the
    experiment streams.
``CONC-PAYLOAD``
    An engine/sink/telemetry object (``[concurrency] unpicklable``)
    passed into the pool surface (``JobSpec``, ``map_jobs``,
    ``submit``) — those objects either fail to pickle
    or smuggle a parent-process view across the process boundary.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import qualified_name
from repro.analysis.callgraph import CallGraph, format_path
from repro.analysis.layering import LayeringContract
from repro.analysis.model import Rule, Violation
from repro.analysis.project import FunctionInfo, ProjectModel

RULES = (
    Rule(
        "CONC-GLOBAL-MUT",
        "worker-reachable code must not mutate module-level state",
        "a worker's module state diverges from the parent's; with pool "
        "reuse it leaks between runs, breaking pooled == serial",
    ),
    Rule(
        "CONC-RNG-FACTORY",
        "worker-reachable code constructs RNGs only in sanctioned factories",
        "an ad-hoc generator bypasses the master-seed derivation scheme, "
        "decoupling worker randomness from the experiment seed",
    ),
    Rule(
        "CONC-RNG-STREAM",
        "stream names must match a declared prefix",
        "an undeclared stream name silently collides with or forks from "
        "the seeded experiment/chaos streams",
    ),
    Rule(
        "CONC-PAYLOAD",
        "no engines/sinks/telemetry objects in pool payloads",
        "these objects are unpicklable or carry parent-process state "
        "that must not cross the process boundary",
    ),
)

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "reverse",
    "setdefault", "sort", "update",
})

#: Call names whose arguments become process-pool payloads (kept in
#: sync with the PCK-* pass).
POOL_SURFACE = frozenset({"JobSpec", "map_jobs", "submit"})

#: Names bound by generator construction (CONC-RNG-FACTORY).
_RNG_CONSTRUCTORS = ("numpy.random.default_rng", "RngRegistry")


def check_project(
    project: ProjectModel, graph: CallGraph, contract: LayeringContract
) -> list[Violation]:
    """Run every CONC rule over the project."""
    violations: list[Violation] = []
    reachable = graph.reachable_from(contract.entry_points)
    for qname in sorted(reachable):
        info = project.functions[qname]
        path = reachable[qname]
        violations.extend(_check_global_mut(project, info, path))
        violations.extend(_check_rng(project, info, path, contract))
    for info in project.modules.values():
        violations.extend(_check_payloads(project, info.module, contract))
    return violations


# -- CONC-GLOBAL-MUT ------------------------------------------------------------


def _local_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally anywhere inside ``node`` (params, stores)."""
    names: set[str] = set()
    args = node.args
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ):
        names.add(arg.arg)
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child is not node:
                names.add(child.name)
        elif isinstance(child, ast.Global):
            names.difference_update(child.names)
    return names


def _global_decls(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    out: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Global):
            out.update(child.names)
    return out


def _base_name(expr: ast.expr) -> ast.Name | None:
    """Innermost ``Name`` of an attribute/subscript chain."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr if isinstance(expr, ast.Name) else None


def _check_global_mut(
    project: ProjectModel, info: FunctionInfo, path: tuple[str, ...]
) -> list[Violation]:
    node = info.node
    local = _local_names(node)
    declared_global = _global_decls(node)
    module_globals = project.module_globals.get(info.module, set())
    aliases = project.aliases.get(info.module, {})
    flagged: dict[tuple[str, int], Violation] = {}

    def flag(site: ast.AST, name: str) -> None:
        # One violation per mutation site, so line-based suppressions
        # stay stable as unrelated code moves.
        key = (name, site.lineno)
        if key in flagged:
            return
        flagged[key] = Violation(
            "CONC-GLOBAL-MUT",
            project.modules[info.module].path,
            site.lineno,
            site.col_offset,
            f"`{info.name}` mutates module-level `{name}` on a worker "
            f"path ({format_path(path)})",
            "thread the state through parameters/return values, or "
            "justify a per-process cache with `# repro: noqa "
            "CONC-GLOBAL-MUT`",
        )

    def check_target(target: ast.expr, site: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in declared_global:
                flag(site, target.id)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                check_target(elt, site)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            base = _base_name(target)
            if base is None:
                return
            if base.id in local:
                return
            if base.id in module_globals:
                flag(site, base.id)
                return
            # Mutation through an imported module: `mod.GLOBAL[k] = v`.
            owner = aliases.get(base.id)
            if owner in project.module_globals and isinstance(
                target.value, ast.Attribute
            ):
                if target.value.attr in project.module_globals[owner]:
                    flag(site, f"{owner}.{target.value.attr}")

    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                check_target(target, child)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            check_target(child.target, child)
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                check_target(target, child)
        elif isinstance(child, ast.Call):
            func = child.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
            ):
                base = _base_name(func.value)
                if (
                    base is not None
                    and base.id not in local
                    and base.id in module_globals
                ):
                    flag(child, base.id)
    return [flagged[key] for key in sorted(flagged)]


# -- CONC-RNG-* -----------------------------------------------------------------


def _check_rng(
    project: ProjectModel,
    info: FunctionInfo,
    path: tuple[str, ...],
    contract: LayeringContract,
) -> list[Violation]:
    if info.module in contract.rng_factories:
        return []
    aliases = project.aliases.get(info.module, {})
    module_path = project.modules[info.module].path
    violations: list[Violation] = []
    for child in ast.walk(info.node):
        if not isinstance(child, ast.Call):
            continue
        qname = qualified_name(child.func, aliases)
        is_factory = qname is not None and (
            qname == "numpy.random.default_rng"
            or qname == "RngRegistry"
            or (qname.startswith("repro.") and qname.endswith(".RngRegistry"))
        )
        if is_factory:
            violations.append(
                Violation(
                    "CONC-RNG-FACTORY",
                    module_path,
                    child.lineno,
                    child.col_offset,
                    f"`{info.name}` constructs a generator via `{qname}` "
                    f"on a worker path ({format_path(path)})",
                    "take an rng stream from the caller, or justify a "
                    "config-seeded private stream with `# repro: noqa "
                    "CONC-RNG-FACTORY`",
                )
            )
            continue
        func = child.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "stream"
            and len(child.args) == 1
            and not child.keywords
        ):
            name = _literal_stream_prefix(child.args[0])
            if name is None:
                continue
            if not any(name.startswith(prefix) for prefix in contract.streams):
                violations.append(
                    Violation(
                        "CONC-RNG-STREAM",
                        module_path,
                        child.lineno,
                        child.col_offset,
                        f"stream name `{name}` matches no declared prefix "
                        f"({', '.join(contract.streams) or 'none declared'})",
                        "declare the stream prefix in [concurrency] "
                        "streams in layering.toml",
                    )
                )
    return violations


def _literal_stream_prefix(expr: ast.expr) -> str | None:
    """The statically-known leading text of a stream-name argument."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr) and expr.values:
        first = expr.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


# -- CONC-PAYLOAD ---------------------------------------------------------------


def _check_payloads(
    project: ProjectModel, module: str, contract: LayeringContract
) -> list[Violation]:
    if not contract.unpicklable:
        return []
    info = project.modules[module]
    violations: list[Violation] = []
    for scope in ast.walk(info.tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # Local flow: names assigned from an unpicklable constructor.
        tainted: set[str] = set()
        for child in ast.walk(scope):
            if isinstance(child, ast.Assign) and isinstance(
                child.value, ast.Call
            ):
                ctor = _bare_callee(child.value.func)
                if ctor in contract.unpicklable:
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            tainted.add(target.id)
        for child in ast.walk(scope):
            if not isinstance(child, ast.Call):
                continue
            callee = _bare_callee(child.func)
            if callee not in POOL_SURFACE:
                continue
            for arg in (*child.args, *[kw.value for kw in child.keywords]):
                bad: str | None = None
                if isinstance(arg, ast.Call):
                    ctor = _bare_callee(arg.func)
                    if ctor in contract.unpicklable:
                        bad = f"{ctor}(...)"
                elif isinstance(arg, ast.Name) and arg.id in tainted:
                    bad = arg.id
                if bad is not None:
                    violations.append(
                        Violation(
                            "CONC-PAYLOAD",
                            info.path,
                            arg.lineno,
                            arg.col_offset,
                            f"`{bad}` flows into `{callee}` — engines/"
                            "sinks must not cross the process boundary",
                            "pass a picklable descriptor and rebuild the "
                            "object inside the worker",
                        )
                    )
    return violations


def _bare_callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
