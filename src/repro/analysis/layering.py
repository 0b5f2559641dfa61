"""Layering lint: the package dependency DAG, enforced from a contract.

The distribution layers bottom-up — foundation (``errors``, ``units``,
``formatting``) under the simulation substrate (``sim``), the domain
packages (``tasks``/``workloads``/``cluster``), the run-time and policy
layers, the experiment harness, and the CLI on top.  The contract lives
in a declarative TOML file next to this module (``layering.toml``) so a
reviewer can read the architecture without reading the checker:

``LAY-DAG``
    A module-load-time import of a repro package the contract does not
    allow for the importer's package.
``LAY-LAZY``
    A function-level import crossing the DAG upward without a
    ``lazy_allow`` entry sanctioning that edge.
``LAY-PRIVATE``
    An import of a *restricted* package (``parallel``, ``analysis``)
    from outside its declared importer set.
``LAY-FACADE``
    A deep ``repro`` import from a *facade-only* tree (``examples/``,
    ``scripts/``): shipped end-user code must stay on the supported
    surface (``repro.api``) so the examples never document an
    unsupported path.

``if TYPE_CHECKING:`` imports are annotation-only — they never execute
— and are therefore exempt from all four rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
import tomllib

from repro.analysis.astutils import enclosing_function_lines
from repro.analysis.model import ModuleInfo, Rule, Violation
from repro.errors import AnalysisError

RULES = (
    Rule(
        "LAY-DAG",
        "module-level imports follow the package DAG",
        "upward imports couple foundation layers to the harness and "
        "eventually form import cycles",
    ),
    Rule(
        "LAY-LAZY",
        "lazy upward imports must be declared in the contract",
        "a function-level import dodges the import-time cycle but still "
        "creates a dependency; the contract makes each one reviewable",
    ),
    Rule(
        "LAY-PRIVATE",
        "restricted packages have a closed importer set",
        "repro.parallel is an implementation detail of the experiment "
        "runners; new importers would widen its pickling contract",
    ),
    Rule(
        "LAY-FACADE",
        "examples and scripts import only the public facade",
        "a deep import in shipped example code documents an unsupported "
        "path; everything an example needs belongs in repro.api",
    ),
)


@dataclass(frozen=True)
class LayeringContract:
    """Parsed form of ``layering.toml``.

    Besides the original layering relation, the contract carries the
    declarative inputs of the project-wide passes: worker entry points
    and RNG discipline for CONC-*, the kernel-module scope for VEC-*,
    and the deprecated-name/snapshot declarations for API-*.
    """

    allowed: dict[str, frozenset[str]]
    lazy_allow: frozenset[tuple[str, str]]
    restricted: dict[str, frozenset[str]]
    #: Directory names whose modules are facade-only consumers.
    facade_roots: frozenset[str] = frozenset()
    #: Contract packages those modules may import (the facade itself).
    facade_allowed: frozenset[str] = frozenset()
    #: Repo-relative path of the public-API snapshot (API-SNAPSHOT).
    facade_snapshot: str = ""
    #: Worker entry points: reachability roots of the CONC-* passes.
    entry_points: tuple[str, ...] = ()
    #: Modules sanctioned to construct generators from seeds.
    rng_factories: frozenset[str] = frozenset()
    #: Declared stream-name prefixes for ``registry.stream("...")``.
    streams: tuple[str, ...] = ()
    #: Type names that must never enter a process-pool payload.
    unpicklable: frozenset[str] = frozenset()
    #: Dotted module prefixes holding array/kernel code (VEC-*).
    kernel_modules: tuple[str, ...] = ()
    #: Deprecated qualified names internal code must not reference.
    deprecated: frozenset[str] = frozenset()

    def packages(self) -> frozenset[str]:
        """Every package the contract knows about."""
        return frozenset(self.allowed)

    def in_kernel_scope(self, module: str) -> bool:
        """Whether ``module`` falls under a declared kernel prefix."""
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.kernel_modules
        )


def parse_contract(text: str, origin: str = "<contract>") -> LayeringContract:
    """Parse and validate contract TOML text.

    Raises :class:`~repro.errors.AnalysisError` on malformed documents:
    unknown packages in dependency lists, non-list values, or a
    relation that is not a DAG.
    """
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise AnalysisError(f"invalid layering contract {origin}: {exc}") from exc
    raw_allowed = data.get("allowed")
    if not isinstance(raw_allowed, dict) or not raw_allowed:
        raise AnalysisError(f"layering contract {origin} needs an [allowed] table")
    lazy_raw = raw_allowed.pop("lazy_allow", [])
    allowed: dict[str, frozenset[str]] = {}
    for pkg, deps in raw_allowed.items():
        if not isinstance(deps, list) or not all(
            isinstance(d, str) for d in deps
        ):
            raise AnalysisError(
                f"layering contract {origin}: allowed.{pkg} must be a "
                "list of package names"
            )
        allowed[pkg] = frozenset(deps)
    known = set(allowed)
    for pkg, deps in allowed.items():
        unknown = deps - known
        if unknown:
            raise AnalysisError(
                f"layering contract {origin}: allowed.{pkg} names unknown "
                f"packages {sorted(unknown)}"
            )
    _require_dag(allowed, origin)
    lazy_pairs = set()
    for pair in lazy_raw:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(p, str) and p in known for p in pair)
        ):
            raise AnalysisError(
                f"layering contract {origin}: lazy_allow entries must be "
                "[importer, imported] pairs of known packages"
            )
        lazy_pairs.add((pair[0], pair[1]))
    restricted: dict[str, frozenset[str]] = {}
    for pkg, importers in data.get("restricted", {}).items():
        if pkg not in known or not isinstance(importers, list):
            raise AnalysisError(
                f"layering contract {origin}: restricted.{pkg} must name a "
                "known package with a list of importers"
            )
        restricted[pkg] = frozenset(importers)
    facade = data.get("facade", {})
    for key in ("roots", "allowed"):
        values = facade.get(key, [])
        if not isinstance(values, list) or not all(
            isinstance(v, str) for v in values
        ):
            raise AnalysisError(
                f"layering contract {origin}: facade.{key} must be a "
                "list of strings"
            )
    facade_allowed = frozenset(facade.get("allowed", []))
    unknown = facade_allowed - known
    if unknown:
        raise AnalysisError(
            f"layering contract {origin}: facade.allowed names unknown "
            f"packages {sorted(unknown)}"
        )
    snapshot = facade.get("snapshot", "")
    if not isinstance(snapshot, str):
        raise AnalysisError(
            f"layering contract {origin}: facade.snapshot must be a string"
        )
    concurrency = _string_list_table(
        data.get("concurrency", {}),
        ("entry_points", "rng_factories", "streams", "unpicklable"),
        origin,
        "concurrency",
    )
    for entry in concurrency["entry_points"]:
        if entry.count(".") < 2:
            raise AnalysisError(
                f"layering contract {origin}: entry point {entry!r} must "
                "be a fully qualified `repro.module.function` name"
            )
    vectorization = _string_list_table(
        data.get("vectorization", {}), ("kernel_modules",), origin,
        "vectorization",
    )
    deprecated = _string_list_table(
        data.get("deprecated", {}), ("names",), origin, "deprecated"
    )
    return LayeringContract(
        allowed=allowed,
        lazy_allow=frozenset(lazy_pairs),
        restricted=restricted,
        facade_roots=frozenset(facade.get("roots", [])),
        facade_allowed=facade_allowed,
        facade_snapshot=snapshot,
        entry_points=tuple(concurrency["entry_points"]),
        rng_factories=frozenset(concurrency["rng_factories"]),
        streams=tuple(concurrency["streams"]),
        unpicklable=frozenset(concurrency["unpicklable"]),
        kernel_modules=tuple(vectorization["kernel_modules"]),
        deprecated=frozenset(deprecated["names"]),
    )


def _string_list_table(
    table: object, keys: tuple[str, ...], origin: str, section: str
) -> dict[str, list[str]]:
    """Validate a ``[section]`` whose values are lists of strings."""
    if not isinstance(table, dict):
        raise AnalysisError(
            f"layering contract {origin}: [{section}] must be a table"
        )
    out: dict[str, list[str]] = {}
    for key in keys:
        values = table.get(key, [])
        if not isinstance(values, list) or not all(
            isinstance(v, str) for v in values
        ):
            raise AnalysisError(
                f"layering contract {origin}: {section}.{key} must be a "
                "list of strings"
            )
        out[key] = values
    return out


def _require_dag(allowed: dict[str, frozenset[str]], origin: str) -> None:
    """Topological check: the allowed relation must contain no cycle."""
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(pkg: str, stack: tuple[str, ...]) -> None:
        if state.get(pkg) == 1:
            return
        if state.get(pkg) == 0:
            cycle = " -> ".join((*stack[stack.index(pkg):], pkg))
            raise AnalysisError(
                f"layering contract {origin} is cyclic: {cycle}"
            )
        state[pkg] = 0
        for dep in sorted(allowed.get(pkg, ())):
            visit(dep, (*stack, pkg))
        state[pkg] = 1

    for pkg in sorted(allowed):
        visit(pkg, ())


def contract_text(path: Path | None = None) -> str:
    """Raw TOML text of the packaged default contract or an explicit file.

    Exposed separately so the lint cache can fingerprint the contract
    bytes without re-parsing.
    """
    if path is not None:
        try:
            return path.read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read contract {path}: {exc}") from exc
    return (
        resources.files("repro.analysis")
        .joinpath("layering.toml")
        .read_text(encoding="utf-8")
    )


def load_contract(path: Path | None = None) -> LayeringContract:
    """Load the packaged default contract, or an explicit file."""
    text = contract_text(path)
    origin = str(path) if path is not None else "repro/analysis/layering.toml"
    return parse_contract(text, origin=origin)


def _importer_package(info: ModuleInfo) -> str | None:
    """Contract package of the module being linted."""
    parts = info.module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return "__init__"
    return parts[1]


def _imported_packages(node: ast.Import | ast.ImportFrom) -> list[str]:
    """repro packages named by one import statement."""
    dotted: list[str] = []
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif node.module is not None and node.level == 0:
        dotted = [node.module]
    out = []
    for name in dotted:
        parts = name.split(".")
        if parts[0] != "repro":
            continue
        out.append(parts[1] if len(parts) > 1 else "__init__")
    return out


def check(
    info: ModuleInfo, contract: LayeringContract | None = None
) -> list[Violation]:
    """Run the layering rules over one module."""
    if contract is None:
        contract = load_contract()
    importer = _importer_package(info)
    if importer is None:
        return _check_facade(info, contract)
    allowed = contract.allowed.get(importer)
    if allowed is None:
        # A package the contract has never heard of: surface that rather
        # than silently skipping (new packages must be added explicitly).
        return [
            Violation(
                "LAY-DAG",
                info.path,
                1,
                0,
                f"package `{importer}` is not declared in the layering "
                "contract",
                "add it to [allowed] in repro/analysis/layering.toml",
            )
        ]
    lazy_lines = enclosing_function_lines(info.tree)
    type_checking_lines = _type_checking_lines(info.tree)
    violations: list[Violation] = []
    for node in ast.walk(info.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if node.lineno in type_checking_lines:
            continue
        for imported in _imported_packages(node):
            if imported == importer:
                continue
            is_lazy = node.lineno in lazy_lines
            restricted_to = contract.restricted.get(imported)
            if restricted_to is not None and importer not in restricted_to:
                violations.append(
                    Violation(
                        "LAY-PRIVATE",
                        info.path,
                        node.lineno,
                        node.col_offset,
                        f"`{imported}` may only be imported from "
                        f"{sorted(restricted_to - {imported})}",
                        "route through the experiment runners instead",
                    )
                )
                continue
            if imported in allowed:
                continue
            if is_lazy:
                if (importer, imported) in contract.lazy_allow:
                    continue
                violations.append(
                    Violation(
                        "LAY-LAZY",
                        info.path,
                        node.lineno,
                        node.col_offset,
                        f"lazy import of `repro.{imported}` from "
                        f"`{importer}` is not sanctioned by the contract",
                        "add a lazy_allow entry to layering.toml or "
                        "restructure the dependency",
                    )
                )
            else:
                violations.append(
                    Violation(
                        "LAY-DAG",
                        info.path,
                        node.lineno,
                        node.col_offset,
                        f"`{importer}` may not import `repro.{imported}` "
                        "at module load time",
                        f"allowed: {sorted(allowed)}; move the shared code "
                        "down a layer or import lazily with a contract entry",
                    )
                )
    return violations


def _check_facade(
    info: ModuleInfo, contract: LayeringContract
) -> list[Violation]:
    """LAY-FACADE: facade-only trees must stay on ``repro.api``."""
    parts = Path(info.path).parts
    if not any(part in contract.facade_roots for part in parts):
        return []
    type_checking_lines = _type_checking_lines(info.tree)
    violations: list[Violation] = []
    for node in ast.walk(info.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if node.lineno in type_checking_lines:
            continue
        for imported in _imported_packages(node):
            if imported in contract.facade_allowed:
                continue
            violations.append(
                Violation(
                    "LAY-FACADE",
                    info.path,
                    node.lineno,
                    node.col_offset,
                    f"deep import of `repro.{imported}` from a "
                    "facade-only tree",
                    "import the name from repro.api instead (and add it "
                    "there if it is missing)",
                )
            )
    return violations


def _type_checking_lines(tree: ast.Module) -> set[int]:
    """Lines inside ``if TYPE_CHECKING:`` blocks (annotation-only)."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            test = node.test
            is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
                isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
            )
            if is_tc:
                for child in node.body:
                    end = child.end_lineno or child.lineno
                    lines.update(range(child.lineno, end + 1))
    return lines
