"""Facade-drift lint: the stable public surface (API-*).

``repro.api`` is the one supported entry point; everything else may
move.  Two failure modes erode that guarantee and both are statically
checkable:

``API-DEPRECATED``
    An *internal* module imports or references one of the deprecated
    compatibility shims (``[deprecated] names`` in ``layering.toml``,
    dotted spellings such as ``repro.api.OldName``).  The shims exist so
    external callers survive one release cycle; internal code reaching
    through them resurrects the old surface and blocks its removal.
``API-SNAPSHOT``
    ``repro.api.__all__`` drifts from the reviewed snapshot
    (``tests/public_api_snapshot.txt``).  The comparison is static —
    the ``__all__`` list literal is read from the AST, never imported —
    so the check runs identically in the linter and in CI.  One
    violation per missing/extra name keeps the diff reviewable.
"""

from __future__ import annotations

import ast
import os

from repro.analysis.astutils import alias_map, qualified_name
from repro.analysis.layering import LayeringContract
from repro.analysis.model import ModuleInfo, Rule, Violation
from repro.analysis.project import ProjectModel

RULES = (
    Rule(
        "API-DEPRECATED",
        "internal code must not use deprecated shims",
        "the shims exist only to give external callers a migration "
        "window; internal uses resurrect the old surface and block "
        "its removal",
    ),
    Rule(
        "API-SNAPSHOT",
        "repro.api.__all__ must match the reviewed snapshot",
        "the facade is the compatibility contract — silent additions "
        "or removals ship an unreviewed API change",
    ),
)


# -- API-DEPRECATED (per-file) ----------------------------------------------


def check(
    info: ModuleInfo, contract: LayeringContract
) -> list[Violation]:
    """Flag imports/references of deprecated shim names in ``info``.

    Only internal ``repro.*`` modules are checked — examples and
    scripts mimic external callers and may exercise the shims on
    purpose (their own deprecation warnings cover them).
    """
    if not contract.deprecated or info.module.split(".")[0] != "repro":
        return []
    violations: list[Violation] = []
    seen: set[tuple[int, str]] = set()

    def flag(node: ast.AST, shim: str) -> None:
        key = (node.lineno, shim)
        if key in seen:
            return
        seen.add(key)
        violations.append(
            Violation(
                "API-DEPRECATED",
                info.path,
                node.lineno,
                node.col_offset,
                f"internal use of deprecated shim `{shim}`",
                "call the replacement exported by repro.api instead",
            )
        )

    aliases = alias_map(info.tree)
    for node in ast.walk(info.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for name in node.names:
                shim = f"{node.module}.{name.name}"
                if shim in contract.deprecated:
                    flag(node, shim)
        elif isinstance(node, ast.Attribute):
            qname = qualified_name(node, aliases)
            if qname in contract.deprecated:
                flag(node, qname)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            qname = aliases.get(node.id)
            if qname in contract.deprecated:
                flag(node, qname)
    return violations


# -- API-SNAPSHOT (project pass) --------------------------------------------


def check_project(
    project: ProjectModel, contract: LayeringContract
) -> list[Violation]:
    """Compare the static ``repro.api.__all__`` against the snapshot."""
    if not contract.facade_snapshot:
        return []
    info = project.modules.get("repro.api")
    if info is None:
        return []
    snapshot_path = _locate_snapshot(info.path, contract.facade_snapshot)
    if snapshot_path is None:
        return []
    exported = _static_all(info)
    if exported is None:
        return [
            Violation(
                "API-SNAPSHOT",
                info.path,
                1,
                0,
                "repro.api.__all__ is not a static list of string "
                "literals",
                "keep __all__ a plain list literal so the facade is "
                "statically checkable",
            )
        ]
    with open(snapshot_path, encoding="utf-8") as fh:
        expected = {line.strip() for line in fh if line.strip()}
    violations: list[Violation] = []
    for name in sorted(set(exported) - expected):
        violations.append(
            Violation(
                "API-SNAPSHOT",
                info.path,
                exported[name],
                0,
                f"`{name}` is exported by repro.api but missing from "
                f"{contract.facade_snapshot}",
                "add it to the snapshot in the same PR that reviews "
                "the API addition",
            )
        )
    for name in sorted(expected - set(exported)):
        violations.append(
            Violation(
                "API-SNAPSHOT",
                info.path,
                1,
                0,
                f"`{name}` is in {contract.facade_snapshot} but no "
                "longer exported by repro.api",
                "removing a public name needs a deprecation cycle and "
                "a snapshot update",
            )
        )
    return violations


def _static_all(info: ModuleInfo) -> dict[str, int] | None:
    """``__all__`` entries -> line number, read from the AST only."""
    for node in info.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if not isinstance(node.value, (ast.List, ast.Tuple)):
                    return None
                out: dict[str, int] = {}
                for elt in node.value.elts:
                    if not (
                        isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    ):
                        return None
                    out[elt.value] = elt.lineno
                return out
    return None


def _locate_snapshot(api_path: str, relative: str) -> str | None:
    """Find the snapshot file relative to plausible repo roots.

    ``api_path`` is ``<root>/src/repro/api.py`` in the real layout or
    ``<root>/repro/api.py`` in synthetic test trees; the snapshot lives
    at ``<root>/<relative>``.  Returns ``None`` (rule skipped) when no
    candidate exists, e.g. when linting a lone file outside a repo.
    """
    repro_dir = os.path.dirname(os.path.abspath(api_path))
    candidates = [
        os.path.dirname(repro_dir),
        os.path.dirname(os.path.dirname(repro_dir)),
    ]
    for root in candidates:
        path = os.path.join(root, relative)
        if os.path.isfile(path):
            return path
    return None
