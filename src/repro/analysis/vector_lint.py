"""Array-determinism lint: order and dtype discipline (VEC-*).

The batched forecast kernels and sharded campaigns are bit-identical
to their scalar and serial counterparts only because every NumPy
operation that *orders* or *accumulates* floats is pinned: stable sorts, total-order
keys, float64 end to end, and reductions over deterministically-ordered
collections.  These rules keep that discipline machine-checked inside
the declared kernel modules (``[vectorization] kernel_modules`` in
``layering.toml``):

``VEC-SORT-STABLE``
    ``np.sort``/``np.argsort`` (or a ``.argsort(...)`` method call)
    without ``kind="stable"``.  The default introsort reorders equal
    keys differently across NumPy versions and array layouts, so tied
    events execute in different orders.
``VEC-SORT-KEY``
    ``sorted(...)``/``.sort(...)`` whose ``key`` lambda returns a
    single value rather than a tuple.  Equal keys fall back to the
    *input* order, which is shard- or insertion-dependent; a tuple with
    an explicit tiebreaker (``(t, seq)``) pins a total order.
``VEC-FLOAT-REDUCE``
    ``sum``/``np.sum``/``np.mean``/``math.fsum`` over an unordered
    set expression.  Float addition is non-associative, so an
    unpinned iteration order changes the result in the last ulps —
    enough to break bit-identity gates.
``VEC-NARROW``
    ``np.float32``/``np.float16`` (including ``dtype="float32"`` and
    ``.astype`` spellings).  The forecast kernels mirror scalar float64
    op order exactly; narrowing silently changes every comparison
    against the scalar path.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import alias_map, qualified_name
from repro.analysis.layering import LayeringContract, load_contract
from repro.analysis.model import ModuleInfo, Rule, Violation

RULES = (
    Rule(
        "VEC-SORT-STABLE",
        "NumPy sorts in kernel modules must be stable",
        "the default introsort reorders equal keys unpredictably, so "
        "tied events execute in different orders across layouts/versions",
    ),
    Rule(
        "VEC-SORT-KEY",
        "sort keys in kernel modules must be total-order tuples",
        "a scalar float key leaves ties to the input order, which is "
        "shard- and insertion-dependent",
    ),
    Rule(
        "VEC-FLOAT-REDUCE",
        "no float reductions over unordered collections",
        "float addition is non-associative; an unpinned iteration order "
        "changes results in the last ulps and breaks bit-identity",
    ),
    Rule(
        "VEC-NARROW",
        "no float32/float16 narrowing in kernel modules",
        "forecast kernels mirror the scalar float64 op order exactly; "
        "narrowing changes every value against the scalar path",
    ),
)

#: Sort kinds that preserve the order of equal keys.
_STABLE_KINDS = frozenset({"stable", "mergesort"})

#: Reduction callables whose argument order reaches the result.
_REDUCERS = frozenset({
    "sum", "math.fsum", "numpy.sum", "numpy.mean", "numpy.prod",
    "numpy.cumsum",
})

_NARROW_DTYPES = frozenset({"float32", "float16"})


def check(
    info: ModuleInfo, contract: LayeringContract | None = None
) -> list[Violation]:
    """Run the VEC rules over one module."""
    if contract is None:
        contract = load_contract()
    if not contract.in_kernel_scope(info.module):
        return []
    aliases = alias_map(info.tree)
    violations: list[Violation] = []
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Call):
            violations.extend(_check_call(info, node, aliases))
        elif isinstance(node, ast.Attribute):
            qname = qualified_name(node, aliases)
            if qname in ("numpy.float32", "numpy.float16"):
                violations.append(_narrow(info, node, qname))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in _NARROW_DTYPES
        ):
            # dtype="float32" string spellings; cheap and rare enough
            # to flag wholesale in kernel modules.
            violations.append(_narrow(info, node, repr(node.value)))
    return violations


def _check_call(
    info: ModuleInfo, node: ast.Call, aliases: dict[str, str]
) -> list[Violation]:
    qname = qualified_name(node.func, aliases)
    out: list[Violation] = []
    is_np_sort = qname in ("numpy.sort", "numpy.argsort")
    is_method_argsort = (
        isinstance(node.func, ast.Attribute) and node.func.attr == "argsort"
    )
    if is_np_sort or is_method_argsort:
        kind = _keyword(node, "kind")
        if not (
            isinstance(kind, ast.Constant) and kind.value in _STABLE_KINDS
        ):
            out.append(
                Violation(
                    "VEC-SORT-STABLE",
                    info.path,
                    node.lineno,
                    node.col_offset,
                    f"`{qname or 'argsort'}` without kind=\"stable\" in a "
                    "kernel module",
                    'pass kind="stable" to pin the order of equal keys',
                )
            )
    is_sorted = qname == "sorted"
    is_sort_method = (
        isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
    )
    if is_sorted or is_sort_method:
        key = _keyword(node, "key")
        if isinstance(key, ast.Lambda) and not isinstance(
            key.body, ast.Tuple
        ):
            out.append(
                Violation(
                    "VEC-SORT-KEY",
                    info.path,
                    key.lineno,
                    key.col_offset,
                    "sort key returns a single value; equal keys fall "
                    "back to input order",
                    "return a tuple with an explicit tiebreaker, e.g. "
                    "(t, seq)",
                )
            )
    if qname in _REDUCERS and node.args:
        if _is_unordered(node.args[0], aliases):
            out.append(
                Violation(
                    "VEC-FLOAT-REDUCE",
                    info.path,
                    node.lineno,
                    node.col_offset,
                    f"`{qname}` over an unordered set expression",
                    "sort the operands first (sorted(...)) to pin the "
                    "accumulation order",
                )
            )
    if qname == "numpy.float32" or qname == "numpy.float16":
        out.append(_narrow(info, node, qname))
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "astype"
        and node.args
    ):
        target = node.args[0]
        tq = qualified_name(target, aliases)
        if tq in ("numpy.float32", "numpy.float16") or (
            isinstance(target, ast.Constant) and target.value in _NARROW_DTYPES
        ):
            out.append(_narrow(info, node, tq or repr(target.value)))
    return out


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _is_unordered(expr: ast.expr, aliases: dict[str, str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        qname = qualified_name(expr.func, aliases)
        if qname in ("set", "frozenset"):
            return True
    if isinstance(expr, ast.GeneratorExp):
        return any(
            _is_unordered(gen.iter, aliases) for gen in expr.generators
        )
    return False


def _narrow(info: ModuleInfo, node: ast.AST, spelled: str) -> Violation:
    return Violation(
        "VEC-NARROW",
        info.path,
        node.lineno,
        node.col_offset,
        f"float narrowing via `{spelled}` in a kernel module",
        "keep kernel math in float64; narrow only at export boundaries",
    )
