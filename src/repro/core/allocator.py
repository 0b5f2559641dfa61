"""Deprecated module path for the allocation contract.

Everything that used to live here moved to :mod:`repro.core.allocation`
when the API grew the cycle-scoped :class:`~repro.core.allocation.Allocator`
contract.  The per-candidate policy protocol and its request type are
gone (per-candidate policies subclass
:class:`~repro.core.allocation.CandidatePolicyAdapter`); every other old
spelling keeps working through the PEP 562 hook below — ``from
repro.core.allocator import get_policy`` still imports, with a
:class:`DeprecationWarning` pointing at the new home.

New code should import from :mod:`repro.core.allocation` (or the
:mod:`repro.api` facade); the ``repro lint`` API-DEPRECATED rule keeps
internal code off this module.
"""

from __future__ import annotations

import warnings
from typing import Any

#: Names re-exported from :mod:`repro.core.allocation` with a warning.
_MOVED = (
    "AllocationOutcome",
    "get_policy",
    "register_policy",
    "registered_policies",
)

__all__ = list(_MOVED)


def __getattr__(name: str) -> Any:
    """Serve the moved names from their new module, with a warning."""
    if name in _MOVED:
        warnings.warn(
            f"repro.core.allocator.{name} is deprecated; import {name} "
            "from repro.core.allocation (or the repro.api facade) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.core import allocation

        return getattr(allocation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
