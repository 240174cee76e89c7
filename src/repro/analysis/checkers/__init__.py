"""Checker registry and shared AST utilities.

A checker is a class with a ``codes`` tuple (the diagnostics it can
emit) and a ``check(module) -> Iterable[Finding]`` method.  Checkers
are pure AST consumers: the engine hands them a parsed
:class:`~repro.analysis.engine.ModuleInfo` with parent links already
annotated, and they never import the code under analysis.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Checker",
    "default_checkers",
    "ancestors",
    "dotted",
    "import_map",
    "canonical",
    "is_generator",
    "scopes",
]


class Checker:
    """Base class; subclasses set ``codes`` and implement ``check``."""

    codes: tuple = ()

    def check(self, module) -> Iterable:  # pragma: no cover - interface
        raise NotImplementedError


def default_checkers() -> List[Checker]:
    """One instance of every registered checker (import-cycle-free:
    checker modules import only this module and the engine types)."""
    from repro.analysis.checkers.determinism import (
        UnorderedIterationChecker,
        UnseededRandomChecker,
        WallClockChecker,
    )
    from repro.analysis.checkers.kernel import (
        AcquireReleaseChecker,
        BlockingCallChecker,
        DiscardedPutChecker,
        NegativeDelayChecker,
        PrivateQueueChecker,
    )
    from repro.analysis.checkers.observability import (
        ProbeNameChecker,
        SpanGuardChecker,
        TraceGuardChecker,
    )
    from repro.analysis.checkers.units import (
        MagicUnitLiteralChecker,
        UnitSuffixChecker,
    )

    return [
        WallClockChecker(),
        UnseededRandomChecker(),
        UnorderedIterationChecker(),
        AcquireReleaseChecker(),
        NegativeDelayChecker(),
        BlockingCallChecker(),
        PrivateQueueChecker(),
        DiscardedPutChecker(),
        MagicUnitLiteralChecker(),
        UnitSuffixChecker(),
        TraceGuardChecker(),
        SpanGuardChecker(),
        ProbeNameChecker(),
    ]


# -- shared AST helpers ----------------------------------------------------


def ancestors(node: ast.AST) -> Iterable[ast.AST]:
    """Walk parent links up to the module (engine-annotated)."""
    current = getattr(node, "_simlint_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_simlint_parent", None)


def dotted(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None otherwise)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local alias -> canonical dotted prefix, from the module's
    imports (``import numpy as np`` -> ``{"np": "numpy"}``,
    ``from time import perf_counter as pc`` ->
    ``{"pc": "time.perf_counter"}``)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                full = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def canonical(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The canonical dotted name a reference resolves to, or None for
    anything that is not rooted in an imported name."""
    path = dotted(node)
    if path is None:
        return None
    head, _, rest = path.partition(".")
    if head not in aliases:
        return None
    base = aliases[head]
    return f"{base}.{rest}" if rest else base


def is_generator(func: ast.AST) -> bool:
    """True for functions containing a yield in their own scope."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    todo: List[ast.AST] = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope
        todo.extend(ast.iter_child_nodes(node))
    return False


def scopes(tree: ast.Module) -> Iterable[ast.AST]:
    """The module plus every (possibly nested) function definition."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
