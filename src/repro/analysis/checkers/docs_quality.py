"""Documentation-quality rules (RPR401).

The observability layer is the one subsystem whose whole job is to be
*read*: metric names, units, and span timings flow out of
:mod:`repro.obs` into dashboards, docs, and regression assertions.  An
undocumented public function there is an unlabeled axis.  RPR401
requires every public function and method in the covered modules to
carry a docstring, and — because durations and sizes are the values most
often mis-scaled — any function whose parameters carry a unit suffix
(``_ms``, ``_bytes``, …) must state those units in a ``Units:`` line,
e.g.::

    def finish(self, duration_ms: float) -> Span:
        \"\"\"Commit the span.

        Units: ``duration_ms`` is milliseconds of simulated time.
        \"\"\"
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, Rule
from repro.analysis.registry import register

RPR401 = Rule(
    id="RPR401",
    name="undocumented-public-api",
    summary="Public function without a docstring, or with unit-suffixed "
    "parameters but no 'Units:' line.",
    suggestion="add a docstring; when a parameter carries a unit suffix "
    "(_ms, _bytes, ...), include a line starting with 'Units:' stating them",
    category="docs-quality",
)

#: Modules whose public surface must be documented.  The cachesim engine
#: entry points joined repro.obs when the fused sweep engine landed: their
#: parameters mix lines, bytes, and capacities, and an unlabeled axis
#: there mis-scales a whole campaign.
DOCS_SCOPE = (
    "repro.obs",
    "repro.cachesim.composed",
    "repro.cachesim.fastsim",
    "repro.cachesim.fused",
    "repro.cachesim.mattson",
    "repro.cachesim.shards",
    "repro.search.cachectl",
    "repro.hw",
    "repro.dse",
)

#: Parameter suffixes that denote a physical unit (durations, sizes, and
#: energies — ``_nj`` joined with the hw/dse energy-per-query axes).
_UNIT_SUFFIXES = ("_ms", "_ns", "_us", "_bytes", "_mib", "_kib", "_gib", "_nj")

#: Dunder methods whose semantics the language fixes anyway.
_EXEMPT_DUNDERS = frozenset(
    {"__repr__", "__str__", "__hash__", "__len__", "__iter__", "__next__"}
)


def _unit_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    for star in (args.vararg, args.kwarg):
        if star is not None:
            every.append(star)
    return [
        arg.arg for arg in every if arg.arg.endswith(_UNIT_SUFFIXES)
    ]


def _has_units_line(docstring: str) -> bool:
    return any(
        line.strip().startswith("Units:") for line in docstring.splitlines()
    )


@register
class DocsQualityChecker(Checker):
    """Flags undocumented public functions in the observability layer."""

    rules = (RPR401,)
    scope = DOCS_SCOPE

    def __init__(self) -> None:
        super().__init__()
        #: Nesting stack: "class" and "function" markers.
        self._stack: list[str] = []

    # -- traversal -----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not node.name.startswith("_"):
            self._stack.append("class")
            self.generic_visit(node)
            self._stack.pop()
        # Private classes are internal surface; skip their bodies.

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self._stack.append("function")
        self.generic_visit(node)
        self._stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self._stack.append("function")
        self.generic_visit(node)
        self._stack.pop()

    # -- the rule ------------------------------------------------------

    def _is_public(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        if "function" in self._stack:
            return False  # nested helpers are implementation detail
        name = node.name
        if name == "__init__":
            return True
        if name in _EXEMPT_DUNDERS:
            return False
        if name.startswith("__") and name.endswith("__"):
            return True  # other dunders (__eq__, __enter__, ...) are API
        return not name.startswith("_")

    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if not self._is_public(node):
            return
        docstring = ast.get_docstring(node)
        if docstring is None:
            self.report(
                node,
                RPR401,
                f"public function {node.name!r} has no docstring",
            )
            return
        unit_params = _unit_params(node)
        if unit_params and not _has_units_line(docstring):
            self.report(
                node,
                RPR401,
                f"public function {node.name!r} takes unit-suffixed "
                f"parameter(s) {', '.join(repr(p) for p in unit_params)} but "
                "its docstring has no 'Units:' line",
            )
