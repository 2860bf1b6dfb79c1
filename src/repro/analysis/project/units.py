"""Unit inference over expressions, for the RPR5xx pass family.

A *unit* is a short string: ``"ns"``, ``"us"``, ``"ms"``, ``"s"``,
``"bytes"``, ``"kib"``, ``"mib"``, ``"gib"``, ``"cycles"``, or
``"lines"`` — ``None`` means *unknown*, and unknown never produces a
finding.  Units come from three anchor sources:

* **name suffixes** — ``deadline_ms``, ``capacity_bytes``,
  ``amat_ns``, ``paper_mib`` (names containing ``_per_`` are rates and
  deliberately carry no unit);
* **``repro._units`` constants** — an expression multiplied by
  ``KiB``/``MiB``/``GiB`` is bytes, by ``NS``/``US``/``MS`` is
  nanoseconds; dividing a byte expression by ``MiB`` yields MiB, a
  nanosecond expression by ``MS`` yields milliseconds (the constants
  are conversion factors, so the algebra follows them);
* **function summaries** — a call to ``sample_leaf_ms(...)`` is
  milliseconds by name; resolved calls use the interprocedural return
  summaries computed by the checker.

The propagation rules are deliberately lossy where real code is
ambiguous: multiplying or dividing a unit by a bare numeric literal
returns *unknown* (it is usually a conversion, e.g. ``duration_s *
1000.0``), and so does any arithmetic the table below doesn't cover.
Under-approximating keeps the pass quiet on conversions while still
catching a nanosecond value handed to a ``_ms`` parameter two modules
away.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable

#: Name suffix -> unit.
SUFFIX_UNITS: dict[str, str] = {
    "_ns": "ns",
    "_us": "us",
    "_ms": "ms",
    "_s": "s",
    "_bytes": "bytes",
    "_kib": "kib",
    "_mib": "mib",
    "_gib": "gib",
    "_cycles": "cycles",
    "_lines": "lines",
    "_nj": "nj",
}

#: ``repro._units`` constants: name -> (base unit, denomination unit).
#: Multiplying a denomination by the constant yields the base unit;
#: dividing a base-unit value by it yields the denomination.
ANCHORS: dict[str, tuple[str, str]] = {
    "KiB": ("bytes", "kib"),
    "MiB": ("bytes", "mib"),
    "GiB": ("bytes", "gib"),
    "NS": ("ns", "ns"),
    "US": ("ns", "us"),
    "MS": ("ns", "ms"),
}

#: ``repro._units`` helpers whose results are bytes.
_BYTE_HELPERS = frozenset({"kib", "mib", "gib"})

#: Builtins / reductions that preserve the unit of their arguments.
_UNIT_PRESERVING_CALLS = frozenset(
    {
        "min",
        "max",
        "sum",
        "abs",
        "round",
        "float",
        "int",
        "sorted",
        "mean",
        "median",
        "percentile",
        "quantile",
        "std",
    }
)

#: Time units, for human-readable messages.
TIME_UNITS = frozenset({"ns", "us", "ms", "s", "cycles"})


def unit_of_name(name: str) -> str | None:
    """Unit implied by an identifier's suffix, if any.

    Rates (``_per_`` anywhere in the name) carry no unit: ``slope_per_ns``
    is *inverse* nanoseconds, and tagging it ``ns`` would invert every
    finding built on it.
    """
    if "_per_" in name:
        return None
    lowered = name.lower()
    for suffix, unit in SUFFIX_UNITS.items():
        if lowered.endswith(suffix):
            return unit
    return None


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass
class Mismatch:
    """An additive expression whose operands carry different units."""

    node: ast.BinOp | ast.AugAssign
    left_unit: str
    right_unit: str
    #: Both sides anchored on ``repro._units`` constants — RPR002's
    #: (per-file) territory, so RPR503 skips it.
    anchor_only: bool = False


@dataclass
class UnitEnv:
    """Name -> unit bindings for one function body walk."""

    bindings: dict[str, str] = field(default_factory=dict)

    def get(self, name: str) -> str | None:
        found = self.bindings.get(name)
        if found is not None:
            return found
        return unit_of_name(name)

    def bind(self, name: str, unit: str | None) -> None:
        if unit is not None:
            self.bindings[name] = unit
        else:
            self.bindings.pop(name, None)


class UnitInferencer:
    """Infers units of expressions; records additive mismatches."""

    def __init__(
        self,
        env: UnitEnv | None = None,
        call_unit: Callable[[ast.Call], str | None] | None = None,
    ) -> None:
        self.env = env or UnitEnv()
        self._call_unit = call_unit
        self.mismatches: list[Mismatch] = []

    # -- public entry --------------------------------------------------

    def infer(self, node: ast.expr) -> str | None:
        unit, _ = self._infer(node)
        return unit

    # -- the algebra ---------------------------------------------------

    def _infer(self, node: ast.expr) -> tuple[str | None, bool]:
        """Return (unit, anchored): anchored means the unit came from a
        ``repro._units`` constant and survives literal multiplication."""
        if isinstance(node, ast.Name):
            anchor = ANCHORS.get(node.id)
            if anchor is not None:
                return anchor[0], True
            return self.env.get(node.id), False
        if isinstance(node, ast.Attribute):
            anchor = ANCHORS.get(node.attr)
            if anchor is not None:
                return anchor[0], True
            return unit_of_name(node.attr), False
        if isinstance(node, ast.Subscript):
            base = _terminal_name(node.value)
            if base is not None:
                return self.env.get(base) if isinstance(
                    node.value, ast.Name
                ) else unit_of_name(base), False
            return None, False
        if isinstance(node, ast.Call):
            return self._infer_call(node), False
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._infer(node.operand)
        if isinstance(node, ast.IfExp):
            unit_a, anch_a = self._infer(node.body)
            unit_b, anch_b = self._infer(node.orelse)
            if unit_a == unit_b:
                return unit_a, anch_a and anch_b
            # One branch is usually a neutral default (0, None, ...).
            return unit_a or unit_b, False
        if isinstance(node, (ast.Tuple, ast.List)):
            units = {self._infer(elt)[0] for elt in node.elts}
            if len(units) == 1:
                return units.pop(), False
            return None, False
        return None, False

    def _infer_call(self, node: ast.Call) -> str | None:
        name = _terminal_name(node.func)
        if name in _BYTE_HELPERS:
            return "bytes"
        if name in _UNIT_PRESERVING_CALLS and (node.args or node.keywords):
            first = node.args[0] if node.args else node.keywords[0].value
            return self._infer(first)[0]
        if self._call_unit is not None:
            resolved = self._call_unit(node)
            if resolved is not None:
                return resolved
        if name is not None and name not in ("bytes",):
            return unit_of_name(name)
        return None

    def _anchor_of(self, node: ast.expr) -> tuple[str, str] | None:
        name = _terminal_name(node)
        return ANCHORS.get(name) if name is not None else None

    def _infer_binop(self, node: ast.BinOp) -> tuple[str | None, bool]:
        left_unit, left_anchored = self._infer(node.left)
        right_unit, right_anchored = self._infer(node.right)

        if isinstance(node.op, (ast.Add, ast.Sub)):
            if (
                left_unit is not None
                and right_unit is not None
                and left_unit != right_unit
            ):
                self.mismatches.append(
                    Mismatch(
                        node=node,
                        left_unit=left_unit,
                        right_unit=right_unit,
                        anchor_only=left_anchored and right_anchored,
                    )
                )
                return None, False
            unit = left_unit if left_unit == right_unit else (
                left_unit or right_unit
            )
            return unit, left_anchored or right_anchored

        if isinstance(node.op, ast.Mult):
            for own, other_unit in (
                (node.left, right_unit),
                (node.right, left_unit),
            ):
                anchor = self._anchor_of(own)
                if anchor is not None:
                    base, denom = anchor
                    if other_unit in (None, denom, "lines"):
                        return base, True
                    return None, False
            # An anchored expression times a count keeps its unit
            # (``4 * KiB * n_entries``).
            if left_anchored and right_unit is None:
                return left_unit, True
            if right_anchored and left_unit is None:
                return right_unit, True
            # literal * unit and unit * unit are conversion-shaped:
            # stay unknown rather than guess.
            return None, False

        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            anchor = self._anchor_of(node.right)
            if anchor is not None:
                base, denom = anchor
                if left_unit == base or (left_anchored and left_unit == base):
                    return denom, False
                return None, False
            if left_unit is not None and right_unit is None:
                if isinstance(node.right, ast.Constant):
                    return None, False  # dividing by a literal: conversion
                return left_unit, left_anchored
            return None, False

        return None, False


def compatible(left: str | None, right: str | None) -> bool:
    """True unless both units are known and different."""
    return left is None or right is None or left == right


def describe(unit: str) -> str:
    """Human-readable unit name for messages."""
    names = {
        "ns": "nanoseconds",
        "us": "microseconds",
        "ms": "milliseconds",
        "s": "seconds",
        "bytes": "bytes",
        "kib": "KiB",
        "mib": "MiB",
        "gib": "GiB",
        "cycles": "cycles",
        "lines": "a line count",
    }
    return names.get(unit, unit)


def infer_unit(
    expr: ast.expr,
    env: UnitEnv | None = None,
    call_unit: Callable[[ast.Call], str | None] | None = None,
) -> str | None:
    """One-shot inference of an expression's unit (convenience API)."""
    return UnitInferencer(env=env, call_unit=call_unit).infer(expr)
