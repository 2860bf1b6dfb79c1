"""Determinism rules (RPR101, RPR102, RPR103).

Every simulation result in the paper repro must be exactly reproducible
from a seed: the experiment tables are regression-tested against pinned
numbers, and sampled miss curves are only comparable across runs when
their RNG streams are.  Inside the simulation packages these rules flag
the three classic leaks of ambient nondeterminism:

* RPR101 — ambient RNG: ``random.random()``-style module-level calls,
  ``random.Random()`` / ``np.random.default_rng()`` constructed without a
  seed, and global ``seed()`` calls that mutate shared RNG state.
* RPR102 — wall-clock reads (``time.time()``, ``datetime.now()``, …)
  feeding simulation logic.
* RPR103 — iteration over unordered sets, whose order varies with hash
  randomization (``PYTHONHASHSEED``) for str/bytes elements.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, Rule
from repro.analysis.registry import register

RPR101 = Rule(
    id="RPR101",
    name="unseeded-rng",
    summary="Ambient or unseeded RNG in a simulation package.",
    suggestion="thread an explicit random.Random(seed) or "
    "numpy.random.default_rng(seed) through the call site",
    category="determinism",
)

RPR102 = Rule(
    id="RPR102",
    name="wall-clock-read",
    summary="Wall-clock time read inside a simulation package.",
    suggestion="simulated time must come from the model; pass timestamps "
    "in from the caller if profiling is intended",
    category="determinism",
)

RPR103 = Rule(
    id="RPR103",
    name="unordered-set-iteration",
    summary="Iteration over an unordered set in a simulation package.",
    suggestion="iterate sorted(...) so order is independent of "
    "PYTHONHASHSEED",
    category="determinism",
)

#: Packages whose outputs must be bit-reproducible from a seed.
SIMULATION_SCOPE = (
    "repro.cachesim",
    "repro.memtrace",
    "repro.search",
    "repro.workloads",
    "repro.core",
    "repro.cpu",
    "repro.obs",
)

#: Module-level functions of ``random`` that use the hidden global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "shuffle",
        "choice",
        "choices",
        "sample",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "weibullvariate",
        "vonmisesvariate",
        "seed",
    }
)

#: Legacy ``numpy.random`` module-level functions (global RandomState).
_GLOBAL_NUMPY_FNS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "shuffle",
        "permutation",
        "choice",
        "seed",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "zipf",
        "bytes",
    }
)

#: Constructors that take an optional seed; calling them bare is the bug.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {"random.Random", "random.SystemRandom", "numpy.random.default_rng"}
)

_WALL_CLOCK_FNS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


@register
class DeterminismChecker(Checker):
    """Flags ambient randomness, wall-clock reads, and set iteration."""

    rules = (RPR101, RPR102, RPR103)
    scope = SIMULATION_SCOPE

    def __init__(self) -> None:
        super().__init__()
        #: local alias -> canonical dotted prefix ("np" -> "numpy").
        self._aliases: dict[str, str] = {}

    # -- import tracking -----------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname is not None:
                self._aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self._aliases[root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.level == 0:
            for alias in node.names:
                self._aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def _resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of an attribute/name chain, if importable."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._aliases.get(node.id)
        if root is None:
            return None
        return ".".join([root, *reversed(parts)])

    # -- RPR101 / RPR102 -----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved is not None:
            self._check_random_call(node, resolved)
            if resolved in _WALL_CLOCK_FNS:
                self.report(node, RPR102, f"wall-clock read {resolved}()")
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call, resolved: str) -> None:
        module, _, fn = resolved.rpartition(".")
        if module == "random" and fn in _GLOBAL_RANDOM_FNS:
            self.report(
                node,
                RPR101,
                f"call to ambient global RNG random.{fn}()",
            )
        elif module == "numpy.random" and fn in _GLOBAL_NUMPY_FNS:
            self.report(
                node,
                RPR101,
                f"call to ambient global RNG numpy.random.{fn}()",
            )
        elif resolved in _SEEDABLE_CONSTRUCTORS and not node.args:
            seeded = any(kw.arg in ("seed", "x") for kw in node.keywords)
            if not seeded:
                self.report(
                    node,
                    RPR101,
                    f"{resolved}() constructed without an explicit seed",
                )

    # -- RPR103 --------------------------------------------------------

    def _is_unordered(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
            # ``a & b`` / ``a | b`` over sets; only flag when an operand is
            # syntactically a set, since the types are unknown statically.
            return self._is_unordered(node.left) or self._is_unordered(node.right)
        return False

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if self._is_unordered(iter_node):
            self.report(
                iter_node,
                RPR103,
                "iteration order over a set depends on hash seeding",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)
