"""Determinism rules: every random draw must flow from a derived seed.

The reproduction's central contract — asserted end-to-end by the runtime
test suite — is that every execution lane produces bit-identical results.
That only holds while no code in the scheduling kernel, the simulator or the
study drivers draws from an unseeded or global random source, reads the wall
clock into results, or lets hash-order leak into anything ordering-sensitive.
These rules flag the syntactic forms through which such nondeterminism
enters:

* ``determinism-random`` — any use of the stdlib :mod:`random` module;
* ``determinism-np-random`` — the legacy ``np.random.<fn>()`` global
  generator (``default_rng``/``SeedSequence``/``Generator`` are the seeded
  constructors and stay allowed);
* ``determinism-unseeded-rng`` — ``default_rng()`` with no seed argument;
* ``determinism-wallclock`` — ``time.time()``/``time.time_ns()``,
  ``os.urandom()`` and ``uuid.uuid4()`` (``time.monotonic``/``perf_counter``
  are measurement clocks and stay allowed — they feed cost models, never
  results);
* ``determinism-set-order`` — iterating a ``set`` into an ordered consumer
  without ``sorted()``: set iteration order depends on ``PYTHONHASHSEED``
  for string elements, so feeding it to a list, a loop, a schedule order or
  seed derivation makes results run-dependent.  (``dict`` iteration is
  insertion-ordered on every supported Python and is *not* flagged, except
  ``.keys()`` fed straight into ``derive_seed``, where key order becomes the
  seed.)
* ``determinism-id-comparison`` — ordering or equating objects by ``id()``:
  CPython addresses change run to run, so any ``id``-keyed sort or
  comparison is hash-order nondeterminism in disguise.  (Using ``id()`` as a
  *dictionary key* for identity maps is deterministic within a run and stays
  allowed.)
* ``determinism-float-reduction`` — a float reduction whose summation order
  is not fixed: ``np.matmul``/``@``/``np.dot``/``np.einsum`` (BLAS picks the
  order per CPU), ``np.sum``/``.sum()``/``.mean()`` (pairwise), ``math.fsum``
  and the built-in ``sum()`` (compensated from Python 3.12 on).  Every score
  of the scheduling engines must be one float expression that the scalar,
  per-grid and batched engines evaluate bit for bit alike, so sums there are
  left-to-right loops.

All but the last apply only under
:attr:`reprolint.engine.Config.determinism_paths` — the ordering-sensitive
library layers.  Timing jitter in the runtime's connect-retry backoff, for
example, is deliberately random and lives outside the scope.  The
float-reduction rule applies to the scheduling kernel, ``repro/core``, alone:
elsewhere a sum's last bits feed no decision.
"""

from __future__ import annotations

import ast
from typing import Iterable

from reprolint.engine import (
    Config,
    Rule,
    SourceModule,
    Violation,
    dotted_name,
    from_imports,
    import_aliases,
    register,
)

#: ``np.random`` attributes that are seeded constructors, not draws.
_SEEDED_CONSTRUCTORS = {"default_rng", "SeedSequence", "Generator", "BitGenerator"}

#: Wall-clock / OS-entropy calls (module, attribute).
_WALLCLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("os", "urandom"),
    ("uuid", "uuid4"),
    ("uuid", "uuid1"),
}

#: Callables that materialise an iteration order from their argument.
_ORDERING_CONSUMERS = {"list", "tuple", "enumerate"}


def _in_scope(module: SourceModule, config: Config) -> bool:
    return module.in_scope(config.determinism_paths)


@register
class RandomModuleRule(Rule):
    id = "determinism-random"
    family = "determinism"
    summary = "stdlib random draws bypass the seed-derivation contract"

    def check(self, module: SourceModule, config: Config) -> Iterable[Violation]:
        if not _in_scope(module, config):
            return
        aliases = import_aliases(module.tree, "random")
        named = from_imports(module.tree, "random")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ):
                yield self.violation(
                    module,
                    node,
                    f"stdlib random.{func.attr}() is unseeded global state; "
                    "draw through RandomStream / derive_seed instead",
                )
            elif isinstance(func, ast.Name) and func.id in named:
                yield self.violation(
                    module,
                    node,
                    f"stdlib random.{named[func.id]}() is unseeded global "
                    "state; draw through RandomStream / derive_seed instead",
                )


@register
class NumpyGlobalRandomRule(Rule):
    id = "determinism-np-random"
    family = "determinism"
    summary = "np.random.<fn>() draws from the legacy global generator"

    def check(self, module: SourceModule, config: Config) -> Iterable[Violation]:
        if not _in_scope(module, config):
            return
        aliases = import_aliases(module.tree, "numpy")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or "." not in name:
                continue
            base, *rest = name.split(".")
            if base in aliases and rest[:1] == ["random"] and len(rest) == 2:
                if rest[1] not in _SEEDED_CONSTRUCTORS:
                    yield self.violation(
                        module,
                        node,
                        f"{name}() draws from numpy's global generator; use "
                        "a seeded default_rng(...) / RandomStream instead",
                    )


@register
class UnseededRngRule(Rule):
    id = "determinism-unseeded-rng"
    family = "determinism"
    summary = "default_rng() without a seed gives OS-entropy streams"

    def check(self, module: SourceModule, config: Config) -> Iterable[Violation]:
        if not _in_scope(module, config):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] != "default_rng":
                continue
            unseeded = not node.args and not node.keywords
            if not unseeded and node.args:
                first = node.args[0]
                unseeded = isinstance(first, ast.Constant) and first.value is None
            if unseeded:
                yield self.violation(
                    module,
                    node,
                    "default_rng() with no seed draws OS entropy; every "
                    "generator must derive from an explicit seed",
                )


@register
class WallClockRule(Rule):
    id = "determinism-wallclock"
    family = "determinism"
    summary = "wall-clock / OS-entropy reads in a deterministic path"

    def check(self, module: SourceModule, config: Config) -> Iterable[Violation]:
        if not _in_scope(module, config):
            return
        sources: set[str] = set()
        for mod, attr in _WALLCLOCK:
            for alias in import_aliases(module.tree, mod):
                sources.add(f"{alias}.{attr}")
            named = from_imports(module.tree, mod)
            for local, original in named.items():
                if original == attr:
                    sources.add(local)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in sources:
                yield self.violation(
                    module,
                    node,
                    f"{name}() reads wall-clock/OS entropy; results must "
                    "depend only on seeds and inputs (time.monotonic / "
                    "perf_counter are fine for cost models)",
                )


def _is_setlike(node: ast.AST, local_sets: set[str]) -> bool:
    """Whether ``node`` syntactically denotes a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    return False


@register
class SetOrderRule(Rule):
    id = "determinism-set-order"
    family = "determinism"
    summary = "set iteration order feeds an ordering-sensitive consumer"

    def check(self, module: SourceModule, config: Config) -> Iterable[Violation]:
        if not _in_scope(module, config):
            return
        # Names assigned from a set-like expression (flow-insensitive: one
        # assignment anywhere marks the name — conservative but cheap).
        local_sets: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and _is_setlike(node.value, set()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_sets.add(target.id)
        for node in ast.walk(module.tree):
            site: ast.AST | None = None
            message = ""
            if isinstance(node, ast.For) and _is_setlike(node.iter, local_sets):
                site, message = node.iter, "a for loop iterates a set directly"
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if _is_setlike(generator.iter, local_sets):
                        site = generator.iter
                        message = "a comprehension iterates a set directly"
                        break
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name in _ORDERING_CONSUMERS
                    and node.args
                    and _is_setlike(node.args[0], local_sets)
                ):
                    # list(set(...)) wrapped in sorted(...) is the sanctioned
                    # normalisation — check the consumer's consumer.
                    parent = module.parent(node)
                    if not (
                        isinstance(parent, ast.Call)
                        and dotted_name(parent.func) == "sorted"
                    ):
                        site = node.args[0]
                        message = f"{name}() materialises a set's hash order"
                elif name is not None and name.split(".")[-1] == "derive_seed":
                    for arg in node.args:
                        if isinstance(arg, ast.Starred):
                            arg = arg.value
                        if _is_setlike(arg, local_sets) or (
                            isinstance(arg, ast.Call)
                            and isinstance(arg.func, ast.Attribute)
                            and arg.func.attr == "keys"
                        ):
                            site = arg
                            message = (
                                "derive_seed() must not be keyed by "
                                "set/dict-keys iteration order"
                            )
                            break
            if site is None:
                continue
            parent = module.parent(site)
            if isinstance(parent, ast.Call) and dotted_name(parent.func) == "sorted":
                continue
            yield self.violation(
                module,
                site,
                f"{message}; wrap it in sorted(...) so the order is "
                "value-defined, not hash-defined",
            )


@register
class IdComparisonRule(Rule):
    id = "determinism-id-comparison"
    family = "determinism"
    summary = "comparisons or sort keys built from id() are address order"

    def _is_id_call(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def check(self, module: SourceModule, config: Config) -> Iterable[Violation]:
        if not _in_scope(module, config):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                ordering = any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                    for op in node.ops
                )
                if any(self._is_id_call(operand) for operand in operands) and (
                    ordering
                    or sum(self._is_id_call(o) for o in operands) > 1
                ):
                    yield self.violation(
                        module,
                        node,
                        "comparing id() values orders objects by memory "
                        "address, which changes run to run",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                tail = name.split(".")[-1] if name else ""
                if tail in {"sort", "sorted", "min", "max"}:
                    for keyword in node.keywords:
                        if keyword.arg == "key" and (
                            (
                                isinstance(keyword.value, ast.Name)
                                and keyword.value.id == "id"
                            )
                            or (
                                isinstance(keyword.value, ast.Lambda)
                                and self._is_id_call(keyword.value.body)
                            )
                        ):
                            yield self.violation(
                                module,
                                node,
                                f"{tail}(key=id) orders objects by memory "
                                "address, which changes run to run",
                            )


#: Where every score must be one fixed-order float expression.
_FLOAT_REDUCTION_PATHS = ("repro/core",)

#: NumPy functions that reduce floats in an unfixed order.
_NUMPY_REDUCTIONS = {"matmul", "dot", "einsum", "sum", "mean"}

#: Array methods that do (whatever the array).
_REDUCTION_METHODS = {"sum", "mean", "dot"}


@register
class FloatReductionRule(Rule):
    id = "determinism-float-reduction"
    family = "determinism"
    summary = "float reduction with no fixed summation order in the scheduling kernel"

    def check(self, module: SourceModule, config: Config) -> Iterable[Violation]:
        if not module.in_scope(_FLOAT_REDUCTION_PATHS):
            return
        numpy = import_aliases(module.tree, "numpy")
        math = import_aliases(module.tree, "math")
        named = {"sum"}
        named.update(
            local
            for local, original in from_imports(module.tree, "numpy").items()
            if original in _NUMPY_REDUCTIONS
        )
        named.update(
            local
            for local, original in from_imports(module.tree, "math").items()
            if original == "fsum"
        )
        for node in ast.walk(module.tree):
            site = None
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                if isinstance(node.op, ast.MatMult):
                    site = "@"
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in named:
                    site = f"{node.func.id}()"
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base, attr = dotted_name(node.func.value), node.func.attr
                if (
                    attr in _REDUCTION_METHODS
                    or (base in numpy and attr in _NUMPY_REDUCTIONS)
                    or (base in math and attr == "fsum")
                ):
                    site = f"{base or ''}.{attr}()"
            if site is not None:
                yield self.violation(
                    module,
                    node,
                    f"{site} reduces floats in an order that is not fixed "
                    "(pairwise, BLAS or compensated); sum left to right in a "
                    "loop so every engine and Python computes the same bits",
                )
