"""DT pack — determinism hazards.

The simulator's whole value rests on bit-identical replay: golden-trace
digests (PR 2), serial-vs-parallel equality (PR 1) and zero-intensity
fault transparency (PR 4) all assume that a run is a pure function of
its seeds.  These rules forbid the ambient inputs (wall clock, entropy)
and the numeric hazards (floats in the integer-nanosecond time domain,
unordered set iteration) that silently break that assumption.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint.context import ProjectContext
from repro.analysis.lint.diagnostics import Severity
from repro.analysis.lint.rules import ParsedModule, Rule
from repro.analysis.lint.astutil import (
    annotation_is_set,
    import_aliases,
    is_float_tainted,
    is_set_expr,
    resolve_dotted,
    target_names,
)

#: Wall-clock reads (and wall-clock sleeping): the simulation must see
#: only the virtual clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "time.localtime",
        "time.gmtime",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Ambient entropy: process-unique or OS-random values.
ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

#: Dotted prefixes that are entropy wholesale.
ENTROPY_PREFIXES = ("secrets.",)

#: Seedable RNG constructors: deterministic *only* when given a seed.
SEEDABLE_RNGS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    }
)

#: Integer-nanosecond sinks by *constructor* name: argument positions and
#: keywords that carry virtual time and must stay integral.
TIME_SINK_CTORS: dict[str, tuple[tuple[int, ...], tuple[str, ...]]] = {
    "Compute": ((0,), ("duration",)),
    "Syscall": ((1, 3), ("cost", "return_cost")),
    "SleepUntil": ((0,), ("wake_at",)),
    "SleepFor": ((0,), ("duration",)),
    "Segment": ((1, 4), ("remaining", "entry_time")),
}

#: Integer-nanosecond sinks by *method* name (attribute calls).
TIME_SINK_METHODS: dict[str, tuple[tuple[int, ...], tuple[str, ...]]] = {
    "run": ((0,), ("until",)),
    "at": ((0,), ("when",)),
    "every": ((0,), ("period", "start")),
    "push": ((0,), ("time",)),
    "spawn": ((), ("at",)),
    "run_until_exit": ((1,), ("hard_limit",)),
    "refill": ((1, 4), ("remaining", "entry_time")),
}

#: Integer-nanosecond sinks by *stored attribute*: the kernel refills a
#: process's segment in place, so a store (``seg.remaining = ...``,
#: ``+=``) carries virtual time exactly as a constructor argument does.
TIME_SINK_ATTRS = frozenset({"remaining", "entry_time", "wake_at"})


def _check_wall_clock(module: ParsedModule, ctx: ProjectContext) -> Iterator:
    aliases = import_aliases(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = resolve_dotted(node.func, aliases)
        if dotted in WALL_CLOCK_CALLS:
            yield DT001.diagnostic(
                module,
                node,
                f"wall-clock call `{dotted}` in simulation code; the virtual "
                f"clock (`kernel.clock`, integer ns) is the only time source",
            )


def _check_entropy(module: ParsedModule, ctx: ProjectContext) -> Iterator:
    aliases = import_aliases(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = resolve_dotted(node.func, aliases)
        if dotted is None:
            continue
        if dotted in ENTROPY_CALLS or dotted.startswith(ENTROPY_PREFIXES):
            yield DT002.diagnostic(
                module,
                node,
                f"ambient entropy `{dotted}`; every random stream must come "
                f"from an explicitly seeded generator",
            )
        elif dotted in SEEDABLE_RNGS and not node.args and not node.keywords:
            yield DT002.diagnostic(
                module,
                node,
                f"`{dotted}()` without a seed draws OS entropy; pass an "
                f"explicit seed",
            )
        elif dotted.startswith("random.") and dotted not in SEEDABLE_RNGS:
            yield DT002.diagnostic(
                module,
                node,
                f"module-level `{dotted}` uses the shared global RNG; use a "
                f"dedicated seeded `random.Random(seed)` instance",
            )
        elif dotted.startswith("numpy.random.") and dotted not in SEEDABLE_RNGS:
            yield DT002.diagnostic(
                module,
                node,
                f"global-state `{dotted}`; use a seeded "
                f"`numpy.random.default_rng(seed)` generator",
            )


def _sink_spec(node: ast.Call) -> tuple[tuple[int, ...], tuple[str, ...]] | None:
    fn = node.func
    if isinstance(fn, ast.Name):
        return TIME_SINK_CTORS.get(fn.id)
    if isinstance(fn, ast.Attribute):
        return TIME_SINK_METHODS.get(fn.attr)
    return None


def _sink_store(node: ast.AST) -> tuple[str, ast.expr] | None:
    """``(attribute, value)`` when ``node`` stores into a sink attribute."""
    if isinstance(node, ast.Assign):
        targets: list[ast.expr] = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return None
    for target in targets:
        if isinstance(target, ast.Attribute) and target.attr in TIME_SINK_ATTRS:
            return (target.attr, node.value) if node.value is not None else None
    return None


def _check_float_time(module: ParsedModule, ctx: ProjectContext) -> Iterator:
    for node in ast.walk(module.tree):
        store = _sink_store(node)
        if store is not None and is_float_tainted(store[1]):
            yield DT003.diagnostic(
                module,
                store[1],
                f"float-tainted expression stored into the integer-ns field "
                f"`.{store[0]}`; wrap it in `int(...)`/`round(...)` or use "
                f"`repro.sim.time.from_seconds`",
            )
        if not isinstance(node, ast.Call):
            continue
        spec = _sink_spec(node)
        if spec is None:
            continue
        positions, keywords = spec
        tainted: list[ast.expr] = [
            node.args[i]
            for i in positions
            if i < len(node.args) and is_float_tainted(node.args[i])
        ]
        tainted.extend(
            kw.value
            for kw in node.keywords
            if kw.arg in keywords and is_float_tainted(kw.value)
        )
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else fn.attr  # type: ignore[union-attr]
        for arg in tainted:
            yield DT003.diagnostic(
                module,
                arg,
                f"float-tainted expression flows into the integer-ns clock "
                f"API `{name}(...)`; wrap it in `int(...)`/`round(...)` or "
                f"use `repro.sim.time.from_seconds`",
            )


def _check_float_eq(module: ParsedModule, ctx: ProjectContext) -> Iterator:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        sides = [node.left, *node.comparators]
        if any(is_float_tainted(side) for side in sides):
            yield DT004.diagnostic(
                module,
                node,
                "`==`/`!=` against a float in scheduler code; compare "
                "integer nanoseconds, or use an explicit tolerance",
            )


class _SetIterVisitor(ast.NodeVisitor):
    """Find iteration over unordered sets inside one module."""

    #: Iteration-order-preserving wrappers whose first argument is the
    #: iterated collection.
    ORDER_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})

    def __init__(self, module: ParsedModule, ctx: ProjectContext) -> None:
        """Seed per-module state from the project-wide context."""
        self.module = module
        self.diagnostics: list = []
        self.set_attrs: set[str] = set(ctx.set_attrs)
        self.set_vars_stack: list[set[str]] = [set()]
        self._collect_set_attrs(module.tree)

    def _collect_set_attrs(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
                and annotation_is_set(node.annotation)
            ):
                self.set_attrs.add(node.target.attr)

    # -- scope handling -------------------------------------------------
    def _function_scope(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        local_sets: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and is_set_expr(
                sub.value, local_sets, self.set_attrs
            ):
                for target in sub.targets:
                    local_sets.update(target_names(target))
            elif (
                isinstance(sub, ast.AnnAssign)
                and annotation_is_set(sub.annotation)
                and isinstance(sub.target, ast.Name)
            ):
                local_sets.add(sub.target.id)
        self.set_vars_stack.append(local_sets)
        self.generic_visit(node)
        self.set_vars_stack.pop()

    visit_FunctionDef = _function_scope
    visit_AsyncFunctionDef = _function_scope

    # -- iteration sites ------------------------------------------------
    def _iterated_set(self, iter_expr: ast.expr) -> ast.expr | None:
        set_vars = self.set_vars_stack[-1]
        if is_set_expr(iter_expr, set_vars, self.set_attrs):
            return iter_expr
        if isinstance(iter_expr, ast.Call):
            fn = iter_expr.func
            if (
                isinstance(fn, ast.Name)
                and fn.id in self.ORDER_WRAPPERS
                and iter_expr.args
                and is_set_expr(iter_expr.args[0], set_vars, self.set_attrs)
            ):
                return iter_expr.args[0]
        return None

    def _flag(self, found: ast.expr) -> None:
        self.diagnostics.append(
            DT005.diagnostic(
                self.module,
                found,
                "iteration over an unordered `set`; wrap it in `sorted(...)` "
                "so downstream scheduling/event-queue decisions cannot "
                "depend on hash ordering",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        """Flag ``for ... in <set>`` loops."""
        found = self._iterated_set(node.iter)
        if found is not None:
            self._flag(found)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.ListComp | ast.GeneratorExp | ast.DictComp) -> None:
        for gen in node.generators:
            found = self._iterated_set(gen.iter)
            if found is not None:
                self._flag(found)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_SetComp(self, node: ast.SetComp) -> None:
        """Set-from-set comprehensions stay unflagged (order-free)."""
        # building a *new* set from a set is order-free; only flag when
        # the element expression is order-sensitive — out of static
        # reach, so stay silent here.
        self.generic_visit(node)


def _check_set_iteration(module: ParsedModule, ctx: ProjectContext) -> Iterator:
    visitor = _SetIterVisitor(module, ctx)
    visitor.visit(module.tree)
    yield from visitor.diagnostics


#: Dict-view accessors whose iteration order is insertion history.
DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})


def _dict_view_call(expr: ast.expr) -> ast.Call | None:
    """``d.keys()`` / ``d.values()`` / ``d.items()``, else ``None``."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in DICT_VIEW_METHODS
        and not expr.args
        and not expr.keywords
    ):
        return expr
    return None


def _iterated_dict_view(iter_expr: ast.expr) -> ast.Call | None:
    """The dict view iterated by ``iter_expr``, seen through order wrappers."""
    found = _dict_view_call(iter_expr)
    if found is not None:
        return found
    if isinstance(iter_expr, ast.Call):
        fn = iter_expr.func
        if (
            isinstance(fn, ast.Name)
            and fn.id in _SetIterVisitor.ORDER_WRAPPERS
            and iter_expr.args
        ):
            return _dict_view_call(iter_expr.args[0])
    return None


def _check_dict_view_iteration(module: ParsedModule, ctx: ProjectContext) -> Iterator:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.For):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
            iters = [gen.iter for gen in node.generators]
        else:
            continue
        for iter_expr in iters:
            found = _iterated_dict_view(iter_expr)
            if found is not None:
                yield DT006.diagnostic(
                    module,
                    found,
                    "dict-view iteration in digest-construction code follows "
                    "insertion history, which differs between a stepped and a "
                    "fast-forwarded run; wrap it in `sorted(...)` so the "
                    "digest is canonical",
                )


DT001 = Rule(
    id="DT001",
    pack="DT",
    title="wall-clock read in simulation code",
    severity=Severity.ERROR,
    rationale=(
        "The simulation is a pure function of its seeds; reading the host "
        "clock makes replay (and the golden-trace digests) host-dependent."
    ),
    check=_check_wall_clock,
)

DT002 = Rule(
    id="DT002",
    pack="DT",
    title="ambient entropy / unseeded randomness",
    severity=Severity.ERROR,
    rationale=(
        "Global or OS-seeded RNGs differ per process and per run; every "
        "stochastic choice must flow from an explicitly seeded generator."
    ),
    check=_check_entropy,
)

DT003 = Rule(
    id="DT003",
    pack="DT",
    title="float arithmetic flowing into the integer-ns clock API",
    severity=Severity.WARNING,
    rationale=(
        "All virtual times are integer nanoseconds; a float reaching the "
        "calendar drifts across platforms and breaks exact event ordering."
    ),
    check=_check_float_time,
)

DT004 = Rule(
    id="DT004",
    pack="DT",
    title="float equality in scheduler code",
    severity=Severity.ERROR,
    rationale=(
        "Budget and deadline comparisons decide preemptions; exact float "
        "equality is representation-dependent and silently flips decisions."
    ),
    check=_check_float_eq,
)

DT005 = Rule(
    id="DT005",
    pack="DT",
    title="iteration over an unordered set",
    severity=Severity.WARNING,
    rationale=(
        "Set iteration order follows hashing, which varies with insertion "
        "history; feeding it into scheduling decisions or the event queue "
        "makes runs irreproducible."
    ),
    check=_check_set_iteration,
)

DT006 = Rule(
    id="DT006",
    pack="DT",
    title="unsorted dict-view iteration in digest construction",
    severity=Severity.ERROR,
    rationale=(
        "A state digest must be a canonical function of the state, but "
        "dict iteration order is insertion history — two bit-identical "
        "simulator states reached along different paths would hash "
        "differently and break cycle detection."
    ),
    check=_check_dict_view_iteration,
)

RULES = (DT001, DT002, DT003, DT004, DT005, DT006)
