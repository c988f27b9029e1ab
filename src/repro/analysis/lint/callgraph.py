"""Whole-project call graph and per-function effect summaries.

This is the interprocedural layer under the OB/CC/KN rule packs.
Extraction (:func:`extract_module_facts`) is purely syntactic and
per-module — it never imports the scanned code.  Combination
(:func:`combine_facts`) then resolves call references into a
project-wide graph and propagates *effect summaries* transitively
through it.

An effect summary records, per function, whether its call closure

- **writes sim state** — writes an attribute of a shared object (or
  mutates one in place via ``.append``/``.update``/...) outside the
  telemetry namespace; ``self.x = ...`` inside ``__init__`` is exempt
  (initialising a fresh object is not mutating existing state), as are
  writes to ``_obs*``-prefixed attributes (the telemetry hub's reserved
  namespace) and any write performed inside ``repro/obs/`` itself;
- **writes global state** — rebinds or mutates a module-level name,
  including a store through its attribute or subscript chain
  (``STATE.x = v``, ``STATE.items[k].x = v``);
- **reads a module-level RNG** — loads a module global bound to an RNG
  instance, directly or through an import.

Propagation is a monotone fixed point over the call graph: a witness
*chain* (caller → ... → writer) is recorded once per function and never
replaced, so cycles terminate and diagnostics can show the exact path.
Unresolvable calls (builtins, dynamic callables, very common container
method names) contribute nothing — the analysis under-approximates
rather than drowning the packs in false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.lint.astutil import (
    annotation_is_set,
    import_aliases,
    iter_child_nodes_compat,
    resolve_dotted,
)

#: In-place mutator methods: calling one on an attribute or a module
#: global is a write to that object.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "rotate",
        "sort",
        "reverse",
    }
)

#: Method names too common to bind by name across the project: an
#: attribute call ``x.get(...)`` could be any dict, so edges through
#: these names would connect everything to everything.
METHOD_EDGE_STOPLIST = frozenset(
    {
        "get",
        "keys",
        "values",
        "items",
        "append",
        "add",
        "update",
        "pop",
        "copy",
        "sort",
        "split",
        "join",
        "strip",
        "format",
        "encode",
        "decode",
        "read",
        "write",
        "close",
        "open",
    }
)

#: RNG constructors whose *instances* must not be shared across pool
#: chunk boundaries (seeded or not: chunk-width changes consumption).
RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
    }
)


@dataclass(frozen=True)
class CallRef:
    """One unresolved call site recorded during extraction.

    ``kind`` is ``"name"`` (a bare-name call, resolved against nested
    defs, module functions, imports and classes), ``"self"`` (a
    ``self.m()``/``cls.m()`` call, resolved through the owner class's
    project MRO) or ``"method"`` (``obj.m()``, resolved by method name
    project-wide, stoplist permitting).
    """

    kind: str
    name: str
    owner: str = ""


@dataclass
class FunctionFacts:
    """Per-function base facts extracted from one module."""

    qualname: str
    #: attribute names written through a non-``self`` receiver
    writes_attrs: list[str] = field(default_factory=list)
    #: attribute names written through a literal ``self`` receiver
    writes_self_attrs: list[str] = field(default_factory=list)
    #: non-local names this function rebinds/mutates (module-level
    #: candidates; qualified against ``module_globals`` at combine time)
    writes_names: list[str] = field(default_factory=list)
    #: non-local names read: ``("module", name)`` or ``("import", dotted)``
    loads: list[tuple[str, str]] = field(default_factory=list)
    calls: list[CallRef] = field(default_factory=list)


@dataclass
class ClassFacts:
    """Per-class facts: bases, methods, ``__slots__``."""

    name: str
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    has_slots: bool = False


@dataclass
class ModuleFacts:
    """Everything the project-wide combiner needs from one module."""

    path: str
    functions: list[FunctionFacts] = field(default_factory=list)
    classes: list[ClassFacts] = field(default_factory=list)
    #: module-level assigned names (the CC globals universe)
    module_globals: list[str] = field(default_factory=list)
    #: module-level names bound to an RNG instance
    module_rngs: list[str] = field(default_factory=list)
    #: ``{local name: canonical dotted}`` import table
    aliases: dict[str, str] = field(default_factory=dict)
    #: set-typed attribute names (DT005's cross-file table)
    set_attrs: list[str] = field(default_factory=list)
    #: worker callables shipped to a pool, as unresolved refs
    workers: list[CallRef] = field(default_factory=list)
    #: string keys of a ``CONTROLLER_KNOBS = {...}`` literal, if defined
    knob_keys: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters plus every name the function itself binds."""
    args = fn.args
    names = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            names.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if sub is not fn:
                names.add(sub.name)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            names.add(sub.name)
    return names


def classify_call(
    node: ast.Call,
    *,
    class_name: str = "",
) -> CallRef | None:
    """Map one call expression to a :class:`CallRef` (or ``None``).

    ``class_name`` is the enclosing class when the call appears inside a
    method body, so ``self.m()`` can be routed through the owner's MRO.
    """
    fn = node.func
    if isinstance(fn, ast.Name):
        return CallRef(kind="name", name=fn.id)
    if isinstance(fn, ast.Attribute):
        value = fn.value
        if isinstance(value, ast.Name) and value.id in {"self", "cls"} and class_name:
            return CallRef(kind="self", name=fn.attr, owner=class_name)
        return CallRef(kind="method", name=fn.attr)
    return None


class _ModuleExtractor:
    """Single-pass fact extraction over one parsed module."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.facts = ModuleFacts(path=path)
        self.facts.aliases = import_aliases(tree)

    def run(self) -> ModuleFacts:
        """Extract and return the module's facts."""
        self._module_level()
        self._collect_set_attrs()
        for node in self.tree.body:
            self._visit_scope(node, class_stack=[], func_stack=[])
        return self.facts

    # -- module level ----------------------------------------------------
    def _module_level(self) -> None:
        aliases = self.facts.aliases
        for node in self.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                self.facts.module_globals.append(target.id)
                if value is None:
                    continue
                if isinstance(value, ast.Call):
                    dotted = resolve_dotted(value.func, aliases)
                    if dotted is not None and (
                        dotted in RNG_CONSTRUCTORS
                        or dotted.startswith(("random.", "numpy.random."))
                    ):
                        self.facts.module_rngs.append(target.id)
                if target.id == "CONTROLLER_KNOBS" and isinstance(value, ast.Dict):
                    for key in value.keys:
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            self.facts.knob_keys.append(key.value)

    def _collect_set_attrs(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.AnnAssign) and annotation_is_set(node.annotation):
                if isinstance(node.target, ast.Attribute):
                    self.facts.set_attrs.append(node.target.attr)
                elif isinstance(node.target, ast.Name) and _inside_class_body(
                    self.tree, node
                ):
                    # handled per-class below; collected here for the flat table
                    self.facts.set_attrs.append(node.target.id)

    # -- scopes ----------------------------------------------------------
    def _visit_scope(
        self, node: ast.stmt, *, class_stack: list[str], func_stack: list[str]
    ) -> None:
        if isinstance(node, ast.ClassDef):
            self._class_facts(node)
            for stmt in node.body:
                self._visit_scope(
                    stmt, class_stack=[*class_stack, node.name], func_stack=func_stack
                )
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = ".".join([*class_stack, *func_stack, node.name])
            self._function_facts(node, qual, class_stack[-1] if class_stack else "")
            for stmt in node.body:
                self._visit_scope(
                    stmt,
                    class_stack=class_stack,
                    func_stack=[*func_stack, node.name],
                )
            return
        # other statements can still *contain* defs (if/try bodies, with
        # blocks, except* handlers); recurse through the compat iterator
        for child in iter_child_nodes_compat(node):
            if isinstance(child, ast.stmt):
                self._visit_scope(child, class_stack=class_stack, func_stack=func_stack)

    def _class_facts(self, node: ast.ClassDef) -> None:
        facts = ClassFacts(name=node.name)
        for base in node.bases:
            if isinstance(base, ast.Name):
                facts.bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                facts.bases.append(base.attr)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                facts.methods.append(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                    facts.has_slots = True
        self.facts.classes.append(facts)

    # -- functions -------------------------------------------------------
    def _function_facts(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, qual: str, class_name: str
    ) -> None:
        facts = FunctionFacts(qualname=qual)
        locals_ = _local_names(fn)
        declared_global: set[str] = set()
        aliases = self.facts.aliases

        def note_attr_write(target: ast.Attribute) -> None:
            base = target.value
            if isinstance(base, ast.Name) and base.id in {"self", "cls"}:
                facts.writes_self_attrs.append(target.attr)
            else:
                facts.writes_attrs.append(target.attr)

        def note_store(target: ast.expr) -> None:
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    note_store(elt)
                return
            if isinstance(target, ast.Attribute):
                note_attr_write(target)
            elif isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute):
                note_attr_write(target.value)
            # a store anywhere down a non-local name's attribute/subscript
            # chain (``STATE.x = v``, ``STATE.items[k].x = v``) writes that name
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if root is not target and isinstance(root, ast.Name) and root.id not in locals_:
                facts.writes_names.append(root.id)

        for sub in _walk_own_body(fn):
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
                facts.writes_names.extend(sub.names)
            elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    sub.targets
                    if isinstance(sub, (ast.Assign, ast.Delete))
                    else [sub.target]
                )
                for target in targets:
                    note_store(target)
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        facts.writes_names.append(target.id)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in locals_:
                    continue
                dotted = aliases.get(sub.id)
                if dotted is not None:
                    facts.loads.append(("import", dotted))
                else:
                    facts.loads.append(("module", sub.id))
            elif isinstance(sub, ast.Call):
                self._note_call(sub, facts, locals_, class_name)
        facts.loads = sorted(set(facts.loads))
        facts.writes_attrs = sorted(set(facts.writes_attrs))
        facts.writes_self_attrs = sorted(set(facts.writes_self_attrs))
        facts.writes_names = sorted(set(facts.writes_names))
        self.facts.functions.append(facts)

    def _note_call(
        self,
        node: ast.Call,
        facts: FunctionFacts,
        locals_: set[str],
        class_name: str,
    ) -> None:
        fn = node.func
        if isinstance(fn, ast.Name):
            if fn.id == "map_fn" and node.args:
                self._note_worker(node.args[0], class_name)
        elif isinstance(fn, ast.Attribute):
            if fn.attr in MUTATOR_METHODS:
                receiver = fn.value
                if isinstance(receiver, ast.Attribute):
                    base = receiver.value
                    if isinstance(base, ast.Name) and base.id in {"self", "cls"}:
                        facts.writes_self_attrs.append(receiver.attr)
                    else:
                        facts.writes_attrs.append(receiver.attr)
                elif isinstance(receiver, ast.Name) and receiver.id not in locals_:
                    facts.writes_names.append(receiver.id)
            if fn.attr == "submit" and node.args:
                self._note_worker(node.args[0], class_name)
            elif fn.attr in {"map", "imap", "imap_unordered", "starmap"} and node.args:
                recv = fn.value
                recv_name = recv.id if isinstance(recv, ast.Name) else (
                    recv.attr if isinstance(recv, ast.Attribute) else ""
                )
                if "pool" in recv_name.lower() or "executor" in recv_name.lower():
                    self._note_worker(node.args[0], class_name)
        for kw in node.keywords:
            if kw.arg in {"map_fn", "initializer"}:
                self._note_worker(kw.value, class_name)
        ref = classify_call(node, class_name=class_name)
        if ref is not None:
            facts.calls.append(ref)

    def _note_worker(self, node: ast.expr, class_name: str) -> None:
        ref = (
            classify_call(ast.Call(func=node, args=[], keywords=[]), class_name=class_name)
            if isinstance(node, (ast.Name, ast.Attribute))
            else None
        )
        if ref is not None:
            self.facts.workers.append(ref)


def _walk_own_body(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.AST]:
    """Every node in ``fn``'s own body, not descending into nested defs.

    Nested functions are extracted separately (they carry their own
    facts), and lambda bodies hold no statements; both are pruned.
    ``try``/``except*`` handlers and PEP 695 scopes traverse through
    :func:`~repro.analysis.lint.astutil.iter_child_nodes_compat`.
    """
    out: list[ast.AST] = []
    stack: list[ast.AST] = [child for child in fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        out.append(node)
        stack.extend(iter_child_nodes_compat(node))
    return out


def _inside_class_body(tree: ast.Module, target: ast.AST) -> bool:
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(stmt is target for stmt in cls.body):
            return True
    return False


def extract_module_facts(path: str, tree: ast.Module) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from one parsed module."""
    return _ModuleExtractor(path, tree).run()


# ---------------------------------------------------------------------------
# combination: call graph + effect propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectSummary:
    """Transitive effects of one function.

    Each field is a witness call path (function ids, ending in a
    human-readable ``attr:x`` / ``global:m::g`` / ``rng:m::r`` token);
    ``None`` means the effect is unreachable.
    """

    sim_write_chain: tuple[str, ...] | None = None
    global_write_chain: tuple[str, ...] | None = None
    rng_read_chain: tuple[str, ...] | None = None


def _module_dotted(path: str) -> str:
    """Dotted module name of a lint path (``repro/sim/kernel.py`` form)."""
    posix = path.replace("\\", "/")
    if "repro/" in posix:
        posix = "repro/" + posix.rsplit("repro/", 1)[1]
    if posix.endswith("/__init__.py"):
        posix = posix[: -len("/__init__.py")]
    elif posix.endswith(".py"):
        posix = posix[:-3]
    return posix.strip("/").replace("/", ".")


class ProjectGraph:
    """The combined, resolved project view rules query.

    Built once per lint run by :func:`combine_facts`; exposes the call
    graph (``edges``), the effect table (``effects``), the resolved
    worker set (``workers``) and the knob-registry key set
    (``knob_keys``).
    """

    def __init__(self, modules: list[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {m.path: m for m in modules}
        #: function id -> (facts, module)
        self.functions: dict[str, tuple[FunctionFacts, ModuleFacts]] = {}
        #: dotted module name -> path
        self._dotted_to_path: dict[str, str] = {}
        #: method name -> sorted ids defining it (inside a class)
        self._methods: dict[str, list[str]] = {}
        #: class name -> (ClassFacts, module path); first definition wins
        self.classes: dict[str, tuple[ClassFacts, str]] = {}
        self.knob_keys: frozenset[str] = frozenset()
        self._index()
        self.edges: dict[str, tuple[str, ...]] = self._resolve_edges()
        self.effects: dict[str, EffectSummary] = self._propagate()
        self.workers: frozenset[str] = self._resolve_workers()

    # -- indexing --------------------------------------------------------
    def _index(self) -> None:
        knob_keys: set[str] = set()
        for path in sorted(self.modules):
            mod = self.modules[path]
            self._dotted_to_path.setdefault(_module_dotted(path), path)
            knob_keys.update(mod.knob_keys)
            for fn in mod.functions:
                fid = f"{path}::{fn.qualname}"
                self.functions[fid] = (fn, mod)
                if "." in fn.qualname:
                    owner = fn.qualname.rsplit(".", 1)[0]
                    if any(c.name == owner.split(".")[-1] for c in mod.classes):
                        name = fn.qualname.rsplit(".", 1)[1]
                        self._methods.setdefault(name, []).append(fid)
            for cls in mod.classes:
                self.classes.setdefault(cls.name, (cls, path))
        self.knob_keys = frozenset(knob_keys)

    def function_id(self, path: str, qualname: str) -> str | None:
        """The id of ``qualname`` in module ``path``, if extracted."""
        fid = f"{path}::{qualname}"
        return fid if fid in self.functions else None

    # -- call resolution -------------------------------------------------
    def resolve_ref(self, ref: CallRef, path: str, caller_qual: str = "") -> tuple[str, ...]:
        """Resolve one :class:`CallRef` from module ``path`` to target ids."""
        mod = self.modules.get(path)
        if mod is None:
            return ()
        if ref.kind == "name":
            return self._resolve_name(ref.name, mod, caller_qual)
        if ref.kind == "self":
            target = self._resolve_method_in_mro(ref.owner, ref.name)
            return (target,) if target else ()
        if ref.kind == "method":
            if ref.name in METHOD_EDGE_STOPLIST:
                return ()
            return tuple(self._methods.get(ref.name, ()))
        return ()

    def _resolve_name(
        self, name: str, mod: ModuleFacts, caller_qual: str
    ) -> tuple[str, ...]:
        # nested def of the caller
        if caller_qual:
            nested = self.function_id(mod.path, f"{caller_qual}.{name}")
            if nested:
                return (nested,)
        # module-level function
        direct = self.function_id(mod.path, name)
        if direct:
            return (direct,)
        # imported function:  from repro.x import f  ->  repro.x.f
        dotted = mod.aliases.get(name)
        if dotted and "." in dotted:
            module_dotted, attr = dotted.rsplit(".", 1)
            target_path = self._dotted_to_path.get(module_dotted)
            if target_path:
                imported = self.function_id(target_path, attr)
                if imported:
                    return (imported,)
                ctor = self._resolve_method_in_mro(attr, "__init__")
                if ctor:
                    return (ctor,)
        # constructor of a project class
        if name in self.classes:
            ctor = self._resolve_method_in_mro(name, "__init__")
            if ctor:
                return (ctor,)
        return ()

    def _resolve_method_in_mro(self, class_name: str, method: str) -> str | None:
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            entry = self.classes.get(current)
            if entry is None:
                continue
            cls, path = entry
            if method in cls.methods:
                return self.function_id(path, f"{cls.name}.{method}")
            queue.extend(cls.bases)
        return None

    def _resolve_edges(self) -> dict[str, tuple[str, ...]]:
        edges: dict[str, tuple[str, ...]] = {}
        for fid in sorted(self.functions):
            fn, mod = self.functions[fid]
            targets: list[str] = []
            for ref in fn.calls:
                targets.extend(self.resolve_ref(ref, mod.path, fn.qualname))
            edges[fid] = tuple(sorted(set(targets)))
        return edges

    # -- effect propagation ---------------------------------------------
    def _base_effects(self, fid: str) -> EffectSummary:
        fn, mod = self.functions[fid]
        in_obs = "repro/obs/" in mod.path or mod.path.startswith("repro/obs")
        simple = fn.qualname.rsplit(".", 1)[-1]
        sim_attrs = [a for a in fn.writes_attrs if not a.startswith("_obs")]
        if simple != "__init__":
            sim_attrs += [a for a in fn.writes_self_attrs if not a.startswith("_obs")]
        sim_chain: tuple[str, ...] | None = None
        if sim_attrs and not in_obs:
            sim_chain = (fid, f"attr:{sorted(sim_attrs)[0]}")
        global_names = sorted(
            n for n in fn.writes_names if n in set(mod.module_globals)
        )
        global_chain: tuple[str, ...] | None = None
        if global_names:
            global_chain = (fid, f"global:{mod.path}::{global_names[0]}")
        rng_chain: tuple[str, ...] | None = None
        rng_reads = sorted(self._rng_reads(fn, mod))
        if rng_reads:
            rng_chain = (fid, f"rng:{rng_reads[0]}")
        return EffectSummary(
            sim_write_chain=sim_chain,
            global_write_chain=global_chain,
            rng_read_chain=rng_chain,
        )

    def _rng_reads(self, fn: FunctionFacts, mod: ModuleFacts) -> list[str]:
        found: list[str] = []
        module_rngs = set(mod.module_rngs)
        for kind, name in fn.loads:
            if kind == "module" and name in module_rngs:
                found.append(f"{mod.path}::{name}")
            elif kind == "import" and "." in name:
                module_dotted, attr = name.rsplit(".", 1)
                target_path = self._dotted_to_path.get(module_dotted)
                if target_path and attr in set(self.modules[target_path].module_rngs):
                    found.append(f"{target_path}::{attr}")
        return found

    def _propagate(self) -> dict[str, EffectSummary]:
        effects = {fid: self._base_effects(fid) for fid in sorted(self.functions)}
        changed = True
        while changed:
            changed = False
            for fid in sorted(effects):
                current = effects[fid]
                sim = current.sim_write_chain
                glo = current.global_write_chain
                rng = current.rng_read_chain
                for callee in self.edges.get(fid, ()):
                    if callee == fid:
                        continue
                    ce = effects[callee]
                    if sim is None and ce.sim_write_chain is not None:
                        sim = (fid, *ce.sim_write_chain)
                    if glo is None and ce.global_write_chain is not None:
                        glo = (fid, *ce.global_write_chain)
                    if rng is None and ce.rng_read_chain is not None:
                        rng = (fid, *ce.rng_read_chain)
                updated = EffectSummary(
                    sim_write_chain=sim, global_write_chain=glo, rng_read_chain=rng
                )
                if updated != current:
                    effects[fid] = updated
                    changed = True
        return effects

    # -- workers ---------------------------------------------------------
    def _resolve_workers(self) -> frozenset[str]:
        found: set[str] = set()
        for path in sorted(self.modules):
            mod = self.modules[path]
            for ref in mod.workers:
                found.update(self.resolve_ref(ref, path))
        return frozenset(found)


def combine_facts(modules: list[ModuleFacts]) -> ProjectGraph:
    """Combine per-module facts into the resolved :class:`ProjectGraph`."""
    return ProjectGraph(modules)
