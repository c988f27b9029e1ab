"""Cross-file facts the rules need (the whole-project pre-pass).

The pre-pass extracts per-module :class:`~repro.analysis.lint.callgraph.ModuleFacts`
(purely syntactic — it never imports the scanned code, so linting stays
safe on broken or hostile sources) and combines them into a
:class:`~repro.analysis.lint.callgraph.ProjectGraph`: the project call
graph, transitive effect summaries, resolved pool-worker set and the
knob-registry key set.  The classic symbol tables ride on top:

- ``slots_classes`` — names of classes whose body assigns ``__slots__``
  (rule SC003 flags monkey-patching these);
- ``instruction_classes`` — names of classes that are (or extend) the
  simulator's instruction taxonomy (rule SC001 flags constructing one as
  a bare statement instead of ``yield``-ing it);
- ``set_attrs`` — attribute names annotated or initialised as
  ``set``/``frozenset`` anywhere in the project, so rule DT005 can flag
  ``for pid in server.members`` even when the class lives in another
  file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.lint.callgraph import ModuleFacts, ProjectGraph, combine_facts

#: The instruction classes of :mod:`repro.sim.instructions`; seeds the
#: instruction table so fixtures need not re-declare them.
INSTRUCTION_SEEDS = frozenset({"Compute", "Syscall", "Fire", "Label", "Instruction"})


@dataclass(frozen=True, eq=False)
class ProjectContext:
    """Symbol tables and graph shared by every rule of one lint run."""

    slots_classes: frozenset[str] = frozenset()
    instruction_classes: frozenset[str] = INSTRUCTION_SEEDS
    #: Attribute names known (project-wide) to hold ``set``/``frozenset``.
    set_attrs: frozenset[str] = frozenset()
    #: The resolved interprocedural view; ``None`` only for the bare
    #: default context (rule unit tests), in which case the OB/CC/KN
    #: packs report nothing.
    graph: ProjectGraph | None = field(default=None, repr=False)


def _instruction_closure(modules: list[ModuleFacts]) -> frozenset[str]:
    closure = set(INSTRUCTION_SEEDS)
    before = -1
    while before != len(closure):
        before = len(closure)
        for mod in modules:
            for cls in mod.classes:
                if set(cls.bases) & closure:
                    closure.add(cls.name)
    return frozenset(closure)


def build_context_from_facts(modules: list[ModuleFacts]) -> ProjectContext:
    """Combine per-module facts into a context."""
    slots: set[str] = set()
    set_attrs: set[str] = set()
    for mod in modules:
        set_attrs.update(mod.set_attrs)
        slots.update(cls.name for cls in mod.classes if cls.has_slots)
    return ProjectContext(
        slots_classes=frozenset(slots),
        instruction_classes=_instruction_closure(modules),
        set_attrs=frozenset(set_attrs),
        graph=combine_facts(modules),
    )

