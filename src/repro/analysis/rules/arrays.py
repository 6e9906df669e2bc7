"""Array-discipline rule: no per-element Python loops over the flat columns.

The batched evaluation kernel (:mod:`repro.core.batch` driving
:mod:`repro.core._kernel`) gets its speed from treating link and
processor state as flat parallel columns manipulated by *bulk* primitives:
``bisect`` for positioning, point ``insert``/``del`` for bookings, slicing
for journal truncation, ``max`` for reductions.  A hand-rolled ``for`` loop
over one of those columns reintroduces exactly the per-element interpreter
overhead the kernel exists to remove — and, history shows, is how "just one
small scan" regressions land in hot paths.

ARR001 flags any ``for`` statement, comprehension, or
``enumerate``/``zip``/``reversed``/``iter``/``range(len(...))`` consumer
that walks a recognized column name inside the kernel files.  Deliberate
exceptions (a cold-path diagnostic, a differential-test helper) must carry
a ``# repro-lint: disable=ARR001`` justification on the reported line.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import LintContext, Rule, register

#: The files holding the array-native hot paths.  ``_kernel.py`` is the
#: extracted hot loop and ``batch.py`` the driving evaluator.
ARRAY_KERNEL_FILES = (
    "repro/core/_kernel.py",
    "repro/core/batch.py",
)

#: Names (locals or attributes) bound to flat column arrays in the kernel.
#: Kept in sync with ``ArrayLinkState`` / ``ArrayProcState`` / the evaluator's
#: per-position tables.
COLUMN_NAMES = frozenset(
    {
        "starts",
        "finishes",
        "journal_starts",
        "journal_finishes",
        "journal_index",
        "journal_proc",
        "journal_finish",
        "task_finish",
        "proc_finish",
        "exec_flat",
        "applied",
        "lmarks",
    }
)

#: Callables that turn a column into a per-element iteration stream.
_ITERATING_CALLS = {"enumerate", "reversed", "iter", "zip"}


def _column_name(node: ast.expr) -> str | None:
    """The column a (possibly attribute-qualified) expression names, if any."""
    if isinstance(node, ast.Name) and node.id in COLUMN_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in COLUMN_NAMES:
        return node.attr
    return None


def _iterated_column(node: ast.expr) -> str | None:
    """The column ``node`` walks per-element when used as an iterable."""
    direct = _column_name(node)
    if direct is not None:
        return direct
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return None
    fname = node.func.id
    if fname in _ITERATING_CALLS:
        for arg in node.args:
            col = _column_name(arg)
            if col is not None:
                return col
        return None
    if fname == "range":
        # range(len(col)) / range(start, len(col)): an index walk in disguise.
        for arg in node.args:
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "len"
                and arg.args
            ):
                col = _column_name(arg.args[0])
                if col is not None:
                    return col
    return None


@register
class ColumnLoopRule(Rule):
    """Per-element loops over the batch kernel's columns defeat its design."""

    rule_id = "ARR001"
    name = "column-loop"
    summary = "per-element Python loop over a flat column array in the batch kernel"
    rationale = (
        "The array backend's contract is bulk column manipulation (bisect, "
        "point inserts, slicing, max); an element-wise Python loop over a "
        "column reintroduces the per-slot interpreter overhead the kernel "
        "removes.  Cold-path exceptions need a disable justification."
    )
    include = ARRAY_KERNEL_FILES

    def check(self, tree: ast.Module, ctx: LintContext) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                col = _iterated_column(node.iter)
                if col is not None:
                    ctx.report(
                        self,
                        node,
                        f"for-loop walks column array {col!r} per element; "
                        "use bisect/slice/bulk operations or justify with "
                        "# repro-lint: disable=ARR001",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    col = _iterated_column(gen.iter)
                    if col is not None:
                        ctx.report(
                            self,
                            node,
                            f"comprehension walks column array {col!r} per "
                            "element; use bisect/slice/bulk operations or "
                            "justify with # repro-lint: disable=ARR001",
                        )
