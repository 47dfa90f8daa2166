"""Backend-parity rules: static coverage of the op/command dispatch tables.

The conformance suite proves *dynamically* that the scalar and fused
backends agree byte-for-byte; these rules prove the cheaper structural
half *statically*: every DDR command kind and every xir primitive op
must be *handled* by each dispatch surface that claims to consume it.
A new ``Command`` subclass or ``ir`` op that one backend silently
ignores is caught at lint time, before a golden diff fails.

The extraction is summary-based (see
:class:`~repro.lint.summary.DispatchSummary`): ``isinstance`` targets,
``x == "ACT"`` / ``x in ("ACT", ...)`` string-comparison sets,
``actions.append(("tag", ...))`` heads, ``KIND`` class attributes, and
module-level tuple literals.  Both rules are silent when their anchor
modules are absent from the linted tree, so partial runs (fixtures,
single-directory lints) do not misfire.

* PAR001 — a command ``KIND`` dispatched by one surface but unhandled
  by another (softmc / program assembler + renderer / xir compiler;
  the lane engine issues commands only through the compiler).
* PAR002 — an ``ir.PRIMITIVE_OPS`` member the xir compiler does not
  lower, or a compiler-emitted action tag the executor does not
  execute.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .callgraph import Project
from .model import Finding
from .rules import Rule, register
from .summary import DispatchSummary, Site

__all__ = [
    "CommandParityRule",
    "XirOpParityRule",
]

_COMMANDS_MODULE = "repro.controller.commands"
_IR_MODULE = "repro.xir.ir"
_COMPILE_MODULE = "repro.xir.compile"
_EXECUTOR_MODULE = "repro.xir.executor"

#: The non-abstract command base class KIND; not a dispatchable kind.
_BASE_KIND = "CMD"

#: ``(module, mode, human label)`` — every surface that must cover the
#: full command-kind universe.  ``mode`` is either ``"isinstance"``
#: (targets matched against command class names) or ``"compare:<name>"``
#: (string sets compared against the kinds themselves).
_COMMAND_SURFACES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.controller.softmc", "isinstance",
     "SoftMC command execution"),
    ("repro.controller.program", "compare:mnemonic",
     "program assembler mnemonic dispatch"),
    ("repro.controller.program", "isinstance",
     "program command renderer"),
    (_COMPILE_MODULE, "compare:kind",
     "xir command-kind scheduler"),
)


def _dispatch(project: Project,
              module: str) -> Optional[DispatchSummary]:
    summary = project.modules.get(module)
    return summary.dispatch if summary is not None else None


#: Where a parity finding anchors: the top of the deficient module.
_MODULE_TOP = Site(line=1, column=1, end_line=1)


def _anchor(rule: Rule, project: Project, module: str,
            message: str) -> Finding:
    """A finding pinned to line 1 of ``module``."""
    return rule.project_finding(project.path_of(module), _MODULE_TOP,
                                message)


@register
class CommandParityRule(Rule):
    code = "PAR001"
    summary = ("DDR command kind handled by one dispatch surface but "
               "missing from another")
    rationale = (
        "Every Command subclass in repro.controller.commands must be "
        "executable by the scalar SoftMC, the program "
        "assembler/renderer, and the xir scheduler — a kind one "
        "surface silently drops diverges the backends the moment an "
        "experiment emits it.  This pins the "
        "dispatch tables to the command universe at lint time instead "
        "of waiting for a conformance-suite diff.")

    def check_project(self, project: Project) -> Iterator[Finding]:
        commands = _dispatch(project, _COMMANDS_MODULE)
        if commands is None:
            return
        kind_of: Dict[str, str] = {
            cls: kind for cls, kind in commands.class_kinds
            if kind != _BASE_KIND}
        universe = set(kind_of.values())
        if not universe:
            return
        # One finding per module (its first deficient surface): every
        # finding anchors on line 1, which one pragma covers anyway.
        reported = set()
        for module, mode, label in _COMMAND_SURFACES:
            dispatch = _dispatch(project, module)
            if dispatch is None or module in reported:
                continue
            if mode == "isinstance":
                covered = {kind_of[name]
                           for name in dispatch.isinstance_targets
                           if name in kind_of}
            else:
                subject = mode.split(":", 1)[1]
                covered = set(
                    dict(dispatch.compare_sets).get(subject, ()))
            missing = sorted(universe - covered)
            if not missing:
                continue
            classes = sorted(cls for cls, kind in kind_of.items()
                             if kind in missing)
            reported.add(module)
            yield _anchor(
                self, project, module,
                f"command kind(s) {', '.join(missing)} (class "
                f"{', '.join(classes)}) defined in {_COMMANDS_MODULE} "
                f"but not handled by the {label} in {module}")


@register
class XirOpParityRule(Rule):
    code = "PAR002"
    summary = ("xir primitive op not lowered by the compiler, or "
               "compiled action tag not executed by the executor")
    rationale = (
        "repro.xir.ir.PRIMITIVE_OPS is the contract of what a fused "
        "program may contain; an op the compiler cannot lower or an "
        "action tag the executor cannot run turns into a runtime "
        "error (or silent no-op) only on the first experiment that "
        "uses it.  Checking the isinstance table of xir.compile and "
        "the tag table of xir.executor against what is actually "
        "declared/emitted makes the coverage a compile-time fact.")

    def check_project(self, project: Project) -> Iterator[Finding]:
        ir_dispatch = _dispatch(project, _IR_MODULE)
        compile_dispatch = _dispatch(project, _COMPILE_MODULE)
        if ir_dispatch is None or compile_dispatch is None:
            return
        primitive_ops = dict(ir_dispatch.module_tuples).get(
            "PRIMITIVE_OPS", ())
        if primitive_ops:
            targets = set(compile_dispatch.isinstance_targets)
            missing = sorted(set(primitive_ops) - targets)
            if missing:
                yield _anchor(
                    self, project, _COMPILE_MODULE,
                    f"xir primitive op(s) {', '.join(missing)} are "
                    f"declared in {_IR_MODULE}.PRIMITIVE_OPS but have "
                    f"no isinstance lowering in {_COMPILE_MODULE}")
        executor_dispatch = _dispatch(project, _EXECUTOR_MODULE)
        if executor_dispatch is None:
            return
        emitted = set(
            dict(compile_dispatch.append_heads).get("actions", ()))
        handled = set(
            dict(executor_dispatch.compare_sets).get("tag", ()))
        if not emitted or not handled:
            return
        unexecuted = sorted(emitted - handled)
        if unexecuted:
            yield _anchor(
                self, project, _EXECUTOR_MODULE,
                f"action tag(s) {', '.join(unexecuted)} are emitted by "
                f"{_COMPILE_MODULE} but have no handler in the "
                f"{_EXECUTOR_MODULE} tag dispatch")
