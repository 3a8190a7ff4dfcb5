"""Per-rule fix synthesizers: finding + IR + AST -> candidate edits.

Each synthesizer proposes *mechanical* source edits for one static rule
family, against the same recorded line numbers the extractor attached to
the finding.  The discipline mirrors the analyses' strong-ops-only
false-positive rule: a synthesizer refuses (returns a
:class:`Refusal`, never a guess) whenever the remediation would be
speculative — the owning variable is not a simple name, the construct
sits inside control flow the edit cannot see, or the buffer has several
allocation sites.  Whatever *is* proposed still has to survive sandbox
verification (:mod:`.engine`); nothing here is trusted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...findings import Finding
from ..ir import (
    AbstractBuffer,
    EnterOp,
    ExitOp,
    Op,
    OutputOp,
    TargetOp,
    WorkloadIR,
)
from .edits import SourceEdit

__all__ = [
    "CandidateFix",
    "Refusal",
    "FixContext",
    "SourceIndex",
    "FIXABLE_RULES",
    "UNFIXABLE_REASONS",
    "synthesize_fixes",
]


@dataclass(frozen=True)
class CandidateFix:
    """One unverified candidate remediation for one finding."""

    rule_id: str
    buffer: str
    kind: str
    description: str
    edits: Tuple[SourceEdit, ...]


@dataclass(frozen=True)
class Refusal:
    """A deliberate non-proposal, with the reason on record."""

    rule_id: str
    buffer: str
    reason: str

    def render(self) -> str:
        tag = f"{self.rule_id} {self.buffer!r}" if self.buffer else self.rule_id
        return f"{tag}: {self.reason}"


#: static rules MapFix cannot mechanically remediate, and why — surfaced
#: verbatim as refusals so "no fix" is always a statement, not silence
UNFIXABLE_REASONS: Dict[str, str] = {
    "MC-S11": "an exit racing an in-flight nowait region needs the region's "
              "completion ordered first — which wait to insert depends on "
              "intent the source does not state",
    "MC-S21": "cross-thread map constructs need a synchronization protocol "
              "(barrier or handle hand-off), not a local edit",
    "MC-W04": "hoisting a declare-target global read requires changing the "
              "kernel's signature to take the value as an argument",
}


def _lines_of(node: ast.AST) -> range:
    return range(node.lineno, (node.end_lineno or node.lineno) + 1)


def _innermost(nodes: List[ast.AST]) -> Dict[int, ast.AST]:
    """Line -> the covering node that starts last."""
    out: Dict[int, ast.AST] = {}
    for node in nodes:
        for ln in _lines_of(node):
            held = out.get(ln)
            if held is None or node.lineno > held.lineno:
                out[ln] = node
    return out


class SourceIndex:
    """One parsed source text, indexed for the synthesizers' line queries.

    A single ``ast.walk`` collects the statement blocks (every non-empty
    ``body``/``orelse``/``finalbody`` statement list), the function defs
    and the ``for``/``while`` loops, in walk order; per-line tables then
    answer :meth:`FixContext.stmt_at`, ``enclosing_function`` and
    ``enclosing_loop`` without another walk.  Statements that start on
    the same line (``for x in y: f(x)``, ``a = 1; b = 2``) resolve as a
    scan in walk order would, to the *last* one listed; two defs or two
    loops never start on one line.  The index is read-only, so one
    index may serve every context over its text.
    """

    def __init__(self, text: str):
        self.lines: List[str] = text.splitlines()
        self.tree: ast.Module = ast.parse(text)
        self.blocks: List[List[ast.stmt]] = []
        self.functions: List[ast.FunctionDef] = []
        loops: List[ast.AST] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.FunctionDef):
                self.functions.append(node)
            elif isinstance(node, (ast.For, ast.While)):
                loops.append(node)
            for attr in ("body", "orelse", "finalbody"):
                block = getattr(node, attr, None)
                if (isinstance(block, list) and block
                        and isinstance(block[0], ast.stmt)):
                    self.blocks.append(block)
        self.stmt_at: Dict[int, Tuple[ast.stmt, List[ast.stmt]]] = {}
        for block in self.blocks:
            for stmt in block:
                for ln in _lines_of(stmt):
                    held = self.stmt_at.get(ln)
                    if held is None or stmt.lineno >= held[0].lineno:
                        self.stmt_at[ln] = (stmt, block)
        self.function_at = _innermost(self.functions)
        self.loop_at = _innermost(loops)


@dataclass
class FixContext:
    """Everything a synthesizer may consult about the *current* source.

    The text is parsed and indexed on the first AST query, through
    ``indexer`` — a caller holding an index of the same text may pass it
    in; a round whose findings all refuse before reading the source
    parses nothing.
    """

    name: str
    ir: WorkloadIR
    path: str                 #: file the line numbers refer to
    text: str                 #: its source text
    indexer: Callable[[str], SourceIndex] = SourceIndex

    @cached_property
    def source(self) -> SourceIndex:
        return self.indexer(self.text)

    @property
    def lines(self) -> List[str]:
        """The source lines (no trailing newlines)."""
        return self.source.lines

    @property
    def tree(self) -> ast.Module:
        return self.source.tree

    # -- AST helpers -------------------------------------------------------

    def functions(self) -> List[ast.FunctionDef]:
        return list(self.source.functions)

    def stmt_lists(self) -> List[List[ast.stmt]]:
        return list(self.source.blocks)

    def stmt_at(self, line: int) -> Optional[Tuple[ast.stmt, List[ast.stmt]]]:
        """Innermost statement covering ``line``, with its parent block."""
        return self.source.stmt_at.get(line)

    def enclosing_function(self, line: int) -> Optional[ast.FunctionDef]:
        return self.source.function_at.get(line)

    def enclosing_loop(self, line: int):
        return self.source.loop_at.get(line)

    def indent(self, line: int) -> str:
        text = self.lines[line - 1]
        return text[: len(text) - len(text.lstrip())]

    def thread_param(self, line: int) -> Optional[str]:
        fn = self.enclosing_function(line)
        if fn is None or not fn.args.args:
            return None
        return fn.args.args[0].arg

    def module_binds(self, name: str) -> bool:
        """Is ``name`` bound at module level (import or assignment)?"""
        for node in self.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if (alias.asname or alias.name.split(".")[0]) == name:
                        return True
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id == name:
                        return True
        return False

    # -- IR helpers --------------------------------------------------------

    def alloc_sites(self, buffer: str) -> List[AbstractBuffer]:
        return sorted(
            (b for th in self.ir.threads for b in th.buffers.values()
             if b.name == buffer),
            key=lambda b: b.lineno,
        )

    def output_reading(self, site: AbstractBuffer) -> Optional[OutputOp]:
        for op in self.ir.ops():
            if isinstance(op, OutputOp) and any(
                    site in ref.sites for ref in op.bufs):
                return op
        return None


def _names_in(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _yield_from_call(stmt: ast.stmt,
                     attrs: Sequence[str]) -> Optional[ast.Call]:
    """Match ``yield from th.<attr>(...)`` (bare or assigned)."""
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    else:
        return None
    if not isinstance(value, ast.YieldFrom):
        return None
    call = value.value
    if (isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in attrs):
        return call
    return None


def _alloc_assignment(
    ctx: FixContext, finding: Finding
) -> Tuple[Optional[AbstractBuffer], Optional[ast.Assign], Optional[str],
           Optional[Refusal]]:
    """Resolve the finding's buffer to its unique ``var = yield from
    th.alloc(...)`` statement; a :class:`Refusal` explains any failure."""

    def refuse(reason: str):
        return None, None, None, Refusal(finding.rule_id, finding.buffer,
                                         reason)

    sites = ctx.alloc_sites(finding.buffer)
    if len(sites) != 1:
        return refuse(
            f"buffer {finding.buffer!r} has {len(sites)} allocation sites; "
            "an edit would need to pick one"
        )
    site = sites[0]
    found = ctx.stmt_at(site.lineno)
    if found is None:
        return refuse("allocation statement not found in source")
    stmt, _block = found
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and _yield_from_call(stmt, ("alloc",)) is not None):
        return refuse("allocation site is not a plain alloc assignment")
    target = stmt.targets[0]
    if not isinstance(target, ast.Name):
        return refuse(
            "the allocation's owner is not a simple variable — the buffer "
            "escapes through a container/attribute, so any inserted map "
            "construct would alias it speculatively"
        )
    return site, stmt, target.id, None


def _require_clause_names(ctx: FixContext, finding: Finding
                          ) -> Optional[Refusal]:
    for name in ("MapClause", "MapKind"):
        if not ctx.module_binds(name):
            return Refusal(
                finding.rule_id, finding.buffer,
                f"source module does not bind {name!r}; cannot spell the "
                "inserted map construct",
            )
    return None


def _dedent_lines(ctx: FixContext, first: int, last: int,
                  strip: int) -> List[str]:
    out = []
    for ln in range(first, last + 1):
        text = ctx.lines[ln - 1]
        out.append(text[strip:] if text[:strip].strip() == "" else text)
    return out


# ---------------------------------------------------------------------------
# the synthesizers
# ---------------------------------------------------------------------------


def _fix_drop_exit(finding: Finding, ctx: FixContext
                   ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """MC-S10: delete the map-exit that runs against an absent entry."""
    assert finding.source is not None
    # MC-S10 is a *some-path* rule: if any map construct on this buffer
    # is control-dependent, the underflow exists only on the paths that
    # construct does (not) take — which exit is the redundant one then
    # depends on the path, and deleting either would trade the underflow
    # for a leak on the other path.  Mirroring the strong-ops-only
    # discipline, refuse rather than guess.
    # ops outside every Branch and Loop are the unconditional ones
    unconditional = {item.op_id for th in ctx.ir.threads
                     for item in th.body.items if isinstance(item, Op)}
    for op in ctx.ir.ops():
        if (isinstance(op, (EnterOp, ExitOp))
                and op.op_id not in unconditional
                and any(finding.buffer in {b.name for b in c.buf.sites}
                        for c in op.clauses)):
            return [], [Refusal(
                finding.rule_id, finding.buffer,
                f"a map construct for {finding.buffer!r} at line "
                f"{op.lineno} is control-dependent: removing the flagged "
                "exit is only safe on some paths")]
    found = ctx.stmt_at(finding.source[1])
    if found is None or _yield_from_call(
            found[0], ("target_exit_data",)) is None:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "flagged line is not a direct target_exit_data "
                            "statement")]
    stmt = found[0]
    edit = SourceEdit(stmt.lineno, stmt.end_lineno or stmt.lineno, (),
                      note=f"drop unmatched map-exit of {finding.buffer!r}")
    return [CandidateFix(
        finding.rule_id, finding.buffer, "drop-exit",
        f"delete the map-exit of {finding.buffer!r} at line "
        f"{stmt.lineno} — no matching enter reaches it on the flagged path",
        (edit,),
    )], []


def _fix_insert_exit(finding: Finding, ctx: FixContext
                     ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """MC-S12: insert the missing ``exit data`` for a leaked mapping."""
    site, assign, var, refusal = _alloc_assignment(ctx, finding)
    if refusal is not None:
        return [], [refusal]
    refusal = _require_clause_names(ctx, finding)
    if refusal is not None:
        return [], [refusal]
    assign_indent = ctx.indent(assign.lineno)
    # last statement (in the allocating function) mentioning the variable
    fn = ctx.enclosing_function(assign.lineno)
    anchor = assign
    for block in ctx.stmt_lists():
        for stmt in block:
            if (fn.lineno <= stmt.lineno <= (fn.end_lineno or fn.lineno)
                    and stmt is not fn and var in _names_in(stmt)
                    and stmt.lineno > anchor.lineno):
                anchor = stmt
    out = ctx.output_reading(site)
    if out is not None and out.lineno:
        # data flows into an application output: exit with ``from`` right
        # before the read so the host sees the device's bytes under Copy
        found = ctx.stmt_at(out.lineno)
        if found is None:
            return [], [Refusal(finding.rule_id, finding.buffer,
                                "output-read statement not found in source")]
        read_stmt = found[0]
        if ctx.indent(read_stmt.lineno) != assign_indent:
            return [], [Refusal(
                finding.rule_id, finding.buffer,
                "the output read sits in nested control flow relative to "
                "the allocation; an inserted exit would not dominate it")]
        kind, where = "FROM", read_stmt.lineno
        edit = SourceEdit(where, where - 1, (
            f"{assign_indent}yield from "
            f"{ctx.thread_param(assign.lineno)}.target_exit_data("
            f"[MapClause({var}, MapKind.{kind})])",
        ), note=f"insert missing exit data ({kind.lower()}) for {var!r}")
        desc = (f"insert `exit data [from: {var}]` before the output read "
                f"at line {where} — releases the mapping and copies the "
                "device bytes back where shadow copies exist")
    else:
        if ctx.indent(anchor.lineno) != assign_indent:
            return [], [Refusal(
                finding.rule_id, finding.buffer,
                "the buffer's last use sits in nested control flow; an "
                "exit inserted after it would be conditional")]
        kind, where = "DELETE", (anchor.end_lineno or anchor.lineno) + 1
        edit = SourceEdit(where, where - 1, (
            f"{assign_indent}yield from "
            f"{ctx.thread_param(assign.lineno)}.target_exit_data("
            f"[MapClause({var}, MapKind.{kind})])",
        ), note=f"insert missing exit data (delete) for {var!r}")
        desc = (f"insert `exit data [delete: {var}]` after the last use at "
                f"line {anchor.end_lineno or anchor.lineno} — releases the "
                "mapping before thread end")
    return [CandidateFix(finding.rule_id, finding.buffer, "insert-exit",
                         desc, (edit,))], []


def _fix_widen_coverage(finding: Finding, ctx: FixContext
                        ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """MC-P10: add the uncovered buffer to the dispatch's map clauses."""
    assert finding.source is not None
    _site, _assign, var, refusal = _alloc_assignment(ctx, finding)
    if refusal is not None:
        return [], [refusal]
    refusal = _require_clause_names(ctx, finding)
    if refusal is not None:
        return [], [refusal]
    found = ctx.stmt_at(finding.source[1])
    call = found and _yield_from_call(found[0], ("target",))
    if not call:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "flagged line is not a target dispatch")]
    maps_kw = next((kw for kw in call.keywords if kw.arg == "maps"), None)
    if maps_kw is None or not isinstance(maps_kw.value, ast.List):
        return [], [Refusal(
            finding.rule_id, finding.buffer,
            "dispatch has no literal maps= list to widen")]
    lst = maps_kw.value
    if lst.lineno != lst.end_lineno:
        return [], [Refusal(
            finding.rule_id, finding.buffer,
            "maps= list spans multiple lines; widening it mechanically "
            "would mangle formatting")]
    line = ctx.lines[lst.lineno - 1]
    col = lst.end_col_offset - 1          # the closing ']'
    new = (f"{line[:col]}, MapClause({var}, MapKind.TOFROM){line[col:]}"
           if lst.elts else
           f"{line[:col]}MapClause({var}, MapKind.TOFROM){line[col:]}")
    edit = SourceEdit(lst.lineno, lst.lineno, (new,),
                      note=f"map {var!r} tofrom at the dispatch")
    return [CandidateFix(
        finding.rule_id, finding.buffer, "widen-coverage",
        f"add `map(tofrom: {var})` to the dispatch at line "
        f"{finding.source[1]} — covers the raw-pointer touch on every "
        "path", (edit,),
    )], []


def _fix_bind_wait(finding: Finding, ctx: FixContext
                   ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """MC-S22: bind the nowait handle and wait before the output read."""
    assert finding.source is not None
    sites = ctx.alloc_sites(finding.buffer)
    target_op = next(
        (op for op in ctx.ir.ops()
         if isinstance(op, TargetOp) and op.nowait and any(
             any(b in ref.sites for b in sites)
             for ref in tuple(c.buf for c in op.clauses) + op.touches)),
        None,
    )
    if target_op is None or not target_op.lineno:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "could not locate the nowait dispatch writing "
                            "the buffer")]
    t_found = ctx.stmt_at(target_op.lineno)
    r_found = ctx.stmt_at(finding.source[1])
    if t_found is None or r_found is None:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "dispatch or read statement not found in source")]
    t_stmt, t_block = t_found
    r_stmt, r_block = r_found
    if t_block is not r_block or t_block.index(t_stmt) >= r_block.index(r_stmt):
        return [], [Refusal(
            finding.rule_id, finding.buffer,
            "the nowait dispatch and the result read are not siblings in "
            "one statement block; the wait's placement would be "
            "speculative")]
    th = ctx.thread_param(t_stmt.lineno)
    edits = []
    if isinstance(t_stmt, ast.Assign) and isinstance(
            t_stmt.targets[0], ast.Name):
        handle = t_stmt.targets[0].id
    else:
        fn = ctx.enclosing_function(t_stmt.lineno)
        used = _names_in(fn) if fn else set()
        handle = "handle" if "handle" not in used else "_mapfix_handle"
        first = ctx.lines[t_stmt.lineno - 1]
        indent = ctx.indent(t_stmt.lineno)
        edits.append(SourceEdit(
            t_stmt.lineno, t_stmt.lineno,
            (f"{indent}{handle} = {first.lstrip()}",),
            note=f"bind the nowait completion handle as {handle!r}",
        ))
    edits.append(SourceEdit(
        r_stmt.lineno, r_stmt.lineno - 1,
        (f"{ctx.indent(r_stmt.lineno)}yield from {th}.wait({handle})",),
        note="wait on the kernel before reading its result",
    ))
    return [CandidateFix(
        finding.rule_id, finding.buffer, "bind-wait",
        f"bind the nowait dispatch's completion handle and wait on it "
        f"before the result read at line {r_stmt.lineno}", tuple(edits),
    )], []


def _fix_move_wait(finding: Finding, ctx: FixContext
                   ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """MC-S20: move the existing wait above the racing host write."""
    assert finding.source is not None
    w_found = ctx.stmt_at(finding.source[1])
    if w_found is None:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "host-write statement not found in source")]
    write_stmt, block = w_found
    w_idx = block.index(write_stmt)
    wait_stmt = wait_call = None
    for stmt in block[w_idx + 1:]:
        call = _yield_from_call(stmt, ("wait",))
        if call is not None and isinstance(stmt, ast.Expr):
            wait_stmt, wait_call = stmt, call
            break
    if wait_stmt is None:
        return [], [Refusal(
            finding.rule_id, finding.buffer,
            "no wait on the racing kernel's completion handle is visible "
            "in the writing thread's block — ordering it would require a "
            "cross-thread protocol")]
    if not (wait_call.args and isinstance(wait_call.args[0], ast.Name)):
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "the wait's handle operand is not a simple "
                            "variable")]
    handle = wait_call.args[0].id
    bound = any(
        isinstance(s, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == handle for t in s.targets)
        for s in block[:w_idx]
    )
    if not bound:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "the waited handle is not bound before the "
                            "host write in this block")]
    indent = ctx.indent(write_stmt.lineno)
    edits = (
        SourceEdit(write_stmt.lineno, write_stmt.lineno - 1,
                   (ctx.lines[wait_stmt.lineno - 1]
                    if ctx.indent(wait_stmt.lineno) == indent else
                    f"{indent}yield from "
                    f"{ctx.thread_param(write_stmt.lineno)}.wait({handle})",),
                   note="wait for the reading kernel first"),
        SourceEdit(wait_stmt.lineno, wait_stmt.end_lineno or wait_stmt.lineno,
                   (), note="original wait moved above the host write"),
    )
    return [CandidateFix(
        finding.rule_id, finding.buffer, "move-wait",
        f"move the wait on {handle!r} above the host write at line "
        f"{write_stmt.lineno} so the kernel's read completes first",
        edits,
    )], []


def _hoist_loop_pair(finding: Finding, ctx: FixContext, kind: str,
                     first_attr: Tuple[str, ...],
                     last_attr: Tuple[str, ...],
                     desc: str) -> Tuple[List[CandidateFix], List[Refusal]]:
    loop = ctx.enclosing_loop(finding.source[1])
    if loop is None or getattr(loop, "orelse", None):
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "flagged construct is not inside a plain loop")]
    first, last = loop.body[0], loop.body[-1]
    if first is last or _yield_from_call(first, first_attr) is None \
            or _yield_from_call(last, last_attr) is None:
        return [], [Refusal(
            finding.rule_id, finding.buffer,
            f"the {'/'.join(first_attr + last_attr)} pair does not bracket "
            "the loop body; iterations are not interchangeable under a "
            "mechanical hoist")]
    loop_indent, body_indent = ctx.indent(loop.lineno), ctx.indent(first.lineno)
    strip = len(body_indent) - len(loop_indent)
    if strip <= 0:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "could not compute the loop body's indent")]
    new_lines = (
        _dedent_lines(ctx, first.lineno, first.end_lineno or first.lineno,
                      strip)
        + ctx.lines[loop.lineno - 1 : first.lineno - 1]     # loop header
        + ctx.lines[(first.end_lineno or first.lineno) : last.lineno - 1]
        + _dedent_lines(ctx, last.lineno, last.end_lineno or last.lineno,
                        strip)
    )
    edit = SourceEdit(loop.lineno, loop.end_lineno or loop.lineno,
                      tuple(new_lines), note=desc)
    return [CandidateFix(
        finding.rule_id, finding.buffer, kind,
        f"{desc} (loop at line {loop.lineno})", (edit,),
    )], []


def _fix_hoist_map_pair(finding: Finding, ctx: FixContext
                        ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """MC-W01: hoist the loop-invariant enter/exit pair out of the loop."""
    return _hoist_loop_pair(
        finding, ctx, "hoist-map-pair",
        ("target_enter_data",), ("target_exit_data",),
        f"hoist the enter/exit pair for {finding.buffer!r} out of the hot "
        "loop — one mapping outlives all iterations",
    )


def _fix_hoist_alloc(finding: Finding, ctx: FixContext
                     ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """MC-W03: hoist the per-iteration alloc/free out of the loop."""
    return _hoist_loop_pair(
        finding, ctx, "hoist-alloc",
        ("alloc",), ("free",),
        f"hoist the allocation of {finding.buffer!r} out of the hot loop — "
        "pages fault once instead of every iteration",
    )


def _fix_demote_to_alloc(finding: Finding, ctx: FixContext
                         ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """MC-W02: demote the redundant non-always ``to`` map to ``alloc``."""
    assert finding.source is not None
    found = ctx.stmt_at(finding.source[1])
    if found is None:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "flagged statement not found in source")]
    stmt = found[0]
    hits = [
        node for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and node.attr == "TO"
        and isinstance(node.value, ast.Name) and node.value.id == "MapKind"
    ]
    if len(hits) != 1:
        return [], [Refusal(
            finding.rule_id, finding.buffer,
            f"expected exactly one MapKind.TO clause on the flagged "
            f"statement, found {len(hits)}")]
    attr = hits[0]
    if attr.lineno != attr.end_lineno:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "clause kind spans lines")]
    line = ctx.lines[attr.lineno - 1]
    new = line[: attr.col_offset] + "MapKind.ALLOC" + line[attr.end_col_offset:]
    edit = SourceEdit(attr.lineno, attr.lineno, (new,),
                      note=f"demote redundant 'to' of {finding.buffer!r}")
    return [CandidateFix(
        finding.rule_id, finding.buffer, "demote-to-alloc",
        f"replace the redundant `to` map of {finding.buffer!r} at line "
        f"{attr.lineno} with `alloc` — the buffer is already present, the "
        "copy intent is dead", (edit,),
    )], []


def _fix_drop_update(finding: Finding, ctx: FixContext
                     ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """MC-W05: delete the no-op ``target update``."""
    assert finding.source is not None
    found = ctx.stmt_at(finding.source[1])
    if found is None or _yield_from_call(
            found[0], ("target_update",)) is None:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "flagged line is not a target_update statement")]
    stmt = found[0]
    edit = SourceEdit(stmt.lineno, stmt.end_lineno or stmt.lineno, (),
                      note=f"drop no-op update of {finding.buffer!r}")
    return [CandidateFix(
        finding.rule_id, finding.buffer, "drop-update",
        f"delete the `target update` of {finding.buffer!r} at line "
        f"{stmt.lineno} — the mapping already shares the bytes under every "
        "zero-copy configuration", (edit,),
    )], []


_FIXERS: Dict[str, Callable[[Finding, FixContext],
                            Tuple[List[CandidateFix], List[Refusal]]]] = {
    "MC-S10": _fix_drop_exit,
    "MC-S12": _fix_insert_exit,
    "MC-P10": _fix_widen_coverage,
    "MC-S20": _fix_move_wait,
    "MC-S22": _fix_bind_wait,
    "MC-W01": _fix_hoist_map_pair,
    "MC-W02": _fix_demote_to_alloc,
    "MC-W03": _fix_hoist_alloc,
    "MC-W05": _fix_drop_update,
}

#: rules a synthesizer exists for (README's "fixable" column)
FIXABLE_RULES = frozenset(_FIXERS)


def synthesize_fixes(finding: Finding, ctx: FixContext
                     ) -> Tuple[List[CandidateFix], List[Refusal]]:
    """Candidate fixes (and refusals) for one located static finding."""
    if finding.rule_id in UNFIXABLE_REASONS:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            UNFIXABLE_REASONS[finding.rule_id])]
    fixer = _FIXERS.get(finding.rule_id)
    if fixer is None:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "no synthesizer registered for this rule")]
    if finding.source is None:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            "finding carries no source location")]
    try:
        return fixer(finding, ctx)
    except (ValueError, IndexError, AttributeError) as exc:
        return [], [Refusal(finding.rule_id, finding.buffer,
                            f"synthesis failed: {exc}")]
