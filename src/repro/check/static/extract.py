"""Extract the map-operation IR from a workload's source.

MapFlow does not execute a workload — it *partially evaluates* the AST
of ``make_body``/``body`` against a real workload instance.  Everything
the instance fixes at construction time (fidelity-derived trip counts,
buffer sizes, ``tid``, module constants) folds away; what cannot be
folded becomes abstract:

* buffers are allocation sites (:class:`~.ir.AbstractBuffer`), one per
  ``th.alloc`` call site per unroll context;
* a variable that may hold several buffers becomes a *may-set*
  (:class:`~.ir.BufRef` with several sites) — operations through it are
  weak: the interpreter joins, never reports;
* an ``if`` whose condition does not fold becomes a :class:`~.ir.Branch`
  with both arms feasible;
* a loop whose trip count folds to ``n <= UNROLL_LIMIT`` is unrolled
  (each iteration gets its own unroll context, hence its own sites);
  anything else becomes an abstract :class:`~.ir.Loop` — the loop body
  is first re-evaluated without emitting IR until the environment
  stabilizes, so bindings mutated by the loop (``kid += 1`` indexing a
  chunk list) reach their fixpoint *before* the emitted pass, and stale
  first-iteration bindings cannot leak into the IR.

The evaluator is deliberately tolerant: any expression it cannot fold
is ``OPAQUE`` and any statement it does not understand is skipped with
an imprecision note.  Opaque values never reach a reporting rule — that
is the no-false-positive discipline the differential harness enforces.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import inspect
import sys
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...omp.mapping import MapClause, MapKind
from .ir import (
    AbstractBuffer,
    AllocOp,
    Branch,
    BufRef,
    ClauseIR,
    EnterOp,
    ExitOp,
    FreeOp,
    GlobalSyncOp,
    HostWriteOp,
    Loop,
    OutputOp,
    ReturnNode,
    Seq,
    TargetOp,
    ThreadProgram,
    UpdateOp,
    WaitOp,
    WorkloadIR,
)

__all__ = ["extract_workload", "ExtractionError", "UNROLL_LIMIT"]

#: loops with a folded trip count up to this are unrolled exactly
UNROLL_LIMIT = 32

#: abstract-loop environment fixpoint passes before the emitting pass
_FIXPOINT_PASSES = 2


class ExtractionError(Exception):
    """The workload source could not be located or parsed at all."""


# ---------------------------------------------------------------------------
# abstract values
# ---------------------------------------------------------------------------


class _Opaque:
    _instance: "_Opaque" = None  # type: ignore[assignment]

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OPAQUE"


OPAQUE = _Opaque()


@dataclass(frozen=True)
class BufVal:
    buffer: AbstractBuffer


@dataclass(frozen=True)
class MaySet:
    """A value that may be any of several buffers."""

    members: frozenset  # of BufVal


@dataclass(frozen=True)
class GlobalRef:
    name: str


@dataclass(frozen=True)
class HandleVal:
    hid: int


@dataclass(frozen=True)
class ClauseVal:
    buf: "BufRef"
    kind: Optional[MapKind]
    always: bool


@dataclass
class ListVal:
    items: List[object] = field(default_factory=list)
    exact: bool = True


@dataclass
class DictVal:
    entries: Dict[object, object] = field(default_factory=dict)
    weak: bool = False  #: a store with an unknown key happened


@dataclass(frozen=True)
class FuncVal:
    node: ast.FunctionDef


class _ThProxy:
    """Placeholder for the ``th`` parameter of a body."""


class _InstanceProxy:
    """``self`` inside ``make_body``: instance attributes resolve against
    the real workload object, with declare-target globals recovered from
    an AST scan of ``prepare`` taking precedence (``prepare`` never runs
    statically)."""

    def __init__(self, instance, global_attrs: Dict[str, GlobalRef]):
        self.instance = instance
        self.global_attrs = global_attrs


def _is_known(v) -> bool:
    """A plain Python value the evaluator may compute with."""
    return not isinstance(
        v,
        (_Opaque, BufVal, MaySet, GlobalRef, HandleVal, ClauseVal,
         ListVal, DictVal, FuncVal, _ThProxy, _InstanceProxy),
    )


def _join_values(a, b):
    if a is b:
        return a
    if isinstance(a, BufVal) and isinstance(b, BufVal):
        return a if a == b else MaySet(frozenset((a, b)))
    if isinstance(a, (BufVal, MaySet)) and isinstance(b, (BufVal, MaySet)):
        ma = a.members if isinstance(a, MaySet) else frozenset((a,))
        mb = b.members if isinstance(b, MaySet) else frozenset((b,))
        return MaySet(ma | mb)
    if _is_known(a) and _is_known(b):
        with contextlib.suppress(Exception):
            if bool(a == b):
                return a
    return OPAQUE


def _bufref(value, display: str = "") -> BufRef:
    """Lower an abstract value to an IR operand."""
    if isinstance(value, BufVal):
        return BufRef(frozenset((value.buffer,)), display or value.buffer.name)
    if isinstance(value, MaySet):
        sites = frozenset(m.buffer for m in value.members if isinstance(m, BufVal))
        if sites:
            return BufRef(sites, display)
    return BufRef(frozenset(), display or "<?>", unknown=True)


_BUILTINS = {
    "range": range, "len": len, "enumerate": enumerate, "zip": zip,
    "max": max, "min": min, "abs": abs, "int": int, "float": float,
    "str": str, "bool": bool, "round": round, "sum": sum,
    "sorted": sorted, "tuple": tuple, "list": list, "True": True,
    "False": False, "None": None,
}


class _Env:
    """Lexical scopes: [body locals, make_body locals, module globals]."""

    def __init__(self, scopes: List[dict]):
        self.scopes = scopes

    def lookup(self, name: str):
        for scope in self.scopes:
            if name in scope:
                return scope[name]
        if name in _BUILTINS:
            return _BUILTINS[name]
        return OPAQUE

    def bind(self, name: str, value) -> None:
        self.scopes[0][name] = value

    def child(self) -> "_Env":
        """Fresh innermost scope (comprehension targets)."""
        return _Env([{}] + self.scopes)

    def fork(self) -> "_Env":
        """Copy of the innermost scope for branch arms."""
        return _Env([dict(self.scopes[0])] + self.scopes[1:])

    def snapshot(self) -> dict:
        return dict(self.scopes[0])

    def merge(self, a: dict, b: dict) -> None:
        """Replace the innermost scope with the join of two snapshots."""
        merged = {}
        for key in set(a) | set(b):
            merged[key] = (_join_values(a[key], b[key])
                           if key in a and key in b else OPAQUE)
        self.scopes[0].clear()
        self.scopes[0].update(merged)


# ---------------------------------------------------------------------------
# the extractor
# ---------------------------------------------------------------------------


class _Extractor:
    def __init__(self, workload, tid: int, mb_env_scopes: List[dict],
                 body_fn: ast.FunctionDef, out: WorkloadIR):
        self.workload = workload
        self.tid = tid
        self.body_fn = body_fn
        self.out = out
        self.program = ThreadProgram(tid=tid)
        self.env = _Env([{}] + mb_env_scopes)
        self.ctx: Tuple = ()           #: unroll context stack
        self._buffers: Dict[Tuple, AbstractBuffer] = {}
        self._handle_ids: Dict[Tuple, int] = {}

    # -- diagnostics ----------------------------------------------------
    def note(self, msg: str) -> None:
        self.out.imprecision.append(f"t{self.tid}: {msg}")

    # -- stable per-site identities ------------------------------------
    def _site_key(self, node: ast.AST) -> Tuple:
        return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), self.ctx)

    def _buffer_for(self, node: ast.Call, name: str,
                    nbytes: Optional[int] = None) -> AbstractBuffer:
        key = self._site_key(node)
        buf = self._buffers.get(key)
        if buf is None:
            ctx = "".join(f"[{i}]" for i in self.ctx)
            buf = AbstractBuffer(
                site=f"t{self.tid}:L{key[0]}.{key[1]}{ctx}",
                name=name, tid=self.tid, lineno=key[0],
            )
            buf = dataclasses.replace(buf, nbytes=nbytes)
            self._buffers[key] = buf
            self.program.buffers[buf.site] = buf
        elif buf.nbytes != nbytes:
            # the same site folded to two different sizes across
            # evaluation passes: the size is not a function of the site
            if buf.nbytes is not None:
                self.note(f"buffer size at L{key[0]} varies across passes")
            buf = dataclasses.replace(buf, nbytes=None)
            self._buffers[key] = buf
            self.program.buffers[buf.site] = buf
        return buf

    def _handle_for(self, node: ast.Call) -> int:
        key = self._site_key(node)
        if key not in self._handle_ids:
            self._handle_ids[key] = len(self._handle_ids) + 1 + self.tid * 10_000
        return self._handle_ids[key]

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def eval(self, node: ast.AST):
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            return OPAQUE
        try:
            return method(node)
        except Exception as exc:  # tolerant by construction
            self.note(f"eval {type(node).__name__} at L{getattr(node, 'lineno', 0)}"
                      f" failed ({type(exc).__name__})")
            return OPAQUE

    def _eval_Constant(self, node: ast.Constant):
        return node.value

    def _eval_Name(self, node: ast.Name):
        return self.env.lookup(node.id)

    def _eval_Attribute(self, node: ast.Attribute):
        base = self.eval(node.value)
        attr = node.attr
        if isinstance(base, _InstanceProxy):
            if attr in base.global_attrs:
                return base.global_attrs[attr]
            return getattr(base.instance, attr, OPAQUE)
        if isinstance(base, BufVal):
            if attr == "name":
                return base.buffer.name
            return OPAQUE
        if isinstance(base, (_Opaque, MaySet, GlobalRef, HandleVal, ListVal,
                             DictVal, ClauseVal, FuncVal, _ThProxy)):
            return OPAQUE
        if attr.startswith("_"):
            return OPAQUE
        return getattr(base, attr, OPAQUE)

    def _eval_Subscript(self, node: ast.Subscript):
        base = self.eval(node.value)
        idx = self.eval(node.slice)
        if isinstance(node.slice, ast.Slice):
            lo = self.eval(node.slice.lower) if node.slice.lower else None
            hi = self.eval(node.slice.upper) if node.slice.upper else None
            if (lo is None or isinstance(lo, int)) and (hi is None or isinstance(hi, int)):
                if isinstance(base, ListVal) and base.exact:
                    return ListVal(list(base.items[lo:hi]), exact=True)
                if _is_known(base) and isinstance(base, (list, tuple, str)):
                    return base[lo:hi]
            return OPAQUE
        if isinstance(base, ListVal):
            if isinstance(idx, int) and base.exact and -len(base.items) <= idx < len(base.items):
                return base.items[idx]
            members = frozenset(m for m in base.items if isinstance(m, BufVal))
            if members and all(isinstance(m, BufVal) for m in base.items):
                return MaySet(members) if len(members) > 1 else next(iter(members))
            return OPAQUE
        if isinstance(base, DictVal):
            if _is_known(idx):
                try:
                    if idx in base.entries:
                        return base.entries[idx]
                except TypeError:
                    return OPAQUE
            return OPAQUE
        if _is_known(base) and _is_known(idx):
            try:
                return base[idx]
            except Exception:
                return OPAQUE
        return OPAQUE

    def _eval_Tuple(self, node: ast.Tuple):
        vals = [self.eval(e) for e in node.elts]
        if all(_is_known(v) for v in vals):
            return tuple(vals)
        return ListVal(vals, exact=True)

    def _eval_List(self, node: ast.List):
        return ListVal([self.eval(e) for e in node.elts], exact=True)

    def _eval_Dict(self, node: ast.Dict):
        d = DictVal()
        for k, v in zip(node.keys, node.values, strict=True):
            if k is None:
                d.weak = True
                continue
            key = self.eval(k)
            if _is_known(key):
                try:
                    d.entries[key] = self.eval(v)
                except TypeError:
                    d.weak = True
            else:
                d.weak = True
        return d

    def _eval_UnaryOp(self, node: ast.UnaryOp):
        v = self.eval(node.operand)
        if not _is_known(v):
            return OPAQUE
        if isinstance(node.op, ast.USub):
            return -v
        if isinstance(node.op, ast.UAdd):
            return +v
        if isinstance(node.op, ast.Not):
            return not v
        if isinstance(node.op, ast.Invert):
            return ~v
        return OPAQUE

    _BINOPS = {
        ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
        ast.FloorDiv: lambda a, b: a // b, ast.Mod: lambda a, b: a % b,
        ast.Pow: lambda a, b: a ** b, ast.LShift: lambda a, b: a << b,
        ast.RShift: lambda a, b: a >> b, ast.BitOr: lambda a, b: a | b,
        ast.BitAnd: lambda a, b: a & b, ast.BitXor: lambda a, b: a ^ b,
    }

    def _eval_BinOp(self, node: ast.BinOp):
        a, b = self.eval(node.left), self.eval(node.right)
        if isinstance(node.op, ast.Add) and isinstance(a, ListVal) and isinstance(b, ListVal):
            return ListVal(list(a.items) + list(b.items), exact=a.exact and b.exact)
        if not (_is_known(a) and _is_known(b)):
            return OPAQUE
        fn = self._BINOPS.get(type(node.op))
        return fn(a, b) if fn is not None else OPAQUE

    def _eval_BoolOp(self, node: ast.BoolOp):
        # Short-circuit like Python: a known deciding operand settles the
        # expression even when a *later* operand would be opaque (the
        # interpreter never evaluates past it either).
        want_truthy = isinstance(node.op, ast.Or)
        out = None
        for sub in node.values:
            out = self.eval(sub)
            if not _is_known(out):
                return OPAQUE
            if bool(out) == want_truthy:
                return out
        return out

    _CMPOPS = {
        ast.Eq: lambda a, b: a == b, ast.NotEq: lambda a, b: a != b,
        ast.Lt: lambda a, b: a < b, ast.LtE: lambda a, b: a <= b,
        ast.Gt: lambda a, b: a > b, ast.GtE: lambda a, b: a >= b,
    }

    def _eval_Compare(self, node: ast.Compare):
        left = self.eval(node.left)
        result = True
        for op, right_node in zip(node.ops, node.comparators, strict=True):
            right = self.eval(right_node)
            if isinstance(op, (ast.Is, ast.IsNot)):
                outcome = self._identity(left, right)
                if outcome is OPAQUE:
                    return OPAQUE
                if isinstance(op, ast.IsNot):
                    outcome = not outcome
            elif isinstance(op, (ast.In, ast.NotIn)):
                outcome = self._contains(left, right)
                if outcome is OPAQUE:
                    return OPAQUE
                if isinstance(op, ast.NotIn):
                    outcome = not outcome
            else:
                if not (_is_known(left) and _is_known(right)):
                    return OPAQUE
                fn = self._CMPOPS.get(type(op))
                if fn is None:
                    return OPAQUE
                outcome = fn(left, right)
            result = result and bool(outcome)
            if not result:
                return False
            left = right
        return result

    @staticmethod
    def _identity(a, b):
        if isinstance(a, BufVal) and isinstance(b, BufVal):
            return a == b
        # a resolved abstract object (buffer/global/list/...) is never None
        _abstract = (BufVal, MaySet, GlobalRef, HandleVal, ClauseVal,
                     ListVal, DictVal, FuncVal)
        if a is None and isinstance(b, _abstract):
            return False
        if b is None and isinstance(a, _abstract):
            return False
        if _is_known(a) and _is_known(b):
            return a is b
        return OPAQUE

    @staticmethod
    def _contains(item, container):
        if isinstance(container, DictVal):
            if not _is_known(item):
                return OPAQUE
            try:
                hit = item in container.entries
            except TypeError:
                return OPAQUE
            if hit:
                return True
            return OPAQUE if container.weak else False
        if isinstance(container, ListVal):
            if isinstance(item, BufVal):
                if item in container.items:
                    return True
                return OPAQUE if not container.exact else False
            return OPAQUE
        if _is_known(item) and _is_known(container):
            try:
                return item in container
            except Exception:
                return OPAQUE
        return OPAQUE

    def _eval_IfExp(self, node: ast.IfExp):
        cond = self.eval(node.test)
        if _is_known(cond):
            return self.eval(node.body if cond else node.orelse)
        return _join_values(self.eval(node.body), self.eval(node.orelse))

    def _eval_JoinedStr(self, node: ast.JoinedStr):
        parts = []
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            elif isinstance(piece, ast.FormattedValue):
                v = self.eval(piece.value)
                parts.append(str(v) if _is_known(v) else "{?}")
            else:
                parts.append("{?}")
        return "".join(parts)

    def _eval_ListComp(self, node: ast.ListComp):
        if len(node.generators) != 1 or node.generators[0].ifs:
            return OPAQUE
        gen = node.generators[0]
        items = self._iterable_items(self.eval(gen.iter))
        if items is None:
            self.note(f"opaque comprehension iterable at L{node.lineno}")
            return OPAQUE
        env = self.env
        out = []
        for item in items:
            self.env = env.child()
            self._bind_target(gen.target, item)
            out.append(self.eval(node.elt))
            self.env = env
        return ListVal(out, exact=True)

    def _eval_Call(self, node: ast.Call):
        func = node.func
        # MapClause(...) is *modelled*, never constructed: constructing it
        # would run __post_init__ validation (MC-S05's always-misuse check)
        # at extraction time and abort on the corpus workloads.
        target = self.eval(func)
        if target is MapClause:
            return self._clause(node)
        if isinstance(func, ast.Attribute):
            base = self.eval(func.value)
            if isinstance(base, DictVal) and func.attr == "get":
                if node.args:
                    key = self.eval(node.args[0])
                    if _is_known(key):
                        try:
                            if key in base.entries:
                                return base.entries[key]
                        except TypeError:
                            return OPAQUE
                        if not base.weak:
                            return self.eval(node.args[1]) if len(node.args) > 1 else None
                return OPAQUE
        if target in (range, len, enumerate, zip, max, min, abs, int, float,
                      str, bool, round, sum, sorted, tuple, list):
            return self._call_builtin(target, node)
        return OPAQUE

    def _call_builtin(self, fn, node: ast.Call):
        args = [self.eval(a) for a in node.args]
        kn = {k.arg: self.eval(k.value) for k in node.keywords if k.arg}
        if fn is len:
            (arg,) = args
            if isinstance(arg, ListVal):
                return len(arg.items) if arg.exact else OPAQUE
            if _is_known(arg):
                return len(arg)
            return OPAQUE
        if fn in (enumerate, zip):
            resolved = []
            for arg in args:
                items = self._iterable_items(arg)
                if items is None:
                    return OPAQUE
                resolved.append(items)
            if fn is enumerate:
                start = kn.get("start", 0)
                if not isinstance(start, int):
                    return OPAQUE
                return ListVal(
                    [ListVal([start + i, item], exact=True)
                     for i, item in enumerate(resolved[0])],
                    exact=True,
                )
            n = min(len(r) for r in resolved)
            return ListVal(
                [ListVal([r[i] for r in resolved], exact=True) for i in range(n)],
                exact=True,
            )
        if not all(_is_known(a) for a in args) or not all(
            _is_known(v) for v in kn.values()
        ):
            return OPAQUE
        return fn(*args, **kn)

    def _iterable_items(self, value) -> Optional[List[object]]:
        """Concrete item list of an iterable value, or None."""
        if isinstance(value, ListVal):
            return list(value.items) if value.exact else None
        if _is_known(value) and isinstance(value, (range, list, tuple)):
            return list(value)
        return None

    def _clause(self, node: ast.Call) -> ClauseVal:
        args = list(node.args)
        kwargs = {k.arg: k.value for k in node.keywords if k.arg}
        buf_node = args[0] if args else kwargs.get("buf")
        kind_node = args[1] if len(args) > 1 else kwargs.get("kind")
        always_node = args[2] if len(args) > 2 else kwargs.get("always")
        buf = self.eval(buf_node) if buf_node is not None else OPAQUE
        kind: Optional[MapKind] = MapKind.TOFROM
        if kind_node is not None:
            kv = self.eval(kind_node)
            kind = kv if isinstance(kv, MapKind) else None
            if kind is None:
                self.note(f"opaque map kind at L{node.lineno}")
        always = False
        if always_node is not None:
            av = self.eval(always_node)
            always = bool(av) if _is_known(av) else False
        return ClauseVal(_bufref(buf), kind, always)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _bind_target(self, target: ast.AST, value) -> None:
        if isinstance(target, ast.Name):
            self.env.bind(target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = None
            if isinstance(value, ListVal) and value.exact:
                items = value.items
            elif _is_known(value) and isinstance(value, (tuple, list)):
                items = list(value)
            if items is not None and len(items) == len(target.elts) and not any(
                isinstance(e, ast.Starred) for e in target.elts
            ):
                for sub, item in zip(target.elts, items, strict=True):
                    self._bind_target(sub, item)
            else:
                for sub in target.elts:
                    self._bind_target(sub, OPAQUE)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value)
            idx = self.eval(target.slice)
            if isinstance(base, DictVal):
                if _is_known(idx):
                    try:
                        prev = base.entries.get(idx)
                    except TypeError:
                        base.weak = True
                        return
                    base.entries[idx] = (
                        value if prev is None else _join_values(prev, value)
                    )
                else:
                    base.weak = True
            elif isinstance(base, ListVal):
                if isinstance(idx, int) and base.exact and 0 <= idx < len(base.items):
                    base.items[idx] = _join_values(base.items[idx], value)
                else:
                    base.exact = False
        # attribute stores (glob.host_payload[...] = x) are irrelevant here

    def _th_call(self, node: ast.AST) -> Optional[Tuple[str, ast.Call]]:
        """Recognize ``th.<method>(...)``; returns (method, call node)."""
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(self.eval(node.func.value), _ThProxy)):
            return node.func.attr, node
        return None

    def _kwargs(self, node: ast.Call) -> Dict[str, ast.AST]:
        return {k.arg: k.value for k in node.keywords if k.arg}

    def _clauses_of(self, node: Optional[ast.AST]) -> Tuple[ClauseIR, ...]:
        if node is None:
            return ()
        value = self.eval(node)
        clauses: List[ClauseIR] = []
        if isinstance(value, ListVal):
            items = value.items if value.exact else value.items
            for item in items:
                if isinstance(item, ClauseVal):
                    clauses.append(ClauseIR(item.buf, item.kind, item.always))
                else:
                    self.note(f"non-clause in map list at L{getattr(node, 'lineno', 0)}")
            if not value.exact:
                # summarized list: clause multiplicity is unknown, so
                # every clause must become a weak (never-reporting) update
                clauses = [
                    ClauseIR(
                        BufRef(c.buf.sites, c.buf.display,
                               unknown=c.buf.unknown, weak=True),
                        c.kind, c.always,
                    )
                    for c in clauses
                ]
        elif isinstance(value, ClauseVal):
            clauses.append(ClauseIR(value.buf, value.kind, value.always))
        else:
            self.note(f"opaque map list at L{getattr(node, 'lineno', 0)}")
        return tuple(clauses)

    def _emit(self, seq: Optional[Seq], op) -> None:
        if seq is not None:
            seq.items.append(op)

    def _emit_th_op(self, seq: Optional[Seq], method: str, call: ast.Call,
                    assign_to: Optional[ast.AST]) -> None:
        kwargs = self._kwargs(call)
        args = list(call.args)
        lineno = call.lineno

        def arg(i: int, name: str) -> Optional[ast.AST]:
            if i < len(args):
                return args[i]
            return kwargs.get(name)

        if method == "alloc":
            name_node = arg(0, "name")
            name = self.eval(name_node) if name_node is not None else OPAQUE
            if not isinstance(name, str):
                name = "<buffer>"
            size_node = arg(1, "nbytes")
            size = self.eval(size_node) if size_node is not None else OPAQUE
            nbytes = int(size) if isinstance(size, int) and not isinstance(
                size, bool) else None
            buf = self._buffer_for(call, name, nbytes=nbytes)
            self._emit(seq, AllocOp(lineno=lineno, buf=buf))
            if assign_to is not None:
                self._bind_target(assign_to, BufVal(buf))
            return
        if method == "free":
            ref = _bufref(self.eval(arg(0, "buf")))
            self._emit(seq, FreeOp(lineno=lineno, buf=ref))
            return
        if method == "target_enter_data":
            self._emit(seq, EnterOp(lineno=lineno, clauses=self._clauses_of(arg(0, "maps"))))
            return
        if method == "target_exit_data":
            self._emit(seq, ExitOp(lineno=lineno, clauses=self._clauses_of(arg(0, "maps"))))
            return
        if method == "update_global":
            g = self.eval(arg(0, "glob"))
            self._emit(seq, GlobalSyncOp(
                lineno=lineno, name=g.name if isinstance(g, GlobalRef) else ""
            ))
            return
        if method == "target_update":
            def refs(node: Optional[ast.AST]) -> Tuple[BufRef, ...]:
                if node is None:
                    return ()
                v = self.eval(node)
                items = self._iterable_items(v)
                if items is None:
                    return (_bufref(v),) if isinstance(v, (BufVal, MaySet)) else ()
                return tuple(_bufref(i) for i in items)

            self._emit(seq, UpdateOp(
                lineno=lineno, to=refs(kwargs.get("to")), from_=refs(kwargs.get("from_")),
            ))
            return
        if method == "host_write":
            self._emit(seq, HostWriteOp(lineno=lineno, buf=_bufref(self.eval(arg(0, "buf")))))
            return
        if method == "wait":
            h = self.eval(arg(0, "handle"))
            if isinstance(h, HandleVal):
                self._emit(seq, WaitOp(lineno=lineno, handle_ids=frozenset((h.hid,))))
            elif isinstance(h, MaySet):
                hids = frozenset(m.hid for m in h.members if isinstance(m, HandleVal))
                self._emit(seq, WaitOp(lineno=lineno, handle_ids=hids, unknown=not hids))
            else:
                self._emit(seq, WaitOp(lineno=lineno, unknown=True))
                self.note(f"opaque wait handle at L{lineno}")
            if assign_to is not None:
                self._bind_target(assign_to, OPAQUE)
            return
        if method == "target":
            name_node = arg(0, "name")
            kname = self.eval(name_node) if name_node is not None else OPAQUE
            clauses = self._clauses_of(kwargs.get("maps") or arg(2, "maps"))
            touch_node = kwargs.get("touches")
            touches: Tuple[BufRef, ...] = ()
            if touch_node is not None:
                tv = self.eval(touch_node)
                items = self._iterable_items(tv)
                if items is None:
                    self.note(f"opaque touches list at L{lineno}")
                else:
                    touches = tuple(_bufref(i) for i in items)
            gnode = kwargs.get("globals_used")
            gnames: Tuple[str, ...] = ()
            if gnode is not None:
                gv = self.eval(gnode)
                items = self._iterable_items(gv) or []
                gnames = tuple(
                    i.name for i in items if isinstance(i, GlobalRef)
                )
            nowait_node = kwargs.get("nowait")
            nowait_val = self.eval(nowait_node) if nowait_node is not None else False
            nowait = bool(nowait_val) if _is_known(nowait_val) else False
            if not _is_known(nowait_val):
                self.note(f"opaque nowait at L{lineno}")
            op = TargetOp(
                lineno=lineno,
                kernel=kname if isinstance(kname, str) else "<kernel>",
                clauses=clauses, touches=touches, globals_used=gnames,
                nowait=nowait,
            )
            if nowait:
                hid = self._handle_for(call)
                op.handle_id = hid
                refs = frozenset(
                    s for c in clauses for s in c.buf.sites
                ) | frozenset(s for t in touches for s in t.sites)
                self.program.handles[hid] = (clauses, refs)
                if assign_to is not None:
                    self._bind_target(assign_to, HandleVal(hid))
            elif assign_to is not None:
                self._bind_target(assign_to, OPAQUE)
            self._emit(seq, op)
            return
        if method in ("mark",):
            return
        self.note(f"unmodelled th.{method} at L{lineno}")

    # ------------------------------------------------------------------
    def extract_stmts(self, stmts: List[ast.stmt], seq: Optional[Seq]) -> bool:
        """Process statements; returns False when a ``return`` ended the
        straight-line flow (callers stop extracting the sequence)."""
        return all(self.extract_stmt(stmt, seq) for stmt in stmts)

    def extract_stmt(self, stmt: ast.stmt, seq: Optional[Seq]) -> bool:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._stmt_assign(stmt, seq)
            return True
        if isinstance(stmt, ast.AugAssign):
            # accumulators (acc += ..., kid += 1) leave the folded world
            self._bind_target(stmt.target, OPAQUE)
            return True
        if isinstance(stmt, ast.Expr):
            self._stmt_expr(stmt, seq)
            return True
        if isinstance(stmt, ast.If):
            self._stmt_if(stmt, seq)
            return True
        if isinstance(stmt, ast.For):
            self._stmt_for(stmt, seq)
            return True
        if isinstance(stmt, ast.While):
            self._stmt_while(stmt, seq)
            return True
        if isinstance(stmt, ast.Return):
            self._emit(seq, ReturnNode(lineno=stmt.lineno))
            return False
        if isinstance(stmt, ast.FunctionDef):
            self.env.bind(stmt.name, FuncVal(stmt))
            return True
        if isinstance(stmt, (ast.Pass, ast.Import, ast.ImportFrom, ast.Global,
                             ast.Nonlocal, ast.Assert, ast.Delete)):
            return True
        self.note(f"unmodelled statement {type(stmt).__name__} at L{stmt.lineno}")
        return True

    def _stmt_assign(self, stmt, seq: Optional[Seq]) -> None:
        if isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target] if stmt.target is not None else []
            value = stmt.value
        else:
            targets = stmt.targets
            value = stmt.value
        if value is None:
            return
        inner = value.value if isinstance(value, (ast.YieldFrom, ast.Yield)) else value
        th = self._th_call(inner) if isinstance(value, ast.YieldFrom) else None
        if th is not None:
            method, call = th
            assign_to = targets[0] if len(targets) == 1 else None
            self._emit_th_op(seq, method, call, assign_to)
            if assign_to is None:
                for t in targets:
                    self._bind_target(t, OPAQUE)
            return
        if isinstance(value, (ast.YieldFrom, ast.Yield)):
            for t in targets:
                self._bind_target(t, OPAQUE)
            return
        v = self.eval(value)
        for t in targets:
            self._bind_target(t, v)

    def _stmt_expr(self, stmt: ast.Expr, seq: Optional[Seq]) -> None:
        value = stmt.value
        if isinstance(value, ast.YieldFrom):
            th = self._th_call(value.value)
            if th is not None:
                self._emit_th_op(seq, th[0], th[1], None)
            return
        if isinstance(value, ast.Yield):
            return  # env.timeout etc: simulated time only
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            base = self.eval(value.func.value)
            attr = value.func.attr
            if isinstance(base, _ThProxy):
                if attr == "host_write":
                    self._emit_th_op(seq, "host_write", value, None)
                return  # th.mark & friends: no mapping effect
            if isinstance(base, ListVal) and attr == "append":
                item = self.eval(value.args[0]) if value.args else OPAQUE
                if item in base.items:
                    base.exact = False  # refolding an abstract iteration
                else:
                    base.items.append(item)
                return
            if attr == "put" and base is getattr(self.workload, "outputs", None):
                key = self.eval(value.args[0]) if value.args else None
                bufs = []
                if len(value.args) > 1:
                    for name_node in ast.walk(value.args[1]):
                        if isinstance(name_node, ast.Name):
                            bound = self.env.lookup(name_node.id)
                            if isinstance(bound, BufVal):
                                bufs.append(_bufref(bound))
                self._emit(seq, OutputOp(
                    lineno=stmt.lineno,
                    key=key if isinstance(key, str) else None,
                    bufs=tuple(bufs),
                ))
                return
        # any other expression statement is mapping-irrelevant

    def _stmt_if(self, stmt: ast.If, seq: Optional[Seq]) -> None:
        cond = self.eval(stmt.test)
        if _is_known(cond):
            self.extract_stmts(stmt.body if cond else stmt.orelse, seq)
            return
        snap = self.env.snapshot()
        then_seq = Seq() if seq is not None else None
        self.extract_stmts(stmt.body, then_seq)
        then_env = self.env.snapshot()
        self.env.scopes[0].clear()
        self.env.scopes[0].update(snap)
        else_seq = Seq() if seq is not None else None
        self.extract_stmts(stmt.orelse, else_seq)
        else_env = self.env.snapshot()
        self.env.merge(then_env, else_env)
        if seq is not None:
            seq.items.append(Branch(then=then_seq, orelse=else_seq, lineno=stmt.lineno))

    def _stmt_for(self, stmt: ast.For, seq: Optional[Seq]) -> None:
        items = self._iterable_items(self.eval(stmt.iter))
        if items is not None and len(items) <= UNROLL_LIMIT:
            for i, item in enumerate(items):
                saved_ctx = self.ctx
                self.ctx = self.ctx + (i,)
                self._bind_target(stmt.target, item)
                self.extract_stmts(stmt.body, seq)
                self.ctx = saved_ctx
            return
        if items is not None:
            self.note(f"loop at L{stmt.lineno} has {len(items)} trips > "
                      f"{UNROLL_LIMIT}; abstracting")
        self._abstract_loop(stmt, seq, min_trips=1, kind="for",
                            trips=len(items) if items is not None else None,
                            bind=lambda: self._bind_loop_var(stmt, items))

    def _bind_loop_var(self, stmt: ast.For, items) -> None:
        if items:
            joined = items[0]
            for item in items[1:]:
                joined = _join_values(joined, item)
            self._bind_target(stmt.target, joined)
        else:
            self._bind_target(stmt.target, OPAQUE)

    def _stmt_while(self, stmt: ast.While, seq: Optional[Seq]) -> None:
        cond = self.eval(stmt.test)
        if _is_known(cond) and not cond:
            return
        self._abstract_loop(stmt, seq, min_trips=0, kind="while", bind=lambda: None)

    def _abstract_loop(self, stmt, seq: Optional[Seq], *, min_trips: int,
                       kind: str, bind, trips: Optional[int] = None) -> None:
        """Env-fixpoint extraction: re-evaluate the body without emitting
        until bindings stabilize, then emit IR once from the stable env."""
        pre = self.env.snapshot()
        saved_ctx = self.ctx
        self.ctx = self.ctx + (f"{kind}{stmt.lineno}",)
        for _pass in range(_FIXPOINT_PASSES):
            bind()
            self.extract_stmts(stmt.body, None)
        bind()
        body_seq = Seq() if seq is not None else None
        self.extract_stmts(stmt.body, body_seq)
        self.ctx = saved_ctx
        if min_trips == 0:
            self.env.merge(pre, self.env.snapshot())
        if seq is not None:
            seq.items.append(Loop(body=body_seq, min_trips=min_trips,
                                  kind=kind, lineno=stmt.lineno, trips=trips))

    # ------------------------------------------------------------------
    def run(self) -> ThreadProgram:
        args = self.body_fn.args.args
        if args:
            self.env.bind(args[0].arg, _ThProxy())
        if len(args) > 1:
            self.env.bind(args[1].arg, self.tid)
        self.extract_stmts(self.body_fn.body, self.program.body)
        return self.program


# ---------------------------------------------------------------------------
# top-level driver
# ---------------------------------------------------------------------------


def _fold_global_size(call: ast.Call, workload) -> Optional[int]:
    """Fold the byte size ``declare_target`` would allocate for a global.

    Mirrors ``OpenMPRuntime.declare_target``: the backing range is
    ``max(nbytes or 0, value.nbytes, 8)``.  The value/nbytes expressions
    are evaluated against the real workload instance (as ``self``) and
    its module globals; any failure yields ``None`` (size unresolved).
    """
    make_body = getattr(getattr(workload, "make_body", None), "__func__", None)
    mod_globals = getattr(make_body, "__globals__", None)
    if mod_globals is None:
        module = sys.modules.get(type(workload).__module__)
        mod_globals = dict(vars(module)) if module is not None else {}
    value_node = call.args[1] if len(call.args) > 1 else None
    nbytes_node = call.args[2] if len(call.args) > 2 else None
    for kw in call.keywords:
        if kw.arg == "value":
            value_node = kw.value
        elif kw.arg == "nbytes":
            nbytes_node = kw.value

    def _fold(node: Optional[ast.AST]):
        if node is None:
            return None
        return eval(  # noqa: S307 - same trust level as running prepare()
            compile(ast.Expression(body=node), "<prepare>", "eval"),
            mod_globals, {"self": workload},
        )

    try:
        value = _fold(value_node)
        nbytes = _fold(nbytes_node)
        vbytes = getattr(value, "nbytes", None)
        if vbytes is None:
            return None
        return max(int(nbytes or 0), int(vbytes), 8)
    except Exception:
        return None


def _scan_prepare(workload) -> Tuple[
    Dict[str, GlobalRef], Tuple[str, ...], Dict[str, Optional[int]]
]:
    """AST-scan ``prepare`` for ``self.<attr> = runtime.declare_target(
    "<name>", ...)`` without running it (it needs a live runtime).  The
    base class's empty ``prepare`` scans to nothing."""
    prepare = getattr(workload, "prepare", None)
    if prepare is None:
        return {}, (), {}
    try:
        src = textwrap.dedent(inspect.getsource(prepare))
        tree = ast.parse(src)
    except (OSError, TypeError, SyntaxError):
        return {}, (), {}
    attrs: Dict[str, GlobalRef] = {}
    names: List[str] = []
    sizes: Dict[str, Optional[int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        value = node.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "declare_target"
            and value.args
            and isinstance(value.args[0], ast.Constant)
            and isinstance(value.args[0].value, str)
        ):
            gname = value.args[0].value
            attrs[target.attr] = GlobalRef(gname)
            names.append(gname)
            sizes[gname] = _fold_global_size(value, workload)
    return attrs, tuple(names), sizes


def _body_function(make_body_fn) -> Tuple[ast.FunctionDef, List[ast.stmt], dict, str]:
    """Parse ``make_body`` and locate the returned thread-body function."""
    try:
        lines, start = inspect.getsourcelines(make_body_fn)
        src = textwrap.dedent("".join(lines))
        tree = ast.parse(src)
        ast.increment_lineno(tree, start - 1)  # real file line numbers
    except (OSError, TypeError, SyntaxError) as exc:
        raise ExtractionError(f"cannot read make_body source: {exc}") from exc
    fn = tree.body[0]
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise ExtractionError("make_body source does not start with a def")
    # The function's own __globals__ IS the defining module's namespace,
    # even for modules loaded via importlib.spec_from_file_location that
    # never land in sys.modules (the examples-smoke loader does this).
    fn_obj = getattr(make_body_fn, "__func__", make_body_fn)
    mod_globals = getattr(fn_obj, "__globals__", None)
    if mod_globals is None:
        module = sys.modules.get(make_body_fn.__module__)
        mod_globals = vars(module) if module is not None else {}
    source_file = mod_globals.get("__file__", "") or ""
    return fn, fn.body, mod_globals, source_file


def extract_workload(workload, name: str = "") -> WorkloadIR:
    """Extract the full :class:`WorkloadIR` of one workload instance."""
    make_body = getattr(workload, "make_body", None)
    if make_body is None:
        raise ExtractionError(f"{workload!r} has no make_body")
    fn, mb_stmts, mod_globals, source_file = _body_function(make_body)
    global_attrs, global_names, global_sizes = _scan_prepare(workload)
    out = WorkloadIR(
        name=name or getattr(workload, "name", type(workload).__name__),
        n_threads=getattr(workload, "n_threads", 1),
        globals_declared=frozenset(global_names),
        source_file=source_file,
        global_sizes=global_sizes,
    )
    proxy = _InstanceProxy(workload, global_attrs)
    # one make_body evaluation shared by every thread: module-level
    # closure objects (shared chunk lists, publication dicts) must be the
    # *same* abstract values across per-tid extractions
    mb_scope: dict = {}
    mb_env_scopes = [mb_scope, mod_globals]
    seed = _Extractor(workload, tid=0, mb_env_scopes=mb_env_scopes,
                      body_fn=fn, out=out)  # env machinery for mb-level eval
    seed.env = _Env([mb_scope, mod_globals])
    fn_args = fn.args.args
    if fn_args:
        mb_scope[fn_args[0].arg] = proxy
    body_fn: Optional[ast.FunctionDef] = None
    for stmt in mb_stmts:
        if isinstance(stmt, ast.FunctionDef):
            mb_scope[stmt.name] = FuncVal(stmt)
            continue
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                returned = seed.eval(stmt.value)
                if isinstance(returned, FuncVal):
                    body_fn = returned.node
            break
        seed.extract_stmt(stmt, None)
    if body_fn is None:
        raise ExtractionError(
            f"make_body of {out.name!r} does not return a local function"
        )
    for tid in range(out.n_threads):
        ex = _Extractor(workload, tid=tid, mb_env_scopes=mb_env_scopes,
                        body_fn=body_fn, out=out)
        out.threads.append(ex.run())
    return out
