"""MapFix's source index against the per-query AST walks it replaced.

The oracle helpers below are the walking implementations ``FixContext``
used before it indexed its tree: each query walks the whole module.
Every line of every input must resolve to the same nodes (by identity)
and the same blocks through the index, ties included.
"""

import ast
import inspect
import textwrap

import pytest

import repro.check.corpus as corpus_mod
from repro.check.registry import make_workload, workload_names
from repro.check.static.fix.synthesize import FixContext, SourceIndex
from repro.workloads.base import Fidelity


# ---------------------------------------------------------------------------
# the walking oracle
# ---------------------------------------------------------------------------
def oracle_functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]


def oracle_stmt_lists(tree):
    out = []
    for node in ast.walk(tree):
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(node, attr, None)
            if (isinstance(block, list) and block
                    and isinstance(block[0], ast.stmt)):
                out.append(block)
    return out


def oracle_stmt_at(tree, line):
    best = None
    for block in oracle_stmt_lists(tree):
        for stmt in block:
            end = stmt.end_lineno or stmt.lineno
            if stmt.lineno <= line <= end:
                if best is None or stmt.lineno >= best[0].lineno:
                    best = (stmt, block)
    return best


def oracle_enclosing_function(tree, line):
    best = None
    for fn in oracle_functions(tree):
        end = fn.end_lineno or fn.lineno
        if fn.lineno <= line <= end and (
                best is None or fn.lineno > best.lineno):
            best = fn
    return best


def oracle_enclosing_loop(tree, line):
    best = None
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.While)):
            end = node.end_lineno or node.lineno
            if node.lineno <= line <= end and (
                    best is None or node.lineno > best.lineno):
                best = node
    return best


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
TIES = textwrap.dedent('''\
    import functools

    def deco(fn):
        return fn

    @deco
    @functools.lru_cache(None)
    def decorated(th, y):
        for x in y: f(x)
        a = 1; b = 2
        def inner(q): return q
        def twin(): pass; pass
        while a:
            a -= 1
        else:
            b = 3
        try:
            g()
        except ValueError:
            h(); k()
        else:
            for i in y:
                while i: i -= 1
        finally:
            pass
        if a: c = 1
        else: c = 2
        return [inner(v) for v in y]

    class Box:
        @staticmethod
        def m(): return 1; x = 2

        def n(self):
            for a in b:
                for c in d: pass
            else: e()
''')


def _registry_sources():
    files = {inspect.getsourcefile(type(make_workload(n, Fidelity.TEST)))
             for n in workload_names()}
    return sorted(files)


def _text_of(source):
    if source == "ties":
        return TIES
    with open(source) as fh:
        return fh.read()


SOURCES = ["ties", corpus_mod.__file__] + _registry_sources()


@pytest.mark.parametrize("source", SOURCES,
                         ids=lambda s: s if s == "ties" else s.rsplit("/", 2)[-1])
def test_index_matches_the_walking_oracle_on_every_line(source):
    text = _text_of(source)
    index = SourceIndex(text)
    ctx = FixContext(name="t", ir=None, path=source, text=text,
                     indexer=lambda _text: index)
    tree = index.tree
    assert ctx.functions() == oracle_functions(tree)
    assert ctx.stmt_lists() == oracle_stmt_lists(tree)
    for line in range(0, len(index.lines) + 2):
        want, got = oracle_stmt_at(tree, line), ctx.stmt_at(line)
        if want is None:
            assert got is None, line
        else:
            assert got[0] is want[0] and got[1] is want[1], line
        assert ctx.enclosing_function(line) is \
            oracle_enclosing_function(tree, line), line
        assert ctx.enclosing_loop(line) is \
            oracle_enclosing_loop(tree, line), line


def _line(text):
    return TIES.splitlines().index(text) + 1


def test_tie_input_exercises_same_line_ties():
    # guard the hand-written input: statements that start on one line
    # occur, and the index breaks their ties toward the later one
    index = SourceIndex(TIES)
    starts = [s.lineno for b in index.blocks for s in b]
    assert len(starts) > len(set(starts))
    ctx = FixContext(name="t", ir=None, path="ties", text=TIES)
    stmt, _block = ctx.stmt_at(_line("    a = 1; b = 2"))
    assert isinstance(stmt, ast.Assign) and stmt.targets[0].id == "b"
    stmt, _block = ctx.stmt_at(_line("    for x in y: f(x)"))
    assert isinstance(stmt, ast.Expr)
    assert isinstance(ctx.enclosing_loop(_line("    for x in y: f(x)")),
                      ast.For)
    assert isinstance(ctx.enclosing_loop(_line("            while i: i -= 1")),
                      ast.While)
    # a decorated def starts on its ``def`` line, not its decorators'
    line = _line("def decorated(th, y):")
    assert ctx.enclosing_function(line - 1) is None
    assert ctx.enclosing_function(line).name == "decorated"
    assert ctx.thread_param(_line("    a = 1; b = 2")) == "th"
    assert ctx.enclosing_function(_line("    def inner(q): return q")).name \
        == "inner"
