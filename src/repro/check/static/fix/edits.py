"""Line-oriented source edits: MapFix's patch representation.

A :class:`SourceEdit` replaces an inclusive 1-based line range with new
lines (``end == start - 1`` encodes a pure insertion *before* ``start``).
Whole-line granularity is all the synthesizers need — every map construct
the extractor records is a statement — and it keeps three consumers
trivially consistent: :func:`apply_edits` (the sandbox rewrite),
:func:`render_diff` (the ``--fix-out`` patch files) and
:func:`sarif_replacements` (SARIF 2.1.0 ``fixes[].artifactChanges``).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "SourceEdit",
    "EditError",
    "apply_edits",
    "render_diff",
    "sarif_replacements",
]


class EditError(ValueError):
    """An edit does not apply cleanly (overlap or out of bounds)."""


@dataclass(frozen=True)
class SourceEdit:
    """Replace source lines ``start..end`` (1-based, inclusive) with
    ``new_lines``; ``end == start - 1`` inserts before ``start``."""

    start: int
    end: int
    new_lines: Tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self):
        if self.start < 1 or self.end < self.start - 1:
            raise EditError(f"bad edit range [{self.start}, {self.end}]")

    @property
    def is_insertion(self) -> bool:
        return self.end == self.start - 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "start": self.start,
            "end": self.end,
            "new_lines": list(self.new_lines),
            "note": self.note,
        }


def _check_disjoint(edits: Sequence[SourceEdit], n_lines: int) -> None:
    last_end = 0
    for e in sorted(edits, key=lambda e: (e.start, e.end)):
        if e.end > n_lines:
            raise EditError(
                f"edit [{e.start}, {e.end}] past end of file ({n_lines} lines)"
            )
        # an insertion occupies the zero-width gap before `start`; a
        # replacement occupies start..end — either way `start` must lie
        # strictly after every previously claimed line
        if e.start <= last_end:
            raise EditError(f"overlapping edits at line {e.start}")
        last_end = max(last_end, e.end)


def apply_edits(text: str, edits: Sequence[SourceEdit]) -> str:
    """Apply disjoint edits to source text; raises :class:`EditError`."""
    lines = text.splitlines()
    _check_disjoint(edits, len(lines))
    for e in sorted(edits, key=lambda e: e.start, reverse=True):
        lines[e.start - 1 : e.end] = list(e.new_lines)
    return "\n".join(lines) + ("\n" if text.endswith("\n") else "")


def render_diff(before: str, after: str, path: str) -> str:
    """Unified diff of a whole-file rewrite, `git apply`-able."""
    out = difflib.unified_diff(
        before.splitlines(keepends=True),
        after.splitlines(keepends=True),
        fromfile=f"a/{path}",
        tofile=f"b/{path}",
    )
    return "".join(out)


def sarif_replacements(edits: Sequence[SourceEdit]) -> List[Dict[str, object]]:
    """SARIF ``replacements`` for one artifactChange.

    Whole-line convention: a replacement's ``deletedRegion`` spans the
    replaced lines (column-less, i.e. the entire lines); an insertion's
    ``deletedRegion`` is the zero-width region at column 1 of ``start``.
    ``insertedContent.text`` always ends in a newline.
    """
    out: List[Dict[str, object]] = []
    for e in sorted(edits, key=lambda e: e.start):
        region: Dict[str, object] = {"startLine": e.start}
        if e.is_insertion:
            region.update(
                {"startColumn": 1, "endLine": e.start, "endColumn": 1}
            )
        else:
            region["endLine"] = e.end
        rep: Dict[str, object] = {"deletedRegion": region}
        if e.new_lines:
            rep["insertedContent"] = {"text": "\n".join(e.new_lines) + "\n"}
        out.append(rep)
    return out


@dataclass(frozen=True)
class _LineMap:
    """Maps line numbers of an edited text back to the original text."""

    #: 1-based edited line -> 1-based original line, for unchanged lines
    back: Dict[int, int] = field(default_factory=dict)


def line_map(original: str, edited: str) -> _LineMap:
    """Line correspondence original<-edited for unchanged lines."""
    a = original.splitlines()
    b = edited.splitlines()
    if a == b:
        # every round-1 fix: nothing to diff
        return _LineMap({n: n for n in range(1, len(a) + 1)})
    back: Dict[int, int] = {}
    matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            for off in range(i2 - i1):
                back[j1 + off + 1] = i1 + off + 1
    return _LineMap(back)


def rebase_edit(edit: SourceEdit, mapping: _LineMap,
                edited_len: int) -> SourceEdit:
    """Express an edit against an edited text in original coordinates.

    Only edits whose replaced lines all survive unchanged from the
    original (and whose insertion anchors do) can be rebased; anything
    else raises :class:`EditError` — the caller treats that as a
    verification failure rather than emit a fix it cannot locate.
    """
    back = mapping.back
    if edit.is_insertion:
        # anchor on the first unchanged line at/after the insertion
        # point; past end-of-file anchors after the last mapped line
        for ln in range(edit.start, edited_len + 1):
            if ln in back:
                return SourceEdit(back[ln], back[ln] - 1,
                                  edit.new_lines, edit.note)
        if back:
            tail = max(back.values()) + 1
            return SourceEdit(tail, tail - 1, edit.new_lines, edit.note)
        raise EditError("cannot anchor insertion in original text")
    mapped = [back.get(ln) for ln in range(edit.start, edit.end + 1)]
    if any(m is None for m in mapped):
        raise EditError(
            f"lines [{edit.start}, {edit.end}] were already rewritten by "
            "an earlier fix; cannot rebase"
        )
    lo, hi = mapped[0], mapped[-1]
    if hi - lo != edit.end - edit.start:
        raise EditError("replaced lines are not contiguous in the original")
    return SourceEdit(lo, hi, edit.new_lines, edit.note)
