"""Abstract domain for MapFlow.

:class:`Refcount` is the per-buffer present-table refcount lattice.
The public shape is the four-point chain ``⊥ < 0 < 1 < ⊤``; the
implementation refines the middle with exact small counts
(0..3) and a saturating ``>=SAT`` band so nested ``target data``
regions stay precise, plus a ``POS`` point ("present, count unknown")
so a weakly-exited nest does not immediately collapse to ``⊤``.  The
join is *flat on distinct exact values that disagree about presence*
— ``join(0, 1) = ⊤``, not ``1`` — because reporting rules need
"definitely absent on some path", which a chain lub would destroy.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Refcount"]


@dataclass(frozen=True)
class Refcount:
    """One lattice point.  ``code`` encoding:

    * ``BOT`` (-2): unreachable / never-allocated-here
    * ``0..MAX_EXACT``: exact refcount
    * ``SAT``: refcount known >= MAX_EXACT + 1
    * ``POS`` (-3): definitely present, count unknown (>= 1)
    * ``TOP`` (-1): unknown (may be absent or present)
    """

    code: int

    MAX_EXACT = 3

    def __repr__(self) -> str:
        if self is BOT or self.code == -2:
            return "⊥"
        if self.code == -1:
            return "⊤"
        if self.code == -3:
            return ">=1"
        if self.code == self.MAX_EXACT + 1:
            return f">={self.code}"
        return str(self.code)

    # -- predicates -----------------------------------------------------
    @property
    def definitely_absent(self) -> bool:
        return self.code == 0

    @property
    def definitely_present(self) -> bool:
        return self.code == -3 or 1 <= self.code <= self.MAX_EXACT + 1

    @property
    def unknown(self) -> bool:
        return self.code == -1

    @property
    def is_bottom(self) -> bool:
        return self.code == -2

    # -- transfer -------------------------------------------------------
    def enter(self) -> "Refcount":
        """Effect of a strong map-enter (retain-or-insert)."""
        if self.code == -2:          # allocated elsewhere: now present
            return POS
        if self.code in (-1, -3):
            return POS               # present for sure now, count unknown
        return exact(min(self.code + 1, self.MAX_EXACT + 1))

    def exit(self, delete: bool = False) -> "Refcount":
        """Effect of a strong map-exit.  ``delete`` zeroes the count
        (map(delete:) semantics); callers check ``definitely_absent``
        *before* applying this to decide whether to report."""
        if delete:
            return ZERO
        if self.code == -2 or self.code == -1:
            return TOP
        if self.code == -3:
            return TOP               # >=1 minus 1 may reach 0
        if self.code == 0:
            return ZERO              # underflow (reported by caller)
        if self.code == self.MAX_EXACT + 1:
            return POS               # >=4 minus 1 is >=3, keep it sound: >=1
        return exact(self.code - 1)

    def join(self, other: "Refcount") -> "Refcount":
        a, b = self.code, other.code
        if a == b:
            return self
        if a == -2:
            return other
        if b == -2:
            return self
        if a == -1 or b == -1:
            return TOP
        # both are exact or POS from here on
        sp = self.definitely_present
        op = other.definitely_present
        if sp and op:
            return POS               # disagree on count, agree on presence
        return TOP                   # one side may be 0: flat join


def exact(n: int) -> Refcount:
    return _EXACT[n]


BOT = Refcount(-2)
TOP = Refcount(-1)
POS = Refcount(-3)
_EXACT = {n: Refcount(n) for n in range(Refcount.MAX_EXACT + 2)}
ZERO = _EXACT[0]
ONE = _EXACT[1]

