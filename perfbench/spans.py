"""Host-time spans around calls into the program's layers.

A :class:`Tracer` keeps a stack of open spans.  Host time accrues to the
layer of the innermost open span, so a span's *self time* (its duration
minus its child spans) is what its layer gets while it is open.  Self
times therefore add up to the summed duration of the root spans: host
time is never counted twice and never lost inside a span.

Generator entry points (every simulated-time method of the program is a
generator driven with ``yield from``) are wrapped by a generator that
times each resume of the inner one as its own span and passes ``send``,
``throw`` and ``close`` straight through, so ``Interrupt`` and
``SimulationError`` paths behave exactly as without the wrapper.

:class:`Patcher` installs wrappers on classes and module attributes and
restores the originals on exit, including every module that imported
an entry point by name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from types import FunctionType, GeneratorType
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Tracer", "traced_function", "traced_generator", "Patcher"]


class Tracer:
    """Per-layer self time and call counters.  A layer has a ``self_s``
    entry once one of its spans has run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        #: named call counters (a generator counts once, not per resume)
        self.calls: Dict[str, int] = defaultdict(int)
        #: summed duration of root spans (self times add up to this)
        self.root_s = 0.0
        #: layer of the innermost open span (``None`` outside every span)
        self.layer: Optional[str] = None
        #: layers of the enclosing spans, outermost first
        self._stack: List[Optional[str]] = []
        self._since = 0.0  # when ``layer`` last started accruing self time
        self._root_start = 0.0

    def enter(self, layer: str) -> None:
        now = self.clock()
        if self.layer is None:
            self._root_start = now
        else:
            self.self_s[self.layer] += now - self._since
        self._stack.append(self.layer)
        self.layer = layer
        self._since = now

    def exit(self) -> None:
        now = self.clock()
        self.self_s[self.layer] += now - self._since
        self.layer = self._stack.pop()
        self._since = now
        if self.layer is None:
            self.root_s += now - self._root_start

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one ``layer`` span."""
        self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    @property
    def depth(self) -> int:
        return len(self._stack)


def traced_generator(tracer: Tracer, layer: str, gen: GeneratorType):
    """Drive ``gen`` as ``yield from`` would, timing each resume.  A
    resume from inside a span of the same layer opens no span of its own:
    its time is that layer's self time either way."""
    enter, exit_, send = tracer.enter, tracer.exit, gen.send
    value = None
    error: Optional[BaseException] = None
    while True:
        own = tracer.layer != layer
        if own:
            enter(layer)
        try:
            item = send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            error = None
            if own:
                exit_()
        try:
            value = yield item
        except GeneratorExit:
            tracer.enter(layer)
            try:
                gen.close()
            finally:
                tracer.exit()
            raise
        except BaseException as exc:  # noqa: BLE001 - re-thrown into gen
            error = exc


def wrap_generator(tracer: Tracer, layer: str, gen: GeneratorType) -> GeneratorType:
    """:func:`traced_generator` under the inner generator's name (process
    names default to it)."""
    wrapper = traced_generator(tracer, layer, gen)
    wrapper.__name__ = gen.__name__
    wrapper.__qualname__ = gen.__qualname__
    return wrapper


def traced_function(
    tracer: Tracer, layer: str, fn: Callable, counter: Optional[str] = None
) -> Callable:
    """Wrap ``fn`` in a ``layer`` span; a returned generator is wrapped
    so its resumes are timed too.  ``counter``, if given, counts calls.
    A call from inside a span of the same layer opens no span."""

    enter, exit_, calls = tracer.enter, tracer.exit, tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            calls[counter] += 1
        if tracer.layer == layer:
            result = fn(*args, **kwargs)
        else:
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
        if type(result) is GeneratorType:
            return wrap_generator(tracer, layer, result)
        return result

    return wrapper


class Patcher:
    """Install attribute replacements; :meth:`restore` undoes them all."""

    def __init__(self):
        #: (owner, name, had_own_attribute, original value)
        self._undo: List[Tuple[object, str, bool, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        own = name in vars(owner)
        self._undo.append((owner, name, own, vars(owner).get(name)))
        setattr(owner, name, value)

    def wrap_function(
        self, module, name: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``module.name`` and every by-name import of it in the
        loaded ``repro`` modules."""
        original = getattr(module, name)
        wrapped = make(original)
        for mod in repro_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, wrapped)
        if getattr(module, name) is not wrapped:
            self.set(module, name, wrapped)

    def wrap_methods(
        self,
        cls: type,
        make: Callable[[str, Callable], Callable],
        names: Optional[Iterable[str]] = None,
    ) -> int:
        """Wrap the plain functions defined on ``cls`` (``__init__`` and
        public names); ``names`` picks them, inherited ones too."""
        if names is None:
            names = [
                n for n, v in vars(cls).items()
                if isinstance(v, FunctionType)
                and (n == "__init__" or not n.startswith("_"))
            ]
        names = list(names)
        for n in names:
            self.set(cls, n, make(n, getattr(cls, n)))
        return len(names)

    def restore(self) -> None:
        while self._undo:
            owner, name, own, value = self._undo.pop()
            if own:
                setattr(owner, name, value)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def repro_modules() -> list:
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]
