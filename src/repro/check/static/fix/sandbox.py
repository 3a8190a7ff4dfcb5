"""Sandboxed re-analysis of candidate fixes.

A candidate edit is never trusted on syntactic grounds: the patched
source is written to a temp file, imported as a sibling module of the
workload's package (so its relative imports resolve), and the rebuilt
workload class is pushed through the *same* extraction + 27-rule static
report + perf lint the original went through
(:func:`~..rules.analyze_workload`) — and, at the engine's
request, through the full instrumented dynamic re-run under every
runtime configuration.  A fix is only ever accepted on the strength of
those re-analyses.
"""

from __future__ import annotations

import importlib.util
import itertools
import linecache
import os
import sys
import tempfile
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterator, Optional

from ....workloads.base import Workload

__all__ = ["SandboxError", "load_patched", "sandbox_dir"]

_counter = itertools.count(1)


class SandboxError(RuntimeError):
    """The patched source failed to import, rebuild or re-extract."""


@contextmanager
def sandbox_dir() -> Iterator[str]:
    """Temp directory for patched sources, cleaned up with its modules.

    Every ``_mapfix_sandboxN`` module loaded from the directory is dropped
    from ``sys.modules`` on exit, together with the files and the source
    lines ``inspect`` cached for them: the factories built from them are
    dead by then, and each would otherwise stay pinned for the life of
    the process.
    """
    with tempfile.TemporaryDirectory(prefix="mapfix-") as tmpdir:
        try:
            yield tmpdir
        finally:
            prefix = os.path.join(tmpdir, "")
            for name, module in list(sys.modules.items()):
                if ("_mapfix_sandbox" in name and (
                        getattr(module, "__file__", None) or ""
                ).startswith(prefix)):
                    del sys.modules[name]
            for path in [p for p in linecache.cache if p.startswith(prefix)]:
                del linecache.cache[path]


def _load_module(text: str, origin_module: str, tmpdir: str) -> ModuleType:
    """Import patched source as a sibling of the original's package.

    Naming the temp module ``<package>._mapfix_sandboxN`` makes its
    ``__package__`` the workload's own package, so relative imports in
    the patched source resolve against the installed tree while the
    module body itself comes from the temp file.
    """
    n = next(_counter)
    if "." in origin_module:
        package = origin_module.rsplit(".", 1)[0]
        mod_name = f"{package}._mapfix_sandbox{n}"
    else:
        mod_name = f"_mapfix_sandbox{n}"
    path = os.path.join(tmpdir, f"mapfix_{n}.py")
    with open(path, "w") as fh:
        fh.write(text)
    spec = importlib.util.spec_from_file_location(mod_name, path)
    if spec is None or spec.loader is None:  # pragma: no cover
        raise SandboxError(f"cannot load patched source as {mod_name}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[mod_name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        sys.modules.pop(mod_name, None)
        raise SandboxError(f"patched source failed to import: {exc}") from exc
    return module


def load_patched(
    text: str,
    origin_module: str,
    cls_name: str,
    tmpdir: str,
    rebuild: Optional[Callable[[ModuleType], Workload]] = None,
) -> Callable[[], Workload]:
    """Import patched source; return a fresh-instance factory.

    ``rebuild`` customizes instantiation for workload classes that take
    constructor arguments (the porting advisor's profiled apps); the
    default calls the class with no arguments, like the corpus.
    """
    module = _load_module(text, origin_module, tmpdir)
    if rebuild is not None:
        return lambda: rebuild(module)
    try:
        cls = getattr(module, cls_name)
    except AttributeError as exc:
        raise SandboxError(
            f"patched source no longer defines {cls_name!r}"
        ) from exc
    return lambda: cls()
