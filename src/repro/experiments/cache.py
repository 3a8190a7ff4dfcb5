"""Content-addressed on-disk cache for experiment cells.

Every ``(workload, configuration, repetition)`` cell of an experiment is
a pure function of its spec: the workload's parameters, the runtime
configuration, the explicit seed, the metric, the noise flag, the cost
model and the simulation engine version.  :func:`cell_digest` hashes exactly that
closure — canonical JSON, SHA-256 — and :class:`CellCache` stores each
:class:`~repro.experiments.parallel.CellOutcome` in a file named by its
digest.  The consequences:

* **a warm run performs zero simulation cells** — ``--cache`` composes
  with ``--jobs``: only the misses fan out over the process pool;
* **a stale entry cannot be served**: any input that could change a
  number (a cost constant, the workload's size, the engine version
  :data:`~repro.sim.core.ENGINE_VERSION`, this module's
  :data:`CACHE_SCHEMA`) changes the digest, so the old entry is simply
  never looked up again.  There is no invalidation logic to get wrong.

Layout: ``<root>/<digest[:2]>/<digest>.json`` (sharded to keep
directories small).  Writes go through a temp file + ``os.replace`` so a
crashed run never leaves a truncated entry; unreadable or corrupt
entries count as misses.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import json
import os
import tempfile
from typing import Dict, Optional

from ..core.params import CostModel
from ..sim import ENGINE_VERSION
from .parallel import CellOutcome, ExperimentCell

__all__ = ["CACHE_SCHEMA", "CellCache", "cell_digest", "workload_fingerprint"]

#: Bumped when the entry format or digest recipe changes; part of the key.
CACHE_SCHEMA = "repro-cell-v2"

#: scalar types admitted into the workload fingerprint
_SCALARS = (int, float, str, bool)


def workload_fingerprint(workload) -> Dict[str, object]:
    """Everything about a workload instance that can influence results.

    ``describe()`` carries the declared identity (name — which embeds
    e.g. the QMCPack size — thread count, fidelity); on top of that,
    every scalar instance attribute is folded in, so a workload parameter
    that someone forgets to surface in ``describe()`` still invalidates
    the cache.  Arrays/outputs are excluded: they are *produced* by the
    run, not inputs to it.
    """
    fp: Dict[str, object] = dict(workload.describe())
    for name, value in sorted(vars(workload).items()):
        if name == "outputs" or name.startswith("_"):
            continue
        if isinstance(value, enum.Enum):
            fp.setdefault(f"attr.{name}", value.value)
        elif isinstance(value, _SCALARS):
            fp.setdefault(f"attr.{name}", value)
    return fp


def cell_digest(cell: ExperimentCell) -> str:
    """SHA-256 over the canonical JSON of the cell's full input closure."""
    payload = {
        "schema": CACHE_SCHEMA,
        "engine_version": ENGINE_VERSION,
        "workload": workload_fingerprint(cell.factory()),
        "config": cell.config.value,
        "seed": cell.seed,
        "metric": cell.metric,
        "noise": bool(cell.noise),
        "cost": CostModel().describe(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CellCache:
    """Digest-keyed persistent store of :class:`CellOutcome` values."""

    def __init__(self, root: str):
        self.root = str(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + ".json")

    def get(self, digest: str) -> Optional[CellOutcome]:
        """The cached outcome, or ``None`` (corrupt entries are misses)."""
        try:
            with open(self._path(digest)) as fh:
                raw = json.load(fh)
            if raw.get("schema") != CACHE_SCHEMA:
                raise ValueError("schema mismatch")
            outcome = CellOutcome(
                value=float(raw["value"]),
                sim_events=int(raw["sim_events"]),
                ledger={str(k): v for k, v in raw["ledger"].items()},
            )
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return outcome

    def put(self, digest: str, outcome: CellOutcome) -> None:
        """Atomically persist one outcome (tmp file + rename)."""
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "value": outcome.value,
            "sim_events": outcome.sim_events,
            "ledger": outcome.ledger,
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stores += 1

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}
