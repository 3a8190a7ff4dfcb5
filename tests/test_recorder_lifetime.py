"""A MapCheck recording lets go of its run when the run ends.

The recorder is unhooked from the runtime and its present table as soon
as the recorded run returns or raises, and keeps only the run's clock.
Dropping the report then frees every event by reference counting: with
the cyclic collector off, no recorder or event may be left alive.  The
event records are slotted dataclasses.
"""

import dataclasses
import gc
from collections import Counter

import pytest

from repro.check import check_named, check_workload, events
from repro.check.corpus import CORPUS, PERF_CORPUS
from repro.workloads.base import Fidelity

_EVENTS = (events.MapOpEvent, events.TableEvent, events.KernelEvent,
           events.HostWriteEvent, events.GlobalSyncEvent, events.UpdateEvent)
_WATCHED = (events.CheckRecorder, events.MapOpEvent, events.TableEvent,
            events.KernelEvent)


def _live():
    live = Counter()
    for obj in gc.get_objects():
        if isinstance(obj, _WATCHED):
            live[type(obj).__name__] += 1
    return live


def _live_after(run):
    """Recorder/event objects that ``run()`` leaves alive once its result
    is dropped, with only reference counting to free them."""
    gc.collect()
    gc.disable()
    try:
        before = _live()
        run()
        return dict(_live() - before)
    finally:
        gc.enable()


def test_a_checked_workload_leaves_no_recorder_alive():
    live = _live_after(lambda: check_named(
        "qmcpack", Fidelity.TEST, static=True, perf=True))
    assert live == {}


def test_an_aborted_recording_leaves_no_recorder_alive():
    cls = CORPUS["underflow"]
    report = check_workload(cls, cls.name)
    assert report.aborted is not None  # the recorded run raises
    live = _live_after(lambda: check_workload(cls, cls.name))
    assert live == {}


@pytest.mark.parametrize("short", sorted({**CORPUS, **PERF_CORPUS}))
def test_no_corpus_check_leaves_a_recorder_alive(short):
    # crashing cross-configuration runs (missing-map) hold tracebacks
    # whose frames reach back to the recording
    cls = {**CORPUS, **PERF_CORPUS}[short]
    assert _live_after(lambda: check_workload(cls, cls.name)) == {}


@pytest.mark.parametrize("cls", _EVENTS, ids=lambda c: c.__name__)
def test_event_records_are_slotted(cls):
    assert "__slots__" in cls.__dict__
    values = {f.name: None for f in dataclasses.fields(cls)}
    assert not hasattr(cls(**values), "__dict__")
