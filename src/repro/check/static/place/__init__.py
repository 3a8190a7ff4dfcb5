"""MapPlace: static page-placement analysis and affinity lint.

Splits MapCost's byte/page counters into local vs. remote-link shares
per (config, topology, placement) analysis point, lints placements that
pay the inter-socket link (MC-A rules), and validates both against the
instrumented :class:`~repro.multisocket.card.ApuCard` telemetry.
"""

from .model import PLACE_BOUNDED_KEYS, PLACEMENTS, PlaceSpec
from .rules import (
    HOT_REMOTE_PAGE_VISITS,
    LINK_SATURATION_BYTES,
    PLACE_RULE_IDS,
    REMOTE_FAULT_STORM_PAGE_THRESHOLD,
    place_findings,
    place_report,
)
from .walker import predict_card, predict_place
from .differential import DEFAULT_POINTS, measure_place, place_differential

__all__ = [
    "PLACE_BOUNDED_KEYS",
    "PLACEMENTS",
    "PlaceSpec",
    "PLACE_RULE_IDS",
    "REMOTE_FAULT_STORM_PAGE_THRESHOLD",
    "HOT_REMOTE_PAGE_VISITS",
    "LINK_SATURATION_BYTES",
    "place_findings",
    "place_report",
    "predict_place",
    "predict_card",
    "DEFAULT_POINTS",
    "measure_place",
    "place_differential",
]
