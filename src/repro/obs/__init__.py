"""repro.obs — the operational observability plane.

Two legs, one package:

- :mod:`repro.obs.prom` — Prometheus-text rendering of the telemetry
  :class:`~repro.telemetry.metrics.MetricsRegistry` and of the serve
  daemon's live state (``GET /metrics``, ``repro obs snapshot``);
- :mod:`repro.obs.flightrec` — the crash-dumping flight recorder ring.

Everything is opt-in and bitwise-neutral on run outputs: the exporter
only *reads* registries, and the flight recorder's hooks are ``None``-check no-ops until installed.
"""

from .flightrec import (
    DEFAULT_CAPACITY,
    FLIGHTREC_SCHEMA_VERSION,
    FlightRecorder,
    dump_now,
    install,
    installed,
    note,
    uninstall,
)
from .prom import (
    CONTENT_TYPE,
    Family,
    parse_prometheus,
    registry_families,
    render,
    render_registry,
    serve_families,
)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_CAPACITY",
    "FLIGHTREC_SCHEMA_VERSION",
    "Family",
    "FlightRecorder",
    "dump_now",
    "install",
    "installed",
    "note",
    "parse_prometheus",
    "registry_families",
    "render",
    "render_registry",
    "serve_families",
    "uninstall",
]
