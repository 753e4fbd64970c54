"""Structured tracing and metrics for the NchooseK pipeline.

The compile → embed → anneal / transpile → QAOA pipeline is instrumented
with *spans* (nestable timed regions carrying wall and CPU time plus
attributes) and *metrics* (monotonic counters, last-value gauges, and
summary histograms).  All instrumentation is zero-dependency (stdlib
only) and routes through a process-global recorder:

* with telemetry **disabled** (the default, or ``REPRO_TELEMETRY=0``),
  every call dispatches to a :class:`~repro.telemetry.recorder.NullRecorder`
  whose methods are no-ops — instrumented code costs roughly one
  attribute lookup and one no-op call per event;
* with telemetry **enabled** (``REPRO_TELEMETRY=1`` in the environment,
  or :func:`enable` at runtime), events accumulate in a thread-safe
  :class:`~repro.telemetry.recorder.TelemetryRecorder` that the
  exporters in :mod:`repro.telemetry.export` turn into a human-readable
  per-stage report or a JSON-lines stream.

Typical use::

    from repro import telemetry

    telemetry.enable()
    with telemetry.span("compile.program", constraints=12):
        telemetry.count("compile.cache.hits")
        telemetry.observe("compile.synthesize.seconds", 0.004)
    print(telemetry.render_report())

Span and metric naming conventions, the canonical names each package
emits, and the exporter formats are documented in
``docs/observability.md``.  The declared subsystem prefixes live in
:data:`~repro.telemetry.naming.KNOWN_SPAN_PREFIXES` and are enforced
statically by ``tests/test_codebase.py``.
"""

from .naming import KNOWN_NAME_FAMILIES, KNOWN_SPAN_PREFIXES, is_canonical_name
from .export import (
    pipeline_headline,
    portfolio_section,
    read_jsonl,
    render_report,
    to_jsonl,
    write_jsonl,
)
from .recorder import (
    CounterStat,
    GaugeStat,
    HistogramStat,
    NullRecorder,
    Span,
    SpanRecord,
    TelemetryRecorder,
    count,
    current_span,
    disable,
    enable,
    enabled,
    gauge,
    get_recorder,
    observe,
    set_recorder,
    span,
)

__all__ = [
    "KNOWN_NAME_FAMILIES",
    "KNOWN_SPAN_PREFIXES",
    "is_canonical_name",
    "CounterStat",
    "GaugeStat",
    "HistogramStat",
    "NullRecorder",
    "Span",
    "SpanRecord",
    "TelemetryRecorder",
    "count",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_recorder",
    "observe",
    "pipeline_headline",
    "portfolio_section",
    "read_jsonl",
    "render_report",
    "set_recorder",
    "span",
    "to_jsonl",
    "write_jsonl",
]
