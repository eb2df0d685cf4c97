"""The trace record schema and its validator.

Every line of a trace JSONL file is one **span record** (schema v2):

===========  =========  ==================================================
field        type       meaning
===========  =========  ==================================================
``v``        int        schema version (always 2)
``type``     str        record type, always ``"span"``
``trace``    str        trace id shared by every span of one run
``span``     str        unique span id
``parent``   str|null   parent span id (null for roots)
``pid``      int        emitting process id
``instance`` str        emitting instance label, e.g. ``shard0/r1``
                        (empty when the process was not labelled)
``name``     str        span name, e.g. ``summarize:Mags`` /
                        ``phase:merge`` / ``service:request``
``start_unix``  number  wall-clock start (``time.time()``)
``wall_s``   number     wall duration in seconds
``cpu_s``    number     CPU (``time.process_time``) duration in seconds
``attrs``    object     arbitrary attributes (algorithm, params, ...)
``counters`` object     name -> accumulated number
``events``   array      ``{"name", "at_s", "attrs"}`` point events
===========  =========  ==================================================

The validator is what the CI observability job (and ``python -m repro
trace --validate``) runs against emitted traces, so the schema above
is load-bearing documentation: changing the emitter without updating
this module fails the build.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.tracer import SCHEMA_VERSION

__all__ = [
    "SCHEMA_VERSION",
    "validate_record",
    "validate_trace",
    "validate_trace_file",
]

_NUMBER = (int, float)

#: field name -> accepted types (None in the tuple means nullable).
_FIELDS: dict[str, tuple] = {
    "v": (int,),
    "type": (str,),
    "trace": (str,),
    "span": (str,),
    "parent": (str, type(None)),
    "pid": (int,),
    "instance": (str,),
    "name": (str,),
    "start_unix": _NUMBER,
    "wall_s": _NUMBER,
    "cpu_s": _NUMBER,
    "attrs": (dict,),
    "counters": (dict,),
    "events": (list,),
}


def validate_record(record: Any, where: str = "record") -> list[str]:
    """Schema errors of one span record (empty list == valid)."""
    if not isinstance(record, dict):
        return [f"{where}: not a JSON object"]
    errors: list[str] = []
    for field, types in _FIELDS.items():
        if field not in record:
            errors.append(f"{where}: missing field {field!r}")
            continue
        value = record[field]
        if not isinstance(value, types) or isinstance(value, bool):
            errors.append(
                f"{where}: field {field!r} has type "
                f"{type(value).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    if not errors:
        if record["v"] != SCHEMA_VERSION:
            errors.append(
                f"{where}: schema version {record['v']}, "
                f"expected {SCHEMA_VERSION}"
            )
        if record["type"] != "span":
            errors.append(f"{where}: type {record['type']!r} != 'span'")
        if record["wall_s"] < 0 or record["cpu_s"] < 0:
            errors.append(f"{where}: negative duration")
        for counter, value in record["counters"].items():
            if not isinstance(value, _NUMBER) or isinstance(value, bool):
                errors.append(
                    f"{where}: counter {counter!r} is not a number"
                )
        for i, event in enumerate(record["events"]):
            if (
                not isinstance(event, dict)
                or not isinstance(event.get("name"), str)
                or not isinstance(event.get("at_s"), _NUMBER)
                or not isinstance(event.get("attrs"), dict)
            ):
                errors.append(f"{where}: event[{i}] malformed")
    return errors


def validate_trace(
    records: list[dict[str, Any]],
    *,
    require_single_trace: bool = True,
) -> list[str]:
    """Schema + referential errors of a whole trace.

    Beyond per-record checks: every non-null parent id must resolve to
    a span in the trace, and all spans must share one trace id.  Pass
    ``require_single_trace=False`` for per-instance span files, which
    interleave spans from many requests *and* may reference parents
    living in another process's file (the cluster collector merges
    the fragments down to one trace id before full validation).
    """
    errors: list[str] = []
    for i, record in enumerate(records):
        errors.extend(validate_record(record, where=f"line {i + 1}"))
    if errors:
        return errors
    if not records:
        return ["trace is empty"]
    traces = {r["trace"] for r in records}
    if not require_single_trace:
        return errors
    if len(traces) > 1:
        errors.append(f"multiple trace ids in one file: {sorted(traces)}")
    ids = {r["span"] for r in records}
    for i, record in enumerate(records):
        parent = record["parent"]
        if parent is not None and parent not in ids:
            errors.append(
                f"line {i + 1}: parent {parent!r} not found in trace"
            )
    return errors


def validate_trace_file(path: str | Path) -> list[str]:
    """Read a JSONL trace and return its validation errors."""
    from repro.obs.exporters import read_trace_jsonl

    try:
        records = read_trace_jsonl(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable trace file: {exc}"]
    return validate_trace(records)
