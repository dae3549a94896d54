"""Validate a Chrome ``trace_event`` JSON file produced by ``repro trace``.

Checks the structural invariants Perfetto / chrome://tracing rely on:

* top-level object with a ``traceEvents`` list,
* every event carries ``ph``, ``pid``, ``tid`` and the per-phase required
  keys (``ts``/``name``/``dur`` as applicable),
* per-(pid, tid) duration events nest properly — every ``E`` closes an open
  ``B``, no span ends before it starts, and no track is left with open spans,
* timestamps within each track's span stack are non-decreasing,
* the ``engine`` track covers the simulation's agents: one span per warp
  (``cta<c>.w<w>``), matching the CTAs started on the ``sm<i>.slot<j>``
  tracks times each CTA's warp count, and one span per CTA slot started
  (``sm<i>.slot<j>``), that is per slot and kernel that ran a CTA on it.

When :mod:`jsonschema` is installed the file is additionally checked against
a JSON Schema of the event envelope; without it the hand-rolled checks alone
run (they are the stricter ones anyway).

Usage::

    PYTHONPATH=src python -m repro.tools.validate_trace trace.json
"""

from __future__ import annotations

import argparse
import json
import re
from bisect import bisect_right
from collections import Counter
from pathlib import Path

#: Phases repro's ChromeTracer emits.  Anything else is flagged.
KNOWN_PHASES = {"B", "E", "i", "X", "C", "M"}

#: Extra keys each phase must carry beyond ph/pid/tid.
REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    "B": ("name", "ts"),
    "E": ("ts",),
    "i": ("name", "ts"),
    "X": ("name", "ts", "dur"),
    "C": ("name", "ts", "args"),
    "M": ("name", "args"),
}

#: JSON Schema for one trace event (used only when jsonschema is available).
EVENT_SCHEMA = {
    "type": "object",
    "properties": {
        "ph": {"type": "string", "enum": sorted(KNOWN_PHASES)},
        "pid": {"type": "integer"},
        "tid": {"type": "integer"},
        "name": {"type": "string"},
        "ts": {"type": "number", "minimum": 0},
        "dur": {"type": "number", "minimum": 0},
        "args": {"type": "object"},
        "s": {"type": "string"},
        "cat": {"type": "string"},
    },
    "required": ["ph", "pid", "tid"],
}

TRACE_SCHEMA = {
    "type": "object",
    "properties": {
        "traceEvents": {"type": "array", "items": EVENT_SCHEMA},
        "displayTimeUnit": {"type": "string"},
    },
    "required": ["traceEvents"],
}


#: A CTA slot's track, and the engine span its start leaves.
SLOT_TRACK = re.compile(r"sm\d+\.slot\d+")
#: The engine span a warp leaves when it retires.
WARP_SPAN = re.compile(r"cta\d+\.w\d+")


def span_coverage_errors(events: list) -> list[str]:
    """Check that the ``engine`` track has one span per warp and per slot.

    Expected counts come from the trace's own CTA spans: each ``B`` event on
    a ``sm<i>.slot<j>`` track starts one CTA named ``<kernel>/cta<c>`` with
    ``args.warps`` warps, so warps ``cta<c>.w0`` .. ``cta<c>.w<warps-1>``
    must each leave one ``engine`` span.  A slot starts once per kernel
    launch (a ``B`` span on the ``gpu`` track) in which it ran a CTA, and
    leaves one ``engine`` span named after its track each time.
    """
    tracks = {
        event["tid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    kernel_starts = sorted(
        event["ts"] for event in events
        if event["ph"] == "B" and tracks.get(event["tid"]) == "gpu"
    )
    want_warps: Counter = Counter()
    slot_runs: set[tuple[str, int]] = set()
    got_warps: Counter = Counter()
    got_slots: Counter = Counter()
    for event in events:
        track = tracks.get(event["tid"])
        if event["ph"] == "B" and track and SLOT_TRACK.fullmatch(track):
            cta = event["name"].rsplit("/", 1)[-1]
            for warp in range(event.get("args", {}).get("warps", 0)):
                want_warps[f"{cta}.w{warp}"] += 1
            slot_runs.add((track, bisect_right(kernel_starts, event["ts"])))
        elif event["ph"] == "X" and track == "engine":
            if WARP_SPAN.fullmatch(event["name"]):
                got_warps[event["name"]] += 1
            elif SLOT_TRACK.fullmatch(event["name"]):
                got_slots[event["name"]] += 1
    want_slots = Counter(track for track, _kernel in slot_runs)
    errors = []
    if got_warps != want_warps:
        missing = sorted((want_warps - got_warps).elements())
        extra = sorted((got_warps - want_warps).elements())
        errors.append(
            f"engine: {sum(got_warps.values())} warp spans, expected"
            f" {sum(want_warps.values())} from the CTAs started;"
            f" missing {missing[:5]}, unexpected {extra[:5]}"
        )
    if got_slots != want_slots:
        missing = sorted((want_slots - got_slots).elements())
        extra = sorted((got_slots - want_slots).elements())
        errors.append(
            f"engine: {sum(got_slots.values())} slot spans, expected"
            f" {sum(want_slots.values())} (one per slot and kernel that ran"
            f" a CTA); missing {missing[:5]}, unexpected {extra[:5]}"
        )
    return errors


def _jsonschema_errors(data: object) -> list[str]:
    try:
        import jsonschema
    except ImportError:
        return []
    validator = jsonschema.Draft7Validator(TRACE_SCHEMA)
    return [
        f"schema: {'/'.join(str(p) for p in error.absolute_path) or '<root>'}:"
        f" {error.message}"
        for error in validator.iter_errors(data)
    ]


def validate_trace(data: object) -> list[str]:
    """Return every invariant violation found in a loaded trace (or [])."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return ["top level is not a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]

    # (pid, tid) -> stack of (name, ts) for open B spans.
    open_spans: dict[tuple[int, int], list[tuple[str, float]]] = {}

    for position, event in enumerate(events):
        where = f"event {position}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            errors.append(f"{where} (ph={ph}): pid/tid missing or non-integer")
            continue
        missing = [key for key in REQUIRED_KEYS[ph] if key not in event]
        if missing:
            errors.append(f"{where} (ph={ph}): missing {', '.join(missing)}")
            continue

        if ph == "M":
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where} (ph={ph}): bad ts {ts!r}")
            continue

        track = (event["pid"], event["tid"])
        stack = open_spans.setdefault(track, [])
        if ph == "B":
            if stack and ts < stack[-1][1]:
                errors.append(
                    f"{where}: B {event['name']!r} at ts={ts} starts before"
                    f" its enclosing span {stack[-1][0]!r} (ts={stack[-1][1]})"
                )
            stack.append((event["name"], ts))
        elif ph == "E":
            if not stack:
                errors.append(f"{where}: E with no open B on track {track}")
                continue
            name, begin_ts = stack.pop()
            if ts < begin_ts:
                errors.append(
                    f"{where}: span {name!r} ends at ts={ts} before its"
                    f" begin ts={begin_ts}"
                )
        elif ph == "X":
            dur = event["dur"]
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X {event['name']!r} bad dur {dur!r}")

    for track, stack in open_spans.items():
        for name, ts in stack:
            errors.append(
                f"track {track}: span {name!r} opened at ts={ts} never closed"
            )

    # Coverage reads the events' fields freely, so it runs only on a trace
    # whose events are well formed.
    if not errors:
        errors.extend(span_coverage_errors(events))
    errors.extend(_jsonschema_errors(data))
    return errors


def validate_trace_file(path: Path) -> list[str]:
    """Load ``path`` and validate it; parse failures become errors."""
    try:
        with path.open() as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: cannot load trace JSON: {exc}"]
    return validate_trace(data)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.validate_trace",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("trace", type=Path, nargs="+", help="trace JSON file(s)")
    args = parser.parse_args(argv)
    failed = False
    for path in args.trace:
        errors = validate_trace_file(path)
        if errors:
            failed = True
            print(f"{path}: INVALID ({len(errors)} problems)")
            for error in errors[:20]:
                print(f"  {error}")
            if len(errors) > 20:
                print(f"  ... and {len(errors) - 20} more")
        else:
            with path.open() as handle:
                count = len(json.load(handle).get("traceEvents", []))
            print(f"{path}: OK ({count} events)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
