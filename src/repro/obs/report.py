"""Render a JSONL run log as text: ``python -m repro.obs.report run.jsonl``.

Prints, per run log:

- a header (run id, seed, recorded config),
- the epoch curve (train/val loss and seconds per epoch),
- eval / early-stop events,
- the "top ops by self time" table when the log's ``run_end`` event carries
  a profiler trace (see :class:`repro.obs.observers.JsonlObserver`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.obs.runlog import read_events


def format_rows(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Align ``rows`` under ``headers`` with a dashed separator."""
    table = [list(headers)] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(table[0], widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in table[1:]:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def epoch_table(events: List[Dict]) -> Optional[str]:
    epochs = [event for event in events if event.get("event") == "epoch"]
    if not epochs:
        return None
    rows = [
        [
            _fmt(event.get("epoch")),
            _fmt(event.get("train_loss")),
            _fmt(event.get("val_loss")),
            _fmt(event.get("seconds"), 2),
            _fmt(event.get("ts"), 2),
        ]
        for event in epochs
    ]
    return format_rows(["epoch", "train_loss", "val_loss", "seconds", "ts"], rows)


def ops_table(events: List[Dict], limit: int = 15) -> Optional[str]:
    trace = None
    for event in events:
        if event.get("event") == "run_end" and event.get("trace"):
            trace = event["trace"]
    if not trace:
        return None
    total_self = sum(row.get("self_s", 0.0) for row in trace) or 1.0
    rows = [
        [
            row["name"],
            _fmt(row.get("count")),
            _fmt(row.get("total_s"), 4),
            _fmt(row.get("self_s"), 4),
            f"{100.0 * row.get('self_s', 0.0) / total_self:.1f}%",
        ]
        for row in sorted(trace, key=lambda r: r.get("self_s", 0.0), reverse=True)[:limit]
    ]
    return format_rows(["op", "calls", "total_s", "self_s", "self%"], rows)


def event_counts(events: List[Dict]) -> Dict[str, int]:
    """How many of each event type the log carries (lifecycle excluded)."""
    counts: Dict[str, int] = {}
    for event in events:
        name = event.get("event")
        if name in (None, "run_start", "run_end"):
            continue
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


def summarize_run(events: List[Dict]) -> Dict:
    """A machine-readable digest of one run log (``--format json``)."""
    start = next((e for e in events if e.get("event") == "run_start"), None)
    end = next((e for e in events if e.get("event") == "run_end"), None)
    epochs = [event for event in events if event.get("event") == "epoch"]
    # Engine plan-cache statistics (entries per cache, hit/miss traffic)
    # are logged once at run close by the pipeline runner;
    # surface the newest record minus the event envelope.
    plan_cache = next(
        (e for e in reversed(events) if e.get("event") == "plan_cache"), None
    )
    if plan_cache is not None:
        plan_cache = {
            key: value
            for key, value in plan_cache.items()
            if key not in ("event", "ts")
        }
    return {
        "run_id": (start or {}).get("run_id"),
        "seed": (start or {}).get("seed"),
        "config": (start or {}).get("config"),
        "status": (end or {}).get("status"),
        "duration_seconds": (end or {}).get("ts"),
        "events": event_counts(events),
        "plan_cache": plan_cache,
        "epochs": [
            {
                "epoch": event.get("epoch"),
                "train_loss": event.get("train_loss"),
                "val_loss": event.get("val_loss"),
                "seconds": event.get("seconds"),
            }
            for event in epochs
        ],
        "alerts": [
            event
            for event in events
            if event.get("event") in ("drift_detected", "slo_burn", "early_stop")
        ],
    }


def render_run(events: List[Dict], limit: int = 15) -> str:
    """The full text report for one run log."""
    sections = []
    start = next((e for e in events if e.get("event") == "run_start"), None)
    if start is not None:
        header = [f"run {start.get('run_id')}"]
        if start.get("seed") is not None:
            header.append(f"seed={start['seed']}")
        sections.append("  ".join(header))
        if start.get("config"):
            sections.append("config: " + json.dumps(start["config"], default=str))
    epochs = epoch_table(events)
    if epochs is not None:
        sections.append("== epochs ==\n" + epochs)
    else:
        # Serve/bench-style logs have no training loop; show what they DO
        # carry instead of an empty table.
        counts = event_counts(events)
        listing = (
            "\n".join(f"{name}  x{count}" for name, count in counts.items())
            if counts
            else "(no events)"
        )
        sections.append("== events (no epoch events) ==\n" + listing)
    for event in events:
        if event.get("event") in ("drift_detected", "slo_burn"):
            fields = {k: v for k, v in event.items() if k not in ("event", "ts")}
            sections.append(f"{event['event']}: " + json.dumps(fields, default=str))
    extras = [
        event
        for event in events
        if event.get("event") in ("eval", "early_stop") and "epoch" not in event
    ]
    for event in extras:
        fields = {k: v for k, v in event.items() if k not in ("event", "ts")}
        sections.append(f"{event['event']}: " + json.dumps(fields, default=str))
    stops = [event for event in events if event.get("event") == "early_stop"]
    for event in stops:
        if event in extras:
            continue
        sections.append(
            f"early_stop at epoch {event.get('epoch')}: "
            f"best val {_fmt(event.get('best_val_loss'))} @ epoch {event.get('best_epoch')}"
        )
    ops = ops_table(events, limit=limit)
    sections.append(
        "== top ops by self time ==\n"
        + (ops or "(no op trace recorded — fit with JsonlObserver(profile=True))")
    )
    end = next((e for e in events if e.get("event") == "run_end"), None)
    if end is not None:
        sections.append(
            f"run_end status={end.get('status')} after {_fmt(end.get('ts'), 2)}s"
        )
    return "\n\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__
    )
    parser.add_argument("paths", nargs="+", help="JSONL run log file(s)")
    parser.add_argument("--top", type=int, default=15, help="op-table row limit")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="json emits one digest document per log (see summarize_run)",
    )
    args = parser.parse_args(argv)
    status = 0
    digests = []
    for index, path in enumerate(args.paths):
        try:
            events = read_events(path)
        except OSError as error:
            print(f"error: cannot read {path}: {error.strerror or error}", file=sys.stderr)
            status = 1
            continue
        except json.JSONDecodeError as error:
            print(f"error: {path} is not a JSONL run log ({error})", file=sys.stderr)
            status = 1
            continue
        if args.format == "json":
            digests.append({"path": path, **summarize_run(events)})
        else:
            if index:
                print("\n" + "=" * 72 + "\n")
            print(render_run(events, limit=args.top))
    if args.format == "json":
        print(json.dumps(digests if len(args.paths) > 1 else digests[0] if digests else {}, default=str, indent=2))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
