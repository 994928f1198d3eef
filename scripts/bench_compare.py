#!/usr/bin/env python
"""Compare two ``BENCH_*.json`` snapshots and flag mean-time regressions.

Usage::

    python scripts/bench_compare.py results_before/BENCH_substrate.json \
        results_after/BENCH_substrate.json [--threshold 0.20]

Both files must be snapshots of the same bench module (the gauges written by
``benchmarks/bench_substrate.py`` / ``benchmarks/bench_train.py``, or
``python -m repro.serve.bench``'s ``BENCH_serve.json``). Every
``*_mean_seconds*`` gauge present in both files is compared; the script
prints a per-kernel table and exits non-zero if any kernel's mean slowed
down by more than ``--threshold`` (default 20%). Throughput gauges
(``*_throughput_rps``) are higher-is-better and fail on a drop of more
than the threshold instead. Adaptation-recovery gauges from ``--adapt``
serve-bench runs are gated the same way: the pre/post-swap forecast
errors are lower-is-better, the recovery improvement fraction
higher-is-better. Kernels present in only one snapshot are
reported but never fail the comparison — new benches must not break an
older baseline diff.

On a busy or single-core machine the mean is easily inflated by scheduler
noise; pass ``--stat min`` to compare best-observed times instead, which is
far more robust for detecting genuine kernel regressions.

Snapshots may also carry self-describing speedup metadata (the
``BENCH_train.json`` convention): a ``speedup`` tree of computed ratios, a
``speedup_references`` map explaining *which reference epoch* each ratio's
denominator suffix refers to (frozen pre-PR timings vs rows of the same
snapshot — the distinction matters because a frozen reference silently
accumulates machine drift), and a ``speedup_floors`` map of
``<case>.<name> -> minimum``. The candidate's speedups are printed with
their reference provenance, and any floor violation fails the comparison
like a timing regression would.

A missing or unparseable *baseline* file exits 0 with a notice (first run
of a pipeline has no snapshot yet; a torn file must not fail CI forever) —
only a readable baseline that then regresses can fail the comparison.
"""

from __future__ import annotations

import argparse
import json
import sys


THROUGHPUT_NEEDLE = "_throughput_rps"
# Adaptation-recovery gauges (``--adapt`` serve bench runs): the post-swap
# error and the pre-swap error it recovered from are lower-is-better and
# compare like timings; the improvement fraction is higher-is-better and
# compares like a throughput. All three are only present when the bench ran
# the adaptation replay and the candidate actually swapped.
ADAPT_LOWER_GAUGES = (
    "serve_adaptation_recovery_pre_swap_error",
    "serve_adaptation_recovery_post_swap_error",
)
ADAPT_HIGHER_GAUGES = ("serve_adaptation_recovery_improvement_fraction",)
# Absolute budget gauges: checked against a fixed ceiling on the candidate
# snapshot alone (no baseline needed). bench_serve_trace_overhead_fraction
# is the throughput cost of running the serve bench with trace recording on
# (--trace-overhead); tracing must stay within 5% of the untraced run.
BUDGET_GAUGES = {"bench_serve_trace_overhead_fraction": 0.05}


def load_means(path: str, stat: str = "mean") -> dict:
    """Time gauges (lower is better): ``*_{stat}_seconds``."""
    with open(path) as handle:
        data = json.load(handle)
    gauges = data.get("gauges", data)
    needle = f"_{stat}_seconds"
    return {
        key: float(value)
        for key, value in gauges.items()
        if needle in key and isinstance(value, (int, float))
    }


def load_adaptation(path: str) -> tuple:
    """Adaptation-recovery gauges: ``(lower_is_better, higher_is_better)``.

    Both dicts are empty when the snapshot was not produced by an
    ``--adapt`` serve-bench run (or the run never swapped) — absent gauges
    simply opt out of the comparison, same as any other kernel.
    """
    with open(path) as handle:
        data = json.load(handle)
    gauges = data.get("gauges", data)
    lower = {
        key: float(gauges[key])
        for key in ADAPT_LOWER_GAUGES
        if isinstance(gauges.get(key), (int, float))
    }
    higher = {
        key: float(gauges[key])
        for key in ADAPT_HIGHER_GAUGES
        if isinstance(gauges.get(key), (int, float))
    }
    return lower, higher


def load_throughputs(path: str) -> dict:
    """Throughput gauges (higher is better): ``*_throughput_rps``."""
    with open(path) as handle:
        data = json.load(handle)
    gauges = data.get("gauges", data)
    return {
        key: float(value)
        for key, value in gauges.items()
        if key.endswith(THROUGHPUT_NEEDLE) and isinstance(value, (int, float))
    }


def check_budgets(path: str, budgets: dict = None) -> list:
    """Budget-gauge violations in one snapshot: ``[(gauge, value, limit)]``.

    Missing gauges never violate — the budgets only bind when the bench was
    run in the mode that produces them.
    """
    with open(path) as handle:
        data = json.load(handle)
    gauges = data.get("gauges", data)
    budgets = BUDGET_GAUGES if budgets is None else budgets
    violations = []
    for key, limit in sorted(budgets.items()):
        value = gauges.get(key)
        if isinstance(value, (int, float)) and float(value) > limit:
            violations.append((key, float(value), limit))
    return violations


def _reference_of(name: str, references: dict) -> str:
    """The provenance blurb for a ``<mode>_vs_<reference>`` speedup name."""
    for key in sorted(references, key=len, reverse=True):
        if name.endswith(f"_vs_{key}"):
            return references[key]
    return "reference not described in this snapshot"


def report_speedups(path: str) -> list:
    """Print a snapshot's speedups with provenance; return floor violations.

    Reads the ``speedup`` / ``speedup_references`` / ``speedup_floors``
    sections (absent in older snapshots — then nothing is printed and
    nothing can fail). Returns ``[(dotted_name, value, floor)]`` for every
    speedup below its declared floor.
    """
    with open(path) as handle:
        data = json.load(handle)
    speedups = data.get("speedup")
    if not isinstance(speedups, dict) or not speedups:
        return []
    references = data.get("speedup_references") or {}
    floors = data.get("speedup_floors") or {}
    violations = []
    print("\nspeedups in candidate snapshot:")
    for case in sorted(speedups):
        entries = speedups[case]
        if not isinstance(entries, dict):
            continue
        for name in sorted(entries):
            value = entries[name]
            if not isinstance(value, (int, float)):
                continue
            dotted = f"{case}.{name}"
            floor = floors.get(dotted)
            marker = ""
            if isinstance(floor, (int, float)) and float(value) < float(floor):
                violations.append((dotted, float(value), float(floor)))
                marker = f"  << BELOW FLOOR {float(floor):.2f}x"
            floor_note = (
                f" [floor {float(floor):.2f}x]" if isinstance(floor, (int, float)) else ""
            )
            print(f"  {dotted}: {float(value):.2f}x{floor_note}{marker}")
            print(f"    vs {_reference_of(name, references)}")
    return violations


def compare(before_path: str, after_path: str, threshold: float, stat: str = "mean") -> int:
    try:
        before = load_means(before_path, stat)
        before_tp = load_throughputs(before_path)
        before_lo, before_hi = load_adaptation(before_path)
    except (OSError, ValueError) as exc:
        # A missing or damaged baseline is the normal first-run state (no
        # snapshot committed yet, or a crash tore the file): there is
        # nothing to regress against, so report and succeed instead of
        # failing fresh CI pipelines with a traceback.
        print(
            f"notice: no usable baseline at {before_path} ({exc}); "
            "skipping comparison — commit a fresh snapshot to enable it"
        )
        return 0
    try:
        after = load_means(after_path, stat)
        after_tp = load_throughputs(after_path)
        after_lo, after_hi = load_adaptation(after_path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read candidate snapshot {after_path}: {exc}", file=sys.stderr)
        return 2
    shared = sorted(set(before) & set(after))
    shared_tp = sorted(set(before_tp) & set(after_tp))
    shared_lo = sorted(set(before_lo) & set(after_lo))
    shared_hi = sorted(set(before_hi) & set(after_hi))
    if not shared and not shared_tp and not shared_lo and not shared_hi:
        print(
            f"error: the snapshots share no *_{stat}_seconds or "
            f"*{THROUGHPUT_NEEDLE} gauges",
            file=sys.stderr,
        )
        return 2

    regressions = []
    width = max(len(key) for key in shared + shared_tp + shared_lo + shared_hi)
    print(f"{'kernel'.ljust(width)}  {'before':>10}  {'after':>10}  {'delta':>8}")
    for key in shared:
        old, new = before[key], after[key]
        delta = (new - old) / old if old > 0 else float("inf")
        marker = ""
        if delta > threshold:
            regressions.append((key, delta))
            marker = "  << REGRESSION"
        print(
            f"{key.ljust(width)}  {old * 1e3:9.3f}ms  {new * 1e3:9.3f}ms  "
            f"{delta * 100:+7.1f}%{marker}"
        )
    for key in shared_tp:
        old, new = before_tp[key], after_tp[key]
        # Higher is better: a *drop* beyond the threshold is the regression.
        delta = (new - old) / old if old > 0 else 0.0
        marker = ""
        if delta < -threshold:
            regressions.append((key, delta))
            marker = "  << REGRESSION"
        print(
            f"{key.ljust(width)}  {old:8.1f}r/s  {new:8.1f}r/s  "
            f"{delta * 100:+7.1f}%{marker}"
        )
    for key in shared_lo:
        old, new = before_lo[key], after_lo[key]
        # Forecast error after the hot-swap: lower is better, same rule as a
        # timing — growing beyond the threshold is the regression.
        delta = (new - old) / old if old > 0 else 0.0
        marker = ""
        if delta > threshold:
            regressions.append((key, delta))
            marker = "  << REGRESSION"
        print(
            f"{key.ljust(width)}  {old:10.3f}  {new:10.3f}  "
            f"{delta * 100:+7.1f}%{marker}"
        )
    for key in shared_hi:
        old, new = before_hi[key], after_hi[key]
        # Recovery improvement fraction: higher is better, same rule as a
        # throughput — a drop beyond the threshold is the regression.
        delta = (new - old) / old if old > 0 else 0.0
        marker = ""
        if delta < -threshold:
            regressions.append((key, delta))
            marker = "  << REGRESSION"
        print(
            f"{key.ljust(width)}  {old * 100:9.1f}%  {new * 100:9.1f}%  "
            f"{delta * 100:+7.1f}%{marker}"
        )
    seen_before = {**before, **before_tp, **before_lo, **before_hi}
    seen_after = {**after, **after_tp, **after_lo, **after_hi}
    for key in sorted(set(seen_before) ^ set(seen_after)):
        side = "before only" if key in seen_before else "after only"
        print(f"{key.ljust(width)}  ({side})")

    for key, value, limit in check_budgets(after_path):
        regressions.append((key, value))
        print(
            f"{key.ljust(width)}  {value * 100:7.1f}%  over absolute budget "
            f"{limit * 100:.0f}%  << REGRESSION"
        )

    for name, value, floor in report_speedups(after_path):
        # A speedup below its declared floor fails like a slowdown of the
        # same relative size would.
        regressions.append((name, value / floor - 1.0))

    if regressions:
        worst = max(regressions, key=lambda item: abs(item[1]))
        print(
            f"\nFAIL: {len(regressions)} kernel(s) regressed more than "
            f"{threshold * 100:.0f}% (worst: {worst[0]} {worst[1] * 100:+.1f}%)",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: no kernel regressed more than {threshold * 100:.0f}%")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="baseline BENCH_*.json")
    parser.add_argument("after", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="fractional mean-time regression that fails the diff (default 0.20)",
    )
    parser.add_argument(
        "--stat",
        choices=("mean", "min"),
        default="mean",
        help="which per-kernel statistic to compare (min is robust to noise)",
    )
    args = parser.parse_args()
    return compare(args.before, args.after, args.threshold, args.stat)


if __name__ == "__main__":
    sys.exit(main())
