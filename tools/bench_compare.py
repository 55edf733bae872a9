#!/usr/bin/env python3
"""Bench throughput regression comparator.

Compares freshly produced ``BENCH_*.json`` reports against the committed
snapshots in ``bench/snapshots/`` and fails when a row's throughput
regressed by more than the threshold (default 30%). Three metrics are
checked on every row that carries them:

  * ``epochs_per_sec``             — lower is a regression,
  * ``wall_ms``                    — higher is a regression,
  * ``revenue_ratio_vs_two_phase`` — lower is a regression (tournament
    rows in ``BENCH_tournament.json``: a policy suddenly earning
    relatively less revenue than the two-phase reference is a quality
    regression even when throughput held steady).

Rows are matched by their identity fields (preset / pattern / transport /
policy / demands / threads / rebalance / scheduler / phase / seed —
whichever the row carries); duplicate identities pair up in file order. Rows flagged
``oversubscribed`` (more threads than cores, see bench_parallel) are
skipped: their wall clock measures scheduler contention, not the engine.
Baseline rows with no fresh counterpart — e.g. a CI smoke run at smaller
sizes — are reported but never fail the check, so the tool degrades to
advisory coverage rather than forcing every environment to reproduce the
snapshot sizes.

Wall-clock numbers move with the machine, which is why CI runs this as a
continue-on-error advisory step (after the hard schema guard): a red run
is a prompt to look, not a merge blocker.

Usage:
  tools/bench_compare.py --baseline-dir bench/snapshots --dir build
  tools/bench_compare.py --baseline-dir bench/snapshots --dir build \
      --threshold 0.5 --strict   # also fail when nothing matched
"""

import argparse
import json
import os
import sys

# Fields that name a row (as opposed to measuring it). A row's identity
# is the ordered tuple of (field, value) for every identity field it
# carries, plus an occurrence index so repeated identities (e.g. the
# same preset run once standalone and once in a transport matrix) pair
# up positionally.
IDENTITY_FIELDS = (
    "preset",
    "pattern",
    "transport",
    "policy",
    "scheduler",
    "phase",
    "kind",
    "demands",
    "threads",
    "rebalance",
    "seed",
)

# metric -> direction: +1 means higher-is-better, -1 lower-is-better.
METRICS = {
    "epochs_per_sec": +1,
    "wall_ms": -1,
    "revenue_ratio_vs_two_phase": +1,
    # Dynamic-universe cost split (BENCH_online.json): pool setup and
    # amortized per-arrival extension. Both wall clocks, lower is
    # better; the pool_sweep_* rows are what keep the per-arrival
    # column honest as pool sizes grow.
    "universe_build_ms": -1,
    "mean_extend_us_per_arrival": -1,
    # Fixed-trace pool sweep (BENCH_online.json, pattern
    # fixed_trace_sweep): per-epoch time and the protocol engine's
    # per-run reset, per pool size.
    "ms_per_epoch": -1,
    "epoch_setup_ms": -1,
}


def load_rows(path):
    with open(path, "r", encoding="utf-8") as handle:
        rows = json.load(handle)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of rows")
    return rows


def identity(row, occurrence):
    key = tuple((f, row[f]) for f in IDENTITY_FIELDS if f in row)
    return key + (("#", occurrence),)


def index_rows(rows):
    """Map identity -> row, numbering duplicate identities in order."""
    seen = {}
    indexed = {}
    for row in rows:
        base = tuple((f, row[f]) for f in IDENTITY_FIELDS if f in row)
        occurrence = seen.get(base, 0)
        seen[base] = occurrence + 1
        indexed[base + (("#", occurrence),)] = row
    return indexed


def describe(key):
    parts = [f"{field}={value}" for field, value in key if field != "#"]
    occurrence = dict(key).get("#", 0)
    if occurrence:
        parts.append(f"occurrence={occurrence}")
    return " ".join(parts)


def compare_file(name, baseline_rows, fresh_rows, threshold):
    baseline = index_rows(baseline_rows)
    fresh = index_rows(fresh_rows)
    failures = []
    compared = 0
    skipped_oversubscribed = 0
    unmatched = 0
    for key, base_row in baseline.items():
        fresh_row = fresh.get(key)
        if fresh_row is None:
            unmatched += 1
            continue
        if base_row.get("oversubscribed") or fresh_row.get("oversubscribed"):
            skipped_oversubscribed += 1
            continue
        for metric, direction in METRICS.items():
            if metric not in base_row or metric not in fresh_row:
                continue
            base_value = float(base_row[metric])
            fresh_value = float(fresh_row[metric])
            if base_value <= 0:
                continue
            compared += 1
            if direction > 0:
                regression = (base_value - fresh_value) / base_value
            else:
                regression = (fresh_value - base_value) / base_value
            if regression > threshold:
                failures.append(
                    f"{name}: {describe(key)}: {metric} "
                    f"{base_value:.3f} -> {fresh_value:.3f} "
                    f"({regression:+.0%}, threshold {threshold:.0%})")
    if unmatched:
        print(f"note: {name}: {unmatched} baseline row(s) had no fresh "
              f"counterpart (different sizes/flags) — not compared")
    if skipped_oversubscribed:
        print(f"note: {name}: {skipped_oversubscribed} row pair(s) skipped "
              f"as oversubscribed (threads > cores)")
    return compared, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", required=True,
                        help="directory holding committed BENCH_*.json "
                             "snapshots (bench/snapshots)")
    parser.add_argument("--dir", required=True,
                        help="directory holding freshly produced "
                             "BENCH_*.json reports (the build dir)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="relative regression that fails the check "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--strict", action="store_true",
                        help="also fail when no row at all could be "
                             "compared (default: pass vacuously)")
    args = parser.parse_args()

    total_compared = 0
    failures = []
    matched_files = 0
    for name in sorted(os.listdir(args.baseline_dir)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        fresh_path = os.path.join(args.dir, name)
        if not os.path.exists(fresh_path):
            print(f"note: {name}: no fresh report in {args.dir} — skipped")
            continue
        matched_files += 1
        compared, file_failures = compare_file(
            name,
            load_rows(os.path.join(args.baseline_dir, name)),
            load_rows(fresh_path),
            args.threshold)
        total_compared += compared
        failures.extend(file_failures)

    if failures:
        print("bench throughput regressions detected:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if total_compared == 0:
        print(f"bench compare: no comparable rows across {matched_files} "
              f"report file(s) (size/flag mismatch or oversubscribed)")
        return 1 if args.strict else 0
    print(f"bench compare OK ({total_compared} metric comparisons across "
          f"{matched_files} report files, threshold "
          f"{args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
