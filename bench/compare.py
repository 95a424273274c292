"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 bench/compare.py BASE_DIR HEAD_DIR

Each directory holds ``result-*.json`` records written by ``run.py``.
Records are paired by workload, seed and trace mode.  A pair whose
stamps differ in anything but the commit (``git_sha``, ``source_digest``)
is refused: numbers from another interpreter, library, core count or
backend are not comparable.  For every workload and metric it prints
both medians over the seeds, the change, and each side's quartile spread.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

COMMIT_STAMPS = ("git_sha", "source_digest")


def load(directory):
    records = {}
    for path in sorted(Path(directory).glob("result-*.json")):
        rec = json.loads(path.read_text())
        records[(rec["workload"], rec["stamps"]["seed"], rec["trace"])] = rec
    return records


def stamp_mismatch(a, b):
    """Stamp keys, other than the commit, on which two records differ."""
    keys = (set(a["stamps"]) | set(b["stamps"])) - set(COMMIT_STAMPS)
    return sorted(k for k in keys if a["stamps"].get(k) != b["stamps"].get(k))


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q[2] - q[0]) / med if med else 0.0


def compare(base, head):
    """Rows (workload, trace, metric, base median, head median, base spread, head spread)."""
    refused, paired = [], {}
    for key in sorted(set(base) & set(head)):
        bad = stamp_mismatch(base[key], head[key])
        if bad:
            refused.append((key, bad))
            continue
        paired.setdefault((key[0], key[2]), []).append((base[key], head[key]))
    rows = []
    for (workload, trace), pairs in sorted(paired.items()):
        for metric in pairs[0][0]["result"]["metrics"]:
            b = [p[0]["result"]["metrics"][metric]["value"] for p in pairs]
            h = [p[1]["result"]["metrics"][metric]["value"] for p in pairs]
            rows.append((workload, trace, metric, statistics.median(b), statistics.median(h),
                         spread(b), spread(h), len(pairs)))
    return rows, refused


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, refused = compare(load(argv[0]), load(argv[1]))
    for key, bad in refused:
        print(f"refused {key}: stamps differ in {', '.join(bad)}", file=sys.stderr)
    print(f"{'workload':18s} {'metric':34s} {'base':>12s} {'head':>12s} {'change':>8s} "
          f"{'spread b/h':>13s} seeds")
    for workload, trace, metric, b, h, sb, sh, n in rows:
        change = (h - b) / b if b else 0.0
        print(f"{workload:18s} {metric:34s} {b:12.6g} {h:12.6g} {change:+8.1%} "
              f"{sb:6.1%}/{sh:6.1%} {n}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
