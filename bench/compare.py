"""Compare two result files of ``run.py --all`` metric by metric.

A verdict follows the benchmark's own bounds and the pair rule: the
change B improved on the parent A when B wins at least nine tenths of
the runs paired by index (ties count for neither) and the medians
differ by more than the parent's quartile distance.  It is no worse
when B's median is not worse than A's by more than the bound; where
either side's quartile distance is wider than the bound it is
unresolved, unless every run of B reads better than every run of A.
"""

from __future__ import annotations

import json
import statistics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(a, b, better, bound):
    """``a`` are the parent's values, ``b`` the change's, paired by index."""
    sign = 1 if better == "higher" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    gain = sign * (med_b - med_a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    every_run_better = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not every_run_better:
        return "unresolved"
    if -gain <= bound * abs(med_a):
        return "no worse"
    return "worse"


def metric_values(results, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in results[workload]
            if metric in r["result"]["metrics"]]


def compare(a, b, spec):
    """Rows of (workload, metric, unit, A, B, ratio, verdict)."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a["runs"] or workload not in b["runs"]:
            continue
        for m in spec["end_to_end"]:
            va = metric_values(a["runs"], workload, m["name"])
            vb = metric_values(b["runs"], workload, m["name"])
            if not va or not vb:
                continue
            med_a = statistics.median(va)
            ratio = statistics.median(vb) / med_a if med_a else float("nan")
            rows.append((workload, m["name"], m["unit"], va, vb, ratio,
                         verdict(va, vb, m["better"], m["bound"])))
    return rows


def _summary(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main(path_a, path_b, spec):
    a = json.loads(open(path_a).read())
    b = json.loads(open(path_b).read())
    print(f"A = {path_a} ({a['env'].get('git_sha', '?')[:12]}), "
          f"B = {path_b} ({b['env'].get('git_sha', '?')[:12]})")
    print("median [q1, q3] per side; ratio is B median / A median")
    header = ("workload", "metric", "unit", "A", "B", "B/A", "verdict")
    print("{:<15} {:<20} {:<6} {:<34} {:<34} {:<7} {}".format(*header))
    for workload, metric, unit, va, vb, ratio, word in compare(a, b, spec):
        print(f"{workload:<15} {metric:<20} {unit:<6} {_summary(va):<34} "
              f"{_summary(vb):<34} {ratio:<7.4f} {word}")
    return 0
