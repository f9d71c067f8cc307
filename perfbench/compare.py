#!/usr/bin/env python3
"""Compare two sets of benchmark results (parent and change).

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) holding the result
records perfbench/run.py writes to .bench_build/perfbench/results/; only
untraced runs are compared.  For every (workload, end-to-end metric) it
prints each side's median and quartiles and one verdict, with the bound
taken from BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the bound (a regression);
  unresolved  not worse beyond the bound, but either side's spread
              (quartile distance over median) is wider than the bound and
              the runs do not separate;
  better      the change's median is better by more than the parent's own
              spread and at least 9 in 10 (parent, change) pairs favour it;
  unchanged   otherwise.

Exit code 1 when any pair is worse, 2 when a metric is missing on one side,
else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """statistics.quantiles(values, n=4); a single value is its own."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, better, bound):
    """One verdict for a metric's parent and change run values."""
    sign = 1.0 if better == "lower" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else sign * (c_med - p_med)
    if worse_by > bound:
        return "worse"
    pairs = [(p, c) for p in parent for c in change]
    favour = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if max(spread(parent), spread(change)) > bound:
        return "better" if favour == len(pairs) else "unresolved"
    if -worse_by > spread(parent) and favour >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def load(path):
    """{workload: {metric: [values]}} from result records under path."""
    path = Path(path)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("trace") != 0 or "workload" not in rec:
            continue
        for name, m in rec["metrics"].items():
            if isinstance(m.get("value"), (int, float)):
                out.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[1]), load(argv[2])
    worst = 0
    print(f"{'workload':18} {'metric':17} {'parent median [q1, q3] n':>36} "
          f"{'change median [q1, q3] n':>36} {'delta':>8} {'bound':>6}  verdict")
    for w in sorted(set(parent) | set(change)):
        for m in bench["end_to_end"]:
            name = m["name"]
            p, c = parent.get(w, {}).get(name), change.get(w, {}).get(name)
            if not p or not c:
                print(f"{w:18} {name:17} missing on {'parent' if not p else 'change'}")
                worst = max(worst, 2)
                continue
            v = verdict(p, c, m["better"], m["bound"])
            if v == "worse":
                worst = max(worst, 1)
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            side = lambda q, n: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {n}"
            print(f"{w:18} {name:17} {side(pq, len(p)):>36} {side(cq, len(c)):>36} "
                  f"{delta:>+8.1%} {m['bound']:>6.2f}  {v}")
    return 1 if worst == 1 else worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
