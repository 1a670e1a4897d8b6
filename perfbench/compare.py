"""Compare two sets of benchmark records, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds BENCH_<workload>_seed<S>_trace0.json records, as
run.py writes them to bench_out/ (copy that directory away between the
two commits).  Records pair up by workload and seed.  For every workload
and end-to-end metric the script prints both medians and quartiles, the
share of pairs the change wins, and a verdict:

* gain: the change wins at least 9 in 10 pairs and the medians differ by
  more than the parent's own quartile spread;
* regression: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* unresolved: the parent's spread is wider than the bound and not every
  change run beats every parent run;
* no change: none of the above.

A workload where any record of either side failed its correctness gates
gets no verdict: it is marked invalid, because a change that stops
comparing cannot count as faster.  Pairs whose environment stamps differ
in Python version or mpmath backend are flagged; they are not comparable.
Either makes the exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = ("python", "mpmath_backend")


def load(directory: Path) -> dict:
    out = {}
    for path in sorted(directory.glob("BENCH_*_trace0.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["seed"])] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, pm, q3 = quartiles(parent)
    cm = statistics.median(change)
    worse = sign * (cm - pm) / pm
    if wins >= 0.9 * len(parent) and abs(cm - pm) > q3 - q1:
        return "gain", wins
    if worse > bound:
        return "regression", wins
    all_better = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if (q3 - q1) / pm > bound and not all_better:
        return "unresolved", wins
    return "no change", wins


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no workload/seed pairs in common", file=sys.stderr)
        return 2
    flagged = False
    for key in keys:
        a, b = parent[key]["env"], change[key]["env"]
        diff = [k for k in STAMP_KEYS if a.get(k) != b.get(k)]
        if diff:
            flagged = True
            print(f"FLAG {key[0]} seed {key[1]}: environment differs in {diff}: "
                  f"{[a.get(k) for k in diff]} vs {[b.get(k) for k in diff]}")
    for workload in sorted({w for w, _ in keys}):
        ks = [k for k in keys if k[0] == workload]
        print(f"\n{workload}: {len(ks)} pairs, seeds {[k[1] for k in ks]}")
        broken = [f"{side} seed {k[1]}" for k in ks
                  for side, recs in (("parent", parent), ("change", change))
                  if not recs[k]["correct"]]
        if broken:
            flagged = True
            print(f"  invalid: no verdict, a run failed its correctness gates ({', '.join(broken)})")
            continue
        for m in manifest["end_to_end"]:
            name = m["name"]
            p = [parent[k]["metrics"][name]["value"] for k in ks]
            c = [change[k]["metrics"][name]["value"] for k in ks]
            what, wins = verdict(p, c, m["better"], m["bound"])
            fmt = lambda qs: "/".join(f"{v:.4g}" for v in qs)  # noqa: E731
            print(f"  {name:14s} parent {fmt(quartiles(p))}  change {fmt(quartiles(c))} "
                  f"{m['unit']}  wins {wins}/{len(ks)}  bound {m['bound']}  {what}")
    return 2 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
