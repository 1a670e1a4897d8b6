"""Steadiness check: run the benchmark twice on several seeds per workload
and report each end-to-end metric's spread against its bound.

    python3 perfbench/steady.py [--seeds 1-10]

Every workload in BENCHMARK.json runs once per seed, and then the whole
set runs again.  For every workload and metric the spread is
(Q3 - Q1) / median over the seeds of one set, with quartiles from
statistics.quantiles(values, n=4).  A spread must stay within the metric's
bound and should stay below a third of it.  The second set's median may
not be worse than the first's by more than the bound, and every
deterministic counter must repeat exactly for each seed.  Each set also
makes one traced run per workload on the first seed; its gates must hold
and its counters must repeat between the sets.  Exit code 1 flags any
breach; the summary goes to bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    record = json.loads((ROOT / "bench_out" / name).read_text())
    result["counters"] = record["counters"]
    result["gates"] = record["gates"]
    return result


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which second is worse than first (negative when better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def counters_differ(rs: list[dict], seeds: list[int]) -> list[int]:
    return [seed for seed in seeds
            if len({json.dumps(r["counters"], sort_keys=True)
                    for r in rs if r["seed"] == seed}) > 1]


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    workloads = [w["name"] for w in manifest["workloads"]]
    seconds = manifest["run_seconds"]

    runs: dict = {}
    traced: dict = {}
    ok = True
    for s in range(SETS):
        for w in workloads:
            for seed in seeds:
                res = run_once(w, seed, seconds)
                runs.setdefault(w, []).append({"set": s, "seed": seed, **res})
                ok &= res["correct"]
                print(f"set {s} {w} seed {seed}: correct={res['correct']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                      flush=True)
            res = run_once(w, seeds[0], seconds, trace=1)
            traced.setdefault(w, []).append({"set": s, "seed": seeds[0], **res})
            ok &= res["correct"]
            print(f"set {s} {w} seed {seeds[0]} traced: correct={res['correct']} "
                  + " ".join(f"{k}={res['metrics'][k]['value']:.5g}"
                             for k in ("trace.overhead_s", "trace.residual_s")), flush=True)

    summary = {}
    for w, rs in runs.items():
        for m in manifest["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in rs if r["set"] == s]
                    for s in range(SETS)]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            drift = worse_by(medians[0], medians[1], m["better"])
            within = max(spreads) <= bound
            steady = max(spreads) < bound / 3
            ok &= within and drift <= bound
            summary[f"{w} {name}"] = dict(medians=medians, spreads=spreads, bound=bound,
                                          drift=drift, within_bound=within,
                                          below_third=steady)
            print(f"{w:16s} {name:14s} median {medians} spread "
                  f"{[round(x, 4) for x in spreads]} bound {bound} drift {drift:+.4f}"
                  f"{'' if within else '  OUT OF BOUND'}{'' if steady else '  (above bound/3)'}")
        differ = counters_differ(rs, seeds) + counters_differ(traced[w], seeds[:1])
        ok &= not differ
        summary[f"{w} counters_repeat"] = not differ
        print(f"{w:16s} deterministic counters "
              + (f"DIFFER for seeds {differ}" if differ else "repeat for every seed"))
        for r in traced[w]:
            summary[f"{w} traced set {r['set']}"] = {
                "gates": r["gates"], **{k: r["metrics"][k]["value"] for k in
                                        ("trace.overhead_s", "trace.residual_s")}}
    out = ROOT / "bench_out" / "steady.json"
    out.write_text(json.dumps({"seeds": seeds, "sets": SETS, "ok": ok, "summary": summary,
                               "runs": runs, "traced": traced}, indent=1) + "\n")
    print("steady" if ok else "NOT steady", f"(details in {out.relative_to(ROOT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
