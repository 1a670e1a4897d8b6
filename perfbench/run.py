"""qasc benchmark: one workload per call, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload exact-o12 --seed 42 --seconds 50 --trace 0

Run from the root of a source checkout (src/qasc beside BENCHMARK.json).
BENCHMARK.json names the workloads and the metrics with their units; this
script prints each metric as `name value unit`, then one JSON line
{"correct", "attempted", "failed", "metrics"}, and writes the full record,
environment stamp and deterministic counters included, to
bench_out/BENCH_<workload>_seed<S>_trace<T>.json.  perfbench/README.md
explains the workloads, the metrics and how to compare two records.

Every pass is a fresh `python3` process (a closed loop with one client):
CLI users pay interpreter start, imports and lazy caches on every call.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REF_NOMINAL_S
from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"

# A run cycles round-robin through `subseeds` sub-seeds, seed + 1000*i.
# This machine's speed for identical work swings by +-30% within seconds,
# so each check's latency is the best of its repeats, taken per timed unit
# inside a check where it has them; summed per seed those minima agree
# within ~5-10% where single pass walls do not.  A best-of-R depends on R,
# so R comes from --seconds and the nominal pass time `pass_s` (one pass
# and its set-up probes on a 2-vCPU Xeon, 2.1 GHz), never from the speed
# of the code under test: --seconds fixes the work of a run, and faster
# code finishes sooner.  Sub-seeds are as few as give check_ms.p90 ten
# or more checks beyond it (130 and 105); the rest of a run goes to
# repeats, because the machine's phases move a run's figures more than the
# draw of parameters does.
SUBSEED_STRIDE = 1000
WORKLOADS = {
    "exact-o12": dict(subseeds=2, pass_s=4.5, argv=lambda s: [
        "verify", "--suite", "exact", "--order", "12", "--trials", "5", "--seed", str(s)]),
    # NUMERIC_CATALOG pins every parameter: the seed does not reach this workload
    "numeric-256": dict(subseeds=1, pass_s=12.0, argv=lambda s: [
        "verify", "--suite", "numeric", "--precision", "256"]),
    "exact-structure": dict(subseeds=5, pass_s=1.3, argv=None),
}
# set-up probes are cheap, so every run takes about this many set-up
# samples, however few passes it makes, and reports their median
SETUP_SAMPLES = 30
# calibration processes a run makes, spread over it like the set-up probes
CALIBRATIONS = 30
COMPARE_TOL = 1e-12  # the CLI's default --compare-tol
PRECISION_DIGITS = 256 * math.log10(2)
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def env_stamp() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts child processes and keeps their scratch files in one
    directory inside the checkout."""

    def __init__(self, workload: str, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.jobs = 0

    def spawn(self, mode: str, **job) -> tuple[float, dict]:
        """Run one child; return (wall seconds, its result)."""
        self.jobs += 1
        out = self.tmp / f"job{self.jobs}.json"
        job.update(mode=mode, workload=self.workload, out=str(out))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=self.tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.monotonic() - t0
        if proc.returncode != 0 or not out.exists():
            raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(out.read_text())
        if "ready" in result:
            result["setup_s"] = result["ready"] - t0
        return wall, result

    def run_pass(self, seed: int, trace: bool = False) -> dict:
        spec = WORKLOADS[self.workload]
        job = {"seed": seed, "trace": trace}
        if spec["argv"] is not None:
            job["argv"] = spec["argv"](seed) + ["--out", str(self.tmp / f"report{self.jobs}.json")]
        if trace:
            OUT.mkdir(exist_ok=True)
            job["trace_out"] = str(OUT / f"trace_{self.workload}_seed{seed}.json")
        wall, res = self.spawn("pass", **job)
        res.update(wall_s=wall, subseed=seed)
        return res


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def stripped_digest(report: dict) -> str:
    """sha256 of the report with every runtime_ms removed."""
    body = dict(report, entries=[{k: v for k, v in e.items() if k != "runtime_ms"}
                                 for e in report["entries"]])
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def digits_of(entries) -> list[float]:
    out = []
    for e in entries:
        if "rel_diff" in e:
            d = float(e["rel_diff"])
            out.append(PRECISION_DIGITS if d == 0 else min(-math.log10(d), PRECISION_DIGITS))
    return out


def gate(passes: list[dict], negative_status: str) -> tuple[dict, int, int]:
    """Check every pass; return (gates, attempted, failed)."""
    attempted = failed = 0
    gates = {"exit_codes_zero": True, "all_pass": True, "rel_diff_below_tol": True,
             "deterministic": True, "negative_control_fails": negative_status == "fail"}
    digests: dict[int, str] = {}
    for p in passes:
        entries = p["report"]["entries"]
        attempted += len(entries)
        bad = sum(e["status"] != "pass" for e in entries)
        failed += bad
        gates["all_pass"] &= bad == 0
        gates["exit_codes_zero"] &= p["exit_code"] == 0
        gates["rel_diff_below_tol"] &= all(float(e["rel_diff"]) < COMPARE_TOL
                                           for e in entries if "rel_diff" in e)
        digest = stripped_digest(p["report"])
        p["digest"] = digest
        gates["deterministic"] &= digests.setdefault(p["subseed"], digest) == digest
    return gates, attempted, failed


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def checks_s(p: dict) -> float:
    return sum(sec for _, sec, _ in p["latency"])


def _by_request(pairs) -> dict[str, list]:
    out: dict[str, list] = {}
    for rid, value in pairs:
        out.setdefault(rid, []).append(value)
    return out


def best_latency(passes: list[dict]) -> dict[str, float]:
    """Best-of-repeats latency of each check over passes of one sub-seed.

    A check timed in units (the integrand evaluations of a numeric check,
    the comparisons of an exact-structure check) takes the best of each
    unit, by position, plus the best of the rest.
    """
    runs = _by_request((rid, (sec, units)) for p in passes for rid, sec, units in p["latency"])
    best = {}
    for rid, rs in runs.items():
        if len({len(units) for _, units in rs}) > 1:
            raise BenchError(f"{rid}: the number of timed units differs between repeats")
        rest = min(sec - sum(units) for sec, units in rs)
        best[rid] = rest + sum(min(u) for u in zip(*(units for _, units in rs)))
    return best


def timed_run(runner: Runner, seed: int, seconds: float) -> dict:
    spec = WORKLOADS[runner.workload]
    k = spec["subseeds"]
    subseeds = [seed + SUBSEED_STRIDE * i for i in range(k)]
    repeats = max(2, int(seconds // (k * spec["pass_s"])))
    passes, setup = [], []
    start = time.monotonic()
    # round-robin, so the repeats of one sub-seed are spread over the run;
    # set-up probes and calibrations after each pass sample the run the
    # same way
    probes = max(1, math.ceil(SETUP_SAMPLES / (k * repeats)) - 1)
    calibrations = math.ceil(CALIBRATIONS / (k * repeats))
    calib = []
    for i in range(k * repeats):
        passes.append(runner.run_pass(subseeds[i % k]))
        setup += [runner.spawn("setup")[1]["setup_s"] for _ in range(probes)]
        calib += [runner.spawn("calibrate")[1]["units"] for _ in range(calibrations)]
    negative = runner.spawn("negative", seed=seed)[1]["status"]
    gates, attempted, failed = gate(passes, negative)

    walls, latency = [], []
    for sub in subseeds:
        ps = [p for p in passes if p["subseed"] == sub]
        best = best_latency(ps)
        # best-of-repeats pass: set-up, each check, and what the CLI adds
        walls.append(min(p["setup_s"] for p in ps) + sum(best.values())
                     + min(p["wall_s"] - p["setup_s"] - checks_s(p) for p in ps))
        latency += [sec * 1e3 for sec in best.values()]
    setup += [p["setup_s"] for p in passes]
    raw = {
        "wall_s": statistics.mean(walls),
        "setup_s": statistics.median(setup),
        "check_ms.p50": statistics.median(latency),
        "check_ms.p90": statistics.quantiles(latency, n=10)[8],
    }
    # the reference's best-of time, as a check's: per unit, over the run
    ref_s = sum(min(u) for u in zip(*calib))
    speed = REF_NOMINAL_S / ref_s
    metrics = {name: value * speed for name, value in raw.items()}
    metrics.update({
        "pass_frac": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
    })
    first = passes[0]
    counters = {
        "checks_per_pass": len(first["report"]["entries"]),
        "report_sha256": {str(p["subseed"]): p["digest"] for p in passes[:k]},
    }
    digits = digits_of(first["report"]["entries"])
    if digits:
        counters["numeric.min_digits"] = round(min(digits), 6)
    samples = {"passes": len(passes), "subseeds": k, "repeats": repeats, "setup": len(setup),
               "checks": len(latency), "calibrations": len(calib), "ref_s": ref_s,
               "speed": speed, "unscaled": raw, "subseed_wall_s": walls,
               "raw_pass_wall_s": [p["wall_s"] for p in passes],
               "run_s": time.monotonic() - start}
    return dict(metrics=metrics, counters=counters, samples=samples, gates=gates,
                attempted=attempted, failed=failed, negative_control=negative)


OUTSIDE_CHECKS = ("setup", "cli")  # the request ids that are not checks


def check_self(p: dict) -> dict[str, dict[str, float]]:
    """Per-module self time of each check request of a traced pass."""
    return {r: mods for r, mods in p["self_s"].items() if r not in OUTSIDE_CHECKS}


def traced_run(runner: Runner, seed: int, seconds: float, wall_bound: float) -> dict:
    """Untraced and traced passes of one seed, alternated, and the probes.

    Both sides are best-of-repeats, as in timed_run: per check the least
    latency (untraced) or the least summed self time of its request
    (traced), plus the least set-up and the least rest.  The per-module
    self times of a check come from the traced pass where it was fastest.
    """
    repeats = max(2, int(seconds // (3 * WORKLOADS[runner.workload]["pass_s"])))
    plain, traced = [], []
    for _ in range(repeats):
        plain.append(runner.run_pass(seed))
        traced.append(runner.run_pass(seed, trace=True))
    probes = runner.spawn("probes", seed=seed, seconds=seconds)[1]
    negative = runner.spawn("negative", seed=seed)[1]["status"]
    gates, attempted, failed = gate(plain + traced, negative)
    gates["counts_repeat"] = all((t["counts"], t["calls"]) == (traced[0]["counts"],
                                                              traced[0]["calls"])
                                 for t in traced)

    plain_best = {rid: min(secs) for rid, secs in _by_request(
        (rid, sec) for p in plain for rid, sec, _ in p["latency"]).items()}
    fastest = {rid: min(runs, key=lambda mods: sum(mods.values())) for rid, runs in _by_request(
        (rid, mods) for t in traced for rid, mods in check_self(t).items()).items()}
    if set(plain_best) != set(fastest):
        raise BenchError("the traced and untraced passes ran different checks")
    in_check: dict[str, float] = {}
    for mods in fastest.values():
        for module, sec in mods.items():
            in_check[module] = in_check.get(module, 0.0) + sec
    setup_p = min(p["setup_s"] for p in plain)
    overhead = min(p["wall_s"] - p["setup_s"] - checks_s(p) for p in plain)
    wall_p = setup_p + sum(plain_best.values()) + overhead
    wall_t = (min(t["setup_s"] for t in traced) + sum(in_check.values())
              + min(t["wall_s"] - t["setup_s"] - sum(sum(m.values()) for m in check_self(t).values())
                    for t in traced))
    # whole-pass self time of each module: its checks, plus the least of
    # its import and of its share of argument parsing and report writing
    self_s = dict(in_check)
    for request in OUTSIDE_CHECKS:
        for module in {m for t in traced for m in t["self_s"].get(request, {})}:
            self_s[module] = self_s.get(module, 0.0) + min(
                t["self_s"].get(request, {}).get(module, 0.0) for t in traced)

    metrics = dict(probes["metrics"])
    metrics["cli.overhead_s"] = overhead
    for module in MODULES:
        metrics[f"self_s.{module}"] = self_s.get(module, 0.0)
    metrics["trace.overhead_s"] = wall_t - wall_p
    metrics["trace.unattributed_s"] = wall_t - sum(self_s.values())
    # set-up, CLI overhead and the self time of every module inside the
    # checks account for the untraced wall time, up to the tracing overhead
    # and the pass-to-pass noise that wall_s's bound allows
    residual = wall_p - setup_p - overhead - sum(in_check.values())
    metrics["trace.residual_s"] = residual
    gates["trace_accounts"] = abs(residual) <= abs(wall_t - wall_p) + wall_bound * wall_p
    # the numeric counts come from the probes, so that every workload has them
    counts = {k: v for k, v in traced[0]["counts"].items() if k.startswith("identities.")}
    counts.update(probes["counts"])
    calls = traced[0]["calls"]
    for name in ("core.Poly.__mul__", "core.Poly.__add__", "qkernel.qpoch", "qkernel.qbinom"):
        counts[f"calls.{name}"] = calls[name]
    rel = [{"rel_diff": v} for v in probes["rel_diff"].values()]
    digits = digits_of(traced[0]["report"]["entries"] + rel)
    counts["numeric.min_digits"] = round(min(digits), 6)
    metrics.update(counts)
    trace_path = OUT / f"trace_{runner.workload}_seed{seed}.json"
    return dict(metrics=metrics, counters=counts, gates=gates, attempted=attempted,
                failed=failed, negative_control=negative, self_s=self_s, calls=calls,
                trace_file=str(trace_path.relative_to(ROOT)),
                samples={"repeats": repeats, "untraced_wall_s": wall_p, "traced_wall_s": wall_t,
                         "raw_untraced_wall_s": [p["wall_s"] for p in plain],
                         "raw_traced_wall_s": [t["wall_s"] for t in traced]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    manifest_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qasc" / "cli.py").is_file() or not manifest_path.is_file():
        print(f"error: run from a qasc checkout; {SRC / 'qasc'} or BENCHMARK.json missing",
              file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wanted = manifest["per_layer" if args.trace else "end_to_end"]

    env = env_stamp()
    # the build: byte-compile once, so no pass pays for it
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: src does not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        runner = Runner(args.workload, tmp)
        try:
            if args.trace:
                wall_bound = next(m["bound"] for m in manifest["end_to_end"]
                                  if m["name"] == "wall_s")
                res = traced_run(runner, args.seed, args.seconds, wall_bound)
            else:
                res = timed_run(runner, args.seed, args.seconds)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            res = None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if res is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        raise SystemExit(f"benchmark defect: metrics {missing} were not measured")
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = all(res["gates"].values())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct, **res,
              "metrics": metrics}
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    for key in ("samples", "counters", "gates", "self_s"):
        if key in res:
            print(f"# {key}: {json.dumps(res[key], sort_keys=True)}")
    for name_, m in metrics.items():
        print(f"{name_} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
