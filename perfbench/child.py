"""One fresh process of the benchmark: a pass, a set-up probe, a negative
control, the layer probes or a calibration.

    python3 perfbench/child.py '<job JSON>'

The job names a mode, the workload and a result path.  A calibration
(``calibrate.py``) runs without importing qasc.  Everything up to
``import qasc.cli`` is the set-up that a CLI user pays on every
invocation; the child stamps the moment it is done with the system-wide
monotonic clock, which the parent compares with its own stamp taken just
before it started the process.
"""

import json
import sys
import time


def run_cli(argv, timed):
    """Run `qasc <argv>` in this process; time each check from outside.

    A numeric check spends most of its time in a few long integrals, so
    each integrand evaluation inside it is timed too: those ~4 ms units
    let the parent take a best-of-repeats at a grain finer than the
    contention bursts of a shared machine.
    """
    import qasc.cli
    from qasc import numeric

    latency = []
    if timed:
        verify, execute = qasc.cli.verify, numeric.NumericCheck.execute
        integrate, units = numeric.integrate_panels, []

        def timed_verify(check, ps, order, trial=0):
            t0 = time.perf_counter()
            rep = verify(check, ps, order, trial)
            latency.append([f"{check.id}:{trial}", time.perf_counter() - t0, []])
            return rep

        def timed_execute(self, cfg):
            units.clear()
            t0 = time.perf_counter()
            rep = execute(self, cfg)
            latency.append([f"{self.id}:0", time.perf_counter() - t0, list(units)])
            return rep

        def timed_integrate(f, lo, hi, cfg):
            def timed_f(x):
                t0 = time.perf_counter()
                value = f(x)
                units.append(time.perf_counter() - t0)
                return value

            return integrate(timed_f, lo, hi, cfg)

        qasc.cli.verify = timed_verify
        numeric.NumericCheck.execute = timed_execute
        numeric.integrate_panels = timed_integrate
    code = qasc.cli.main(argv)
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
        report = json.load(fh)
    return {"exit_code": code, "report": report, "latency": latency}


def run_structure(seed, tracer):
    import structure

    latency = []
    entries = []

    def record(rid, seconds, units, entry):
        latency.append([rid, seconds, units])
        entries.append(entry)

    structure.run_pass(seed, record, tracer)
    bad = sum(e["status"] != "pass" for e in entries)
    return {"exit_code": 1 if bad else 0, "report": {"seed": seed, "entries": entries},
            "latency": latency}


def main():
    job = json.loads(sys.argv[1])
    if job["mode"] == "calibrate":
        # the reference computation, in a process that never imports qasc
        import calibrate

        with open(job["out"], "w", encoding="utf-8") as fh:
            json.dump({"units": calibrate.run()}, fh)
        return
    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install_import_spans()

    import qasc.cli  # noqa: F401  (the set-up being measured)

    out = {"ready": time.monotonic()}
    mode = job["mode"]
    # a "setup" job ends here: importing qasc.cli was all of it
    if mode == "pass":
        if tracer is not None:
            tracing.instrument(tracer)
            # what runs between checks is the harness's (or the CLI's) share
            tracer.request = "cli"
            tracer.self_s["cli"] = {}
        if job["workload"] == "exact-structure":
            out.update(run_structure(job["seed"], tracer))
        else:
            out.update(run_cli(job["argv"], timed=tracer is None))
        if tracer is not None:
            out.update(self_s=tracer.self_s, calls=tracer.calls, counts=tracer.counts)
            tracer.dump(job["trace_out"], {"workload": job["workload"], "seed": job["seed"]})
    elif mode == "negative":
        import structure

        out["status"] = structure.negative_control(job["workload"], job["seed"])
    elif mode == "probes":
        import probes

        out.update(probes.run(job["seed"], job["seconds"]))
    import resource

    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
