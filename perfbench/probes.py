"""Layer probes for the traced run: fixed seeded inputs, one public call
per probe, timed untraced in a fresh process.  The numeric work counts
come from the NUM-10, NUM-6 and NUM-2 probes, run again under the tracer.

Every probe also checks its own result, so a layer that gets faster by
computing something else fails the run instead of improving a number.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from mpmath import mp, mpf

import tracer as tracing
from qasc import core, identities, numeric, polys, qkernel, qops
from structure import random_poly

F = Fraction
# the weight parameters and integrand point of NUM-10 (q=1/4, a=1/5, m=1/2, y=1/8)
_NUM10 = dict(q=F(1, 4), a=F(1, 5), m=F(1, 2), y=F(1, 8),
              wnum=(F(1, 5), F(1, 7), F(1, 9)), wden=(F(1, 4), F(1, 6)))


class ProbeFailed(AssertionError):
    pass


def _expect(ok: bool, what: str):
    if not ok:
        raise ProbeFailed(what)


def _median_time(fn, budget_s: float, min_reps: int = 3) -> tuple[float, object]:
    """Median seconds of repeated fn() calls within about budget_s."""
    times = []
    result = None
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _dense_poly(rng: random.Random, degree: int) -> core.Poly:
    return core.Poly({
        (i, j): F(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        for i in range(degree + 1) for j in range(degree + 1)
    })


def _naive_product(a: core.Poly, b: core.Poly) -> core.Poly:
    terms: dict = {}
    for (i, j), c in a.terms.items():
        for (k, m), d in b.terms.items():
            terms[i + k, j + m] = terms.get((i + k, j + m), 0) + c * d
    return core.Poly(terms)


def _hyper_by_terms(spec: qkernel.PhiSpec, order: int) -> core.TSeries:
    """3phi2(..; y t) term by term: (a1,a2,a3;q)_n / (b1,b2,q;q)_n y^n t^n."""
    assert spec.sign_exponent == 0
    q = spec.q
    coeffs = []
    for n in range(order + 1):
        c = F(1)
        for a in spec.numerators:
            c *= qkernel.qpoch(a, q, n)
        for b in spec.denominators + [q]:
            c /= qkernel.qpoch(b, q, n)
        coeffs.append(core.Poly.monomial(0, n, c))
    return core.TSeries(order, coeffs)


def _hyper_num_direct(nums, dens, q, z, terms: int):
    """The first `terms` terms of rphis(nums; dens; q, z), r = s + 1."""
    total = 0
    for n in range(terms):
        t = z ** n
        for a in nums:
            t *= numeric.qpoch_num(a, q, n)
        for b in list(dens) + [q]:
            t /= numeric.qpoch_num(b, q, n)
        total += t
    return total


def run(seed: int, seconds: float) -> dict:
    """All layer probes; returns {"metrics": {name: value}, "digits": ...}."""
    slot = max(0.05, seconds / 150)  # time slice of one cheap probe
    out: dict[str, float] = {}
    cfg = numeric.NumericConfig()

    # cold first: the node computation in a process that has not cached it
    t0 = time.perf_counter()
    nodes, _ = numeric.gauss_legendre_nodes(cfg.quad.nodes, cfg.precision_bits)
    out["numeric.gl_nodes_s"] = time.perf_counter() - t0
    _expect(len(nodes) == cfg.quad.nodes, "gauss_legendre_nodes count")

    rng = random.Random(f"probes:{seed}")
    ps = core.random_paramset(rng)
    q = ps.q

    # core
    a, b = _dense_poly(rng, 5), _dense_poly(rng, 5)
    s, prod = _median_time(lambda: a * b, slot)
    out["core.poly_mul_us"] = s * 1e6
    _expect(prod == _naive_product(a, b), "poly_mul against the schoolbook product")
    spec = qkernel.PhiSpec([ps.a, ps.b, ps.c], [ps.d, ps.e], q)
    ser_a = qkernel.hyper_series(spec, 20, core.Y)
    # 1/(xt;q)_inf * 3phi2(..; y t): the t^n coefficient has n+1 terms
    base = qkernel.euler_inverse_series(core.X, q, 20) * ser_a
    s, square = _median_time(lambda: base * base, slot, min_reps=2)
    out["core.tseries_mul_ms.o20"] = s * 1e3
    s, inv = _median_time(lambda: base.inverse(), slot, min_reps=2)
    out["core.tseries_inverse_ms.o20"] = s * 1e3
    _expect((inv * base) == core.TSeries.one(20), "tseries inverse")
    _expect((square * inv) == base, "tseries square")

    # qkernel
    s, table = _median_time(lambda: [qkernel.qpoch(ps.a, q, k) for k in range(21)], slot)
    out["qkernel.qpoch_table_us.n20"] = s * 1e6
    _expect(all(table[k + 1] == table[k] * (1 - ps.a * q**k) for k in range(20)), "qpoch table")
    s, row = _median_time(lambda: [qkernel.qbinom(20, k, q) for k in range(21)], slot)
    out["qkernel.qbinom_row_us.n20"] = s * 1e6
    _expect(row[0] == row[20] == 1 and row[3] == row[17], "qbinom row symmetry")
    s, ser = _median_time(lambda: qkernel.hyper_series(spec, 20, core.Y), slot)
    out["qkernel.hyper_series_ms.o20"] = s * 1e3
    _expect(ser == _hyper_by_terms(spec, 20), "hyper_series against (a;q)_n products")

    # polys
    s, phi20 = _median_time(lambda: polys.asc5_phi(20, ps), slot)
    out["polys.asc5_phi_ms.n20"] = s * 1e3

    # qops
    x16 = core.X**16
    s, (t16, e16) = _median_time(lambda: (
        qops.apply_operator(qops.OperatorSpec("T", ps), x16),
        qops.apply_operator(qops.OperatorSpec("E", ps), x16)), slot)
    out["qops.apply_operator_ms.n16"] = s * 1e3
    _expect(t16 == polys.asc5_phi(16, ps) and e16 == polys.asc5_psi(16, ps), "T/E on x^16")
    _expect(phi20 == qops.apply_operator(qops.OperatorSpec("T", ps), core.X**20), "asc5_phi n20")
    f, g = random_poly(rng), random_poly(rng)
    s, (ld, lt) = _median_time(lambda: (qops.leibniz("dq", f, g, 6, q),
                                        qops.leibniz("theta", f, g, 6, q)), slot)
    out["qops.leibniz_ms.n6"] = s * 1e3
    _expect(ld == qops.op_power("dq", f * g, 6, q) and lt == qops.op_power("theta", f * g, 6, q),
            "leibniz n6")

    # identities: build and compare of ID-7 and ID-8 at the default order
    for cid in ("ID-7", "ID-8"):
        check = identities.CATALOG[cid]
        ps_c = identities.trial_paramset(check, seed, 0)
        s, sides = _median_time(lambda: check.build(ps_c, 12), slot, min_reps=2)
        out[f"identities.build_s.{cid}"] = s
        s, mism = _median_time(lambda: [lhs.first_mismatch(rhs) for _, lhs, rhs in sides], slot)
        out[f"identities.compare_s.{cid}"] = s
        _expect(all(m is None for m in mism), f"{cid} sides agree")
    f3 = identities.build_id3_rhs(ps, 12)
    s, res = _median_time(lambda: identities.qdiff_residual("phi_eq", f3, ps), slot)
    out["identities.residual_ms.o12"] = s * 1e3
    _expect(res.is_zero(), "residual of build_id3_rhs")
    s, mus = _median_time(lambda: identities.expand_series_in_basis(f3, "phi", ps), slot)
    out["identities.basis_expand_ms.o12"] = s * 1e3
    _expect(all(identities.synthesize_from_basis(mu, "phi", ps) == c
                for mu, c in zip(mus, f3.coeffs)), "basis round-trip")

    # numeric, at the precision the integrand uses
    with mp.workprec(cfg.precision_bits):
        p = _NUM10
        qm = numeric.to_mp(p["q"])
        phase = mp.expj(2 * numeric.gaussian_decay_rate(p["q"]) * numeric.to_mp(p["m"]))
        arg = numeric.to_mp(p["a"]) * mp.sqrt(qm) * phase
        s, val = _median_time(lambda: numeric.poch_inf(arg, qm, cfg), slot)
        out["numeric.poch_inf_us"] = s * 1e6
        ref = numeric.qpoch_num(arg, qm, 200)
        _expect(abs(val - ref) < mpf(10) ** -35 * abs(ref), "poch_inf within the tail tolerance")
        wnum = [numeric.to_mp(v) for v in p["wnum"]]
        wden = [numeric.to_mp(v) for v in p["wden"]]
        z = numeric.to_mp(p["y"]) * mp.sqrt(qm) * phase
        s, val = _median_time(lambda: numeric.hyper_num(wnum, wden, qm, z, cfg), slot)
        out["numeric.hyper_num_us"] = s * 1e6
        ref = _hyper_num_direct(wnum, wden, qm, z, 60)  # |z| = 1/16: 16^-60 < 1e-72
        _expect(abs(val - ref) < mpf(10) ** -35 * abs(ref), "hyper_num against a direct sum")

    digits = {}
    checks = (("numeric.integral_s", "NUM-10"), ("numeric.u_series_ms", "NUM-6"),
              ("numeric.transformation_ms", "NUM-2"))
    for name, cid in checks:
        t0 = time.perf_counter()
        rep = numeric.NUMERIC_CATALOG[cid].execute(cfg)
        s = time.perf_counter() - t0
        out[name] = s if name.endswith("_s") else s * 1e3
        _expect(rep.status == "pass", f"{cid} passes")
        digits[cid] = rep.rel_diff

    # the numeric work counts, from a second, instrumented run of the same
    # checks, so that the timings above stay untraced
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    for _, cid in checks:
        numeric.NUMERIC_CATALOG[cid].execute(cfg)
    counts = {k: v for k, v in tracer.counts.items() if k.startswith("numeric.")}
    counts["numeric.poch_inf_calls"] = tracer.calls["numeric.poch_inf"]
    return {"metrics": out, "rel_diff": digits, "counts": counts}
