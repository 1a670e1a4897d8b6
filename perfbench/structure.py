"""The exact-structure workload and the negative controls.

exact-structure is a seeded library-path pass over public functions that
`qasc verify` never calls, so the qops layer and the Poly operations it
leans on (substitution by `shift`, subtraction, x-coefficient extraction)
are measured somewhere:

* `apply_operator` T/E on x^n against `asc5_phi`/`asc5_psi`, n <= 16;
* the `leibniz` rules against `op_power` on a product, n <= 6;
* `qdiff_residual` of `build_id3_rhs`/`build_id4_rhs` at order 12, and
  `expand_series_in_basis`/`synthesize_from_basis` round-trips of them.

Each check is one request; its report entry is {id, params, status}.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from qasc import core, identities, numeric, polys, qops

DRAWS = 3       # parameter draws per check kind in one pass
OP_DEGREE = 16
LEIBNIZ_N = 6
ORDER = 12


def random_poly(rng: random.Random) -> core.Poly:
    """Four random monomials of x-degree <= 4 and y-degree <= 2."""
    out = core.Poly.zero()
    for _ in range(4):
        c = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 9))
        out = out + core.Poly.monomial(rng.randint(0, 4), rng.randint(0, 2), c)
    return out


def _ignore(lhs, rhs):
    pass


def check_operator(kind, ps, observe=_ignore):
    family = polys.asc5_phi if kind == "T" else polys.asc5_psi
    spec = qops.OperatorSpec(kind, ps)
    x = core.Poly.x()
    for n in range(OP_DEGREE + 1):
        lhs, rhs = qops.apply_operator(spec, x**n), family(n, ps)
        observe(lhs, rhs)
        if lhs != rhs:
            return "fail"
    return "pass"


def check_leibniz(f, g, q, observe=_ignore):
    for n in range(LEIBNIZ_N + 1):
        for op in ("dq", "theta"):
            lhs, rhs = qops.leibniz(op, f, g, n, q), qops.op_power(op, f * g, n, q)
            observe(lhs, rhs)
            if lhs != rhs:
                return "fail"
    return "pass"


def check_residual(which, build, ps, observe=_ignore):
    series = build(ps, ORDER)
    residual = identities.qdiff_residual(which, series, ps)
    observe(series, residual)
    return "pass" if residual.is_zero() else "fail"


def check_basis(basis, build, ps, observe=_ignore):
    series = build(ps, ORDER)
    mus = identities.expand_series_in_basis(series, basis, ps)
    for mu, coeff in zip(mus, series.coeffs):
        back = identities.synthesize_from_basis(mu, basis, ps)
        observe(back, coeff)
        if back != coeff:
            return "fail"
    return "pass"


def run_pass(seed: int, record, tracer=None) -> None:
    """Run one pass; record(request_id, seconds, units, entry) after each
    check.

    Untraced, each comparison a check makes ends one timed unit (a few ms),
    as the integrand evaluations do for a numeric check: the parent takes
    the best of each unit over repeats, at a grain finer than the
    contention bursts of a shared machine.
    """
    rng = random.Random(f"exact-structure:{seed}")

    def run(rid, ps, fn, *args):
        marks = []
        if tracer is not None:
            fn = tracer.wrap("bench", rid.partition(":")[0], fn, request=lambda a: rid)
            observe = tracer.observe
        else:
            def observe(lhs, rhs):
                marks.append(time.perf_counter())
        t0 = time.perf_counter()
        status = fn(*args, observe)
        seconds = time.perf_counter() - t0
        units = [end - start for start, end in zip([t0] + marks, marks)]
        record(rid, seconds, units, {"id": rid, "params": ps.render(), "status": status})

    for d in range(DRAWS):
        ps = core.random_paramset(rng)
        run(f"op-T:{d}", ps, check_operator, "T", ps)
        run(f"op-E:{d}", ps, check_operator, "E", ps)
    for d in range(DRAWS):
        ps = core.random_paramset(rng)
        f, g = random_poly(rng), random_poly(rng)
        run(f"leibniz:{d}", ps, check_leibniz, f, g, ps.q)
    for d in range(DRAWS):
        ps = core.random_paramset(rng)
        for which, basis, build in (("phi_eq", "phi", identities.build_id3_rhs),
                                    ("psi_eq", "psi", identities.build_id4_rhs)):
            run(f"residual-{basis}:{d}", ps, check_residual, which, build, ps)
            run(f"basis-{basis}:{d}", ps, check_basis, basis, build, ps)


def _shifted_t3(series: core.TSeries) -> core.TSeries:
    """The series with its t^3 coefficient shifted by y."""
    coeffs = list(series.coeffs)
    coeffs[3] = coeffs[3] + core.Y
    return core.TSeries(series.order, coeffs)


def _perturbed_id3(ps, order):
    sub, lhs, rhs = identities.CATALOG["ID-3"].build(ps, order)[0]
    return [(sub, lhs, _shifted_t3(rhs))]


def _perturbed_u(chk, cfg):
    p = chk.params
    lhs = numeric.u_series(1, [p["x1"]], p["b"], p["z"], p["q"], cfg)
    rhs = numeric.u_series_rhs(p["b"], p["z"] * (1 + Fraction(1, 10**6)), p["q"], cfg)
    return lhs, rhs, []


def negative_control(workload: str, seed: int) -> str:
    """Status of one deliberately wrong check on the workload's own
    comparison path; anything but "fail" means the gate is broken."""
    if workload == "numeric-256":
        chk = numeric.NumericCheck(
            "NUM-3-perturbed", "NUM-3 with z moved by one part in 10^6",
            dict(numeric.NUMERIC_CATALOG["NUM-3"].params), _perturbed_u)
        return chk.execute(numeric.NumericConfig()).status
    if workload == "exact-structure":
        ps = core.random_paramset(random.Random(f"negative:{seed}"))
        return check_residual(
            "phi_eq", lambda p, order: _shifted_t3(identities.build_id3_rhs(p, order)), ps)
    chk = identities.IdentityCheck("ID-3-perturbed", "ID-3 with rhs t^3 shifted by y", (),
                                   _perturbed_id3)
    return identities.verify(chk, identities.trial_paramset(chk, seed, 0), ORDER).status
