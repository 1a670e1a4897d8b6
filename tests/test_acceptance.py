"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
exact criteria use truncation order 12 with 5 seeded parameter draws, the
numeric criteria use 256-bit precision with a 1e-12 comparison tolerance.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction as F

from mpmath import mp, mpf

from qasc.core import Poly, TSeries, random_paramset
from qasc.identities import (
    CATALOG,
    CATALOG_ORDER,
    build_id3_lhs,
    build_id3_rhs,
    build_id4_rhs,
    build_id5_pair,
    build_id6_lhs,
    build_id6_rhs,
    build_id7_pairs,
    expand_poly_in_basis,
    expand_series_in_basis,
    qdiff_residual,
    synthesize_from_basis,
    trial_paramset,
    verify,
)
from qasc.numeric import (
    NUMERIC_CATALOG,
    NumericConfig,
    rel_diff,
    to_mp,
    u_series,
    u_series_rhs,
)
from qasc.polys import asc5_phi, asc5_psi
from qasc.qkernel import qpoch
from qasc.qops import OperatorSpec, apply_operator, leibniz, op_power

ORDER = 12
TRIALS = 5
SEED = 42

CFG_256 = NumericConfig(precision_bits=256, tail_tol="1e-40", compare_tol="1e-12")
CFG_512 = NumericConfig(precision_bits=512, tail_tol="1e-50", compare_tol="1e-12")


def report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_exact_suite():
    t0 = time.time()
    failures = []
    for cid in CATALOG_ORDER:
        check = CATALOG[cid]
        for trial in range(TRIALS):
            ps = trial_paramset(check, SEED, trial)
            rep = verify(check, ps, ORDER, trial)
            if rep.status != "pass":
                failures.append((cid, trial, rep.first_mismatch))
    elapsed = time.time() - t0
    report(
        "exact-suite-ID-1..13",
        not failures and elapsed < 60,
        f"{13 * TRIALS} trials at order {ORDER} in {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_operator_polynomial_equivalence():
    bad = []
    for seed in range(10):
        ps = random_paramset(random.Random(f"op-equiv:{seed}"))
        for n in range(11):
            if apply_operator(OperatorSpec("T", ps), Poly.x() ** n) != asc5_phi(n, ps):
                bad.append(("T", seed, n))
            if apply_operator(OperatorSpec("E", ps), Poly.x() ** n) != asc5_psi(n, ps):
                bad.append(("E", seed, n))
    report("operator-equals-explicit-sums", not bad, "n <= 10, 10 parameter draws")


def test_leibniz_rules():
    rng = random.Random("leibniz")
    bad = []
    for trial in range(10):
        ps = random_paramset(rng)
        f = sum(
            (Poly.monomial(rng.randint(0, 4), rng.randint(0, 2), F(rng.randint(-6, 6) or 1, rng.randint(1, 9)))
             for _ in range(4)),
            Poly.zero(),
        )
        g = sum(
            (Poly.monomial(rng.randint(0, 4), rng.randint(0, 2), F(rng.randint(-6, 6) or 1, rng.randint(1, 9)))
             for _ in range(4)),
            Poly.zero(),
        )
        for n in range(7):
            for op in ("dq", "theta"):
                if leibniz(op, f, g, n, ps.q) != op_power(op, f * g, n, ps.q):
                    bad.append((op, trial, n))
    report("leibniz-equals-operator-powers", not bad, "degree <= 4, n <= 6")


def test_qdiff_residuals():
    ps = random_paramset(random.Random("residuals"))
    f3 = build_id3_rhs(ps, ORDER)
    ok_phi = qdiff_residual("phi_eq", f3, ps).is_zero()
    f4 = build_id4_rhs(ps, ORDER)
    ok_psi = qdiff_residual("psi_eq", f4, ps).is_zero()
    # negative control: perturbing by y leaves the basis span, so the
    # residual must flag it (a constant perturbation is basis element 0
    # and stays inside the solution space by design)
    coeffs = list(f3.coeffs)
    coeffs[3] = coeffs[3] + Poly.y()
    g = TSeries(ORDER, coeffs)
    ok_control = not qdiff_residual("phi_eq", g, ps).is_zero()
    report(
        "q-difference-residuals",
        ok_phi and ok_psi and ok_control,
        "phi and psi residuals zero through t^12; perturbed control nonzero",
    )


def test_basis_expansion():
    ps = random_paramset(random.Random("expansion"))
    f3 = build_id3_rhs(ps, ORDER)
    mus = expand_series_in_basis(f3, "phi", ps)
    ok_structure = all(
        mu[n] == (Poly.const(1 / qpoch(ps.q, ps.q, m)) if n == m else Poly.zero())
        for m, mu in enumerate(mus)
        for n in range(len(mu))
    )
    rng = random.Random("roundtrip")
    ok_roundtrip = True
    for _ in range(15):
        p = sum(
            (Poly.monomial(rng.randint(0, 8), rng.randint(0, 5), F(rng.randint(-9, 9) or 3, rng.randint(1, 9)))
             for _ in range(6)),
            Poly.zero(),
        )
        for basis in ("phi", "psi"):
            mu = expand_poly_in_basis(p, basis, ps)
            if synthesize_from_basis(mu, basis, ps) != p:
                ok_roundtrip = False
    report(
        "basis-expansion",
        ok_structure and ok_roundtrip,
        "mu_n = 1/(q;q)_n structure recovered; exact round-trips",
    )


def _t_scaled(series: TSeries, s: F) -> TSeries:
    """series with t replaced by s*t: row n times s^n."""
    return TSeries(series.order, [c * s**n for n, c in enumerate(series.coeffs)])


def test_reduction_remarks():
    rng = random.Random("reductions")
    ok = True
    detail = []
    for _ in range(3):
        ps = random_paramset(rng)
        # c = e = 0 collapse onto the three-parameter identities
        rep = verify(CATALOG["ID-13"], ps, ORDER, 0)
        if rep.status != "pass":
            ok = False
            detail.append("c=e=0")
        # k = 0 collapse of the shifted identity
        _, l7, r7 = build_id7_pairs(ps, ORDER)[0]
        if l7 != build_id3_lhs(ps, ORDER) or r7 != build_id3_rhs(ps, ORDER):
            ok = False
            detail.append("k=0")
        # s = 0 and t = 0 collapses of the transformation
        tau, sig = F(1, 3), F(1, 5)
        _, l5, r5 = build_id5_pair(ps.with_values(sig=0, tau=tau), ORDER)
        if l5 != _t_scaled(build_id3_lhs(ps, ORDER), tau) or r5 != _t_scaled(build_id3_rhs(ps, ORDER), tau):
            ok = False
            detail.append("s=0")
        _, l5b, r5b = build_id5_pair(ps.with_values(sig=sig, tau=0), ORDER)
        if l5b != _t_scaled(build_id6_lhs(ps, ORDER), sig) or r5b != _t_scaled(build_id6_rhs(ps, ORDER), sig):
            ok = False
            detail.append("t=0")
    report(
        "reduction-remarks",
        ok,
        "collapses exact at order 12" + (f"; failing: {detail}" if detail else ""),
    )


def test_numeric_suite():
    t0 = time.time()
    failures = []
    diffs = {}
    entries = []  # each report without its runtime_ms
    for cid in NUMERIC_CATALOG:
        rep = NUMERIC_CATALOG[cid].execute(CFG_256)
        entries.append({k: v for k, v in rep.to_dict().items() if k != "runtime_ms"})
        diffs[cid] = rep.rel_diff
        if rep.status != "pass":
            failures.append((cid, rep.status, rep.rel_diff))
    # convergence-order sanity: doubled precision and tightened tail shrink
    # the differences by at least 10x (or they are already at the floor)
    shrink_ok = True
    shrink_detail = []
    for cid in ("NUM-2", "NUM-4", "NUM-8", "NUM-10"):
        if diffs[cid] is None:
            continue  # no difference to shrink; already among the failures
        d2 = mpf(NUMERIC_CATALOG[cid].execute(CFG_512).rel_diff)
        with mp.workprec(64):
            # the 256-bit difference of the evaluation above, to 8 digits
            d1 = mpf(diffs[cid])
            if d1 < mpf("1e-60"):
                continue  # below the quadrature floor; no meaningful ratio
            ratio = d1 / d2 if d2 > 0 else mpf("inf")
            shrink_detail.append(f"{cid}:{mp.nstr(mpf(ratio), 3)}")
            if ratio < 10:
                shrink_ok = False
    elapsed = time.time() - t0
    report(
        "numeric-suite",
        not failures and shrink_ok and elapsed < 300,
        f"all rel_diff < 1e-12 at 256 bits in {elapsed:.0f}s; "
        f"shrink ratios {shrink_detail}"
        + (f"; failures: {failures}" if failures else ""),
    )
    # the ten reports are pinned byte for byte, apart from runtime_ms
    assert hashlib.sha256(json.dumps(entries).encode()).hexdigest() == (
        "075bffc2d16485d45d3c85bad614a176edfc72b061b9c3efa977021871964723")


def test_trivial_anchors():
    with mp.workprec(256):
        from qasc.numeric import ramanujan_integral

        got = ramanujan_integral(0, 0, F(1, 2), F(1, 4), CFG_256)
        want = mp.sqrt(mp.pi) * mp.e ** (to_mp(F(1, 2)) ** 2)
        ok_gauss = rel_diff(got, want) < mpf("1e-12")

        lhs = u_series(1, [F(1)], F(1, 4), F(1, 10), F(1, 2), CFG_256)
        rhs = u_series_rhs(F(1, 4), F(1, 10), F(1, 2), CFG_256)
        ok_u1 = rel_diff(lhs, rhs) < mpf("1e-12")
    report(
        "trivial-anchors",
        ok_gauss and ok_u1,
        "a=b=0 integral equals sqrt(pi)e^(m^2); n=1 sum equals q-binomial form",
    )
