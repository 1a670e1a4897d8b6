"""The exact identity catalog, difference-equation residuals, basis
expansion, and the documented parameter collapses."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

from qasc import core, identities
from qasc.core import ParamSet, Poly, TSeries, random_paramset
from qasc.identities import (
    CATALOG,
    CATALOG_ORDER,
    IdentityCheck,
    _quotient_sum,
    build_id3_lhs,
    build_id3_rhs,
    build_id4_lhs,
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
from qasc import polys
from qasc.polys import asc5_phi, asc5_psi, cauchy_pn
from qasc.qkernel import (
    PhiSpec,
    PoleError,
    _chain_product,
    _poch_row,
    euler_inverse_series,
    euler_product_series,
    hyper_series,
    qbinom,
    qpoch,
    qpoch_t_poly,
)

ORDER = 8  # catalog unit tests run fast; the acceptance suite uses 12


def _fracs(row):
    """A _poch_row row of (num, den) pairs as Fractions."""
    return [F(c, d) for c, d in row]


def _t_scaled(series: TSeries, s: F) -> TSeries:
    """series with t replaced by s*t: row n times s^n."""
    return TSeries(series.order, [c * s**n for n, c in enumerate(series.coeffs)])


def _counted(calls: Counter, name: str, fn):
    """fn, adding each call to calls[name]."""
    def call(*args, **kw):
        calls[name] += 1
        return fn(*args, **kw)
    return call


class TestCatalog:
    def test_catalog_complete(self):
        assert CATALOG_ORDER == [f"ID-{i}" for i in range(1, 14)]

    @pytest.mark.parametrize("cid", CATALOG_ORDER)
    def test_identity_passes(self, cid):
        check = CATALOG[cid]
        for trial in range(2):
            ps = trial_paramset(check, 2024, trial)
            rep = verify(check, ps, ORDER, trial)
            assert rep.status == "pass", (cid, trial, rep.first_mismatch)

    def test_report_fields(self):
        check = CATALOG["ID-9"]
        ps = trial_paramset(check, 7, 0)
        rep = verify(check, ps, 6, 0)
        d = rep.to_dict()
        assert d["id"] == "ID-9" and d["status"] == "pass" and d["trial"] == 0
        assert "first_mismatch" not in d
        assert set(d["params"]) >= {"q", "a", "b", "c", "d", "e"}

    def test_first_mismatch_localized(self):
        # force a mismatch by comparing ID-9's sides at different parameters
        ps = trial_paramset(CATALOG["ID-9"], 7, 0)
        lhs = build_id3_lhs(ps, 6)
        rhs = build_id3_rhs(ps.with_values(a=ps.a + F(1, 64)), 6)
        n = lhs.first_mismatch(rhs)
        assert n == 1  # the a-dependence first enters at t^1

    def test_pole_reported(self):
        check = CATALOG["ID-3"]
        ps = trial_paramset(check, 7, 0).with_values(d=F(4))  # d = q^-2 when q = 1/2
        ps = ps.with_values(q=F(1, 2))
        rep = verify(check, ps, 6, 0)
        assert rep.status == "pole"
        assert rep.first_mismatch is not None

    @pytest.mark.parametrize(
        "cid, kv, message",
        [
            ("ID-5", dict(d=F(4)), "(d,e;q)_k vanished at k=3 for d=4, e=-2/9"),
            ("ID-7", dict(d=F(4)), "(d,e;q)_k vanished at k=3 for d=4, e=5/13"),
            ("ID-8", dict(d=F(4)), "(d,e;q)_k vanished at k=3 for d=4, e=5/29"),
            ("ID-8", dict(d2=F(4)), "(d,e;q)_k vanished at k=3 for d=4, e=1/3"),
            ("ID-8", dict(e=F(4)), "(d,e;q)_k vanished at k=3 for d=-4/15, e=4"),
        ],
    )
    def test_pole_report_pinned(self, cid, kv, message):
        # 4 = q^-2 at q = 1/2, so (4;q)_k first vanishes at k = 3; the left
        # side is built first and reports it
        check = CATALOG[cid]
        ps = trial_paramset(check, 1, 0).with_values(q=F(1, 2), **kv)
        rep = verify(check, ps, 6, 0)
        assert rep.status == "pole"
        assert rep.first_mismatch == {"power": 3, "sub": "", "lhs": message, "rhs": ""}

    @pytest.mark.parametrize(
        "kv, index, message",
        [
            (dict(d=F(64)), 7, "(d,e;q)_k vanished at k=7 for d=64, e=5/13"),
            (dict(d=F(128)), 8, "(d,e;q)_k vanished at k=8 for d=128, e=5/13"),
            (dict(e=F(256)), 9, "(d,e;q)_k vanished at k=9 for d=-5/24, e=256"),
        ],
    )
    def test_id7_pole_past_order_pinned(self, kv, index, message):
        # phi_0..phi_(N+3) come from one weight row, so a pole of index
        # N < k <= N+3 (only the shifted left sides reach it) still reports k
        check = CATALOG["ID-7"]
        ps = trial_paramset(check, 1, 0).with_values(q=F(1, 2), **kv)
        rep = verify(check, ps, 6, 0)
        assert rep.status == "pole"
        assert rep.first_mismatch == {"power": index, "sub": "", "lhs": message, "rhs": ""}

    @pytest.mark.parametrize("order", [6, 7, 8])
    def test_id8_no_pole_past_the_order(self, order):
        # d = 128 = q^-7 at q = 1/2: (d;q)_k first vanishes at k = 8, so both
        # sides are finite through t^7; only order 8 reaches the pole, which
        # the left side reports
        check = CATALOG["ID-8"]
        ps = trial_paramset(check, 1, 0).with_values(q=F(1, 2), d=F(128))
        rep = verify(check, ps, order, 0)
        if order < 8:
            assert rep.status == "pass", rep.first_mismatch
        else:
            message = "(d,e;q)_k vanished at k=8 for d=128, e=5/29"
            assert rep.status == "pole"
            assert rep.first_mismatch == {"power": 8, "sub": "", "lhs": message, "rhs": ""}

    @pytest.mark.parametrize("cid", ["ID-7", "ID-8"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_table_builders_pass(self, cid, seed):
        check = CATALOG[cid]
        rep = verify(check, trial_paramset(check, seed, 0), ORDER, 0)
        assert rep.status == "pass", rep.first_mismatch

    @pytest.mark.parametrize(
        "cid, extra, power, lhs, rhs, rhs_digest",
        [
            ("ID-5", "tau", 1, "-(1048/2093)x - (5634048/14580137)y",
             "-(32750023/65406250)x - (88032061824/227814640625)y",
             "9ee574f7775b75428484b94df29e9cc870194b0c835e018145aabe05f247b38b"),
            ("ID-6", "e", 1, "-(4/3)x - (648000/265837)y",
             "-(4/3)x - (648000000000/265836938653)y",
             "d3068c02802270b2407220faceb9923ae50243626fff0ed522c01fb228a91c7d"),
            ("ID-8", "y2", 1, "-16594255831/25599845700",
             "-33188520555718867/51199691400000000",
             "f45b07bd2682dbef2bbeab05cf98315bb2586d3a5e294f241d18ff542af7705c"),
            ("ID-11", "rd", 1, "-41/30225", "-2645197/1950000000",
             "065b58a24baee295f77f9960cc27a272a68c28f36e0d689e06eee8a0c49a6d7f"),
            ("ID-12", "sig", 2, "4331998/9323181", "54150000839/116539762500",
             "bd04f8152882ae98eac939a14905596ef1b7facb8771f81c89532674f07e6e00"),
        ],
    )
    def test_cross_parameter_negative_control(self, cid, extra, power, lhs, rhs, rhs_digest):
        # the left side at a trial's draw against the right side with one
        # drawn parameter moved by one part in 10^6: the sides must differ,
        # at a pinned power with pinned values, and the whole moved right
        # side is pinned by digest, so a rewrite of these builders keeps
        # their values
        check = CATALOG[cid]
        ps = trial_paramset(check, 42, 0)
        moved = ps.with_values(**{extra: ps.get(extra) * (1 + F(1, 10**6))})
        (_, left, _), = check.build(ps, 12)
        (_, _, right), = check.build(moved, 12)
        n = left.first_mismatch(right)
        assert (n, str(left.coeff(n)), str(right.coeff(n))) == (power, lhs, rhs)
        assert hashlib.sha256(str(right).encode()).hexdigest() == rhs_digest

    def test_id9_pinned_parameters(self):
        # q = 1/2 at order 8, the symbolic check subsuming any rational x, y
        ps = ParamSet(q=F(1, 2))
        rep = verify(CATALOG["ID-9"], ps, 8, 0)
        assert rep.status == "pass"

    def test_y_zero_degenerates_to_euler_product(self):
        # with the y-slot scalar 0 both sides of the Cauchy identity reduce
        # to the plain inverse Euler product
        ps = trial_paramset(CATALOG["ID-9"], 3, 0)
        N = 6
        lhs = TSeries(
            N,
            [
                cauchy_pn(n, Poly.x(), 0, ps.q) * (1 / qpoch(ps.q, ps.q, n))
                for n in range(N + 1)
            ],
        )
        assert lhs == euler_inverse_series(Poly.x(), ps.q, N)


def _special_values(ps: ParamSet):
    """Each of a..e set to 0, 1, 7/2, q^-1, q^-2 and q^-3 in turn, then
    q = 9/10, q = 1/97, b = a and e = d: the values a draw never reaches
    (terminating rows, poles, coincident parameters, q near 1 and near 0)."""
    q = ps.q
    for name in "abcde":
        for v in (F(0), F(1), F(7, 2), q**-1, q**-2, q**-3):
            yield ps.with_values(**{name: v})
    yield from (ps.with_values(q=F(9, 10)), ps.with_values(q=F(1, 97)),
                ps.with_values(b=ps.a), ps.with_values(e=ps.d))


def test_special_value_sweep_pinned():
    # every identity at its seed-42 trial-0 draw moved onto each special
    # value, at order 10: 382 passes and 60 named poles, no fail or error;
    # the runtime-stripped reports are pinned byte for byte, so a builder
    # rewrite keeps every pole's text and index
    entries = []
    for cid in CATALOG_ORDER:
        check = CATALOG[cid]
        for ps in _special_values(trial_paramset(check, 42, 0)):
            entries.append({k: v for k, v in verify(check, ps, 10).to_dict().items()
                            if k != "runtime_ms"})
    assert Counter(e["status"] for e in entries) == {"pass": 382, "pole": 60}
    assert hashlib.sha256(json.dumps(entries).encode()).hexdigest() == (
        "07f6452207efee3324673edaeb44abeb045c9eee5e770c778db88fcc0574923f")


def test_no_builder_multiplies_series(monkeypatch):
    # every right side is written by the row kernels (_chain_product,
    # _euler and the row sums), so with the series product and inverse
    # refused the whole catalog still passes
    def refused(*args):
        raise AssertionError("a builder multiplied or inverted a TSeries")

    for name in ("__mul__", "__rmul__", "inverse"):
        monkeypatch.setattr(TSeries, name, refused)
    for cid in CATALOG_ORDER:
        for trial in (0, 1):
            rep = verify(CATALOG[cid], trial_paramset(CATALOG[cid], 42, trial), 8, trial)
            assert rep.status == "pass", (cid, trial, rep.first_mismatch)


def test_passing_verify_reads_no_coefficients(monkeypatch):
    # both sides are compared on their exact rows, so with the Poly
    # read-out refused the whole catalog still passes: a passing check
    # never reduces a side's rows or converts them to Polys
    def refused(self):
        raise AssertionError("a passing check read a side's coefficients")

    monkeypatch.setattr(TSeries, "coeffs", property(refused))
    for cid in CATALOG_ORDER:
        for trial in (0, 1):
            rep = verify(CATALOG[cid], trial_paramset(CATALOG[cid], 42, trial), 8, trial)
            assert rep.status == "pass", (cid, trial, rep.first_mismatch)


def test_builders_do_not_write_into_series():
    # every TSeries reads out a tuple of coefficients, built once, so an
    # in-place write raises and repeated reads give the same Polys
    ps = random_paramset(random.Random(41))
    for _, *sides in build_id7_pairs(ps, 6):
        for side in sides:
            coeffs = side.coeffs
            assert isinstance(coeffs, tuple) and side.coeffs is coeffs
            assert all(a is b for a, b in zip(coeffs, side.coeffs))
            with pytest.raises(TypeError):
                side.coeffs[3] = Poly.one()
            with pytest.raises(AttributeError):
                side.coeffs = coeffs
    assert qpoch_t_poly(Poly.x(), ps.q, 3, 6).coeff(3) == Poly.monomial(3, 0, -ps.q**3)


def _moved(series: TSeries, n: int, p: Poly) -> TSeries:
    coeffs = list(series.coeffs)
    coeffs[n] = coeffs[n] + p
    return TSeries(series.order, coeffs)


def test_mismatch_rendering_pinned():
    # what verify reports for a wrong side, pinned on Fraction-dict series:
    # the benchmark's negative control (ID-3 at order 12 with the rhs t^3
    # coefficient shifted by y), and an ID-7 side with one coefficient moved
    def id3_shifted(ps, order):
        sub, lhs, rhs = CATALOG["ID-3"].build(ps, order)[0]
        return [(sub, lhs, _moved(rhs, 3, Poly.y()))]

    check = IdentityCheck("ID-3-perturbed", "ID-3 with rhs t^3 shifted by y", (), id3_shifted)
    rep = verify(check, trial_paramset(check, 42, 0), 12)
    t3 = ("(387420489/242225585)x^3 + (615054384/194829895)x^2y"
          " + (1080799980530256/308612696808845)xy^2"
          " + (1336364511891554338704/512193931419742536185)y^3")
    assert rep.status == "fail"
    assert rep.first_mismatch == {"power": 3, "sub": "", "lhs": t3, "rhs": t3 + " + y"}

    def id7_moved(ps, order):
        sides = CATALOG["ID-7"].build(ps, order)
        sub, lhs, rhs = sides[2]
        return sides[:2] + [(sub, lhs, _moved(rhs, 5, Poly.monomial(2, 5, F(-1, 7))))] + sides[3:]

    check = IdentityCheck("ID-7-moved", "ID-7 with one rhs coefficient moved", (), id7_moved)
    mism = verify(check, trial_paramset(CATALOG["ID-7"], 42, 0), 12).first_mismatch
    assert (mism["power"], mism["sub"], len(mism["lhs"]), len(mism["rhs"])) == (5, "k=2", 897, 897)
    assert hashlib.sha256(mism["lhs"].encode()).hexdigest() == (
        "87b7a73aee2742d11d25d2540953452befd70931bebf99c415e6554b751efc35")
    assert hashlib.sha256(mism["rhs"].encode()).hexdigest() == (
        "ed61ecb075ec6ec2b889e5c3f31f481ea8e32729d8f83a4e4ff5fb522eebb3c9")


@pytest.mark.parametrize("K, m", [(0, 4), (1, 0), (2, 7), (3, 12)])
def test_id7_control_per_shift(K, m):
    # one pass writes the right sides of all four shifts; a coefficient
    # moved on shift K's right side at t^m fails as shift K at power m
    def moved(ps, order):
        sides = CATALOG["ID-7"].build(ps, order)
        sub, lhs, rhs = sides[K]
        sides[K] = (sub, lhs, _moved(rhs, m, Poly.monomial(K, m, F(1, 3))))
        return sides

    check = IdentityCheck(f"ID-7-k{K}", f"ID-7 with shift {K} moved at t^{m}", (), moved)
    rep = verify(check, trial_paramset(CATALOG["ID-7"], 42, 1), 12)
    assert rep.status == "fail"
    assert (rep.first_mismatch["power"], rep.first_mismatch["sub"]) == (m, f"k={K}")


class TestParallelVerification:
    def test_thread_pool_matches_serial(self):
        # verify calls are pure; a thread pool must reproduce the serial
        # reports exactly (runtime aside)
        from concurrent.futures import ThreadPoolExecutor

        grid = [(cid, trial) for cid in ("ID-1", "ID-3", "ID-9", "ID-11") for trial in range(2)]

        def run(job):
            cid, trial = job
            check = CATALOG[cid]
            ps = trial_paramset(check, 77, trial)
            rep = verify(check, ps, 6, trial)
            d = rep.to_dict()
            d["runtime_ms"] = 0
            return d

        serial = [run(j) for j in grid]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, grid))
        assert serial == threaded


class TestReductions:
    def test_id7_k0_equals_id3(self):
        rng = random.Random(21)
        for _ in range(3):
            ps = random_paramset(rng)
            sub, lhs, rhs = build_id7_pairs(ps, 10)[0]
            assert rhs == build_id3_rhs(ps, 10)
            assert lhs == build_id3_lhs(ps, 10)

    def test_id5_sig0_equals_id3(self):
        # s = 0 collapses the transformation onto the plain generating function
        rng = random.Random(22)
        for _ in range(3):
            ps = random_paramset(rng)
            tau = F(1, 3)
            _, lhs, rhs = build_id5_pair(ps.with_values(sig=0, tau=tau), 10)
            assert lhs == _t_scaled(build_id3_lhs(ps, 10), tau)
            assert rhs == _t_scaled(build_id3_rhs(ps, 10), tau)

    def test_id5_tau0_equals_id6(self):
        # t = 0 collapses it onto the alternating generating function
        rng = random.Random(23)
        for _ in range(3):
            ps = random_paramset(rng)
            sig = F(1, 5)
            _, lhs, rhs = build_id5_pair(ps.with_values(sig=sig, tau=0), 10)
            assert lhs == _t_scaled(build_id6_lhs(ps, 10), sig)
            assert rhs == _t_scaled(build_id6_rhs(ps, 10), sig)

    def test_id13_collapse(self):
        check = CATALOG["ID-13"]
        ps = trial_paramset(check, 99, 0)
        rep = verify(check, ps, 10, 0)
        assert rep.status == "pass"


@pytest.fixture(scope="module")
def residual_ps():
    return random_paramset(random.Random(31))


class TestResiduals:
    def test_phi_equation_on_id3_rhs(self, residual_ps):
        f = build_id3_rhs(residual_ps, 12)
        assert qdiff_residual("phi_eq", f, residual_ps).is_zero()

    def test_psi_equation_on_id4_rhs(self, residual_ps):
        f = build_id4_rhs(residual_ps, 12)
        assert qdiff_residual("psi_eq", f, residual_ps).is_zero()

    def test_lhs_series_satisfy_them_too(self, residual_ps):
        assert qdiff_residual("phi_eq", build_id3_lhs(residual_ps, 10), residual_ps).is_zero()
        assert qdiff_residual("psi_eq", build_id4_lhs(residual_ps, 10), residual_ps).is_zero()

    def test_each_basis_polynomial_satisfies_its_equation(self, residual_ps):
        for n in range(8):
            assert qdiff_residual("phi_eq", TSeries.from_poly(asc5_phi(n, residual_ps), 0), residual_ps).is_zero()
            assert qdiff_residual("psi_eq", TSeries.from_poly(asc5_psi(n, residual_ps), 0), residual_ps).is_zero()

    def test_negative_controls(self, residual_ps):
        f = build_id3_rhs(residual_ps, 8)
        for bad in (Poly.y(), Poly.x(), Poly.x() * Poly.y()):
            g = _perturbed_t3(f, bad)
            assert not qdiff_residual("phi_eq", g, residual_ps).is_zero(), bad

    def test_constant_perturbation_stays_in_solution_space(self, residual_ps):
        # constants are basis element 0, so adding one cannot be detected
        f = build_id3_rhs(residual_ps, 8)
        g = _perturbed_t3(f, Poly.one())
        assert qdiff_residual("phi_eq", g, residual_ps).is_zero()

    def test_cross_equation_fails(self, residual_ps):
        # the phi-series does not satisfy the psi-equation
        f = build_id3_rhs(residual_ps, 8)
        assert not qdiff_residual("psi_eq", f, residual_ps).is_zero()

    def test_specialized_parameters(self, residual_ps):
        # c = d = e = 0 specialization still annihilates its series
        ps0 = residual_ps.with_values(c=0, d=0, e=0)
        f = build_id3_rhs(ps0, 10)
        assert qdiff_residual("phi_eq", f, ps0).is_zero()

    def test_which_validation(self, residual_ps):
        with pytest.raises(ValueError):
            qdiff_residual("nope", TSeries.one(2), residual_ps)

    @pytest.mark.parametrize("which", ["phi_eq", "psi_eq"])
    def test_matches_shift_expansion(self, which):
        # the symbol form against the equation written out with Poly.shift
        rng = random.Random(f"shifted-{which}")
        for _ in range(40):
            ps = random_paramset(rng)
            coeffs = [_random_poly(rng) for _ in range(3)]
            f = TSeries(2, coeffs)
            got = qdiff_residual(which, f, ps)
            assert list(got.coeffs) == [_shifted_residual(which, p, ps) for p in coeffs]
        # rows reaching different top exponents (the symbol tables are built
        # once per series, to its largest exponent), a zero and a constant row
        Y, X = Poly.y(), Poly.x()
        for _ in range(10):
            ps = random_paramset(rng)
            coeffs = [Y**6 * F(2, 3) - X, X**5 + X * Y * F(-1, 7), Poly.zero(),
                      Poly.const(F(5, 9)), _random_poly(rng)]
            got = qdiff_residual(which, TSeries(4, coeffs), ps)
            assert list(got.coeffs) == [_shifted_residual(which, p, ps) for p in coeffs]
            assert got.rows[2] == ({}, 1)

    @pytest.mark.parametrize("seed", [3, 17, 58])
    def test_homogeneous_solutions_are_the_basis(self, seed):
        # the uniqueness statement, truncated: the degree-n homogeneous
        # solutions of each equation form the line spanned by phi_n resp. psi_n
        ps = random_paramset(random.Random(seed))
        for which, family in (("phi_eq", asc5_phi), ("psi_eq", asc5_psi)):
            for n in range(9):
                monos = [Poly.monomial(n - j, j) for j in range(n + 1)]
                columns = [qdiff_residual(which, TSeries.from_poly(m, 0), ps).coeffs[0]
                           for m in monos]
                kernel = _nullspace(columns)
                assert len(kernel) == 1, (which, n)
                (vec,) = kernel
                pivot = next(c for c in vec if c)
                solution = sum((m * (c / pivot) for m, c in zip(monos, vec)), Poly.zero())
                assert solution == family(n, ps), (which, n)


def _perturbed_t3(f: TSeries, bad: Poly) -> TSeries:
    """f with bad added to its t^3 coefficient."""
    coeffs = list(f.coeffs)
    coeffs[3] = coeffs[3] + bad
    return TSeries(f.order, coeffs)


def _random_poly(rng) -> Poly:
    return Poly({(rng.randint(0, 5), rng.randint(0, 4)): F(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(rng.randint(0, 6))})


def _shifted_residual(which: str, p: Poly, ps: ParamSet) -> Poly:
    """Both equations written out term by term with x -> q^al x, y -> q^be y."""
    q = ps.q
    a, b, c, d, e = ps.a, ps.b, ps.c, ps.d, ps.e

    def s(al: int, be: int) -> Poly:
        return p.shift(q**al, q**be)

    X, Y = Poly.x(), Poly.y()
    if which == "phi_eq":
        left = X * (
            s(0, 0)
            - s(0, 1)
            - (d + e) / q * (s(0, 1) - s(0, 2))
            + d * e / q**2 * (s(0, 2) - s(0, 3))
        )
        right = Y * (
            (s(0, 0) - s(1, 0))
            - (a + b + c) * (s(0, 1) - s(1, 1))
            + (a * b + a * c + b * c) * (s(0, 2) - s(1, 2))
            - a * b * c * (s(0, 3) - s(1, 3))
        )
    else:
        left = X * (
            s(1, 0)
            - s(1, 1)
            - (d + e) / q * (s(1, 1) - s(1, 2))
            + d * e / q**2 * (s(1, 2) - s(1, 3))
        )
        right = Y * (
            (s(1, 1) - s(0, 1))
            - (a + b + c) * (s(1, 2) - s(0, 2))
            + (a * b + a * c + b * c) * (s(1, 3) - s(0, 3))
            - a * b * c * (s(1, 4) - s(0, 4))
        )
    return left - right


def _nullspace(columns: list[Poly]) -> list[list[F]]:
    """A basis of {v : sum_j v_j columns[j] = 0}, by Gauss-Jordan over F."""
    keys = sorted({e for col in columns for e in col.terms})
    rows = [[col.coeff(*e) for col in columns] for e in keys]
    width = len(columns)
    pivots = []
    r = 0
    for j in range(width):
        lead = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if lead is None:
            continue
        rows[r], rows[lead] = rows[lead], rows[r]
        rows[r] = [v / rows[r][j] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                rows[i] = [v - rows[i][j] * w for v, w in zip(rows[i], rows[r])]
        pivots.append(j)
        r += 1
    basis = []
    for free in (j for j in range(width) if j not in pivots):
        vec = [F(0)] * width
        vec[free] = F(1)
        for i, j in enumerate(pivots):
            vec[j] = -rows[i][free]
        basis.append(vec)
    return basis


@pytest.fixture(scope="module")
def expansion_ps():
    return random_paramset(random.Random(41))


class TestBasisExpansion:
    def test_id3_rhs_structure(self, expansion_ps):
        f = build_id3_rhs(expansion_ps, 10)
        mus = expand_series_in_basis(f, "phi", expansion_ps)
        for m, mu in enumerate(mus):
            for n, val in enumerate(mu):
                if n == m:
                    assert val == Poly.const(1 / qpoch(expansion_ps.q, expansion_ps.q, m))
                else:
                    assert val.is_zero()

    def test_id4_rhs_structure_in_psi_basis(self, expansion_ps):
        f = build_id4_rhs(expansion_ps, 8)
        q = expansion_ps.q
        mus = expand_series_in_basis(f, "psi", expansion_ps)
        from qasc.qkernel import binom2

        for m, mu in enumerate(mus):
            for n, val in enumerate(mu):
                if n == m:
                    assert val == Poly.const((-1) ** m * q ** binom2(m) / qpoch(q, q, m))
                else:
                    assert val.is_zero()

    def test_single_basis_element(self, expansion_ps):
        mu = expand_poly_in_basis(asc5_phi(3, expansion_ps), "phi", expansion_ps)
        assert mu[3] == Poly.one()
        assert all(mu[n].is_zero() for n in (0, 1, 2))

    def test_pure_power_round_trip(self, expansion_ps):
        mu = expand_poly_in_basis(Poly.x() ** 2, "phi", expansion_ps)
        assert synthesize_from_basis(mu, "phi", expansion_ps) == Poly.x() ** 2

    def test_random_round_trips(self, expansion_ps):
        rng = random.Random(5)
        for _ in range(15):
            p = sum(
                (
                    Poly.monomial(
                        rng.randint(0, 6),
                        rng.randint(0, 4),
                        F(rng.randint(-9, 9) or 2, rng.randint(1, 9)),
                    )
                    for _ in range(5)
                ),
                Poly.zero(),
            )
            for basis in ("phi", "psi"):
                mu = expand_poly_in_basis(p, basis, expansion_ps)
                assert synthesize_from_basis(mu, basis, expansion_ps) == p

    def test_basis_validation(self, expansion_ps):
        # the name is checked on entry, also where no basis row is read
        for call in (lambda: expand_poly_in_basis(Poly.x(), "chi", expansion_ps),
                     lambda: synthesize_from_basis([Poly.one()], "chi", expansion_ps),
                     lambda: expand_poly_in_basis(Poly.zero(), "chi", expansion_ps),
                     lambda: synthesize_from_basis([Poly.zero()], "chi", expansion_ps),
                     lambda: expand_series_in_basis(TSeries.zeros(2), "chi", expansion_ps),
                     lambda: expand_poly_in_basis(Poly.x() ** 5, "chi", expansion_ps)):
            with pytest.raises(ValueError, match="basis must be"):
                call()

    def test_pole_only_past_the_degree_used(self, expansion_ps):
        # with d = q^-2 the basis weights have a pole at k = 3: degrees <= 2
        # expand and synthesize, degree 3 reaches the pole
        ps = expansion_ps.with_values(d=expansion_ps.q**-2)
        p = Poly.x() ** 2 * F(3, 5) + Poly.x() * Poly.y() - Poly.y() ** 4
        for basis in ("phi", "psi"):
            mu = expand_poly_in_basis(p, basis, ps)
            assert len(mu) == 3
            assert synthesize_from_basis(mu, basis, ps) == p
            with pytest.raises(PoleError) as err:
                expand_poly_in_basis(p + Poly.x() ** 3, basis, ps)
            assert err.value.index == 3
            # a series reads its rows once, no further than the highest
            # x-column that a coefficient uses
            f = TSeries(2, [p, Poly.x() + Poly.y() * F(2, 7), Poly.zero()])
            want = [expand_poly_in_basis(c, basis, ps) for c in f.coeffs]
            assert expand_series_in_basis(f, basis, ps) == want

    def test_round_trip_work_counts(self, monkeypatch):
        # from cold, an order-12 series reads its basis rows in one
        # _asc_sum call, and neither the expansion nor the syntheses form
        # a Poly product: each step is one reduced row
        ps = random_paramset(random.Random(1812))
        polys._FAMILY_ROWS.clear()
        f = build_id3_rhs(ps, 12)  # the build itself multiplies Polys
        calls = Counter()
        monkeypatch.setattr(polys, "_asc_sum", _counted(calls, "_asc_sum", polys._asc_sum))
        monkeypatch.setattr(Poly, "__mul__", _counted(calls, "Poly.__mul__", Poly.__mul__))
        mus = expand_series_in_basis(f, "phi", ps)
        assert calls == {"_asc_sum": 1}
        assert [synthesize_from_basis(mu, "phi", ps) for mu in mus] == list(f.coeffs)
        assert calls == {"_asc_sum": 1}

    def test_expansion_reduces_only_top_coefficients(self, monkeypatch):
        # the expansion reads each coefficient as held and reduces only the
        # top coefficients it subtracts; the syntheses and compares reduce
        # nothing, and no coefficient of the series changes
        ps = random_paramset(random.Random(3112))
        sides = [(basis, build(ps, 12), [str(c) for c in build(ps, 12).coeffs])
                 for basis, build in (("phi", build_id3_rhs), ("psi", build_id4_rhs))]
        reads = _count_canon(monkeypatch)
        for basis, f, want in sides:
            cols = [[i for i, _ in nums] for nums, _ in f.rows]
            top = max(c.count(max(c)) for c in cols if c)  # terms of one top coefficient
            mus = expand_series_in_basis(f, basis, ps)
            assert [synthesize_from_basis(mu, basis, ps) for mu in mus] == list(f.coeffs)
            assert len(reads) == 13 and max(map(len, reads)) <= top, basis
            assert [str(c) for c in f.coeffs] == want
            reads.clear()

    @pytest.mark.parametrize("draw", range(3))
    def test_inverse_round_trips(self, draw, monkeypatch):
        # mu -> p -> mu: the expansion in the basis is unique, which the
        # method of q-difference equations rests on; mu_n comes back
        # canonical, and a d-step expansion reduces a remainder (a row with
        # an x-column left) at most d - 1 times
        rng = random.Random(f"inverse-round-trip:{draw}")
        ps = random_paramset(rng)
        if draw == 2:
            ps = ps.with_values(q=F(3, 7))
        reads = _count_canon(monkeypatch)
        for basis in ("phi", "psi"):
            for d in range(7):
                mu = [_random_y_poly(rng, nonzero=n == d) for n in range(d + 1)]
                p = synthesize_from_basis(mu, basis, ps)
                reads.clear()
                got = expand_poly_in_basis(p, basis, ps)
                assert sum(any(i for i, _ in keys) for keys in reads) <= max(d - 1, 0)
                assert all(gcd(den, *nums.values()) == 1 for nums, den in (m._held for m in got))
                assert [m.terms for m in got] == [m.terms for m in mu], (basis, d)


def _count_canon(monkeypatch) -> list[list[tuple[int, int]]]:
    """Wrap core._canon wherever a qasc module binds it; the list gets the
    exponents of every row it reads."""
    reads = []
    canon = core._canon

    def counted(nums, den):
        reads.append(list(nums))
        return canon(nums, den)

    for module in [m for name, m in sys.modules.items() if name.startswith("qasc")]:
        if getattr(module, "_canon", None) is canon:
            monkeypatch.setattr(module, "_canon", counted)
    assert core._canon is counted
    return reads


def _random_y_poly(rng: random.Random, nonzero: bool) -> Poly:
    """Up to three terms c y^j, j <= 3; at least one when nonzero."""
    terms = {(0, rng.randrange(4)): F(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(rng.randint(1 if nonzero else 0, 3))}
    p = Poly(terms)
    return p if p or not nonzero else Poly.y() * F(2, 5) - 1


@pytest.mark.parametrize("M", [1, 2, 3])
def test_id12_quotients_match_series_inverse(M):
    # (a u;q)_n / (b u;q)_n by one linear factor and one geometric division
    # per n, against the product times a full series inverse per n
    ps = trial_paramset(CATALOG["ID-12"], 5, M - 1)
    assert ps.get("em") == M
    q, t0, xi, sig = ps.q, ps.get("tt"), ps.get("xi"), ps.get("sig")
    for w, a, b in (
        (_poch_row((t0,), {"q": q}, q, ORDER, z=xi), sig, sig * q**-M),
        (_poch_row((q**-M,), {"q": q}, q, M, z=sig), xi, xi * t0),
    ):
        old = TSeries.zeros(ORDER)
        for n, wn in enumerate(_fracs(w)):
            quot = qpoch_t_poly(a, q, n, ORDER) * qpoch_t_poly(b, q, n, ORDER).inverse()
            old = old + quot.shift_t(n).scale(wn)
        assert _fracs(_quotient_sum(w, a, b, q, ORDER)) == [c.constant() for c in old.coeffs]


@pytest.mark.parametrize("em, status", [(F(3, 2), "error"), (F(5, 2), "error"), (F(-1), "error"),
                                        (F(0), "pass"), (F(2), "pass")])
def test_id12_em_must_be_nonnegative_integer(em, status):
    # the slice r = q^-M s terminates only for an integer M >= 0; any other
    # em is refused rather than checked as another M than the report names
    ps = trial_paramset(CATALOG["ID-12"], 5, 0).with_values(em=em)
    rep = verify(CATALOG["ID-12"], ps, 8)
    assert (rep.status, rep.params["em"]) == (status, str(em))
    if status == "error":
        assert rep.first_mismatch["lhs"] == (
            f"ValueError: ID-12 needs em to be a non-negative integer, got {em}")


def _quotient_sum_by_fractions(w, a, b, q, N) -> list[F]:
    """sum_n w[n] u^n (a u;q)_n / (b u;q)_n on Fractions, one linear factor
    and one geometric division per n: the reference for _quotient_sum."""
    f = [F(1)] + [F(0)] * N
    acc = [F(0)] * (N + 1)
    qn = F(1)  # q^(n-1)
    for n, wn in enumerate(w):
        if n:
            aq, bq = a * qn, b * qn
            for m in range(N, 0, -1):
                f[m] -= aq * f[m - 1]
            for m in range(1, N + 1):
                f[m] += bq * f[m - 1]
            qn *= q
        for m in range(N + 1 - n):
            acc[n + m] += wn * f[m]
    return acc


def test_quotient_sum_matches_fraction_loop():
    rng = random.Random(12)

    def draw():
        return F(rng.randint(-9, 9), rng.randint(1, 30))

    for N in [*range(13), 40]:
        for case in range(8):
            q = F(rng.randint(1, 9), rng.randint(10, 31))
            w = [draw() for _ in range(rng.randint(1, N + 3))]
            a, b = draw(), draw()
            if case == 1:
                a = b
            elif case == 2:
                a = F(0)
            elif case == 3:
                b = F(0)
            elif case == 4:
                w = [c if i % 2 else F(0) for i, c in enumerate(w)]  # zero entries
            elif case == 5:
                w = [F(0)] * len(w)
            got = _quotient_sum([(c.numerator, c.denominator) for c in w], a, b, q, N)
            assert _fracs(got) == _quotient_sum_by_fractions(w, a, b, q, N), (N, case)
            assert len({d for _, d in got}) == 1  # N + 1 pairs over one denominator
    assert _quotient_sum([], F(1, 3), F(1, 5), F(1, 2), 4) == [(0, 1)] * 5


def _id8_rhs_by_series(ps: ParamSet, N: int) -> TSeries:
    """ID-8's right side with the double sum over TSeries, term by term."""
    q = ps.q
    a2, b2, c2, d2, e2 = (ps.get(k) for k in ("a2", "b2", "c2", "d2", "e2"))
    x1, y1, x2, y2 = (ps.get(k) for k in ("x1", "y1", "x2", "y2"))
    acc = TSeries.zeros(N)
    for n in range(N + 1):
        s_n = qpoch(a2, q, n) * qpoch(b2, q, n) * qpoch(c2, q, n) * (x1 * y2) ** n
        s_n /= qpoch(q, q, n) * qpoch(d2, q, n) * qpoch(e2, q, n)
        total = TSeries.zeros(N)
        for j in range(n + 1):
            v_j = qpoch(ps.a, q, j) * qpoch(ps.b, q, j) * qpoch(ps.c, q, j) * (y1 / x1) ** j
            v_j /= qpoch(ps.d, q, j) * qpoch(ps.e, q, j)
            qj = q**j
            spec = PhiSpec([ps.a * qj, ps.b * qj, ps.c * qj], [ps.d * qj, ps.e * qj], q)
            inner = qpoch_t_poly(x1 * x2, q, j, N) * hyper_series(spec, N, arg_mono=x2 * y1)
            g = qpoch(q, q, n) / (qpoch(q, q, j) * qpoch(q, q, n - j))
            total = total + inner.scale(g * v_j)
        acc = acc + total.scale(s_n).shift_t(n)
    return euler_inverse_series(Poly.const(x1 * x2), q, N) * acc


@pytest.mark.parametrize("seed", [1, 2])
def test_id8_scalar_double_sum_matches_series_form(seed):
    # an odd order moves floor(N/2), the largest k of (x1 x2 t;q)_j that
    # any term reaches, and the largest qd power; order 13 reaches row 12
    check = CATALOG["ID-8"]
    ps = trial_paramset(check, seed, 0)
    for N in (ORDER, 5, 13):
        (_, _, rhs), = check.build(ps, N)
        assert rhs == _id8_rhs_by_series(ps, N), N


def test_id8_sums_its_double_sum_on_one_chain(monkeypatch):
    # the double sum is handed to one _chain_product as a row whose
    # denominators grow along t, each dividing the next, not as one
    # common denominator; the left side multiplies its scalar rows with
    # no _dot
    calls, rows = Counter(), []

    def chain_product(e, u, h, v, order):
        rows.append(h)
        return _chain_product(e, u, h, v, order)

    monkeypatch.setattr(identities, "_dot", _counted(calls, "_dot", identities._dot))
    monkeypatch.setattr(identities, "_chain_product",
                        _counted(calls, "_chain_product", chain_product))
    check = CATALOG["ID-8"]
    (_, lhs, rhs), = check.build(trial_paramset(check, 42, 0), 12)
    assert calls == {"_chain_product": 1} and lhs == rhs
    dens = [d for _, d in rows[0]]
    assert len(dens) == 13 and len(set(dens)) > 1
    assert all(b % a == 0 for a, b in zip(dens, dens[1:]))


def _id5_rhs_by_shifts(ps: ParamSet, N: int, sig: F, tau: F) -> TSeries:
    """ID-5's right side with one Euler product per k, shifted by t^k and
    scaled by W_k y^k, then times 1/(x tau u;q)_inf."""
    q = ps.q
    p = [F(1)]
    for n in range(N):
        p.append(p[-1] * (tau - sig * q**n))
    w = _fracs(_poch_row((ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e, "q": q}, q, N))
    acc = TSeries.zeros(N)
    for k in range(N + 1):
        term = euler_product_series(Poly.x() * (sig * q**k), q, N).shift_t(k)
        acc = acc + term.scale(Poly.monomial(0, k, w[k] * p[k]))
    return euler_inverse_series(Poly.x() * tau, q, N) * acc


def _id6_rhs_by_shifts(ps: ParamSet, N: int, t_scale: F) -> TSeries:
    """ID-6's right side with one Euler product per k, shifted and scaled."""
    q = ps.q
    w = _fracs(_poch_row((ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e, "q": q}, q, N,
                         z=-t_scale, r=q))
    acc = TSeries.zeros(N)
    for k in range(N + 1):
        term = euler_product_series(Poly.x() * (t_scale * q**k), q, N).shift_t(k)
        acc = acc + term.scale(Poly.monomial(0, k, w[k]))
    return acc


def _id7_rhs_by_rows(ps: ParamSet, N: int, K: int) -> TSeries:
    """ID-7's right side with (xt;q)_j/(xt)^j expanded by its own q-binomial
    row E[j] for each j, summed in x^(K-i) y^n t^(n-i), then times
    1/(xt;q)_inf as a TSeries product."""
    q = ps.q
    M = N + K
    A = _fracs(_poch_row((ps.a, ps.b, ps.c), {"q": q, "d": ps.d, "e": ps.e}, q, M))
    J = _fracs(_poch_row((q**-K,), {}, q, K, z=-(q**K), r=1 / q))
    E = [_fracs(_poch_row((q**-j,), {"q": q}, q, j, z=q**j))[::-1] for j in range(K + 1)]
    acc = [Poly.zero()] * (N + 1)
    for n in range(M + 1):
        for j in range(min(n, K) + 1):
            base = A[n] * qbinom(n, j, q) * J[j]
            for i in range(max(0, n - N), j + 1):
                acc[n - i] = acc[n - i] + Poly.monomial(K - i, n, base * E[j][i])
    return euler_inverse_series(Poly.x(), q, N) * TSeries(N, acc)


@pytest.mark.parametrize("N", [*range(13), 20])
def test_euler_sums_match_per_term_rows(N):
    # the closed-form Euler sums of ID-5/6/7 against one shifted Euler
    # series (ID-5/6) or one expansion row (ID-7) per summand; sig, tau or
    # t_scale 0 leave one Euler row, a = q^-2 makes the 3phi2 terminate;
    # order 20 reaches the step factors of long rows
    rng = random.Random(f"euler-sums-{N}")
    ps = random_paramset(rng, extras=("sig", "tau"))
    draw = ps.get("sig"), ps.get("tau")
    for case in (ps, ps.with_values(a=ps.q**-2)):
        for sig, tau in (draw, (F(0), draw[1]), (draw[0], F(0))):
            _, _, rhs = build_id5_pair(case.with_values(sig=sig, tau=tau), N)
            assert rhs == _id5_rhs_by_shifts(case, N, sig, tau), (N, sig, tau)
        for t_scale in (draw[0], F(0), F(1)):
            assert _t_scaled(build_id6_rhs(case, N), t_scale) == _id6_rhs_by_shifts(case, N, t_scale)
        for K, (sub, _, rhs) in enumerate(build_id7_pairs(case, N)):
            assert sub == f"k={K}" and rhs == _id7_rhs_by_rows(case, N, K), (N, K)


@pytest.mark.parametrize("build, want", [(build_id6_rhs, {}), (build_id5_pair, {"_chain_product": 1})],
                         ids=["ID-6", "ID-5"])
def test_euler_sum_work_counts(build, want, monkeypatch):
    # ID-6's right side fuses its Euler-product expansions into one pass,
    # with no Euler series per term and no _dot; ID-5's right side
    # convolves the two Euler rows once and reaches every other P_k from
    # P_0 by a division pass
    calls = Counter()
    for name in ("_euler", "_dot", "_chain_product"):
        monkeypatch.setattr(identities, name, _counted(calls, name, getattr(identities, name)))
    build(trial_paramset(CATALOG["ID-5"], 42, 0), 12)
    assert calls == want
