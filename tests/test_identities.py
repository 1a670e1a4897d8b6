"""The exact identity catalog, difference-equation residuals, basis
expansion, and the documented parameter collapses."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from qasc.core import ParamSet, Poly, TSeries, random_paramset
from qasc.identities import (
    CATALOG,
    CATALOG_ORDER,
    BasisExpansionError,
    _quotient_sum,
    build_id3_lhs,
    build_id3_rhs,
    build_id4_lhs,
    build_id4_rhs,
    build_id5_pair,
    build_id6_lhs,
    build_id6_rhs,
    build_id7_pair,
    expand_poly_in_basis,
    expand_series_in_basis,
    qdiff_residual,
    synthesize_from_basis,
    trial_paramset,
    verify,
)
from qasc.polys import asc5_phi, asc5_psi, cauchy_pn
from qasc.qkernel import (
    PhiSpec,
    _poch_row,
    euler_inverse_series,
    hyper_series,
    qpoch,
    qpoch_t_poly,
)

ORDER = 8  # catalog unit tests run fast; the acceptance suite uses 12


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

    @pytest.mark.parametrize("cid", ["ID-7", "ID-8"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_table_builders_pass(self, cid, seed):
        check = CATALOG[cid]
        rep = verify(check, trial_paramset(check, seed, 0), ORDER, 0)
        assert rep.status == "pass", rep.first_mismatch

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


def test_builders_do_not_write_into_series(monkeypatch):
    # every TSeries gets tuple coefficients, so an in-place write raises
    init = TSeries.__init__

    def frozen_init(self, order, coeffs=None):
        init(self, order, coeffs)
        self.coeffs = tuple(self.coeffs)

    monkeypatch.setattr(TSeries, "__init__", frozen_init)
    ps = random_paramset(random.Random(41))
    for K in range(4):
        build_id7_pair(ps, 6, K)
    assert qpoch_t_poly(Poly.x(), ps.q, 3, 6).coeff(3) == Poly.monomial(3, 0, -ps.q**3)


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
            sub, lhs, rhs = build_id7_pair(ps, 10, 0)
            assert rhs == build_id3_rhs(ps, 10)
            assert lhs == build_id3_lhs(ps, 10)

    def test_id5_sig0_equals_id3(self):
        # s = 0 collapses the transformation onto the plain generating function
        rng = random.Random(22)
        for _ in range(3):
            ps = random_paramset(rng)
            tau = F(1, 3)
            _, lhs, rhs = build_id5_pair(ps, 10, F(0), tau)
            assert lhs == build_id3_lhs(ps, 10, t_scale=tau)
            assert rhs == build_id3_rhs(ps, 10, t_scale=tau)

    def test_id5_tau0_equals_id6(self):
        # t = 0 collapses it onto the alternating generating function
        rng = random.Random(23)
        for _ in range(3):
            ps = random_paramset(rng)
            sig = F(1, 5)
            _, lhs, rhs = build_id5_pair(ps, 10, sig, F(0))
            assert lhs == build_id6_lhs(ps, 10, t_scale=sig)
            assert rhs == build_id6_rhs(ps, 10, t_scale=sig)

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
            g = TSeries(8, list(f.coeffs))
            g.coeffs[3] = g.coeffs[3] + bad
            assert not qdiff_residual("phi_eq", g, residual_ps).is_zero(), bad

    def test_constant_perturbation_stays_in_solution_space(self, residual_ps):
        # constants are basis element 0, so adding one cannot be detected
        f = build_id3_rhs(residual_ps, 8)
        g = TSeries(8, list(f.coeffs))
        g.coeffs[3] = g.coeffs[3] + Poly.one()
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

    def test_failure_carries_remainder(self, expansion_ps):
        with pytest.raises(BasisExpansionError) as err:
            expand_poly_in_basis(Poly.x() ** 5 + Poly.y(), "phi", expansion_ps, nmax=3)
        assert not err.value.remainder.is_zero()


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
        for n, wn in enumerate(w):
            quot = qpoch_t_poly(a, q, n, ORDER) * qpoch_t_poly(b, q, n, ORDER).inverse()
            old = old + quot.shift_t(n).scale(wn)
        assert _quotient_sum(w, a, b, q, ORDER) == old


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
    check = CATALOG["ID-8"]
    ps = trial_paramset(check, seed, 0)
    (_, _, rhs), = check.build(ps, ORDER)
    assert rhs == _id8_rhs_by_series(ps, ORDER)
