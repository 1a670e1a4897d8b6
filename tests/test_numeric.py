"""Numeric primitives and the high-precision verification checks.

Unit tests here run at reduced precision/tail settings to stay fast; the
acceptance suite runs the documented 256-bit configuration.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp, mpf

from qasc.core import ParamSet
from qasc.numeric import (
    NUMERIC_CATALOG,
    NonConvergence,
    NumericConfig,
    QuadConfig,
    asc5_phi_num,
    gauss_legendre_nodes,
    hyper_num,
    integrate_panels,
    poch_inf,
    qpoch_num,
    ramanujan_closed_form,
    ramanujan_integral,
    rel_diff,
    sum_until_tail,
    to_mp,
    u_series,
    u_series_rhs,
)
from qasc.polys import asc5_phi
from qasc.qkernel import PoleError, qpoch

def u_region_bound(xs, q, n):
    """Conservative reading of the U(n+1) convergence region:
    |z| < min_m (prod_i |x_i|) |x_m|^-n q^((n-1)/2)."""
    prod = F(1)
    for v in xs:
        prod *= abs(F(v))
    best = min(prod * abs(F(xm)) ** (-n) for xm in xs)
    return float(best) * float(F(q)) ** ((n - 1) / 2)


FAST = NumericConfig(precision_bits=128, tail_tol="1e-25", compare_tol="1e-12",
                     quad=QuadConfig(half_width=9.0, nodes=32, panels=12))


class TestConfig:
    def test_defaults_valid(self):
        NumericConfig()

    def test_tail_must_undercut_compare(self):
        with pytest.raises(ValueError, match="below compare_tol"):
            NumericConfig(tail_tol="1e-10", compare_tol="1e-12")

    def test_compare_tol_cannot_loosen(self):
        # rel_diff never exceeds 2, so a looser gate could pass anything
        for tol in ("1e-6", "1e-3", "inf", "nan"):
            with pytest.raises(ValueError, match="at most 1e-12"):
                NumericConfig(compare_tol=tol)
        NumericConfig(compare_tol="1e-20")

    def test_tail_must_be_positive(self):
        # refused for its own cause, before the half-width check
        for tol in ("0", "-1e-40"):
            with pytest.raises(ValueError, match="tail_tol must be positive"):
                NumericConfig(tail_tol=tol)

    def test_half_width_vs_tail(self):
        with pytest.raises(ValueError, match="half-width"):
            NumericConfig(quad=QuadConfig(half_width=5.0))

    def test_half_width_must_be_positive(self):
        # the exp(-L^2) tail check squares L and cannot refuse a negative
        # half-width; an infinite one makes the integral nan
        for width in (-12.0, 0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="half_width=.*: quadrature half-width must be in"):
                NumericConfig(precision_bits=64, tail_tol="1e-15",
                              quad=QuadConfig(half_width=width))

    @pytest.mark.parametrize("field", ["nodes", "panels"])
    def test_nodes_and_panels_at_least_one(self, field):
        for bad in (0, -3, 2.5):
            with pytest.raises(ValueError, match=f"{field}=.*: quadrature {field} must be an integer"):
                NumericConfig(precision_bits=64, tail_tol="1e-15",
                              quad=QuadConfig(**{field: bad}))
        NumericConfig(quad=QuadConfig(**{field: 1}))

    def test_minimum_precision(self):
        with pytest.raises(ValueError, match="64 bits"):
            NumericConfig(precision_bits=32)

    @pytest.mark.parametrize("bits", [100.5, "256", True])
    def test_precision_must_be_an_integer(self, bits):
        # a bool is an int; a float would reach mpmath and the report unrounded
        with pytest.raises(ValueError, match="precision_bits=.*: precision must be an integer"):
            NumericConfig(precision_bits=bits)


class TestPrimitives:
    def test_sum_until_tail_geometric(self):
        with mp.workprec(128):
            def terms():
                t = mpf(1)
                while True:
                    yield t
                    t = t / 2

            assert abs(sum_until_tail(terms(), FAST) - 2) < mpf("1e-24")

    def test_sum_until_tail_all_zero(self):
        with mp.workprec(128):
            def terms():
                while True:
                    yield mpf(0)

            assert sum_until_tail(terms(), FAST) == 0

    def test_poch_inf_zero_base(self):
        with mp.workprec(128):
            assert poch_inf(mpf(0), mpf("0.5"), FAST) == 1

    def test_poch_inf_against_exact_partial_product(self):
        with mp.workprec(192):
            cfg = NumericConfig(precision_bits=192, tail_tol="1e-45")
            got = poch_inf(to_mp(F(1, 2)), to_mp(F(1, 2)), cfg)
            exact = qpoch(F(1, 2), F(1, 2), 160)  # partial product well past the tail
            assert abs(got - to_mp(exact)) < mpf("1e-38")

    def test_poch_inf_against_mpmath(self):
        with mp.workprec(128):
            got = poch_inf(mpf("0.3"), mpf("0.45"), FAST)
            ref = mpmath.qp("0.3", "0.45")
            assert abs(got - ref) < mpf("1e-22")

    def test_poch_inf_telescoping(self):
        rng = random.Random(3)
        with mp.workprec(128):
            q = mpf("0.41")
            for _ in range(10):
                a = mp.mpc(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                lhs = poch_inf(a, q, FAST)
                rhs = (1 - a) * poch_inf(a * q, q, FAST)
                assert rel_diff(lhs, rhs) < FAST.ctol()

    def test_hyper_num_against_mpmath(self):
        with mp.workprec(128):
            got = hyper_num([to_mp(F(1, 3)), to_mp(F(1, 5))], [to_mp(F(1, 7))],
                            to_mp(F(1, 2)), to_mp(F(1, 5)), FAST)
            ref = mpmath.qhyper([mpf(1) / 3, mpf(1) / 5], [mpf(1) / 7], mpf("0.5"), mpf("0.2"))
            assert rel_diff(got, ref) < mpf("1e-22")

    def test_hyper_num_refuses_r_above_s_plus_1(self):
        with mp.workprec(128):
            with pytest.raises(ValueError) as err:
                hyper_num([mpf(1), mpf(2), mpf(3)], [mpf(4)], mpf("0.5"), mpf(1) / 5, FAST)
        assert str(err.value) == "series with r > s+1 are not supported"

    def test_pole_is_pole_error(self):
        # a vanishing (b;q)_k on mpf values names the term, as on the exact side
        with mp.workprec(128):
            with pytest.raises(PoleError) as err:
                hyper_num([mpf(1) / 3], [mpf(4)], mpf("0.5"), mpf(1) / 5, FAST)
            assert err.value.index == 3
            assert str(err.value) == "(b1,q;q)_k vanished at k=3 for b1=4.0, q=0.5"
            with pytest.raises(PoleError) as err:
                asc5_phi_num(4, *(mpf(0),) * 3, mpf(2), mpf(0), mpf("0.5"), mpf(1), mpf(1))
            assert err.value.index == 2

    def test_asc5_phi_num_matches_exact(self):
        ps = ParamSet(q=F(1, 2), a=F(1, 5), b=F(1, 7), c=F(1, 9), d=F(1, 4), e=F(1, 6))
        with mp.workprec(128):
            args = [to_mp(v) for v in (ps.a, ps.b, ps.c, ps.d, ps.e)]
            for n in range(8):
                got = asc5_phi_num(n, *args, to_mp(ps.q), to_mp(F(1, 3)), to_mp(F(1, 8)))
                exact = asc5_phi(n, ps).eval(F(1, 3), F(1, 8))
                assert abs(got - to_mp(exact)) < mpf("1e-30")

    def test_asc5_phi_num_at_x_zero(self):
        # phi_n(0, y) = (a,b,c;q)_n/(d,e;q)_n y^n: only the k = n term is left
        ps = ParamSet(q=F(1, 2), a=F(1, 5), b=F(1, 7), c=F(1, 9), d=F(1, 4), e=F(1, 6))
        with mp.workprec(128):
            args = [to_mp(v) for v in (ps.a, ps.b, ps.c, ps.d, ps.e)]
            for n in range(9):
                got = asc5_phi_num(n, *args, to_mp(ps.q), mpf(0), to_mp(F(1, 8)))
                exact = asc5_phi(n, ps, 0, F(1, 8)).constant()
                assert abs(got - to_mp(exact)) < mpf("1e-30") * abs(to_mp(exact))

    def test_qpoch_num(self):
        with mp.workprec(64):
            assert abs(qpoch_num(mpf("0.5"), mpf("0.5"), 2) - mpf("0.375")) < mpf("1e-15")


class TestQuadrature:
    def test_gauss_legendre_exactness(self):
        # an n-point rule integrates degree 2n-1 polynomials exactly
        with mp.workprec(128):
            nodes, weights = gauss_legendre_nodes(6, 128)
            for deg in range(12):
                got = sum(w * x**deg for x, w in zip(nodes, weights))
                exact = mpf(2) / (deg + 1) if deg % 2 == 0 else mpf(0)
                assert abs(got - exact) < mpf("1e-35")

    def test_plain_gaussian(self):
        with mp.workprec(128):
            got = integrate_panels(lambda x: mp.e ** (-x * x), mpf(-9), mpf(9), FAST)
            assert abs(got - mp.sqrt(mp.pi)) < mpf("1e-25")

    def test_gaussian_anchor(self):
        # a = b = 0 leaves the bare integral sqrt(pi) e^(m^2)
        with mp.workprec(128):
            got = ramanujan_integral(0, 0, F(1, 2), F(1, 4), FAST)
            want = mp.sqrt(mp.pi) * mp.e ** (to_mp(F(1, 2)) ** 2)
            assert rel_diff(got, want) < mpf("1e-12")

    def test_panel_doubling_stability(self):
        with mp.workprec(128):
            base = ramanujan_integral(F(1, 5), F(1, 4), F(1, 2), F(1, 4), FAST)
            dbl_cfg = NumericConfig(
                precision_bits=128, tail_tol="1e-25",
                quad=QuadConfig(half_width=9.0, nodes=32, panels=24),
            )
            dbl = ramanujan_integral(F(1, 5), F(1, 4), F(1, 2), F(1, 4), dbl_cfg)
            assert rel_diff(base, dbl) < mpf("1e-12")

    def test_weighted_y0_equals_plain(self):
        w = ParamSet(q=F(1, 4), a=F(1, 5), b=F(1, 7), c=F(1, 9), d=F(1, 4), e=F(1, 6))
        with mp.workprec(128):
            plain = ramanujan_closed_form(F(1, 5), F(1, 4), F(1, 2), F(1, 4), FAST)
            weighted = ramanujan_closed_form(
                F(1, 5), F(1, 4), F(1, 2), F(1, 4), FAST, weight=w, y=F(0)
            )
            assert rel_diff(plain, weighted) < mpf("1e-30")


class TestUSeries:
    def test_n1_is_q_binomial_theorem(self):
        rng = random.Random(17)
        with mp.workprec(128):
            for _ in range(20):
                b = F(rng.randint(-8, 8) or 1, rng.randint(9, 32))
                z = F(rng.randint(-8, 8) or 1, rng.randint(20, 40))
                q = F(rng.randint(1, 8), rng.randint(9, 32))
                lhs = u_series(1, [F(1)], b, z, q, FAST)
                rhs = u_series_rhs(b, z, q, FAST)
                assert rel_diff(lhs, rhs) < FAST.ctol(), (b, z, q)

    def test_n2(self):
        with mp.workprec(160):
            cfg = NumericConfig(precision_bits=160, tail_tol="1e-30")
            lhs = u_series(2, [F(1), F(1, 3)], F(1, 4), F(1, 10), F(1, 2), cfg)
            rhs = u_series_rhs(F(1, 4), F(1, 10), F(1, 2), cfg)
            assert rel_diff(lhs, rhs) < cfg.ctol()

    def test_n3(self):
        # x-ratios must avoid q^-i poles in (q x_r/x_s;q)_(y_r); these do
        with mp.workprec(128):
            cfg = NumericConfig(precision_bits=128, tail_tol="1e-18")
            xs = [F(1), F(2, 3), F(5, 9)]
            z = F(1, 25)
            assert float(z) < u_region_bound(xs, F(1, 2), 3)
            lhs = u_series(3, xs, F(1, 4), z, F(1, 2), cfg)
            rhs = u_series_rhs(F(1, 4), z, F(1, 2), cfg)
            assert rel_diff(lhs, rhs) < cfg.ctol()

    def test_weighted_y0_collapses_to_plain(self):
        w = ParamSet(q=F(1, 2), a=F(1, 5), b=F(1, 7), c=F(1, 9), d=F(1, 4), e=F(1, 6))
        with mp.workprec(128):
            plain = u_series(2, [F(1), F(1, 3)], F(1, 4), F(1, 10), F(1, 2), FAST)
            weighted = u_series(
                2, [F(1), F(1, 3)], F(1, 4), F(1, 10), F(1, 2), FAST, weight=w, y=F(0)
            )
            assert rel_diff(plain, weighted) < mpf("1e-20")

    def test_weighted_at_z_zero(self):
        # z = 0 leaves phi_m(0, y) = (a,b,c;q)_m/(d,e;q)_m y^m in each shell
        w = ParamSet(q=F(1, 2), a=F(1, 5), b=F(1, 7), c=F(1, 9), d=F(1, 4), e=F(1, 6))
        with mp.workprec(128):
            lhs = u_series(2, [F(1), F(1, 3)], F(1, 4), F(0), F(1, 2), FAST, weight=w, y=F(1, 8))
            rhs = u_series_rhs(F(1, 4), F(0), F(1, 2), FAST, weight=w, y=F(1, 8))
            assert rel_diff(lhs, rhs) < FAST.ctol()

    def test_region_bound(self):
        assert u_region_bound([F(1), F(1, 3)], F(1, 2), 2) == pytest.approx(
            (1 / 3) * (1 / 2) ** 0.5
        )

    def test_n_must_match_xs(self):
        # unchecked, n = 1 with two xs reads x2's table as (b;q)_m, n = 0
        # recurses without end and n > len(xs) runs off the list
        for n, xs in ((1, [F(1), F(1, 3)]), (0, []), (0, [F(1)]), (3, [F(1), F(1, 3)])):
            with pytest.raises(ValueError, match="u_series needs n >= 1 and len"):
                u_series(n, xs, F(1, 4), F(1, 10), F(1, 2), FAST)

    def test_divergence_flagged(self):
        with mp.workprec(64):
            cfg = NumericConfig(precision_bits=64, tail_tol="1e-15")
            with pytest.raises(NonConvergence):
                u_series(2, [F(1), F(1, 3)], F(1, 4), F(3), F(1, 2), cfg)


class TestTransformation:
    def test_degenerate_r_equals_s(self):
        # with t = s and r = s the right side collapses to its k = 0 term
        # because (r/s;q)_k = (1;q)_k vanishes for k >= 1; both sides stay
        # finite and equal
        from qasc.numeric import transformation_lhs, transformation_rhs

        ps = ParamSet(q=F(1, 2), a=F(1, 5), b=F(1, 7), c=F(1, 9), d=F(1, 4), e=F(1, 6))
        s = F(1, 7)
        with mp.workprec(160):
            cfg = NumericConfig(precision_bits=160, tail_tol="1e-30")
            lhs = transformation_lhs(ps, F(1, 3), F(1, 8), s, s, s, cfg)
            rhs = transformation_rhs(ps, F(1, 3), F(1, 8), s, s, s, cfg)
            assert rel_diff(lhs, rhs) < cfg.ctol()


class TestCatalogChecks:
    @pytest.mark.parametrize("cid", list(NUMERIC_CATALOG))
    def test_passes_fast_config(self, cid):
        cfg = NumericConfig(precision_bits=160, tail_tol="1e-30", compare_tol="1e-12",
                            quad=QuadConfig(half_width=10.0, nodes=40, panels=16))
        rep = NUMERIC_CATALOG[cid].execute(cfg)
        assert rep.status == "pass", (cid, rep.rel_diff, rep.error_budget)

    def test_report_shape(self):
        rep = NUMERIC_CATALOG["NUM-3"].execute(FAST)
        d = rep.to_dict()
        assert d["id"] == "NUM-3"
        assert "rel_diff" in d and "precision_bits" in d
