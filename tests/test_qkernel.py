"""q-shifted factorials, q-binomials, hypergeometric and Euler series."""

from __future__ import annotations

import random
from fractions import Fraction as F

import mpmath
import pytest

from qasc.core import Poly, TSeries
from qasc.qkernel import (
    PhiSpec,
    PoleError,
    euler_inverse_series,
    euler_product_series,
    hyper_series,
    qbinom,
    qpoch,
    qpoch_multi,
    qpoch_t_poly,
)

Q = F(1, 2)


class TestQPoch:
    def test_empty_product(self):
        assert qpoch(F(1, 3), Q, 0) == 1

    def test_direct_product(self):
        assert qpoch(F(1, 2), Q, 2) == F(3, 8)

    def test_zero_base(self):
        assert qpoch(0, Q, 5) == 1

    def test_splitting_law(self):
        rng = random.Random(2)
        for _ in range(25):
            a = F(rng.randint(-8, 8), rng.randint(9, 32))
            q = F(rng.randint(1, 8), rng.randint(9, 32))
            m, n = rng.randint(0, 10), rng.randint(0, 10)
            assert qpoch(a, q, m + n) == qpoch(a, q, m) * qpoch(a * q**m, q, n)

    def test_multi(self):
        assert qpoch_multi((F(1, 3), F(1, 5)), Q, 3) == qpoch(F(1, 3), Q, 3) * qpoch(F(1, 5), Q, 3)

    def test_against_mpmath(self):
        a, q, n = F(2, 7), F(3, 8), 9
        mine = qpoch(a, q, n)
        ref = mpmath.qp(float(a), float(q), n)
        assert abs(float(mine) - ref) < 1e-12


class TestQBinom:
    def test_edges(self):
        for n in range(6):
            assert qbinom(n, 0, Q) == 1
            assert qbinom(n, n, Q) == 1
        assert qbinom(3, 5, Q) == 0
        assert qbinom(3, -1, Q) == 0

    def test_frozen_values(self):
        assert qbinom(2, 1, Q) == F(3, 2)
        assert qbinom(3, 1, Q) == F(7, 4)  # 1 + q + q^2

    def test_pascal_recurrence(self):
        rng = random.Random(4)
        for _ in range(10):
            q = F(rng.randint(1, 8), rng.randint(9, 32))
            for n in range(1, 13):
                for k in range(1, n + 1):
                    assert qbinom(n, k, q) == qbinom(n - 1, k - 1, q) + q**k * qbinom(n - 1, k, q)

    def test_definition_ratio(self):
        for n in range(9):
            for k in range(n + 1):
                assert qbinom(n, k, Q) == qpoch(Q, Q, n) / (qpoch(Q, Q, k) * qpoch(Q, Q, n - k))


class TestHyperSeries:
    def test_constant_term(self):
        s = hyper_series(PhiSpec([F(1, 3), F(1, 5)], [F(1, 7)], Q), 5, arg_mono=Poly.x())
        assert s.coeff(0) == Poly.one()

    def test_0phi0_first_term(self):
        # sign exponent 1: term 1 is -1/(q;q)_1 = -2 at q = 1/2
        s = hyper_series(PhiSpec([], [], Q), 4)
        assert s.coeff(1) == Poly.const(-2)

    def test_3phi2_first_term(self):
        a, b, c, d, e = F(1, 3), F(1, 5), F(1, 7), F(1, 4), F(1, 6)
        s = hyper_series(PhiSpec([a, b, c], [d, e], Q), 3, arg_mono=Poly.y())
        expect = (1 - a) * (1 - b) * (1 - c) / ((1 - d) * (1 - e) * (1 - Q))
        assert s.coeff(1) == Poly.monomial(0, 1, expect)

    def test_terminating_numerator(self):
        s = hyper_series(PhiSpec([Q**-3, F(1, 5)], [F(1, 4)], Q), 9)
        assert all(s.coeff(n).is_zero() for n in range(4, 10))
        assert not s.coeff(3).is_zero()

    def test_zero_denominator_parameter_allowed(self):
        s = hyper_series(PhiSpec([F(1, 3)], [F(0), F(1, 4)], Q), 4)
        assert not s.coeff(2).is_zero()

    def test_pole_error_names_term(self):
        with pytest.raises(PoleError) as err:
            hyper_series(PhiSpec([F(1, 3)], [Q**-2], Q), 6)
        assert err.value.index == 3

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            PhiSpec([F(1, 2), F(1, 3), F(1, 5)], [F(1, 7)], Q)

    def test_against_mpmath_qhyper(self):
        # truncated at order 60 with |z| = 1/5 the tail is far below 1e-15
        a, b, c = F(1, 3), F(1, 5), F(1, 7)
        z = F(1, 5)
        s = hyper_series(PhiSpec([a, b], [c], Q), 60, arg_mono=Poly.const(z))
        mine = sum(co.constant() for co in s.coeffs)
        ref = mpmath.qhyper([float(a), float(b)], [float(c)], float(Q), float(z))
        assert abs(float(mine) - ref) < 1e-13

    def test_recurrence_terms_match_direct_pochhammer_products(self):
        # the implementation uses the term ratio recurrence; recompute every
        # term from scratch as a quotient of finite q-shifted factorials
        rng = random.Random(19)
        for _ in range(6):
            q = F(rng.randint(1, 8), rng.randint(9, 32))
            nums = [F(rng.randint(-8, 8) or 1, rng.randint(9, 32)) for _ in range(3)]
            dens = [F(rng.randint(-8, 8) or 1, rng.randint(9, 32)) for _ in range(2)]
            for extra_den in (0, 1):  # sign exponents 0 and 1
                dlist = dens + [F(0)] * extra_den
                s = hyper_series(PhiSpec(nums, dlist, q), 8, arg_mono=Poly.y())
                e = 1 + len(dlist) - len(nums)
                for n in range(9):
                    direct = (
                        qpoch_multi(nums, q, n)
                        / (qpoch_multi(dlist, q, n) * qpoch(q, q, n))
                        * ((-1) ** n * q ** (n * (n - 1) // 2)) ** e
                    )
                    assert s.coeff(n) == Poly.monomial(0, n, direct), (n, e)

    def test_euler_coefficients_match_direct_formula(self):
        rng = random.Random(20)
        for _ in range(5):
            q = F(rng.randint(1, 8), rng.randint(9, 32))
            inv = euler_inverse_series(Poly.x(), q, 9)
            prod = euler_product_series(Poly.x(), q, 9)
            for n in range(10):
                assert inv.coeff(n) == Poly.monomial(n, 0, 1 / qpoch(q, q, n))
                w = (-1) ** n * q ** (n * (n - 1) // 2) / qpoch(q, q, n)
                assert prod.coeff(n) == Poly.monomial(n, 0, w)


class TestEulerSeries:
    def test_low_coefficients(self):
        s = euler_inverse_series(Poly.x(), Q, 3)
        assert s.coeff(0) == Poly.one()
        assert s.coeff(1) == Poly.monomial(1, 0, 2)          # x/(1-q)
        assert s.coeff(2) == Poly.monomial(2, 0, F(8, 3))    # x^2/((q;q)_2)
        p = euler_product_series(Poly.x(), Q, 3)
        assert p.coeff(1) == Poly.monomial(1, 0, -2)         # -x/(1-q)

    def test_inverse_pair(self):
        rng = random.Random(9)
        for _ in range(6):
            q = F(rng.randint(1, 8), rng.randint(9, 32))
            mono = Poly.monomial(rng.randint(0, 1), rng.randint(0, 1), F(rng.randint(1, 5), 7))
            f = euler_inverse_series(mono, q, 12)
            g = euler_product_series(mono, q, 12)
            assert f * g == TSeries.one(12)

    def test_monomial_required(self):
        with pytest.raises(ValueError):
            euler_inverse_series(Poly.x() + Poly.y(), Q, 4)

    def test_t_power_two(self):
        s = euler_product_series(Poly.const(F(1, 3)), Q, 8, t_power=2)
        assert all(s.coeff(n).is_zero() for n in (1, 3, 5, 7))
        plain = euler_product_series(Poly.const(F(1, 3)), Q, 4)
        for n in range(5):
            assert s.coeff(2 * n) == plain.coeff(n)

    def test_qpoch_t_poly(self):
        # (xt;q)_2 = 1 - (1+q) x t + q x^2 t^2
        s = qpoch_t_poly(Poly.x(), Q, 2, 4)
        assert s.coeff(0) == Poly.one()
        assert s.coeff(1) == Poly.monomial(1, 0, -(1 + Q))
        assert s.coeff(2) == Poly.monomial(2, 0, Q)
        assert s.coeff(3).is_zero()

    def test_qpoch_t_poly_matches_factor_product(self):
        # the q-binomial expansion against the product of its linear factors,
        # including truncation orders below j
        for mono in (Poly.x(), Poly.const(F(-2, 5))):
            for order in range(6):
                ref = TSeries.one(order)
                for j in range(8):
                    assert qpoch_t_poly(mono, Q, j, order) == ref, (mono, j, order)
                    linear = [Poly.one(), mono * (-(Q**j))][: order + 1]
                    ref = ref * TSeries(order, linear + [Poly.zero()] * (order + 1 - len(linear)))

