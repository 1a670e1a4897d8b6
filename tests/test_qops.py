"""q-difference operators, Leibniz rules, and the T/E operator series."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from qasc.core import ParamSet, Poly, random_paramset
from qasc.polys import asc5_phi, asc5_psi, rogers_szego_hn
from qasc.qkernel import PoleError, _poch_row, qbinom, qpoch
from qasc.qops import OperatorSpec, apply_operator, leibniz, op_power

Q = F(1, 2)


def random_poly(rng, max_deg=4):
    return sum(
        (
            Poly.monomial(
                rng.randint(0, max_deg),
                rng.randint(0, 2),
                F(rng.randint(-6, 6) or 1, rng.randint(1, 9)),
            )
            for _ in range(4)
        ),
        Poly.zero(),
    )


class TestBasicOperators:
    def test_dq_monomial_law(self):
        for n in range(1, 7):
            assert op_power("dq", Poly.x() ** n, 1, Q) == Poly.x() ** (n - 1) * (1 - Q**n)

    def test_dq_matches_divided_difference(self):
        rng = random.Random(1)
        for _ in range(10):
            p = random_poly(rng)
            direct = op_power("dq", p, 1, Q)
            diff = p - p.shift(Q, F(1))
            # (p - p(qx))/x: every term of diff has x-degree >= 1
            quotient = Poly({(i - 1, j): c for (i, j), c in diff.terms.items()})
            assert direct == quotient

    def test_theta_matches_divided_difference(self):
        rng = random.Random(2)
        for _ in range(10):
            p = random_poly(rng)
            direct = op_power("theta", p, 1, Q)
            diff = p.shift(1 / Q, F(1)) - p
            quotient = Poly({(i - 1, j): c * Q for (i, j), c in diff.terms.items()})
            assert direct == quotient

    def test_constants_vanish(self):
        assert op_power("dq", Poly.one(), 1, Q).is_zero()
        assert op_power("theta", Poly.const(F(5, 7)), 1, Q).is_zero()

    def test_theta_frozen(self):
        assert op_power("theta", Poly.x(), 1, Q) == Poly.const(1 - Q)
        assert op_power("theta", Poly.x() ** 2, 1, Q) == Poly.x() * (Q**-1 - Q)
        # q^(1-n) has no value at q = 0: no row over a zero denominator
        with pytest.raises(ZeroDivisionError):
            op_power("theta", Poly.x() ** 2, 1, 0)

    def test_dq_examples(self):
        assert op_power("dq", Poly.monomial(2, 1), 1, Q) == Poly.monomial(1, 1, F(3, 4))

    def test_y_is_inert(self):
        assert op_power("dq", Poly.y() ** 3, 1, Q).is_zero()
        assert op_power("theta", Poly.y() ** 3, 1, Q).is_zero()


class TestOpPower:
    def test_power_factorial_ladder(self):
        # D^k x^n = (q;q)_n/(q;q)_(n-k) x^(n-k), = (q;q)_n at k = n, 0 past
        for n in range(6):
            for k in range(n + 1):
                expect = Poly.x() ** (n - k) * (qpoch(Q, Q, n) / qpoch(Q, Q, n - k))
                assert op_power("dq", Poly.x() ** n, k, Q) == expect
            assert op_power("dq", Poly.x() ** n, n + 1, Q).is_zero()

    def test_frozen_example(self):
        assert op_power("dq", Poly.x() ** 3, 2, Q) == Poly.x() * F(21, 32)

    def test_matches_repeated_divided_differences(self):
        # the one-pass power against k steps of (p - p(qx))/x resp.
        # (p(x/q) - p)/(x/q), each written with Poly.shift
        def step(op, p, q):
            if op == "dq":
                diff, scale = p - p.shift(q, F(1)), F(1)
            else:
                diff, scale = p.shift(1 / q, F(1)) - p, q
            return Poly({(i - 1, j): c * scale for (i, j), c in diff.terms.items()})

        rng = random.Random(7)
        for _ in range(8):
            q = random_paramset(rng).q
            p = random_poly(rng, max_deg=9) + Poly.x() ** 9 * F(2, 3)
            for op in ("dq", "theta"):
                ref = p
                for k in range(11):
                    assert op_power(op, p, k, q) == ref, (op, k)
                    ref = step(op, ref, q)

    def test_degree_drop(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_poly(rng)
            if p.x_degree() < 1:
                continue
            assert op_power("dq", p, 1, Q).x_degree() == p.x_degree() - 1


def _leibniz_oracle(op, f, g, n, q):
    """The Leibniz sum term by term, each term from op_power, Poly.shift
    and Poly products: sum_k [n;k] op^k f (op^(n-k) g)(x q^(+-k)), the
    theta terms weighted by q^(k(k-n))."""
    q = F(q)
    out = Poly.zero()
    fk = f
    for k in range(n + 1):
        w = qbinom(n, k, q) * (1 if op == "dq" else q ** (k * (k - n)))
        gk = op_power(op, g, n - k, q).shift(q**k if op == "dq" else q**-k, F(1))
        out = out + fk * gk * w
        fk = op_power(op, fk, 1, q)
    return out


class TestLeibniz:
    @pytest.mark.parametrize("q", [F(1, 2), F(3, 7), F(-2, 5), F(-3), F(7, 4), F(1)])
    def test_matches_term_by_term_oracle(self, q):
        # the one-pass rows against the term-by-term sum, for both
        # operators, q positive, negative and 1, and zero f or g
        rng = random.Random(f"oracle:{q}")
        cases = [(random_poly(rng), random_poly(rng)) for _ in range(4)]
        cases += [(Poly.zero(), random_poly(rng)), (random_poly(rng), Poly.zero()),
                  (Poly.const(F(2, 3)), Poly.y() ** 2), (Poly.x() ** 6, Poly.x() ** 5 * F(-1, 3))]
        for f, g in cases:
            for n in range(7):
                for op in ("dq", "theta"):
                    got = leibniz(op, f, g, n, q)
                    assert got == _leibniz_oracle(op, f, g, n, q), (op, n, f, g)
                    assert got == op_power(op, f * g, n, q), (op, n, f, g)

    def test_n_zero(self):
        f, g = Poly.x() + Poly.y(), Poly.x() ** 2
        assert leibniz("dq", f, g, 0, Q) == f * g

    def test_single_steps(self):
        assert leibniz("dq", Poly.x(), Poly.x(), 1, Q) == op_power("dq", Poly.x() ** 2, 1, Q)
        assert leibniz("theta", Poly.x() ** 2, Poly.x(), 2, Q) == op_power(
            "theta", Poly.x() ** 3, 2, Q
        )

    def test_equals_direct_powers(self):
        rng = random.Random(6)
        for _ in range(12):
            ps = random_paramset(rng)
            f = random_poly(rng)
            g = random_poly(rng)
            for n in range(7):
                for op in ("dq", "theta"):
                    assert leibniz(op, f, g, n, ps.q) == op_power(op, f * g, n, ps.q)


class TestOperatorSeries:
    def test_t_on_constant(self):
        ps = random_paramset(random.Random(0))
        assert apply_operator(OperatorSpec("T", ps), Poly.one()) == Poly.one()

    def test_t_on_x_explicit(self):
        ps = ParamSet(q=Q, a=F(1, 3), b=F(1, 5), c=F(1, 7), d=F(1, 4), e=F(1, 6))
        w = (1 - ps.a) * (1 - ps.b) * (1 - ps.c) / ((1 - ps.d) * (1 - ps.e))
        assert apply_operator(OperatorSpec("T", ps), Poly.x()) == Poly.x() + Poly.y() * w
        assert apply_operator(OperatorSpec("E", ps), Poly.x()) == Poly.x() - Poly.y() * w

    def test_matches_explicit_sums(self):
        for seed in range(10):
            ps = random_paramset(random.Random(seed))
            for n in range(11):
                assert apply_operator(OperatorSpec("T", ps), Poly.x() ** n) == asc5_phi(n, ps)
                assert apply_operator(OperatorSpec("E", ps), Poly.x() ** n) == asc5_psi(n, ps)

    @staticmethod
    def _check_weighted_powers(ps, p):
        # sum_n w_n y^n op^n p with the weight row and Poly arithmetic
        q, deg = ps.q, p.x_degree()
        for kind, op, z, r in (("T", "dq", 1, 1), ("E", "theta", -1, q)):
            w = _poch_row((ps.a, ps.b, ps.c), {"q": q, "d": ps.d, "e": ps.e}, q, deg, z=z, r=r)
            want = sum((Poly.y() ** n * op_power(op, p, n, q) * F(wn, wd)
                        for n, (wn, wd) in enumerate(w)), Poly.zero())
            assert apply_operator(OperatorSpec(kind, ps), p) == want, (kind, p)

    @pytest.mark.parametrize("seed", [2, 11, 29, 64])
    def test_matches_weighted_powers_on_mixed_polynomials(self, seed):
        # polynomials whose monomials reach different x-degrees, carry
        # powers of y and a constant term
        rng = random.Random(f"mixed-{seed}")
        ps = random_paramset(rng)
        for _ in range(3):
            p = random_poly(rng, max_deg=6) + F(1, 3) + Poly.monomial(0, rng.randint(1, 3), F(2, 7))
            p = p + Poly.monomial(rng.randint(2, 7), rng.randint(1, 3), F(-2, 5))
            assert p.constant()
            self._check_weighted_powers(ps, p)

    def test_terminating_weights_on_mixed_polynomials(self):
        # a = q^-2 on every other draw: w_n vanishes from n = 3 on, so the
        # pass ends early on polynomials of x-degree up to 8
        rng = random.Random("terminating")
        for i in range(12):
            ps = random_paramset(rng)
            if i % 2 == 0:
                ps = ps.with_values(a=ps.q**-2)
            p = random_poly(rng, max_deg=8) + Poly.monomial(rng.randint(3, 8), 1, F(-3, 4))
            self._check_weighted_powers(ps, p)

    def test_degenerate_weights_give_rogers_szego(self):
        # all five parameters zero: T{x^n} collapses to sum_k [n;k] x^(n-k) y^k
        ps = ParamSet(q=Q)
        for n in range(7):
            assert apply_operator(OperatorSpec("T", ps), Poly.x() ** n) == rogers_szego_hn(
                n, Poly.y(), Poly.x(), Q
            )

    def test_pole_detection(self):
        ps = ParamSet(q=Q, d=Q**-1)  # (d;q)_2 contains 1 - d q = 0
        for kind in ("T", "E"):
            with pytest.raises(PoleError) as err:
                apply_operator(OperatorSpec(kind, ps), Poly.x() ** 3)
            assert err.value.index == 2
            assert str(err.value) == "(q,d,e;q)_k vanished at k=2 for q=1/2, d=2, e=0"
        # x^1 needs only the n = 1 weight, which is finite
        assert apply_operator(OperatorSpec("T", ps), Poly.x()).x_degree() == 1

    def test_polynomials_without_x(self):
        # the zero polynomial and a y-only one: only the n = 0 term, weight 1
        ps = random_paramset(random.Random(5))
        p = Poly.y() ** 2 * F(3, 7) - Poly.one()
        for kind in ("T", "E"):
            assert apply_operator(OperatorSpec(kind, ps), Poly.zero()).is_zero()
            assert apply_operator(OperatorSpec(kind, ps), p) == p

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            OperatorSpec("X", ParamSet(q=Q))

    def test_params_must_be_a_paramset(self):
        # a mapping is refused when the spec is made, not when applied
        for params in ({"q": 1}, {"q": Q}, None, Q):
            with pytest.raises(TypeError, match="params"):
                OperatorSpec("T", params)
