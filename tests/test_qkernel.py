"""q-shifted factorials, q-binomials, hypergeometric and Euler series."""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction as F
from itertools import islice
from math import comb, gcd, lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qasc.core import Poly, TSeries, _ZROW, _canon, _poly, _row, _series
from qasc.identities import CATALOG, _scalars, trial_paramset
from qasc.qkernel import (
    PhiSpec,
    PoleError,
    _MEMO_SIZE,
    _POCH_ROWS,
    _QBINOM_ROWS,
    _chain_product,
    _common_den,
    _euler,
    _euler_row,
    _hyper_row,
    _poch_row,
    _qbinom_rows,
    _step,
    _walk,
    euler_inverse_series,
    euler_product_series,
    hyper_series,
    qbinom,
    qpoch,
    qpoch_multi,
    qpoch_t_poly,
    term_stream,
)

Q = F(1, 2)


@pytest.mark.parametrize("build", [
    lambda: TSeries.one(-1),
    lambda: TSeries.from_poly(Poly.x(), -2),
    lambda: hyper_series(PhiSpec((F(1, 3),), (), Q), -1),
    lambda: euler_inverse_series(Poly.x(), Q, -1),
    lambda: euler_product_series(Poly.x(), Q, -1),
    lambda: qpoch_t_poly(Poly.x(), Q, 2, -1),
], ids=["one", "from_poly", "hyper_series", "euler_inverse", "euler_product", "qpoch_t_poly"])
def test_negative_order_refused(build):
    # every series constructor refuses what TSeries(-1) refuses
    with pytest.raises(ValueError, match="order must be >= 0"):
        build()


def test_qpoch_t_poly_refuses_negative_j():
    # as qpoch refuses a negative n; unchecked, j < 0 slices the row to
    # nothing and gives the zero series
    for j in (-1, -4):
        with pytest.raises(ValueError, match="qpoch_t_poly needs j >= 0"):
            qpoch_t_poly(Poly.x(), Q, j, 3)


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

    def test_root_of_unity_limits(self):
        # (q;q)_k vanishes at q = 1 (k >= 1) and q = -1 (k >= 2); [n;k] is a
        # polynomial in q, so it has the limit there: C(n, k) at q = 1, and
        # 0 for odd k with even n, else C(n//2, k//2), at q = -1
        for n in range(13):
            for k in range(n + 1):
                assert qbinom(n, k, 1) == comb(n, k), (n, k)
                assert qbinom(n, k, -1) == (
                    0 if n % 2 == 0 and k % 2 else comb(n // 2, k // 2)), (n, k)


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
        assert str(err.value) == "(b1,q;q)_k vanished at k=3 for b1=4, q=1/2"

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            PhiSpec([F(1, 2), F(1, 3), F(1, 5)], [F(1, 7)], Q)
        with pytest.raises(ValueError, match=r"r > s\+1"):
            _hyper_row((F(1, 2), F(1, 3), F(1, 5)), (F(1, 7),), Q, 4)

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


class TestTermStream:
    def test_mpf_matches_exact_row(self):
        # the same generator on mpf values reproduces the exact Fraction row,
        # including a numerator q^-m that ends it and a 0 among the dens
        rng = random.Random(23)

        def draw():
            return F(rng.randint(-8, 8) or 1, rng.randint(9, 32))

        def to_mp(v):
            return mpf(v.numerator) / v.denominator

        with mp.workprec(160):
            for trial in range(12):
                q = F(rng.randint(1, 8), rng.randint(9, 32))
                nums = [draw() for _ in range(rng.randint(0, 3))]
                m = rng.randint(0, 6) if trial % 3 == 0 else None
                if m is not None:
                    nums.append(q**-m)
                dens = {"d": draw(), "e": F(0) if trial % 4 == 0 else draw(), "q": q}
                z, r = draw(), rng.choice([F(1), q, q * q, 1 / q])
                row = _fracs(_poch_row(nums, dens, q, 14, z=z, r=r))
                if m is not None:
                    assert row[m] != 0 and not any(row[m + 1:])
                stream = term_stream(
                    [to_mp(a) for a in nums], {k: to_mp(b) for k, b in dens.items()},
                    to_mp(q), to_mp(z), to_mp(r), mpf(1),
                )
                got = list(islice(stream, 15))
                # mpf q^-m is rounded, so a terminated term is only tiny
                tol = mpf(2) ** -140 * max(abs(to_mp(v)) for v in row)
                assert all(abs(g - to_mp(v)) <= tol for g, v in zip(got, row)), trial

    def test_pole_past_vanished_numerator(self):
        # (q^-1;q)_k is 0 from k = 2 on; (4;q)_k at q = 1/2 still vanishes at k = 3
        stream = term_stream([Q**-1], {"d": F(4)}, Q, F(1), F(1), F(1))
        assert list(islice(stream, 3)) == [1, F(1, 3), 0]
        with pytest.raises(PoleError) as err:
            next(stream)
        assert err.value.index == 3
        assert str(err.value) == "(d;q)_k vanished at k=3 for d=4"


def _stream_row(nums, dens, q, n, z=F(1), r=F(1)):
    """The first n + 1 terms of term_stream on Fractions, the reference
    for _poch_row's integer loop."""
    return list(islice(term_stream(nums, dens, q, z, r, F(1)), n + 1))


def _fracs(row):
    """A _poch_row row of (num, den) pairs as Fractions, after checking its
    form: integers, each den positive and dividing the next one."""
    assert all(type(c) is int and type(d) is int and d > 0 for c, d in row)
    assert all(b % a == 0 for (_, a), (_, b) in zip(row, row[1:]))
    return [F(c, d) for c, d in row]


def _outcome(build):
    try:
        return build()
    except PoleError as err:
        return ("pole", err.index, str(err))


class TestPochRow:
    def test_matches_term_stream(self):
        # seeded parameter sets with a negative q, q > 1 and r = 1/q, q^2 among them
        rng = random.Random(31)

        def draw():
            return F(rng.randint(-8, 8) or 1, rng.randint(1, 32))

        poles = 0
        for _ in range(150):
            q = draw()
            nums = [draw() for _ in range(rng.randint(0, 4))]
            dens = {f"b{i}": draw() for i in range(rng.randint(0, 4))}
            z, r = draw(), rng.choice([F(1), q, q * q, 1 / q, draw()])
            n = rng.randint(0, 14)
            # a draw of b = 1 or b = q^-j is a pole, with the same index and text
            got = _outcome(lambda: _fracs(_poch_row(nums, dens, q, n, z, r)))
            assert got == _outcome(lambda: _stream_row(nums, dens, q, n, z, r))
            poles += isinstance(got, tuple)
        assert 0 < poles < 50

    @pytest.mark.parametrize(
        "nums, dens, z, r",
        [
            ((F(1, 3), F(-2, 5)), {"d": F(0), "e": F(1, 7), "q": Q}, F(1), F(1)),  # zero den
            ((Q**-4, F(1, 5)), {"d": F(1, 4), "q": Q}, F(-3, 7), Q),  # terminating q^-4
            ((F(1, 3),), {"d": F(1, 4), "q": Q}, F(0), F(1)),  # z = 0
            ((F(1, 3), F(2, 9)), {"d": F(-1, 6)}, F(2, 3), 1 / Q),  # r = 1/q
            ((F(1, 3),), {"d": F(1, 6), "e": F(3, 8)}, F(-1), Q * Q),  # r = q^2
        ],
    )
    def test_edge_cases_match_term_stream(self, nums, dens, z, r):
        for n in (-1, 0, 1, 9):
            row = _fracs(_poch_row(nums, dens, Q, n, z, r))
            assert row == _stream_row(nums, dens, Q, n, z, r)
            assert len(row) == n + 1
        if nums[0] == Q**-4:
            assert row[4] != 0 and not any(row[5:])
        if z == 0:
            assert row == [1] + [0] * 9

    @pytest.mark.parametrize("z", [F(1), F(0)])
    def test_pole_past_vanished_numerator(self, z):
        # (q^-1;q)_k is 0 from k = 2 on and z = 0 empties every term past
        # k = 0; (4;q)_k at q = 1/2 still vanishes at k = 3
        nums, dens = [Q**-1], {"d": F(4), "q": Q}
        assert _fracs(_poch_row(nums, dens, Q, 2, z)) == _stream_row(nums, dens, Q, 2, z)
        got = _outcome(lambda: _fracs(_poch_row(nums, dens, Q, 5, z)))
        assert got == _outcome(lambda: _stream_row(nums, dens, Q, 5, z))
        assert got == ("pole", 3, "(d,q;q)_k vanished at k=3 for d=4, q=1/2")

    def test_rows_are_reduced_divisibility_chains(self):
        # each step divides its factor pair by their gcd: each denominator
        # divides the next, and the two quotients of a step are coprime
        rng = random.Random(43)

        def draw():
            return F(rng.randint(-8, 8), rng.randint(1, 32))  # zero among them

        steps = 0
        for _ in range(200):
            q = draw() or Q
            nums = [draw() for _ in range(rng.randint(0, 4))]
            dens = {f"b{i}": draw() for i in range(rng.randint(0, 4))}
            z, r = rng.choice([draw(), -abs(draw()), F(-1)]), rng.choice([F(1), q, 1 / q, draw()])
            try:
                row = _poch_row(nums, dens, q, rng.randint(0, 12), z, r)
            except PoleError:
                continue
            for (an, ad), (bn, bd) in zip(row, row[1:]):
                assert ad > 0 and bd % ad == 0
                if an:
                    assert bn % an == 0 and gcd(bn // an, bd // ad) == 1
                    steps += 1
        assert steps > 300


@pytest.mark.parametrize("row", [
    _poch_row((F(1, 3), F(-2, 5), F(3, 4)), {"d": F(1, 6), "e": F(-3, 8), "q": Q}, Q, 14),
    _poch_row((Q**-2, F(1, 5)), {"d": F(1, 4), "q": Q}, Q, 9),  # 0 from k = 3 on
    _euler_row(Q, 40),
], ids=["five-parameter", "vanishing", "euler-40"])
def test_walk_holds_terms_over_each_denominator(row):
    # yield n is terms 0..n over den_n, and no later step changes it; a
    # _step from a held (nums, den), as the family sums take, gives the
    # next yield and leaves the held list alone
    walk = list(_walk(row))
    assert len(walk) == len(row)
    for n, (nums, den) in enumerate(walk):
        assert den == row[n][1]
        assert [F(c, den) for c in nums] == [F(c, d) for c, d in row[: n + 1]]
        if n + 1 < len(row):
            held = nums[:]
            assert _step(nums, den, *row[n + 1]) == walk[n + 1][0]
            assert nums == held


def _off_chain_rows(seed, N):
    """Two rows whose denominators do not each divide the next, as ID-11
    builds them at its draw for seed: its top row (ra rb rc rd t^2;q)_inf
    interleaved with (0, 1), and the scalar rows of its first product."""
    ps = trial_paramset(CATALOG["ID-11"], seed, 0)
    q, (ra, rb, rc, rd) = ps.q, (ps.get(k) for k in ("ra", "rb", "rc", "rd"))
    top = _poch_row((), {"q": q}, q, N // 2, z=-(ra * rb * rc * rd), r=q)
    gaps = [c for t in top for c in (t, (0, 1))][: N + 1]
    return gaps, _scalars(_chain_product(_euler_row(q, N), ra * rc, gaps, 1, N))


@pytest.mark.parametrize("seed", [42, 101, 1042])
def test_walk_off_a_chain_matches_fraction_prefix_sums(seed):
    # a term whose denominator is no multiple of the running one moves the
    # row to their lcm; every yield still holds terms 0..n, whose sum is
    # the Fraction prefix sum
    moved = 0
    for row in _off_chain_rows(seed, 16):
        den, total = 1, F(0)
        for n, (nums, d) in enumerate(_walk(row)):
            moved += d != row[n][1]
            den, total = lcm(den, row[n][1]), total + F(*row[n])
            assert d == den
            assert [F(c, d) for c in nums] == [F(c, e) for c, e in row[: n + 1]]
            assert F(sum(nums), d) == total
    assert moved > 0


def _fraction_product(e, u, h, v, N):
    """{(i, j): Fraction} per t^n of sum_(m+k=n) e_m u^m h_k v^k for
    monomials u, v, summed term by term over Fractions."""
    ((ui, uj), uc), = u.terms.items()
    ((vi, vj), vc), = v.terms.items()
    rows = []
    for n in range(N + 1):
        acc = {}
        for m in range(n + 1):
            key = (ui * m + vi * (n - m), uj * m + vj * (n - m))
            acc[key] = acc.get(key, 0) + F(*e[m]) * uc**m * F(*h[n - m]) * vc ** (n - m)
        rows.append({key: c for key, c in acc.items() if c})
    return rows


@pytest.mark.parametrize("seed", [42, 101, 1042])
def test_chain_product_off_a_chain_against_fractions(seed):
    # h off a chain and a v whose denominator shares a factor with h's:
    # row n lies over ed_n ud^n times the lcm of hd_k vd^k, k <= n
    N = 12
    for h in _off_chain_rows(seed, N):
        hd = next(d for _, d in h if d > 1)
        for u, v in ((Poly.monomial(1, 0, F(2, 3)), Poly.monomial(0, 1, F(-5, 3 * hd))),
                     (Poly.const(F(-4, 7)), Poly.const(F(7, 2 * hd)))):
            vd = v.row[1]
            for product in (False, True):
                e = _euler_row(Q, N, product)
                got = _chain_product(e, u, h, v, N)
                assert [{key: F(c, d) for key, c in nums.items()} for nums, d in got.rows] \
                    == _fraction_product(e, u, h, v, N)
                for n, (_, d) in enumerate(got.rows):
                    want = e[n][1] * u.row[1] ** n * lcm(*(hk * vd**k for k, (_, hk) in
                                                          enumerate(h[: n + 1])))
                    assert d == want or got.rows[n] == _ZROW


class TestQBinomRows:
    @pytest.mark.parametrize("q", [F(7, 23), F(0), F(-3, 5), F(9, 4)])
    def test_matches_qbinom(self, q):
        rows = _qbinom_rows(q, 20)
        assert [len(row) for row in rows] == list(range(1, 22))
        for n, row in enumerate(rows):
            for k, b in enumerate(row):
                assert F(b, q.denominator ** (k * (n - k))) == qbinom(n, k, q), (n, k)

    def test_root_of_unity_limits(self):
        # the product form is 0/0 at q = 1 and -1; the triangle gives the
        # limits: binomials at q = 1, and [n;k] at q = -1 is 0 for odd k
        # with even n, else C(n//2, k//2)
        for n, row in enumerate(_qbinom_rows(F(1), 12)):
            assert row == tuple(comb(n, k) for k in range(n + 1))
        for n, row in enumerate(_qbinom_rows(F(-1), 12)):
            assert row == tuple(0 if n % 2 == 0 and k % 2 else comb(n // 2, k // 2)
                                for k in range(n + 1))

    def test_short_triangles(self):
        assert _qbinom_rows(Q, -1) == ()
        assert _qbinom_rows(Q, 0) == ((1,),)


# parameter sets (nums, dens, q, z, r) for the memo tests, with integral
# values that a call may pass as ints; d = 4 = q^-2 is a pole at k = 3,
# past a numerator (q^-1;q)_k that vanishes from k = 2 on
_MEMO_SETS = [
    ((F(1, 3), F(-2)), {"d": F(3, 5), "q": Q}, Q, F(1), F(1)),
    ((F(2), F(-1, 4), F(5, 7)), {"d": F(-3), "e": F(1, 9)}, F(2, 3), F(-1), F(2, 3)),
    ((Q**-1,), {"d": F(4), "q": Q}, Q, F(1), F(1)),
    ((), {"q": F(-3, 5)}, F(-3, 5), F(-1), F(-3, 5)),
    ((F(1, 5),), {"b": F(-2), "c": F(0)}, F(9, 4), F(3), F(1, 2)),
]


def _given(v, as_int):
    return int(v) if as_int and v.denominator == 1 else v


def _memo_request(i, n, as_int=False):
    nums, dens, q, z, r = _MEMO_SETS[i]
    return _outcome(lambda: _fracs(_poch_row(
        [_given(a, as_int) for a in nums], {k: _given(b, as_int) for k, b in dens.items()},
        _given(q, as_int), n, _given(z, as_int), _given(r, as_int))))


class TestRowMemos:
    """_poch_row and _qbinom_rows keep each row they build and grow it on
    demand; every answer is what a fresh computation gives."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, len(_MEMO_SETS) - 1), st.integers(-1, 12),
                              st.booleans()), min_size=1, max_size=25))
    def test_interleaved_requests_match_term_stream(self, requests):
        # growing, shrinking and repeated lengths across parameter sets,
        # each value passed as an int or as the equal Fraction
        _POCH_ROWS.clear()
        for i, n, as_int in requests:
            nums, dens, q, z, r = _MEMO_SETS[i]
            want = _outcome(lambda: _stream_row(nums, dens, q, n, z, r))
            assert _memo_request(i, n, as_int) == want, (i, n, as_int)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from([Q, F(-3, 5), F(9, 4), F(1), F(-1)]),
                              st.integers(-1, 14)), min_size=1, max_size=20))
    def test_interleaved_triangles_match_qbinom(self, requests):
        _QBINOM_ROWS.clear()
        for q, N in requests:
            rows = _qbinom_rows(q, N)
            assert [len(row) for row in rows] == list(range(1, N + 2))
            if q not in (1, -1):
                assert all(F(b, q.denominator ** (k * (n - k))) == qbinom(n, k, q)
                           for n, row in enumerate(rows) for k, b in enumerate(row))
            assert rows == _qbinom_rows(_given(q, True), N)

    @pytest.mark.parametrize("lengths", [(6, 2, 6), (2, 6, 2, 6), (1, 2, 9, 0, 4)])
    def test_pole_cold_and_warm(self, lengths):
        # a prefix short of the pole comes back after a longer request hit
        # it, and the pole raises with the same index and text each time
        _POCH_ROWS.clear()
        for n in lengths:
            got = _memo_request(2, n)
            assert got == _outcome(lambda: _stream_row(*_MEMO_SETS[2][:3], n))
            if n >= 3:
                assert got == ("pole", 3, "(d,q;q)_k vanished at k=3 for d=4, q=1/2")
            else:
                assert len(got) == n + 1
            # also past a pole, the memo keeps (num, den) rows with their
            # loop state, stopping short of the pole
            assert all(len(row) <= 3 and all(len(pair) == 2 for pair in row)
                       for row, _ in _POCH_ROWS.values())

    def test_memos_are_bounded(self):
        nums, dens = (F(1, 3),), {"d": F(1, 5)}
        for m in range(3 * _MEMO_SIZE):
            z = F(m + 1, 7)
            assert _fracs(_poch_row(nums, dens, Q, 4, z)) == _stream_row(nums, dens, Q, 4, z)
            assert _qbinom_rows(F(1, m + 2), 3)[3][1] == (m + 2) ** 2 + (m + 2) + 1
            assert 0 < len(_POCH_ROWS) <= _MEMO_SIZE and 0 < len(_QBINOM_ROWS) <= _MEMO_SIZE

    def test_results_cannot_change_the_memo(self):
        row = _poch_row(*_MEMO_SETS[0][:3], 6)
        with pytest.raises(TypeError):
            row[1] = (0, 1)
        rows = _qbinom_rows(F(-3, 5), 6)
        with pytest.raises(TypeError):
            rows[2][1] = 0
        with pytest.raises(TypeError):
            rows[1] = (0, 1)
        assert _qbinom_rows(F(-3, 5), 8)[:7] == rows

    def test_threads_match_serial(self):
        # four threads (more than cores) grow and clear the same rows, in
        # opposite orders and with ints or Fractions as parameters
        lengths = [3, 11, 0, 7, 12, 5, 9, 1]
        serial = {(i, n): (_memo_request(i, n), _qbinom_rows(_MEMO_SETS[i][2], n))
                  for i in range(len(_MEMO_SETS)) for n in lengths}
        seen: list[list] = [[] for _ in range(4)]

        def work(t):
            for rep in range(20):
                for n in lengths[:: (-1) ** t]:
                    for i in range(len(_MEMO_SETS)):
                        seen[t].append(((i, n), (_memo_request(i, n, t % 2 == 1),
                                                 _qbinom_rows(_MEMO_SETS[i][2], n))))
                if rep % 7 == t:
                    _POCH_ROWS.clear()
                    _QBINOM_ROWS.clear()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(len(got) == 20 * len(serial) for got in seen)
        assert all(value == serial[key] for got in seen for key, value in got)


def _fraction_conv(a, b, n):
    """The first n + 1 coefficients of the product of two rows, on
    Fractions: the reference for the product of integer rows."""
    out = [F(0)] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                out[i + j] += x * y
    return out


def _const_series(values, order):
    return TSeries(order, [Poly.const(c) for c in values])


def _pairs(values):
    return [(c.numerator, c.denominator) for c in values]


class TestIntRows:
    """Integer rows: a _poch_row-style row of (num, den) pairs over one
    denominator (_common_den), the product of series of canonical rows
    and a scalar row as a TSeries (_euler with mono 1)."""

    EDGE_ROWS = [
        [F(3, 4), F(-5, 6), F(1, 12), F(-7, 6)],  # entries whose sum cancels
        [F(0), F(0), F(0)],  # all zero
        [F(-2, 9)],  # length 1
        [F(5)],  # length 1, an integer
        [F(0), F(-1, 2**40), F(3, 7**5), F(0)],  # zeros among large denominators
        [],
    ]

    def _random_row(self, rng, length):
        return [F(rng.randint(-30, 30), rng.randint(1, 40)) * rng.choice([0, 1, 1, 1])
                for _ in range(length)]

    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_int_row_edge_cases(self, row):
        nums, den = _common_den(_pairs(row))
        assert den == lcm(*(c.denominator for c in row)) > 0
        assert [F(c, den) for c in nums] == row
        assert all(isinstance(c, int) for c in nums)

    def test_int_row_random(self):
        rng = random.Random(5)
        for _ in range(100):
            row = self._random_row(rng, rng.randint(1, 12))
            nums, den = _common_den(_pairs(row))
            assert [F(c, den) for c in nums] == row
            assert all(den % c.denominator == 0 for c in row)
        # along a _poch_row row the common denominator is the last one
        row = _poch_row((F(1, 3), F(-2, 5)), {"d": F(1, 7), "q": Q}, Q, 9, z=F(-3, 4), r=Q)
        assert _common_den(row)[1] == row[-1][1]

    def test_conv_matches_fractions(self):
        rng = random.Random(9)
        rows = self.EDGE_ROWS[:-1] + [self._random_row(rng, rng.randint(1, 14)) for _ in range(40)]
        for a in rows:
            for b in rng.sample(rows, 6):
                # N = 0, N shorter than either row, and N past both
                for n in (0, 1, 3, len(a) + len(b) - 2, 15):
                    pad = [F(0)] * (n + 1)
                    ra = [_row(Poly.const(c)) for c in (a + pad)[: n + 1]]
                    rb = [_row(Poly.const(c)) for c in (b + pad)[: n + 1]]
                    got = (_series(n, ra) * _series(n, rb)).rows
                    assert len(got) == n + 1
                    assert [_poly(r).constant() for r in got] == _fraction_conv(a, b, n)
                    assert list(got) == [_row(Poly.const(c)) for c in _fraction_conv(a, b, n)]

    def test_row_series_exact_without_zero_terms(self):
        want = [F(1, 2), 0, F(-1, 3), F(3, 4), F(1, 4), 0, 0]
        got = _euler(1, 6, [(c, 12) for c in (6, 0, -4, 9, 3)])
        assert got == _const_series(want, 6)
        assert [p.constant() for p in got.coeffs] == want
        # exact rows: den > 0, no zero numerator, the content left in
        for nums, den in got.rows:
            assert den > 0 and all(nums.values()) and nums.keys() <= {(0, 0)}
        assert [bool(nums) for nums, _ in got.rows] == [1, 0, 1, 1, 1, 0, 0]
        assert got.rows[2] == ({(0, 0): -4}, 12)
        # a zero monomial keeps the constant term; every later term is 0
        zero = _euler(0, 3, [(c, 12) for c in (6, 0, -4, 9)])
        assert zero.rows == (({(0, 0): 6}, 12), _ZROW, _ZROW, _ZROW)
        assert zero == _const_series([F(1, 2), 0, 0, 0], 3)
        assert [p.constant() for p in zero.coeffs] == [F(1, 2), 0, 0, 0]

    def test_row_series_truncates_and_pads(self):
        assert _euler(1, 1, [(2, 4), (4, 4), (6, 4)]) == _const_series([F(1, 2), 1], 1)
        assert _euler(1, 2, []) == TSeries.zeros(2)
        assert _euler(1, 0, [(0, 3), (0, 3)]) == TSeries.zeros(0)
        assert _euler(1, 0, [(-9, 6)]).coeffs[0].terms == {(0, 0): F(-3, 2)}

    def test_product_of_rows_matches_series_product(self):
        # integer rows from _poch_row multiplied as series equal the
        # Fraction convolution of the same terms
        rng = random.Random(17)
        for n in range(0, 9):
            q = F(rng.randint(1, 8), rng.randint(9, 32))
            a = _poch_row((F(rng.randint(-8, 8), 9),), {"q": q}, q, n, z=F(rng.randint(-5, 5), 7))
            b = _poch_row((), {"q": q}, q, n, z=F(-1, rng.randint(2, 9)), r=q)
            got = _euler(1, n, a) * _euler(1, n, b)
            assert got == _const_series(_fraction_conv(_fracs(a), _fracs(b), n), n)


class TestChainProduct:
    """_chain_product against the series products it replaces,
    euler_*_series(u, q, N) * hyper_series(spec, N, v), and for any other
    row h the product of the two series of e and h, kept as the oracles."""

    @staticmethod
    def _both(product, u, spec, v, n):
        def oracle():
            euler = euler_product_series if product else euler_inverse_series
            return euler(u, spec.q, n) * hyper_series(spec, n, v)

        def kernel():
            h = _hyper_row(spec.numerators, spec.denominators, spec.q, n)
            return _chain_product(_euler_row(spec.q, n, product), u, h, v, n)

        return _outcome(kernel), _outcome(oracle)

    def test_random_draws(self):
        rng = random.Random(29)

        def draw():
            return F(rng.randint(-8, 8) or 1, rng.randint(9, 32))

        def mono():
            return Poly.monomial(rng.randint(0, 2), rng.randint(0, 2), draw())

        for _ in range(60):
            q = F(rng.randint(1, 8), rng.randint(9, 32))
            nums = [draw() for _ in range(rng.randint(0, 3))]
            s = rng.randint(max(len(nums) - 1, 0), 3)
            dens = [rng.choice([F(0), draw()]) for _ in range(s)]
            n = rng.randint(0, 12)
            got, want = self._both(rng.random() < 0.5, mono(), PhiSpec(nums, dens, q), mono(), n)
            assert got == want
            assert [_canon(*r) for r in got.rows] == list(want.rows) and len(got.rows) == n + 1

    @pytest.mark.parametrize(
        "u, nums, dens, v",
        [
            (F(0), [F(1, 3)], [F(2, 5)], Poly.y()),  # zero monomial coefficient
            (Poly.x() * F(1, 4), [F(1, 3)], [F(2, 5)], Poly.zero()),  # zero second factor
            (Poly.x() * F(-3, 5), [F(1, 3), F(-2, 7)], [F(2, 5)], Poly.y() * F(-2, 7)),  # negative
            (F(2, 3), [F(1, 3), F(1, 6)], [F(0), F(2, 5)], F(-1, 4)),  # scalars: all at x^0 y^0
            (Poly.x() * F(2, 3), [F(1, 3)], [F(1, 6)], Poly.x() * F(-1, 5)),  # both powers of x
            (Poly.x(), [Q**-3, F(1, 5)], [F(1, 4)], Poly.y()),  # terminating at k = 3
            (Poly.x(), [F(1, 3)], [Q**-2], Poly.y()),  # pole at k = 3 of the 2phi1 row
        ],
    )
    @pytest.mark.parametrize("product", [False, True])
    def test_edge_cases(self, u, nums, dens, v, product):
        for n in (0, 1, 9):
            got, want = self._both(product, u, PhiSpec(nums, dens, Q), v, n)
            assert got == want
            if isinstance(got, TSeries):
                assert [_canon(*r) for r in got.rows] == list(want.rows)
        if dens == [Q**-2]:
            assert got == ("pole", 3, "(b1,q;q)_k vanished at k=3 for b1=4, q=1/2")

    def test_two_euler_rows(self):
        # the Cauchy right side (yt;q)_inf / (xt;q)_inf
        for q in (Q, F(4, 9), F(1, 31)):
            x, y = Poly.x(), Poly.y()
            got = _chain_product(_euler_row(q, 10, True), y, _euler_row(q, 10), x, 10)
            want = euler_product_series(y, q, 10) * euler_inverse_series(x, q, 10)
            assert [_canon(*r) for r in got.rows] == list(want.rows)

    @pytest.mark.parametrize("kind", ["previous product", "constant den", "gaps", "any dens"])
    def test_h_off_a_chain(self, kind):
        # h need not be a _poch_row chain: the scalar rows of a previous
        # product (ID-11 and ID-12 fold through these), one unreduced
        # constant denominator, a t^2 row with (0, 1) gaps (ID-11),
        # and denominators with no order at all; the oracle is the product
        # of the two series that e and h make on their own
        rng = random.Random(kind)

        def draw():
            return F(rng.randint(-8, 8) or 1, rng.randint(9, 32))

        def mono():
            return Poly.monomial(rng.randint(0, 2), rng.randint(0, 2), draw())

        for _ in range(25):
            q, n = F(rng.randint(1, 8), rng.randint(9, 32)), rng.randint(0, 12)
            if kind == "previous product":
                h = _hyper_row((draw(),), (draw(),), q, n)
                prev = _chain_product(_euler_row(q, n), draw(), h, draw(), n)
                h = [(nums.get((0, 0), 0), den) for nums, den in prev.rows]
            elif kind == "constant den":
                den = 6 * rng.randint(1, 10**6)  # unreduced pairs and zeros among them
                h = [(rng.choice([0, 1, 2]) * rng.randint(-10**6, 10**6), den)
                     for _ in range(n + 1)]
            elif kind == "gaps":
                top = _poch_row((), {"q": q}, q, n // 2, z=draw(), r=q)
                h = [c for t in top for c in (t, (0, 1))][: n + 1]
            else:
                h = [(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(n + 1)]
            e, u, v = _euler_row(q, n, rng.random() < 0.5), mono(), mono()
            got = _chain_product(e, u, h, v, n)
            assert [_canon(*r) for r in got.rows] == list((_euler(u, n, e) * _euler(v, n, h)).rows)
            assert len(got.rows) == n + 1

    def test_short_factor_refused(self):
        # each factor needs order + 1 terms; a shorter one would leave the
        # series with fewer rows than its order
        e = _euler_row(Q, 5)
        with pytest.raises(ValueError, match="factor h has 2 terms; order 5 needs 6"):
            _chain_product(e, 1, [(1, 1), (1, 2)], 1, 5)
        with pytest.raises(ValueError, match="factor e has 4 terms; order 5 needs 6"):
            _chain_product(_euler_row(Q, 3), 1, e, 1, 5)
        assert len(_chain_product(e, 1, e + e, 1, 5).rows) == 6  # longer rows are cut

    def test_argument_must_be_a_monomial(self):
        row = _euler_row(Q, 3)
        with pytest.raises(ValueError, match="monomial"):
            _chain_product(row, Poly.x() + Poly.y(), row, Poly.y(), 3)
