"""Substrate tests: sparse polynomials, truncated series, parameter draws."""

from __future__ import annotations

import copy
import pickle
import random
import sys
from fractions import Fraction as F
from math import gcd, lcm
from operator import delitem, setitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasc import core
from qasc.core import (ParamSet, Poly, TSeries, X, Y, _poly, _row, _series,
                       random_paramset, random_rational)
from qasc.identities import (CATALOG, CATALOG_ORDER, IdentityCheck, Report, build_id3_rhs,
                             expand_series_in_basis, synthesize_from_basis, trial_paramset,
                             verify)
from qasc.numeric import (NUMERIC_CATALOG, NumericCheck, NumericConfig, NumericReport,
                          QuadConfig)
from qasc.polys import PolyFamily, asc5_phi
from qasc.qops import OperatorSpec, apply_operator

Q = F(1, 2)


def fracs():
    return st.fractions(min_value=-4, max_value=4, max_denominator=16)


def polys(max_terms=4, max_deg=4):
    term = st.tuples(
        st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)),
        fracs(),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((Poly.monomial(i, j, c) for (i, j), c in ts), Poly.zero())
    )


class TestPoly:
    def test_add_basic(self):
        assert Poly.x() + Poly.y() == Poly({(1, 0): F(1), (0, 1): F(1)})

    def test_mul_difference_of_squares(self):
        x, y = Poly.x(), Poly.y()
        assert (x + y) * (x - y) == x**2 - y**2

    def test_mul_absorbing_zero(self):
        p = Poly.x() * 3 + Poly.y() ** 2
        assert (Poly.zero() * p).is_zero()

    def test_no_zero_terms_stored(self):
        x, y = Poly.x(), Poly.y()
        p = x - x
        assert p.terms == {}
        p = (x + y) * (x - y)
        assert all(c != 0 for c in p.terms.values())
        # terms that cancel in a sum or inside one product leave no key behind
        assert ((x + y) + (-x)).terms == {(0, 1): 1}
        assert (x - y + (y - x + 1)).terms == {(0, 0): 1}
        assert ((x - y) * (x * x + x * y + y * y)).terms == {(3, 0): 1, (0, 3): -1}
        # and so do the fused products of TSeries: t^1 is x(-y) + yx = 0
        f = TSeries(3, [x, y, x * y, 0])
        fg = f * TSeries(3, [x, -y, 0, 0])
        assert fg.coeffs[1].terms == {}
        assert fg.coeffs[2].terms == {(0, 2): -1, (2, 1): 1}
        # t^1 and t^2 of (1 + xt + yt^2)(1 - xt + (x^2 - y)t^2) cancel across
        # two and three pairs of coefficients
        u = TSeries(4, [1, x, y, 0, 0]) * TSeries(4, [1, -x, x * x - y, 0, 0])
        assert u.coeffs[1].terms == {} and u.coeffs[2].terms == {}
        for series in (fg, u):
            assert all(c for co in series.coeffs for c in co.terms.values())

    def test_shift_exponent_law(self):
        # x^2 y under x -> qx, y -> q^2 y picks up q^2 * q^2 = 1/16 at q = 1/2
        p = Poly.monomial(2, 1)
        assert p.shift(Q, Q * Q) == Poly.monomial(2, 1, F(1, 16))

    def test_shift_identity_and_constants(self):
        p = Poly({(2, 1): F(3), (0, 0): F(5)})
        assert p.shift(F(1), F(1)) == p
        assert Poly.one().shift(Q, Q) == Poly.one()
        # ints, strings and Fractions alike; x, y -> 0 keeps the constant term
        assert p.shift(2, "2/3") == p.shift(F(2), F(2, 3)) == Poly({(2, 1): 8, (0, 0): 5})
        assert p.shift(0, 0) == Poly.const(5) and Poly.zero().shift(0, 0).is_zero()
        with pytest.raises(TypeError):
            p.shift(0.5, 1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(polys(), fracs(), fracs(), fracs(), fracs())
    def test_shift_composition(self, p, s, u, s2, u2):
        assert p.shift(s, u).shift(s2, u2) == p.shift(s * s2, u * u2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_eval(self):
        p = Poly.x() ** 2 * Poly.y() + Poly.one() * 2
        assert p.eval(F(1, 2), F(1, 3)) == F(1, 4) * F(1, 3) + 2
        assert p.eval(2, "1/3") == p.eval(F(2), F(1, 3)) == F(10, 3)
        assert Poly.zero().eval(F(1, 2), 3) == 0 and p.eval(0, 0) == 2
        with pytest.raises(TypeError):
            p.eval(F(1, 2), 0.5)

    def test_str_ordering(self):
        p = Poly.y() * F(2, 3) + Poly.x()
        assert str(p) == "x + (2/3)y"
        p2 = Poly.x() ** 2 - Poly.x() * Poly.y() * F(3, 2) + Poly.y() ** 2 * F(1, 2)
        assert str(p2) == "x^2 - (3/2)xy + (1/2)y^2"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly({(-1, 0): F(1)})

    @pytest.mark.parametrize("i, j", [(1.5, 0), (F(1, 2), 0), (0, 2.0), (F(2), 1)])
    def test_non_integer_exponent_rejected(self, i, j):
        with pytest.raises(TypeError, match=rf"non-integer exponent in term \({i},{j}\)"):
            Poly({(i, j): F(1)})

    def test_coefficients_must_be_rational(self):
        for make in (lambda: Poly({(0, 0): 0.5}), lambda: Poly.const(0.5),
                     lambda: Poly.monomial(1, 0, 0.5), lambda: Poly.x() * 0.5):
            with pytest.raises(TypeError):
                make()
        assert Poly({(0, 0): "2/3", (1, 0): 2}) == Poly.x() * 2 + F(2, 3)

    def test_terms_read_only(self):
        x = Poly.x()
        with pytest.raises(TypeError):
            x.terms[(0, 0)] = 0
        with pytest.raises(TypeError):
            x.terms[(1, 0)] = F(2)
        assert str(x) == "x" and x == Poly.x() and x.terms == {(1, 0): 1}
        # the view does not stop a copy
        p = Poly({(2, 1): F(-3, 7), (0, 0): 5})
        assert p.terms and pickle.loads(pickle.dumps(p)) == p == copy.deepcopy(p)

    def test_constants_hash_like_their_value(self):
        assert len({Poly.const(3), 3}) == 1
        assert len({Poly.const(F(2, 3)), F(2, 3), Poly.x() - Poly.x() + F(4, 6)}) == 1
        assert hash(Poly.zero()) == hash(0) and Poly.zero() == 0
        assert hash(Poly.one()) == hash(1) == hash(F(1))
        assert Poly.x() + 1 != 1 and len({Poly.x() + 1, 1}) == 2

    def test_hash_is_kept_and_unchanged(self):
        # filled on first use; the value is that of the row, also after a
        # pickle round trip, which builds the Poly afresh
        p = Poly({(2, 1): F(-3, 7), (0, 3): F(1, 2)})
        nums, den = p.row
        assert hash(p) == hash((frozenset(nums.items()), den)) == hash(p)
        assert hash(pickle.loads(pickle.dumps(p))) == hash(p) == hash(p * 1)

    def test_foreign_operand_is_not_implemented(self):
        # Poly arithmetic declines any operand but a Poly, an int or a
        # Fraction, so the other side decides: a series scales by a Poly
        # from either side, and a float or a string is a TypeError
        p = Poly({(1, 0): F(2, 3), (0, 2): -1})
        for s in (TSeries.one(2), TSeries(3, [Poly.x(), Poly.const(F(1, 2)), Poly.y(), p])):
            assert p.__mul__(s) is NotImplemented and p.__rmul__(s) is NotImplemented
            assert p * s == s * p == s.scale(p)
            assert Poly.x() * s == s * Poly.x()
            for op in (lambda: p + s, lambda: s + p, lambda: p - s, lambda: s - p):
                with pytest.raises(TypeError):
                    op()
        for other in (0.5, "1/2", None, [1]):
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
                assert getattr(p, name)(other) is NotImplemented, (name, other)
            for op in (lambda: p + other, lambda: other + p, lambda: p - other,
                       lambda: other - p, lambda: p * other, lambda: other * p):
                with pytest.raises(TypeError):
                    op()
        # the operands it takes are unchanged
        assert p + 1 == 1 + p and p - F(1, 2) == -(F(1, 2) - p) and 2 * p == p * Poly.const(2)


class TestTSeries:
    def test_mul_truncates(self):
        one_plus = TSeries(2, [Poly.one(), Poly.one(), Poly.zero()])
        one_minus = TSeries(2, [Poly.one(), -Poly.one(), Poly.zero()])
        prod = one_plus * one_minus
        assert prod == TSeries(2, [Poly.one(), Poly.zero(), -Poly.one()])

    def test_mul_unit(self):
        f = TSeries(3, [Poly.x() ** n for n in range(4)])
        assert f * TSeries.one(3) == f

    def test_cauchy_product_cross_terms(self):
        # t^2 coefficient of (sum x^n t^n)(sum y^n t^n) is x^2 + xy + y^2
        f = TSeries(3, [Poly.x() ** n for n in range(4)])
        g = TSeries(3, [Poly.y() ** n for n in range(4)])
        x, y = Poly.x(), Poly.y()
        assert (f * g).coeff(2) == x**2 + x * y + y**2

    def test_cauchy_product_matches_naive(self):
        rng = random.Random(5)
        n = 6
        f = TSeries(n, [Poly.monomial(rng.randint(0, 2), rng.randint(0, 2), F(rng.randint(1, 5), rng.randint(1, 5))) for _ in range(n + 1)])
        g = TSeries(n, [Poly.monomial(rng.randint(0, 2), rng.randint(0, 2), F(rng.randint(1, 5), rng.randint(1, 5))) for _ in range(n + 1)])
        prod = f * g
        for m in range(n + 1):
            acc = Poly.zero()
            for k in range(m + 1):
                acc = acc + f.coeff(k) * g.coeff(m - k)
            assert prod.coeff(m) == acc

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(fracs(), min_size=4, max_size=4),
        st.lists(fracs(), min_size=4, max_size=4),
        st.lists(fracs(), min_size=4, max_size=4),
    )
    def test_series_ring_axioms(self, a, b, c):
        fa = TSeries(3, [Poly.const(v) for v in a])
        fb = TSeries(3, [Poly.const(v) for v in b])
        fc = TSeries(3, [Poly.const(v) for v in c])
        assert (fa * fb) * fc == fa * (fb * fc)
        assert fa * fb == fb * fa
        assert fa * (fb + fc) == fa * fb + fa * fc

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order mismatch"):
            TSeries.one(3) + TSeries.one(4)

    def test_foreign_operand_is_type_error(self):
        # a Poly scales a series, and adds to none
        f = TSeries.one(3)
        for other in (0.5, "1/2", [1, 0, 0, 0], Poly.x()):
            ops = [lambda: f + other, lambda: other + f, lambda: f - other,
                   lambda: other - f, lambda: f.first_mismatch(other)]
            if not isinstance(other, Poly):
                ops += [lambda: f * other, lambda: other * f]
            for op in ops:
                with pytest.raises(TypeError):
                    op()
        assert f * 2 == f * F(2) == f * Poly.const(2) == 2 * f == TSeries.from_poly(Poly.const(2), 3)

    def test_coeff_bounds(self):
        f = TSeries.one(3)
        assert f.coeff(3).is_zero()
        with pytest.raises(IndexError):
            f.coeff(4)

    def test_shift_t(self):
        f = TSeries(3, [Poly.const(c) for c in (1, 2, 3, 4)])
        g = f.shift_t(2)
        assert [c.constant() for c in g.coeffs] == [0, 0, 1, 2]
        # a shift past the order leaves nothing
        for k in (f.order + 1, f.order + 2, 2 * f.order + 3):
            assert f.shift_t(k) == TSeries.zeros(f.order), k

    def test_inverse(self):
        f = TSeries(5, [Poly.const(v) for v in (1, F(1, 2), F(1, 3), 0, F(2, 7), 1)])
        assert f * f.inverse() == TSeries.one(5)
        # polynomial coefficients: every t^n, n >= 1, of the product cancels
        # to the empty term map, and so do the terms inside the inverse
        x, y = Poly.x(), Poly.y()
        for cs in ([3, x, y, x * y - 1, 0, x * x, 1], [1, x - y, 0, y * y, x, 0, F(-2, 3)]):
            f = TSeries(6, cs)
            inv = f.inverse()
            assert f * inv == TSeries.one(6) == inv * f
            assert all(c for co in inv.coeffs for c in co.terms.values())
        # 1/(1 - (x + y)t) = sum (x + y)^n t^n
        g = TSeries(4, [1, -(x + y), 0, 0, 0]).inverse()
        assert g == TSeries(4, [(x + y) ** n for n in range(5)])

    def test_inverse_needs_scalar_unit(self):
        f = TSeries(2, [Poly.x(), Poly.one(), Poly.one()])
        with pytest.raises(ValueError):
            f.inverse()


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


class RefSeries:
    """The series arithmetic on one Fraction term dict per power of t: the
    reference the integer-row TSeries is checked against."""

    def __init__(self, terms):
        self.terms = [{e: F(c) for e, c in t.items() if c} for t in terms]

    @staticmethod
    def of(polys):
        return RefSeries([p.terms for p in polys])

    def __add__(self, other):
        return RefSeries([_ref_add(a, b) for a, b in zip(self.terms, other.terms)])

    def __neg__(self):
        return RefSeries([{e: -c for e, c in t.items()} for t in self.terms])

    def __mul__(self, other):
        n = len(self.terms)
        out = [{} for _ in range(n)]
        for i, a in enumerate(self.terms):
            for j, b in enumerate(other.terms[: n - i]):
                out[i + j] = _ref_add(out[i + j], _ref_mul(a, b))
        return RefSeries(out)

    def scale(self, p):
        return RefSeries([_ref_mul(t, p.terms) for t in self.terms])

    def inverse(self):
        inv0 = 1 / self.terms[0][(0, 0)]
        out = [{(0, 0): inv0}]
        for n in range(1, len(self.terms)):
            acc: dict = {}
            for k in range(1, n + 1):
                acc = _ref_add(acc, _ref_mul(self.terms[k], out[n - k]))
            out.append({e: -c * inv0 for e, c in acc.items()})
        return RefSeries(out)

    def first_mismatch(self, other):
        return next((n for n, (a, b) in enumerate(zip(self.terms, other.terms)) if a != b), None)


class RefPoly:
    """The polynomial as one Fraction per nonzero term: the reference the
    integer-row Poly is checked against."""

    def __init__(self, terms):
        self.terms = {e: F(c) for e, c in terms.items() if c}

    def __add__(self, other):
        return RefPoly(_ref_add(self.terms, other.terms))

    def __neg__(self):
        return RefPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RefPoly(_ref_mul(self.terms, other.terms))

    def __pow__(self, n):
        out = RefPoly({(0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == other.terms

    def shift(self, sx, sy):
        return RefPoly({(i, j): c * sx**i * sy**j for (i, j), c in self.terms.items()})

    def xcoeff_as_y_poly(self, i):
        return RefPoly({(0, j): c for (ii, j), c in self.terms.items() if ii == i})

    def eval(self, xv, yv):
        return sum((c * xv**i * yv**j for (i, j), c in self.terms.items()), F(0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda e: (-e[0], -e[1])):
            c = self.terms[(i, j)]
            mono = ("x" if i == 1 else f"x^{i}" if i else "") + ("y" if j == 1 else f"y^{j}" if j else "")
            a = abs(c)
            if not mono:
                body = str(a)
            elif a == 1:
                body = mono
            else:
                body = f"{a}{mono}" if a.denominator == 1 else f"({a}){mono}"
            sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
            parts.append(sign + body)
        return " ".join(parts)


def big_fracs():
    """Signed rationals with zero, and numerators and denominators up to 10^24."""
    return st.one_of(fracs(), st.builds(F, st.integers(-10**24, 10**24), st.integers(1, 10**24)))


def term_maps(max_terms=5, max_deg=4):
    return st.dictionaries(st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)),
                           big_fracs(), max_size=max_terms)


def _canonical(p: Poly) -> Poly:
    nums, den = p.row
    assert den > 0 and all(nums.values()) and gcd(den, *nums.values()) == 1
    return p


class TestPolyRows:
    """Integer-row Poly against the Fraction-dict reference."""

    @staticmethod
    def same(p: Poly, ref: RefPoly) -> None:
        assert _canonical(p).terms == ref.terms
        assert str(p) == str(ref)
        assert p == Poly(ref.terms) and hash(p) == hash(Poly(ref.terms))
        assert p.is_zero() == (not ref.terms)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(term_maps(), term_maps(), big_fracs(), big_fracs(), st.integers(0, 3),
           st.integers(0, 4))
    def test_arithmetic_matches_reference(self, a, b, s, u, n, i):
        pa, pb, ra, rb = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
        rs = RefPoly({(0, 0): s})
        self.same(pa, ra)
        self.same(pa + pb, ra + rb)
        self.same(pa - pb, ra - rb)
        self.same(-pa, -ra)
        self.same(pa * pb, ra * rb)
        self.same(pa**n, ra**n)
        self.same(pa.shift(s, u), ra.shift(s, u))
        self.same(pa.xcoeff_as_y_poly(i), ra.xcoeff_as_y_poly(i))
        # scalars on either side
        self.same(pa + s, ra + rs)
        self.same(s + pa, ra + rs)
        self.same(pa - s, ra - rs)
        self.same(s - pa, rs - ra)
        self.same(pa * s, ra * rs)
        self.same(s * pa, ra * rs)
        # cancellation to zero, and the zero polynomial
        self.same(pa - pa, RefPoly({}))
        self.same((pa + pb) - pb, ra)
        self.same(pa * 0, RefPoly({}))
        assert pa.eval(s, u) == ra.eval(s, u)
        assert (pa == pb) == (ra == rb)
        assert pa.x_degree() == max((e[0] for e in ra.terms), default=-1)
        assert pa.coeff(1, 1) == ra.terms.get((1, 1), 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(big_fracs(), st.integers(0, 5), st.integers(0, 5), st.integers(0, 6))
    def test_monomial_powers_match_reference(self, c, i, j, n):
        # one term (x^i y^j, constants, negative and fractional c), the
        # zero polynomial when c = 0, and n = 0 among the draws
        self.same(Poly({(i, j): c})**n, RefPoly({(i, j): c})**n)
        self.same(Poly.const(c)**n, RefPoly({(0, 0): c})**n)
        self.same((Poly.x()**i * Poly.y()**j)**n, RefPoly({(i * n, j * n): 1}))

    def test_powers_of_zero_and_one(self):
        for n in range(4):
            self.same(Poly.zero()**n, RefPoly({(0, 0): 1} if n == 0 else {}))
            self.same(Poly.one()**n, RefPoly({(0, 0): 1}))
        self.same(Poly({(2, 1): F(-3, 4)})**0, RefPoly({(0, 0): 1}))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(big_fracs(), term_maps())
    def test_constants_equal_and_hash_like_fractions(self, c, a):
        p = Poly.const(c)
        self.same(p, RefPoly({(0, 0): c}))
        assert p == c and hash(p) == hash(c) and p.constant() == c and p.is_constant()
        # a constant reached by cancellation is the same value
        q = Poly(a) + c - Poly(a)
        assert q == c and hash(q) == hash(c) and len({q, c, p}) == 1


def _same(series: TSeries, ref: RefSeries) -> bool:
    """The TSeries reads out the reference's terms, and its rows are
    canonical: den > 0, no zero numerator, gcd(den, *nums) == 1."""
    for nums, den in series.rows:
        assert den > 0 and all(nums.values())
        assert gcd(den, *nums.values()) == 1
    return [p.terms for p in series.coeffs] == ref.terms


ORDER_L = 4


def layout_polys(max_terms=3):
    """Polys in x, y with signed coefficients; zero and constant polys too."""
    return st.one_of(polys(max_terms, 3), fracs().map(Poly.const), st.just(Poly.zero()))


def layout_series():
    return st.lists(layout_polys(), min_size=ORDER_L + 1, max_size=ORDER_L + 1)


class TestRowLayout:
    """Integer-row TSeries against the Fraction-dict reference."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(layout_series(), layout_series(), layout_polys())
    def test_arithmetic_matches_reference(self, a, b, p):
        sa, sb = TSeries(ORDER_L, a), TSeries(ORDER_L, b)
        ra, rb = RefSeries.of(a), RefSeries.of(b)
        assert _same(sa, ra) and _same(sb, rb)
        assert _same(sa + sb, ra + rb)
        assert _same(sa - sb, ra + (-rb))
        assert _same(-sa, -ra)
        assert _same(sa * sb, ra * rb)
        assert _same(sa.scale(p), ra.scale(p))
        assert _same(sa * p, ra.scale(p))
        assert (sa == sb) == (ra.terms == rb.terms)
        assert sa.first_mismatch(sb) == ra.first_mismatch(rb)
        # cancellation to zero, and the zero series
        assert _same(sa - sa, RefSeries([{}] * (ORDER_L + 1)))
        assert (sa - sa).is_zero() and sa - sa == TSeries.zeros(ORDER_L)
        assert _same(sa * TSeries.zeros(ORDER_L), RefSeries([{}] * (ORDER_L + 1)))
        assert sa.scale(0) == TSeries.zeros(ORDER_L)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fracs().filter(bool), layout_series())
    def test_inverse_matches_reference(self, c0, rest):
        polys = [Poly.const(c0)] + rest[1:]
        s, ref = TSeries(ORDER_L, polys), RefSeries.of(polys)
        assert _same(s.inverse(), ref.inverse())
        assert s * s.inverse() == TSeries.one(ORDER_L)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(layout_series(), layout_series())
    def test_poly_and_row_paths_agree(self, a, b):
        # a series built from Polys equals the one built from its rows,
        # and a product read out as Polys and rebuilt equals the product
        s = TSeries(ORDER_L, a)
        assert s == _series(ORDER_L, [_row(p) for p in a])
        prod = s * TSeries(ORDER_L, b)
        assert TSeries(ORDER_L, prod.coeffs) == prod
        assert TSeries(ORDER_L, prod.coeffs).rows == prod.rows

    def test_coeffs_read_only_and_built_once(self):
        s = TSeries(3, [Poly.x(), Poly.y(), 0, Poly.const(F(-2, 3))])
        first = s.coeffs
        assert isinstance(first, tuple) and s.coeffs is first
        assert s.coeff(1) is first[1]
        with pytest.raises(TypeError):
            s.coeffs[3] = Poly.one()
        with pytest.raises(AttributeError):
            s.coeffs = first
        assert s.rows[3] == ({(0, 0): -2}, 3)


def _exact_row(rng: random.Random, terms: dict) -> tuple[dict, int]:
    """An exact row of the Fraction terms over their lcm denominator times
    a random factor, which every numerator then shares as content."""
    den = lcm(*(c.denominator for c in terms.values())) * rng.randint(1, 10**6)
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


class TestExactRows:
    """Series on exact rows, content left in, against Fraction rows."""

    @staticmethod
    def random_terms(rng: random.Random) -> dict:
        keys = rng.sample([(i, j) for i in range(4) for j in range(4)], rng.randint(0, 5))
        return {e: F(rng.randint(-10**4, 10**4) or 1, rng.randint(1, 10**4)) for e in keys}

    def test_compare_matches_fractions(self):
        rng = random.Random(23)
        kinds = ("equal", "nudged", "extra key", "missing key", "zeroed", "negated")
        seen = set()
        for _ in range(400):
            a = [self.random_terms(rng) for _ in range(ORDER_L + 1)]
            b = [dict(t) for t in a]
            n, kind = rng.randint(0, ORDER_L), rng.choice(kinds)
            if kind == "nudged" and b[n]:  # one term off by one part in 10^6
                e = rng.choice(list(b[n]))
                b[n][e] *= 1 + F(1, 10**6)
            elif kind == "extra key":
                b[n][(5, rng.randint(0, 5))] = F(rng.choice([-1, 1]), 10**6)
            elif kind == "missing key" and b[n]:
                del b[n][rng.choice(list(b[n]))]
            elif kind == "zeroed":
                b[n] = {}
            elif kind == "negated" and b[n]:
                b[n] = {e: -c for e, c in b[n].items()}
            sa = _series(ORDER_L, [_exact_row(rng, t) for t in a])
            sb = _series(ORDER_L, [_exact_row(rng, t) for t in b])
            want = next((m for m, (x, y) in enumerate(zip(a, b)) if x != y), None)
            seen.add((kind, want is None))
            assert sa.first_mismatch(sb) == want == sb.first_mismatch(sa), kind
            assert (sa == sb) == (want is None) == (sb == sa), kind
            # against the canonical rows of Polys, and read out as Polys
            polys = TSeries(ORDER_L, [Poly(t) for t in b])
            assert (sa == polys) == (want is None) == (polys == sa), kind
            assert [p.terms for p in sb.coeffs] == b
            assert sb == polys and sb.coeffs == polys.coeffs
        assert {k for k, equal in seen if not equal} == set(kinds) - {"equal"}

    def test_rows_with_content_and_constants(self):
        # one value over three denominators, and a constant row against a
        # Poly-built one
        rows = [({(0, 0): 3, (2, 1): -5}, 7), ({(0, 0): 6, (2, 1): -10}, 14),
                ({(0, 0): 3 * 2**90, (2, 1): -5 * 2**90}, 7 * 2**90)]
        for r in rows[1:]:
            assert _series(0, [r]) == _series(0, [rows[0]])
        assert _series(0, [({(0, 0): 6}, 4)]) == TSeries(0, [Poly.const(F(3, 2))])
        # over one denominator the numerators compare as they stand
        assert _series(0, [({(2, 1): -5, (0, 0): 3}, 7)]) == _series(0, [rows[0]])
        for other in (({(0, 0): 3, (2, 1): -4}, 7), ({(0, 0): 3}, 7),
                      ({(0, 0): 3, (2, 1): -5, (1, 0): 1}, 7)):
            assert _series(0, [other]) != _series(0, [rows[0]]) != _series(0, [other])
        assert _series(0, [({(0, 0): 6}, 4)]) != TSeries(0, [Poly.const(F(3, 2) + F(1, 10**6))])
        assert _series(1, [({}, 9), ({(0, 0): -2}, 6)]) == TSeries(1, [0, Poly.const(F(-1, 3))])
        assert _series(1, [({(1, 0): 2}, 4), _row(Poly.zero())]).first_mismatch(
            TSeries(1, [Poly.x() * F(1, 2), Poly.y()])) == 1
        # coeffs reduces each row once, when first read
        s = _series(1, [rows[1], ({(0, 0): 6}, 4)])
        assert [p.row for p in s.coeffs] == [rows[0], ({(0, 0): 3}, 2)]


class TestPolyHoldsExactRow:
    """A Poly holds an exact row: a comparison reduces neither side, and
    the canonical row is made once, on first use."""

    def test_comparisons_reduce_neither_side(self, monkeypatch):
        ps = random_paramset(random.Random("exact-compare"))
        f = build_id3_rhs(ps, 8) * TSeries(8, [Poly.one(), (X - Y * F(2, 7)) ** 3] + [0] * 7)
        mus = expand_series_in_basis(f, "phi", ps)
        assert sum(not mu.is_zero() for mu in mus[8]) > 4
        calls = []

        def counted(nums, den):
            calls.append(len(nums))
            return canon(nums, den)

        canon = core._canon
        for module in [m for name, m in sys.modules.items() if name.startswith("qasc")]:
            if getattr(module, "_canon", None) is canon:
                monkeypatch.setattr(module, "_canon", counted)
        assert apply_operator(OperatorSpec("T", ps), X**12) == asc5_phi(12, ps)
        assert apply_operator(OperatorSpec("T", ps), X**12) != asc5_phi(12, ps.with_values(b=0))
        assert synthesize_from_basis(mus[8], "phi", ps) == f.coeffs[8]
        assert calls == []
        assert core._canon is counted  # the count was live

    def test_row_is_reduced_once_on_first_use(self):
        # content 2, a negative denominator and a zero numerator
        row = ({(2, 1): -6, (0, 0): 4, (1, 1): 0}, -10)
        want = Poly({(2, 1): F(3, 5), (0, 0): F(-2, 5)})
        reads = {"hash": hash, "str": str, "repr": repr, "terms": lambda p: dict(p.terms),
                 "row": lambda p: p.row, "pickle": lambda p: pickle.loads(pickle.dumps(p)).row,
                 "copy": lambda p: copy.deepcopy(p).row}
        for name, read in reads.items():
            p = _poly(row)
            assert p == want and want == p and p != want + 1, name
            assert read(p) == read(want), name
            assert p.row is p.row and p.row == want.row == ({(2, 1): 3, (0, 0): -2}, 5), name
        assert row == ({(2, 1): -6, (0, 0): 4, (1, 1): 0}, -10)
        c = _poly(({(0, 0): -6}, -4))
        assert c == F(3, 2) and hash(c) == hash(F(3, 2)) and c.row == ({(0, 0): 3}, 2)
        assert _poly(({(1, 0): 0}, -3)) == 0 and _poly(({(1, 0): 0}, -3)).row == ({}, 1)


def test_public_rows_are_read_only():
    # a series built from Polys shares their numerators, so a write through
    # Poly.row or TSeries.rows would change the symbols X and Y themselves
    s = TSeries(2, [X, Y, X * Y])
    p = X * Y + 1
    for write, *args in ((setitem, s.rows[1][0], (3, 3), 7), (delitem, s.rows[2][0], (1, 1)),
                         (setitem, p.row[0], (9, 9), 5), (setitem, X.row[0], (0, 0), 1)):
        with pytest.raises(TypeError):
            write(*args)
    assert (str(X), str(Y), str(p)) == ("x", "y", "xy + 1")
    assert X.row == ({(1, 0): 1}, 1) and Y.row == ({(0, 1): 1}, 1)
    assert s.rows == (({(1, 0): 1}, 1), ({(0, 1): 1}, 1), ({(1, 1): 1}, 1))
    assert s == TSeries(2, [Poly.x(), Poly.y(), Poly.monomial(1, 1)])


def test_series_order_is_read_only():
    # a written order would leave three rows under order 5: coeff(4) would
    # raise IndexError, and == would zip the rows and pass a longer series
    s = TSeries(2, [X, Y, X * Y])
    with pytest.raises(AttributeError):
        s.order = 5
    with pytest.raises(AttributeError):
        del s.order
    assert s.order == 2 and len(s.rows) == 3 and str(s) == "(x)*t^0 + (y)*t^1 + (xy)*t^2"
    with pytest.raises(ValueError, match="order mismatch"):
        s.first_mismatch(TSeries(5, [X, Y, X * Y, X, X, X]))
    assert s != TSeries(2, [X, Y, X])
    assert pickle.loads(pickle.dumps(s)).order == 2 and copy.copy(s).order == 2


def test_builders_write_exact_rows():
    # both sides of every catalog check: order + 1 rows, each with den > 0
    # and no zero numerator, so that the rational compare is exact
    for cid in CATALOG_ORDER:
        for trial in (0, 1):
            ps = trial_paramset(CATALOG[cid], 42, trial)
            for sub, lhs, rhs in CATALOG[cid].build(ps, 8):
                for side in (lhs, rhs):
                    assert len(side.rows) == 9, (cid, sub)
                    for nums, den in side.rows:
                        assert den > 0 and all(nums.values()), (cid, trial, sub)


@pytest.mark.parametrize("count", [3, 12, 14])
def test_side_with_wrong_row_count_is_an_error(count):
    # first_mismatch zips the two sides' rows, so a side with fewer or more
    # than order + 1 rows must be refused where it is built, not compared
    check = CATALOG["ID-3"]
    ps = trial_paramset(check, 42, 0)
    (sub, lhs, rhs), = check.build(ps, 12)
    rows = (rhs.rows + rhs.rows)[:count]
    with pytest.raises(ValueError, match=f"need 13 coefficients, got {count}"):
        _series(12, rows)

    def build(ps, order):
        return [(sub, lhs, _series(order, rows))]

    rep = verify(IdentityCheck("ID-3-cut", "ID-3 with a side of the wrong length", (), build),
                 ps, 12)
    assert rep.status == "error"
    assert rep.first_mismatch["lhs"] == f"ValueError: need 13 coefficients, got {count}"
    assert verify(check, ps, 12).status == "pass"


class TestParamSet:
    def test_q_range_enforced(self):
        with pytest.raises(ValueError):
            ParamSet(q=F(3, 2))
        with pytest.raises(ValueError):
            ParamSet(q=F(-1, 2))

    def test_sampling_policy(self):
        rng = random.Random(11)
        for _ in range(300):
            v = random_rational(rng)
            assert v != 0
            assert abs(v) <= F(1, 2)
        for _ in range(50):
            ps = random_paramset(rng, extras=("s1", "s2"))
            assert 0 < ps.q < 1
            assert ps.q <= F(1, 2)
            for name in ("a", "b", "c", "d", "e", "s1", "s2"):
                assert abs(ps.get(name)) <= F(1, 2)

    def test_render_exact(self):
        ps = ParamSet(q=F(1, 2), a=F(-2, 7), extras={"z": F(3, 11)})
        r = ps.render()
        assert r["q"] == "1/2" and r["a"] == "-2/7" and r["z"] == "3/11"

    def test_determinism(self):
        a = random_paramset(random.Random("seed:ID-3:0"))
        b = random_paramset(random.Random("seed:ID-3:0"))
        assert a == b

    def test_hashable(self):
        a = random_paramset(random.Random("seed:ID-8:0"), extras=("x1", "y1"))
        b = random_paramset(random.Random("seed:ID-8:0"), extras=("x1", "y1"))
        assert hash(a) == hash(b)
        assert len({a, b, a.with_values(x1=F(1, 3))}) == 2

    def test_extras_read_only(self):
        extras = {"z": F(3, 11)}
        ps = ParamSet(q=F(1, 2), extras=extras)
        with pytest.raises(TypeError):
            ps.extras["z"] = F(1, 5)
        with pytest.raises(TypeError):
            ps.extras["w"] = F(1, 5)
        extras["z"] = F(1, 5)  # the caller's dict is copied, not shared
        assert ps.get("z") == F(3, 11)

    def test_with_values_and_render_unchanged(self):
        ps = ParamSet(q=F(1, 2), a=F(-2, 7), extras={"z": F(3, 11)})
        moved = ps.with_values(a=F(1, 3), z=F(1, 5), w=2)
        assert ps.render() == {
            "q": "1/2", "a": "-2/7", "b": "0", "c": "0", "d": "0", "e": "0", "z": "3/11"
        }
        assert moved.render() == {
            "q": "1/2", "a": "1/3", "b": "0", "c": "0", "d": "0", "e": "0",
            "w": "2", "z": "1/5",
        }
        assert moved == ParamSet(q=F(1, 2), a=F(1, 3), extras={"z": F(1, 5), "w": F(2)})

    def test_pickle_round_trip(self):
        import pickle

        ps = ParamSet(q=F(1, 2), a=F(-2, 7), extras={"z": F(3, 11)})
        assert pickle.loads(pickle.dumps(ps)) == ps

    @pytest.mark.parametrize("name", ["q", "a", "b", "c", "d", "e"])
    def test_extras_cannot_take_a_base_name(self, name):
        # such an extra was never read, yet a report rendered it over the
        # base value: ID-5 ran at q = 1/2 and reported q = 1/9
        with pytest.raises(ValueError, match=f"extra '{name}'"):
            ParamSet(q=F(1, 2), extras={"sig": F(1, 3), name: F(1, 9)})
        ps = ParamSet(q=F(1, 2), extras={"sig": F(1, 3)})
        assert ps.with_values(**{name: F(1, 9)}).get(name) == F(1, 9)
        assert ps.with_values(**{name: F(1, 9)}).render()[name] == "1/9"


def _ps():
    return ParamSet(q=F(1, 2), a=F(-2, 7), extras={"z": F(3, 11)})


# each frozen value class: a maker that builds a fresh record from equal
# fields, one field to assign to, and whether the record is hashable
_FROZEN_RECORDS = {
    "ParamSet": (_ps, "q", True),
    "IdentityCheck": (lambda: IdentityCheck("ID-9", "Cauchy", (), CATALOG["ID-9"].build),
                      "build", True),
    "PolyFamily": (lambda: PolyFamily("asc_new_phi", _ps()), "family", True),
    "OperatorSpec": (lambda: OperatorSpec("E", _ps()), "kind", True),
    "QuadConfig": (lambda: QuadConfig(half_width=10.0, nodes=16), "nodes", True),
    "NumericConfig": (lambda: NumericConfig(precision_bits=128, tail_tol="1e-30"),
                      "precision_bits", True),
    "NumericCheck": (lambda: NumericCheck("NUM-3", "U(2)", {"q": F(1, 2)},
                                          NUMERIC_CATALOG["NUM-3"].run), "run", False),
    "Report": (lambda: Report("ID-9", 1, _ps().render(), "fail",
                              {"power": 3, "sub": "", "lhs": "x", "rhs": "y"}, 7),
               "status", False),
    "NumericReport": (lambda: NumericReport("NUM-3", "U(2)", {"q": "1/2"}, "pass", "1.5e-41",
                                            "2.0e-40", 128, 5, 0), "rel_diff", False),
}


@pytest.mark.parametrize("name", list(_FROZEN_RECORDS))
def test_frozen_record_semantics(name):
    make, field, hashable = _FROZEN_RECORDS[name]
    rec = make()
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    assert rec == make() and not rec != make()
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.copy(rec) == rec == copy.deepcopy(rec)
    assert repr(copy.deepcopy(rec)) == repr(rec)
    if hashable:
        assert hash(rec) == hash(make()) == hash(copy.deepcopy(rec))
    else:  # its params field is a dict
        with pytest.raises(TypeError):
            hash(rec)
