"""Substrate tests: sparse polynomials, truncated series, parameter draws."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasc.core import ParamSet, Poly, TSeries, random_paramset, random_rational

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
        p = Poly.x() - Poly.x()
        assert p.terms == {}
        p = (Poly.x() + Poly.y()) * (Poly.x() - Poly.y())
        assert all(c != 0 for c in p.terms.values())

    def test_shift_exponent_law(self):
        # x^2 y under x -> qx, y -> q^2 y picks up q^2 * q^2 = 1/16 at q = 1/2
        p = Poly.monomial(2, 1)
        assert p.shift(Q, Q * Q) == Poly.monomial(2, 1, F(1, 16))

    def test_shift_identity_and_constants(self):
        p = Poly({(2, 1): F(3), (0, 0): F(5)})
        assert p.shift(F(1), F(1)) == p
        assert Poly.one().shift(Q, Q) == Poly.one()

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

    def test_str_ordering(self):
        p = Poly.y() * F(2, 3) + Poly.x()
        assert str(p) == "x + (2/3)y"
        p2 = Poly.x() ** 2 - Poly.x() * Poly.y() * F(3, 2) + Poly.y() ** 2 * F(1, 2)
        assert str(p2) == "x^2 - (3/2)xy + (1/2)y^2"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly({(-1, 0): F(1)})


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

    def test_coeff_bounds(self):
        f = TSeries.one(3)
        assert f.coeff(3).is_zero()
        with pytest.raises(IndexError):
            f.coeff(4)

    def test_shift_t(self):
        f = TSeries(3, [Poly.const(c) for c in (1, 2, 3, 4)])
        g = f.shift_t(2)
        assert [c.constant() for c in g.coeffs] == [0, 0, 1, 2]

    def test_inverse(self):
        f = TSeries(5, [Poly.const(v) for v in (1, F(1, 2), F(1, 3), 0, F(2, 7), 1)])
        assert f * f.inverse() == TSeries.one(5)

    def test_inverse_needs_scalar_unit(self):
        f = TSeries(2, [Poly.x(), Poly.one(), Poly.one()])
        with pytest.raises(ValueError):
            f.inverse()


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
