"""Polynomial families: frozen low-order values, specializations, and the
cross-family collapse relations."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from qasc.core import ParamSet, Poly, TSeries, X, Y, random_paramset
from qasc.polys import (
    PolyFamily,
    asc3_phi,
    asc3_psi,
    asc5_phi,
    asc5_psi,
    asc_phi,
    asc_psi,
    cauchy_pn,
    rogers_szego_hn,
)
from qasc.qkernel import (
    PoleError,
    binom2,
    euler_inverse_series,
    euler_product_series,
    qbinom,
    qpoch,
)

Q = F(1, 2)


class TestCauchy:
    def test_low_orders(self):
        assert cauchy_pn(0, X, Y, Q) == Poly.one()
        assert cauchy_pn(2, X, Y, Q) == (X - Y) * (X - Y * Q)

    def test_y_zero_collapse(self):
        for n in range(5):
            assert cauchy_pn(n, X, 0, Q) == X**n

    def test_scalar_evaluation(self):
        v = cauchy_pn(3, F(1, 3), F(1, 5), Q)
        assert v == Poly.const((F(1, 3) - F(1, 5)) * (F(1, 3) - F(1, 10)) * (F(1, 3) - F(1, 20)))

    def test_homogeneous_form(self):
        # p_n(x,y) = (y/x;q)_n x^n at rational points
        x, y = F(2, 5), F(1, 7)
        for n in range(6):
            assert cauchy_pn(n, x, y, Q).constant() == qpoch(y / x, Q, n) * x**n

    def test_generating_function(self):
        N = 10
        lhs = TSeries(N, [cauchy_pn(n, X, Y, Q) * (1 / qpoch(Q, Q, n)) for n in range(N + 1)])
        rhs = euler_product_series(Y, Q, N) * euler_inverse_series(X, Q, N)
        assert lhs == rhs


class TestRogersSzego:
    def test_low_orders(self):
        assert rogers_szego_hn(0, X, Y, Q) == Poly.one()
        assert rogers_szego_hn(1, X, Y, Q) == X + Y

    def test_b_zero(self):
        for n in range(5):
            assert rogers_szego_hn(n, X, 0, Q) == X**n

    def test_symmetric_coefficients(self):
        h = rogers_szego_hn(3, X, Y, Q)
        assert h.coeff(1, 2) == h.coeff(2, 1)  # [3;1] = [3;2]


class TestClassicalFamilies:
    def test_phi_low(self):
        a = F(1, 3)
        assert asc_phi(0, a, X, Q) == Poly.one()
        assert asc_phi(1, a, X, Q) == Poly.one() + X * (1 - a)

    def test_psi_low(self):
        a = F(1, 3)
        assert asc_psi(0, a, X, Q) == Poly.one()
        # k = n = 1 weight: q^0 (a;q)_1 = (1-a)
        assert asc_psi(1, a, X, Q) == Poly.one() + X * (1 - a)

    def test_psi_brute_force(self):
        rng = random.Random(8)
        for _ in range(8):
            a = F(rng.randint(-8, 8) or 1, rng.randint(9, 32))
            q = F(rng.randint(1, 8), rng.randint(9, 32))
            for n in range(6):
                brute = Poly.zero()
                for k in range(n + 1):
                    w = qbinom(n, k, q) * q ** (k * (k - n)) * qpoch(a * q ** (1 - k), q, k)
                    brute = brute + X**k * w
                assert asc_psi(n, a, X, q) == brute


class TestThreeParameterFamilies:
    def test_phi_low(self):
        a, b, c = F(1, 3), F(1, 5), F(1, 7)
        assert asc3_phi(0, a, b, c, X, Y, Q) == Poly.one()
        w = (1 - a) * (1 - b) / (1 - c)
        assert asc3_phi(1, a, b, c, X, Y, Q) == X * w + Y

    def test_pole(self):
        with pytest.raises(PoleError):
            asc3_phi(3, F(1, 3), F(1, 5), Q**-1, X, Y, Q)


class TestFiveParameterFamilies:
    def test_low_orders(self):
        ps = ParamSet(q=Q, a=F(1, 3), b=F(1, 5), c=F(1, 7), d=F(1, 4), e=F(1, 6))
        assert asc5_phi(0, ps) == Poly.one()
        w = (1 - ps.a) * (1 - ps.b) * (1 - ps.c) / ((1 - ps.d) * (1 - ps.e))
        assert asc5_phi(1, ps) == X + Y * w
        assert asc5_psi(1, ps) == X - Y * w

    def test_all_zero_parameters_are_rogers_szego(self):
        ps = ParamSet(q=Q)
        for n in range(7):
            assert asc5_phi(n, ps) == rogers_szego_hn(n, Y, X, Q)

    def test_monic_triangular_leading_term(self):
        ps = random_paramset(random.Random(12))
        for n in range(8):
            for fam in (asc5_phi, asc5_psi):
                p = fam(n, ps)
                assert p.coeff(n, 0) == 1
                assert all(i + j == n for (i, j) in p.terms)  # homogeneous of degree n

    def test_collapse_to_three_parameter_phi(self):
        # c = e = 0 matches the three-parameter family with roles swapped
        rng = random.Random(13)
        for _ in range(6):
            ps = random_paramset(rng).with_values(c=0, e=0)
            for n in range(9):
                assert asc5_phi(n, ps) == asc3_phi(n, ps.a, ps.b, ps.d, Y, X, ps.q)

    def test_collapse_to_three_parameter_psi_twist(self):
        # the psi collapse carries a q^C(k,2) twist on the y-degree-k term
        rng = random.Random(14)
        for _ in range(6):
            ps = random_paramset(rng).with_values(c=0, e=0)
            q = ps.q
            for n in range(9):
                five = asc5_psi(n, ps)
                three = asc3_psi(n, ps.a, ps.b, ps.d, Y, X, q)
                for (i, j), coeff in five.terms.items():
                    assert coeff == three.coeff(i, j) * q ** binom2(j)

    def test_pole(self):
        ps = ParamSet(q=Q, d=Q**-2)
        with pytest.raises(PoleError):
            asc5_phi(4, ps)

    def test_scalar_arguments(self):
        ps = random_paramset(random.Random(15))
        x, y = F(1, 3), F(1, 8)
        v = asc5_phi(3, ps, x, y)
        assert v.is_constant()
        assert v.constant() == asc5_phi(3, ps).eval(x, y)


class TestPolyFamily:
    def test_dispatch(self):
        ps = ParamSet(q=Q, a=F(1, 3), b=F(1, 5), c=F(1, 7), d=F(1, 4), e=F(1, 6))
        assert PolyFamily("asc_new_phi", ps).evaluate(2) == asc5_phi(2, ps)
        assert PolyFamily("asc_new_psi", ps).evaluate(2) == asc5_psi(2, ps)
        ps3 = ParamSet(q=Q, a=F(1, 3), b=F(1, 5), c=F(1, 7))
        assert PolyFamily("asc_gen3_phi", ps3).evaluate(1) == asc3_phi(
            1, F(1, 3), F(1, 5), F(1, 7), X, Y, Q
        )
        assert PolyFamily("cauchy", ParamSet(q=Q)).evaluate(2) == cauchy_pn(2, X, Y, Q)
        assert PolyFamily("rogers_szego", ParamSet(q=Q)).evaluate(1) == X + Y

    def test_arity_validation(self):
        full = ParamSet(q=Q, a=F(1, 3), b=F(1, 5), c=F(1, 7), d=F(1, 4), e=F(1, 6))
        with pytest.raises(ValueError, match="must be 0"):
            PolyFamily("asc_classical_phi", full)
        with pytest.raises(ValueError, match="must be 0"):
            PolyFamily("cauchy", ParamSet(q=Q, a=F(1, 3)))
        PolyFamily("asc_classical_phi", ParamSet(q=Q, a=F(1, 3)))  # correct arity

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            PolyFamily("hermite", ParamSet(q=Q))


def _textbook(family: str, n: int, ps: ParamSet, x, y) -> Poly:
    """Each family summed term by term from qbinom/qpoch, as in its docstring."""
    q, a, b, c = ps.q, ps.a, ps.b, ps.c
    xv = x if isinstance(x, Poly) else Poly.const(x)
    yv = y if isinstance(y, Poly) else Poly.const(y)
    if family == "cauchy":
        out = Poly.one()
        for i in range(n):
            out = out * (xv - yv * q**i)
        return out
    out = Poly.zero()
    for k in range(n + 1):
        g = qbinom(n, k, q)
        if family == "rogers_szego":
            out = out + yv**k * xv ** (n - k) * g
        elif family == "asc_phi":
            out = out + xv**k * (g * qpoch(a, q, k))
        elif family == "asc_psi":
            out = out + xv**k * (g * q ** (k * (k - n)) * qpoch(a * q ** (1 - k), q, k))
        elif family in ("asc3_phi", "asc3_psi"):
            w = g * qpoch(a, q, k) * qpoch(b, q, k) / qpoch(c, q, k)
            if family == "asc3_psi":
                w *= (-1) ** k * q ** (k * (k + 1) // 2 - n * k)
            out = out + xv**k * yv ** (n - k) * w
        else:
            w = g * qpoch(a, q, k) * qpoch(b, q, k) * qpoch(c, q, k)
            w /= qpoch(ps.d, q, k) * qpoch(ps.e, q, k)
            if family == "asc5_psi":
                w *= (-1) ** k * q ** (k * (k - n))
            out = out + xv ** (n - k) * yv**k * w
    return out


_FAMILIES = {
    "cauchy": lambda n, ps, x, y: cauchy_pn(n, x, y, ps.q),
    "rogers_szego": lambda n, ps, x, y: rogers_szego_hn(n, y, x, ps.q),
    "asc_phi": lambda n, ps, x, y: asc_phi(n, ps.a, x, ps.q),
    "asc_psi": lambda n, ps, x, y: asc_psi(n, ps.a, x, ps.q),
    "asc3_phi": lambda n, ps, x, y: asc3_phi(n, ps.a, ps.b, ps.c, x, y, ps.q),
    "asc3_psi": lambda n, ps, x, y: asc3_psi(n, ps.a, ps.b, ps.c, x, y, ps.q),
    "asc5_phi": lambda n, ps, x, y: asc5_phi(n, ps, x, y),
    "asc5_psi": lambda n, ps, x, y: asc5_psi(n, ps, x, y),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_families_match_textbook_sums(family):
    # the families build each weight from the one before; the reference
    # recomputes every [n;k] and (a;q)_k from scratch
    rng = random.Random(f"textbook:{family}")
    for _ in range(20):
        ps = random_paramset(rng)
        x, y = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9))
        for n in range(13):
            for xv, yv in ((X, Y), (x, y)):
                got = _FAMILIES[family](n, ps, xv, yv)
                assert got == _textbook(family, n, ps, xv, yv), (family, n, ps, xv, yv)


class TestPoleIndex:
    """PoleError.index is the first k at which the denominator factorial
    vanishes, also when a numerator factorial vanished earlier."""

    @pytest.mark.parametrize("fam", [asc5_phi, asc5_psi])
    @pytest.mark.parametrize(
        "kv, index, message",
        [
            (dict(e=Q**-3), 4, "(d,e;q)_k vanished at k=4 for d=1/4, e=8"),
            (dict(d=Q**-5, e=Q**-2), 3, "(d,e;q)_k vanished at k=3 for d=32, e=4"),
            (dict(a=Q**-1, d=Q**-3), 4, "(d,e;q)_k vanished at k=4 for d=8, e=1/6"),
        ],
    )
    def test_five_parameter(self, fam, kv, index, message):
        ps = ParamSet(q=Q, a=F(1, 3), b=F(1, 5), c=F(1, 7), d=F(1, 4), e=F(1, 6)).with_values(**kv)
        with pytest.raises(PoleError) as err:
            fam(8, ps)
        assert err.value.index == index and str(err.value) == message
        fam(index - 1, ps)  # one degree lower never reaches the pole

    @pytest.mark.parametrize("fam", [asc3_phi, asc3_psi])
    @pytest.mark.parametrize(
        "a, c, index",
        [(F(1, 3), Q**-1, 2), (Q**-1, Q**-3, 4)],
    )
    def test_three_parameter(self, fam, a, c, index):
        with pytest.raises(PoleError) as err:
            fam(6, a, F(1, 5), c, X, Y, Q)
        assert err.value.index == index
        assert str(err.value) == f"(c;q)_k vanished at k={index} for c={c}"
        fam(index - 1, a, F(1, 5), c, X, Y, Q)



# _FAMILIES key -> (PolyFamily name, how many of a..e it takes)
_AS_FAMILY = {
    "cauchy": ("cauchy", 0),
    "rogers_szego": ("rogers_szego", 0),
    "asc_phi": ("asc_classical_phi", 1),
    "asc_psi": ("asc_classical_psi", 1),
    "asc3_phi": ("asc_gen3_phi", 3),
    "asc3_psi": ("asc_gen3_psi", 3),
    "asc5_phi": ("asc_new_phi", 5),
    "asc5_psi": ("asc_new_psi", 5),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_sequence_matches_per_n(family):
    # one weight row for p_0..p_N (the psi twist q^(-nk) folded into y)
    # against one call per n; y = 0 and x = y scalar make terms vanish or
    # collide on (0, 0), and a binomial x takes the substitution path
    name, arity = _AS_FAMILY[family]
    rng = random.Random(f"sequence:{family}")
    for _ in range(3):
        ps = random_paramset(rng)
        ps = ps.with_values(**{k: 0 for k in "abcde"[arity:]})
        s = F(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        for xv, yv in ((X, Y), (Y, X), (X, 0), (s, s), (X + Y * s, Y)):
            # PolyFamily passes (x, y) to rogers_szego_hn as (a, b)
            slots = (yv, xv) if family == "rogers_szego" else (xv, yv)
            seq = PolyFamily(name, ps).sequence(14, *slots)
            assert len(seq) == 15
            for n, p in enumerate(seq):
                assert p == _FAMILIES[family](n, ps, xv, yv), (family, n, ps, xv, yv)
        for n in range(7):
            assert seq[n] == _textbook(family, n, ps, xv, yv), (family, n, ps)
