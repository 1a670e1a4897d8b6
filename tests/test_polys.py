"""Polynomial families: frozen low-order values, specializations, and the
cross-family collapse relations."""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasc import cli
from qasc.core import ParamSet, Poly, TSeries, X, Y, _poly, random_paramset
from qasc.polys import (
    PolyFamily,
    _FAMILY_ROWS,
    _family_rows,
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
    _POCH_ROWS,
    _QBINOM_ROWS,
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

    def test_q_one_limit(self):
        # the q-binomials come from a division-free triangle, so q = 1 gives
        # the classical limit (x - y)^n
        assert cauchy_pn(3, q=1) == (X - Y) ** 3
        assert cauchy_pn(5, F(2, 3), F(1, 7), 1) == Poly.const((F(2, 3) - F(1, 7)) ** 5)


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

    def test_q_one_limit(self):
        assert rogers_szego_hn(4, X, Y, 1) == (X + Y) ** 4
        assert rogers_szego_hn(4, F(1, 3), F(-2, 5), 1) == Poly.const((F(1, 3) - F(2, 5)) ** 4)


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


def test_negative_degree_refused(capsys):
    # the per-n functions and evaluate refuse n < 0 with one message, the
    # sequence up to n = -1 is empty, and eval exits 2 with that message
    message = "polynomial degree n must be >= 0"
    for family, (name, _) in _AS_FAMILY.items():
        ps = _memo_paramset(family, 0)
        with pytest.raises(ValueError) as err:
            _FAMILIES[family](-1, ps, X, Y)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            PolyFamily(name, ps).evaluate(-1)
        assert str(err.value) == message
        assert PolyFamily(name, ps).sequence(-1) == []
    assert cli.main(["eval", "asc-new-phi", "--n", "-1", "--q", "1/2"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _memo_paramset(family: str, i: int) -> ParamSet:
    """Parameter set i of the family memo tests: the second has integral
    values, which a call may pass as ints, and the third differs from the
    first in the family's last parameter (q when it takes none) alone."""
    arity = _AS_FAMILY[family][1]
    ps = random_paramset(random.Random(f"memo:{family}:{i % 2}"))
    if i == 1:
        ps = ps.with_values(a=2, c=-1, d=-3)
    if i == 2:
        last = "abcde"[arity - 1] if arity else "q"
        ps = ps.with_values(**{last: ps.q / 2 if last == "q" else ps.get(last) + 1})
    return ps.with_values(**{k: 0 for k in "abcde"[arity:]})


_TEXTBOOK: dict = {}


def _memo_want(family: str, i: int, n: int, x=X, y=Y) -> Poly:
    key = (family, i, n, x, y)
    if key not in _TEXTBOOK:
        _TEXTBOOK[key] = _textbook(family, n, _memo_paramset(family, i), x, y)
    return _TEXTBOOK[key]


def _clear_memos():
    _FAMILY_ROWS.clear()
    _POCH_ROWS.clear()
    _QBINOM_ROWS.clear()


class TestFamilyMemo:
    """The rows of each family are kept per parameter set and x, y; any
    interleaving of requests gives the textbook sums."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(list(_FAMILIES)), st.integers(0, 2),
                              st.sampled_from(["n", "sequence", "evaluate", "rows", "xy"]),
                              st.integers(0, 10), st.integers(0, 10), st.booleans()),
                    min_size=1, max_size=16))
    def test_interleaved_requests_match_textbook_sums(self, requests):
        _clear_memos()
        for family, i, kind, n, m, as_int in requests:
            ps = _memo_paramset(family, i)
            name = _AS_FAMILY[family][0]
            hi = max(n, m)
            if kind == "xy":
                # scalar x, y as ints, as the equal Fractions and as constant
                # Polys (all one memo entry), then a binomial x
                s, t = m - 5, (n + m) % 7 - 3
                for xv, yv in ((s, t), (F(s), F(t)), (Poly.const(s), Poly.const(t)),
                               (X + Y * F(t, 3), Y)):
                    got = _FAMILIES[family](n, ps, xv, yv)
                    assert got == _memo_want(family, i, n, xv, yv), (family, i, n, xv, yv)
                with pytest.raises(TypeError):  # a float equal to a memo key
                    _FAMILIES[family](n, ps, float(s), t)
                continue
            if kind == "n":
                got = {n: _FAMILIES[family](n, ps, X, Y)}
            elif kind == "sequence":
                got = dict(enumerate(PolyFamily(name, ps).sequence(hi)))
            elif kind == "evaluate":
                got = {n: PolyFamily(name, ps).evaluate(n)}
            else:
                values = [ps.q] + [getattr(ps, k) for k in "abcde"]
                given_ = [int(v) if as_int and v.denominator == 1 else v for v in values]
                got = dict(enumerate(map(_poly, _family_rows(name, hi, *given_))))
            for k, p in got.items():
                assert p == _memo_want(family, i, k), (family, i, kind, k)

    @pytest.mark.parametrize("lengths", [(8, 3, 8, 2), (3, 8, 0, 8), (2, 1, 9)])
    def test_pole_cold_and_warm(self, lengths):
        ps = ParamSet(q=Q, a=F(1, 3), b=F(1, 5), c=F(1, 7), d=F(1, 4), e=Q**-3)
        _clear_memos()
        for n in lengths:
            # the scalar-x request comes first, so it meets each pole cold
            for build, xy in ((lambda: asc5_phi(n, ps, F(2), 3), (F(2), 3)),
                              (lambda: asc5_phi(n, ps), (X, Y)),
                              (lambda: PolyFamily("asc_new_phi", ps).sequence(n)[n], (X, Y))):
                if n >= 4:
                    with pytest.raises(PoleError) as err:
                        build()
                    assert err.value.index == 4
                    assert str(err.value) == "(d,e;q)_k vanished at k=4 for d=1/4, e=8"
                else:
                    assert build() == _textbook("asc5_phi", n, ps, *xy)

    def test_returned_polys_do_not_share_rows(self):
        ps = _memo_paramset("asc5_phi", 0)
        _clear_memos()
        want = [_memo_want("asc5_phi", 0, n) for n in range(7)]
        family = PolyFamily("asc_new_phi", ps)
        written = [asc5_phi(4, ps), family.evaluate(5), *family.sequence(6)]
        for p in written:
            p.row[0][(0, 0)] = 12345
            p.row[0].clear()
        seq = family.sequence(6)
        seq[0] = seq.pop()
        assert asc5_phi(4, ps) == want[4] and family.evaluate(5) == want[5]
        assert family.sequence(6) == want
        assert _poly(_family_rows("asc_new_phi", 6, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e)[6]) \
            == want[6]

    def test_threads_match_serial(self):
        # four threads (more than cores) grow and clear the same rows in
        # opposite orders
        lengths = [3, 11, 0, 7, 12, 5, 9, 1]
        pss = [_memo_paramset("asc5_psi", i) for i in (0, 1)]
        serial = {(i, n): asc5_psi(n, ps) for i, ps in enumerate(pss) for n in lengths}
        seen: list[list] = [[] for _ in range(4)]

        def work(t):
            for rep in range(10):
                for n in lengths[:: (-1) ** t]:
                    for i, ps in enumerate(pss):
                        seen[t].append(((i, n), asc5_psi(n, ps)))
                        seen[t].append(((i, n), PolyFamily("asc_new_psi", ps).sequence(n)[n]))
                if rep % 4 == t:
                    _clear_memos()

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
        assert all(p == serial[key] for got in seen for key, p in got)
