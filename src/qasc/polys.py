"""Polynomial families: Cauchy products, Rogers-Szego polynomials, and the
Al-Salam-Carlitz families (classical one-parameter, three-parameter, and
the five-parameter pair tied to the T/E operator series).

All functions accept exact rationals or Poly values for the variable slots
(the symbols x, y by default) and return a Poly.

Every family is one sum  sum_k [n;k] w_k x^(n-k) y^k  whose weight w_k is
q-hypergeometric in k: (nums;q)_k / (dens;q)_k times a twist z^k r^C(k,2);
the psi families' n-dependent factor q^(k(k-n)) is folded into [n;k].
So one weight row serves the whole sequence p_0..p_N, the [n;k] come from
one integer q-binomial triangle, and each polynomial is one integer row
(``core.Row``), one large integer product per term.  The rows p_0, p_1,
... of a family are kept per parameters and x, y as one grow-only prefix
(``_family_rows``); the per-n functions and ``PolyFamily`` index or slice
it.  A monomial or scalar x, y goes into each term as it is summed
(``qkernel._mono`` reads it); a polynomial one is put into the rows over
the symbols by the one substitution, ``core._substituted``.  The triangle
has no division, so q = 1 gives the classical limits, e.g. cauchy_pn at
q = 1 is (x - y)^n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence

from .core import (ONE, ZERO, ParamSet, Poly, Row, X, Y, _UNIT, _poly, _powers, _Record, _row,
                   _substituted, as_fraction)
from .qkernel import _mono, _poch_row, _qbinom_rows, _ratio, _remember

# (family, q, a..e, x, y) -> ((row_0, ..., row_m), (ws, wd) after row m)
_FAMILY_ROWS: dict = {}


def _asc_sum(lo: int, q: Fraction, w: Sequence[tuple[int, int]], x, y, psi: bool,
             grow: tuple) -> tuple[list[Row], tuple]:
    """Rows lo.. of sum_k [n;k] w_k x^(n-k) y^k, unreduced, one per weight
    w_lo, w_(lo+1), ... in w, for a monomial or scalar x and y, and the
    state that extends them; under psi each term also carries q^(k(k-n)).

    Its traffic is one parameter set with n rising, one row per call, so
    grow = (ws, wd) is the state after row lo - 1, the weight numerators
    ws of k < lo over wd = wd_(lo-1), and a row costs its own terms: the
    weight numerators take one step factor and the q-binomial triangle one
    row; no earlier term is divided again.  [n;k] = b(n,k)/qd^(k(n-k))
    (``_qbinom_rows``), which q^(k(k-n)) turns into b(n,k)/qn^(k(n-k)), so
    row n lies over wd_n qd^E xd^n yd^n (qn^E under psi), E the largest
    k(n-k).  Along the weight chain each wd_(n-1) divides wd_n, so the
    small step factor wd_n/wd_(n-1) takes ws over wd_n, and each term is
    one large product: its weight numerator times the small factors
    [n;k], the q power and the x, y powers.
    """
    ws, wd = grow
    N = lo + len(w) - 1
    ((ix, jx), cx, xd), ((iy, jy), cy, yd) = _mono(x), _mono(y)
    binom = _qbinom_rows(q, N)
    # only the q powers these rows read: qb^(E - k(n-k)), E the largest k(n-k)
    qp = _powers(q.numerator if psi else q.denominator,
                 [(n // 2) * (n - n // 2) - k * (n - k) for n in range(lo, N + 1)
                  for k in range(n // 2 + 1)])
    # x^(n-k) y^k over (xd yd)^n: (xn yd)^(n-k) (xd yn)^k
    xs = list(accumulate(repeat(cx * yd, N), mul, initial=1))
    ys = list(accumulate(repeat(xd * cy, N), mul, initial=1))
    out = []
    for n, (wn, d) in enumerate(w, lo):
        step, wd = d // wd, d
        # a new list each row: the list a state holds is never changed
        ws = [c * step for c in ws] if step > 1 else ws[:]
        ws.append(wn)
        top = (n // 2) * (n - n // 2)
        nums: dict[tuple[int, int], int] = {}
        for k, b in enumerate(binom[n]):
            if ws[k]:
                c = ws[k] * (b * qp[top - k * (n - k)] * xs[n - k] * ys[k])
                e = (ix * (n - k) + iy * k, jx * (n - k) + jy * k)
                s = nums.get(e)
                nums[e] = c if s is None else s + c
        out.append((nums, wd * qp[top] * (xd * yd) ** n))
    return out, (ws, wd)


def _weights(family: str, lo: int, N: int, q: Fraction, a, b, c, d, e, x, y) -> tuple:
    """(w_lo..w_N, x, y) of a family's sum: its ``_poch_row`` weights and
    the x, y it sums over."""
    if family == "cauchy":
        w = _poch_row((), {}, q, N, z=-ONE, r=q)
    elif family == "rogers_szego":
        w, x, y = _poch_row((), {}, q, N), y, x
    elif family == "asc_classical_phi":
        w, x, y = _poch_row((a,), {}, q, N), ONE, x
    elif family == "asc_classical_psi":
        # (a q^(1-k);q)_k = (a;1/q)_k
        w, x, y = _poch_row((a,), {}, 1 / q, N), ONE, x
    elif family == "asc_gen3_phi":
        w, x, y = _poch_row((a, b), {"c": c}, q, N), y, x
    elif family == "asc_gen3_psi":
        # (-1)^k q^(C(k+1,2) - nk) = (-1)^k q^(-C(k,2)) q^(k(k-n))
        w, x, y = _poch_row((a, b), {"c": c}, q, N, z=-ONE, r=1 / q), y, x
    elif family == "asc_new_phi":
        w = _poch_row((a, b, c), {"d": d, "e": e}, q, N)
    else:
        w = _poch_row((a, b, c), {"d": d, "e": e}, q, N, z=-ONE)
    return w[lo:], x, y


def _family_rows(family: str, N: int, q, a=ZERO, b=ZERO, c=ZERO, d=ZERO, e=ZERO,
                 x=X, y=Y) -> tuple[Row, ...]:
    """(p_n(x, y) for n = 0..N) of one family as shared, unreduced rows.

    They are kept per family, parameters and x, y as one grow-only prefix
    entry, (rows, state), replaced whole: a shorter request is a slice,
    and a longer one extends the rows from the state (``_asc_sum``), which
    the entry alone owns.  The traffic it serves is one parameter set with
    n rising (the per-n functions, the operator checks against T and E)
    and whole sequences (the generating functions and basis expansions).
    A polynomial x or y (not a monomial) reads the rows over the symbols
    and substitutes them."""
    x, y = (v if isinstance(v, Poly) else as_fraction(v) for v in (x, y))
    key = (family, *map(_ratio, (q, a, b, c, d, e)), x, y)
    rows, grow = _FAMILY_ROWS.get(key, ((_UNIT,), ([1], 1)))  # p_0 = 1, w_0 = 1
    if N < len(rows):
        return rows if N + 1 == len(rows) else rows[: N + 1]
    if len(_row(x)[0]) > 1 or len(_row(y)[0]) > 1:
        new = _substituted(_family_rows(family, N, q, a, b, c, d, e)[len(rows):], x, y)
    else:
        q = as_fraction(q)
        w, sx, sy = _weights(family, len(rows), N, q, a, b, c, d, e, x, y)
        new, grow = _asc_sum(len(rows), q, w, sx, sy, family.endswith("_psi"), grow)
    return _remember(_FAMILY_ROWS, key, (rows + tuple(new), grow))[0]


def _family_poly(family: str, n: int, q, a=ZERO, b=ZERO, c=ZERO, d=ZERO, e=ZERO,
                 x=X, y=Y) -> Poly:
    """p_n(x, y) of one family, read from its prefix, with numerators of
    its own."""
    if n < 0:
        raise ValueError("polynomial degree n must be >= 0")
    nums, den = _family_rows(family, n, q, a, b, c, d, e, x, y)[n]
    return _poly((dict(nums), den))


def cauchy_pn(n: int, x=X, y=Y, q=Fraction(1, 2)):
    """Cauchy polynomial p_n(x,y) = (x - y)(x - qy) ... (x - q^(n-1) y),
    summed by the q-binomial theorem as sum_k [n;k] (-1)^k q^C(k,2) x^(n-k) y^k."""
    return _family_poly("cauchy", n, q, x=x, y=y)


def rogers_szego_hn(n: int, a, b, q):
    """Homogeneous Rogers-Szego polynomial h_n(a,b|q) = sum_k [n;k] a^k b^(n-k)."""
    return _family_poly("rogers_szego", n, q, x=a, y=b)


def asc_phi(n: int, a, x, q):
    """Classical family phi_n^(a)(x|q) = sum_k [n;k] (a;q)_k x^k."""
    return _family_poly("asc_classical_phi", n, q, a, x=x)


def asc_psi(n: int, a, x, q):
    """Classical companion psi_n^(a)(x|q)
    = sum_k [n;k] q^(k(k-n)) (a q^(1-k);q)_k x^k."""
    return _family_poly("asc_classical_psi", n, q, a, x=x)


def asc3_phi(n: int, a, b, c, x=X, y=Y, q=Fraction(1, 2)):
    """Three-parameter family
    phi_n^(a,b,c)(x,y|q) = sum_k [n;k] (a,b;q)_k/(c;q)_k x^k y^(n-k)."""
    return _family_poly("asc_gen3_phi", n, q, a, b, c, x=x, y=y)


def asc3_psi(n: int, a, b, c, x=X, y=Y, q=Fraction(1, 2)):
    """Three-parameter companion with weight (-1)^k q^(C(k+1,2) - nk)."""
    return _family_poly("asc_gen3_psi", n, q, a, b, c, x=x, y=y)


def asc5_phi(n: int, ps: ParamSet, x=X, y=Y):
    """Five-parameter family
    phi_n(x,y) = sum_k [n;k] (a,b,c;q)_k/(d,e;q)_k x^(n-k) y^k,
    equivalently T(a,b,c,d,e, y D){x^n}."""
    return _family_poly("asc_new_phi", n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)


def asc5_psi(n: int, ps: ParamSet, x=X, y=Y):
    """Five-parameter companion
    psi_n(x,y) = sum_k [n;k] (-1)^k q^(k(k-n)) (a,b,c;q)_k/(d,e;q)_k x^(n-k) y^k,
    equivalently E(a,b,c,d,e, y theta){x^n}."""
    return _family_poly("asc_new_psi", n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)


# which of a..e each family consumes; anything else must be zero
_FAMILY_ARITY = {
    "cauchy": (),
    "rogers_szego": (),
    "asc_classical_phi": ("a",),
    "asc_classical_psi": ("a",),
    "asc_gen3_phi": ("a", "b", "c"),
    "asc_gen3_psi": ("a", "b", "c"),
    "asc_new_phi": ("a", "b", "c", "d", "e"),
    "asc_new_psi": ("a", "b", "c", "d", "e"),
}


class PolyFamily(_Record):
    """A named polynomial family bound to one parameter assignment.

    Validates that the parameters beyond the family's arity are zero, so a
    mistaken draw cannot silently evaluate the wrong family; ``evaluate``
    likewise refuses a y for the classical families, which read x only.
    """

    __slots__ = ("family", "params")

    def _post_init(self):
        if self.family not in _FAMILY_ARITY:
            raise ValueError(f"unknown family {self.family!r}")
        used = _FAMILY_ARITY[self.family]
        for name in ("a", "b", "c", "d", "e"):
            if name not in used and self.params.get(name) != 0:
                raise ValueError(
                    f"{self.family} takes parameters {used or '()'}; {name} must be 0"
                )

    def sequence(self, N: int, x=X, y=Y) -> list[Poly]:
        """[p_n(x, y) for n = 0..N], a slice of the family's prefix, each
        with numerators of its own."""
        ps = self.params
        return [_poly((dict(nums), den)) for nums, den in
                _family_rows(self.family, N, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)]

    def evaluate(self, n: int, x=X, y=Y):
        if self.family.startswith("asc_classical") and y != Y:
            raise ValueError(f"{self.family} reads x only; y must be the symbol y")
        ps = self.params
        return _family_poly(self.family, n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)
