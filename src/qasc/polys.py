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
(``core.Row``), one integer product per term.  The rows p_0, p_1, ... of a
family are kept per parameters and x, y as one grow-only prefix
(``_family_rows``); the per-n functions and ``PolyFamily`` index or slice
it.  The triangle has no division, so q = 1 gives the classical limits,
e.g. cauchy_pn at q = 1 is (x - y)^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence

from .core import ONE, ZERO, ParamSet, Poly, Row, X, Y, _UNIT, _dot, _poly, _row, as_fraction
from .qkernel import _poch_row, _qbinom_rows, _ratio, _remember

_FAMILY_ROWS: dict = {}  # (family, q, a..e, x, y) -> (row_0, ..., row_m)


def _asc_sum(lo: int, N: int, q: Fraction, w: Sequence[tuple[int, int]], x, y,
             psi: bool = False) -> list[Row]:
    """[sum_k [n;k] w_k x^(n-k) y^k for n = lo..N] as unreduced rows, for a
    ``_poch_row`` weight row; under psi each term also carries q^(k(k-n)).

    With monomial (or scalar) x and y every term goes straight into its
    row; otherwise the sums are formed over the symbols x, y and then
    substituted.  [n;k] = b(n,k)/qd^(k(n-k)) (``_qbinom_rows``), which
    q^(k(k-n)) turns into b(n,k)/qn^(k(n-k)), so row n lies over
    wd_n qd^E xd^n yd^n (qn^E under psi), E the largest k(n-k), and each
    term is one integer product.
    """
    xr, yr = _row(x), _row(y)
    subst = len(xr[0]) > 1 or len(yr[0]) > 1
    # a monomial's one term; the zero polynomial reads as 0 * x^0 y^0
    ((ix, jx), cx), = (X.row if subst else xr)[0].items() or [((0, 0), 0)]
    ((iy, jy), cy), = (Y.row if subst else yr)[0].items() or [((0, 0), 0)]
    xd, yd = (1, 1) if subst else (xr[1], yr[1])
    binom = _qbinom_rows(q, N)
    qp = list(accumulate(repeat(q.numerator if psi else q.denominator, N * N // 4), mul, initial=1))
    # x^(n-k) y^k over xd^n yd^n: xn^(n-k) xd^k yn^k yd^(n-k)
    xs = [(cx**m, xd**m) for m in range(N + 1)]
    ys = [(cy**m, yd**m) for m in range(N + 1)]
    out = []
    for n in range(lo, N + 1):
        top = (n // 2) * (n - n // 2)
        wd = w[n][1]
        nums: dict[tuple[int, int], int] = {}
        for k, b in enumerate(binom[n]):
            wn, d = w[k]
            if wn:
                c = (b * qp[top - k * (n - k)] * wn * (wd // d)
                     * xs[n - k][0] * xs[k][1] * ys[k][0] * ys[n - k][1])
                e = (ix * (n - k) + iy * k, jx * (n - k) + jy * k)
                s = nums.get(e)
                nums[e] = c if s is None else s + c
        out.append((nums, wd * qp[top] * xs[n][1] * ys[n][1]))
    if subst:
        # nums/den over x^i y^j goes to sum nums[i, j]/den xr^i yr^j
        xp, yp = [_UNIT], [_UNIT]
        for _ in range(N):
            xp.append(_dot([(xp[-1], xr)]))
            yp.append(_dot([(yp[-1], yr)]))
        out = [_dot((({e: c * k for e, k in xp[i][0].items()}, xp[i][1] * den), yp[j])
                    for (i, j), c in nums.items()) for nums, den in out]
    return out


def _family_rows(family: str, N: int, q, a=ZERO, b=ZERO, c=ZERO, d=ZERO, e=ZERO,
                 x=X, y=Y) -> list[Row]:
    """[p_n(x, y) for n = 0..N] of one family as shared, unreduced rows.
    They are kept per family, parameters and x, y as one grow-only prefix:
    a shorter request is a slice, a longer one extends it from one weight row."""
    x, y = (v if isinstance(v, Poly) else as_fraction(v) for v in (x, y))
    key = (family, *map(_ratio, (q, a, b, c, d, e)), x, y)
    rows = _FAMILY_ROWS.get(key, ())
    if N < len(rows):
        return list(rows[: N + 1])
    q = as_fraction(q)
    if family == "cauchy":
        w = _poch_row((), {}, q, N, z=-ONE, r=q)
    elif family == "rogers_szego":
        w, x, y = [(1, 1)] * (N + 1), y, x
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
    rows += tuple(_asc_sum(len(rows), N, q, w, x, y, family.endswith("_psi")))
    return list(_remember(_FAMILY_ROWS, key, rows))


def _family_poly(family: str, n: int, q, a=ZERO, b=ZERO, c=ZERO, d=ZERO, e=ZERO,
                 x=X, y=Y) -> Poly:
    """p_n(x, y) of one family, read from its prefix."""
    if n < 0:
        raise ValueError("polynomial degree n must be >= 0")
    return _poly(_family_rows(family, n, q, a, b, c, d, e, x, y)[n])


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


@dataclass(frozen=True)
class PolyFamily:
    """A named polynomial family bound to one parameter assignment.

    Validates that the parameters beyond the family's arity are zero, so a
    mistaken draw cannot silently evaluate the wrong family.
    """

    family: str
    params: ParamSet

    def __post_init__(self):
        if self.family not in _FAMILY_ARITY:
            raise ValueError(f"unknown family {self.family!r}")
        used = _FAMILY_ARITY[self.family]
        for name in ("a", "b", "c", "d", "e"):
            if name not in used and self.params.get(name) != 0:
                raise ValueError(
                    f"{self.family} takes parameters {used or '()'}; {name} must be 0"
                )

    def sequence(self, N: int, x=X, y=Y) -> list[Poly]:
        """[p_n(x, y) for n = 0..N], a slice of the family's prefix."""
        ps = self.params
        return [_poly(r) for r in
                _family_rows(self.family, N, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)]

    def evaluate(self, n: int, x=X, y=Y):
        ps = self.params
        return _family_poly(self.family, n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)
