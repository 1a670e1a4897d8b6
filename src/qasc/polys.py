"""Polynomial families: Cauchy products, Rogers-Szego polynomials, and the
Al-Salam-Carlitz families (classical one-parameter, three-parameter, and
the five-parameter pair tied to the T/E operator series).

All functions accept exact rationals or Poly values for the variable slots
and return whichever the inputs produce; with the default symbolic x, y the
result is a Poly.

Every family is one sum  sum_k [n;k] w_k x^(n-k) y^k  whose weight w_k is
q-hypergeometric in k: (nums;q)_k / (dens;q)_k times a twist z^k r^C(k,2);
the psi families' n-dependent factor q^(k(k-n)) is folded into [n;k].
So one weight row serves the whole sequence p_0..p_N
(``PolyFamily.sequence``), the [n;k] come from one integer q-binomial
triangle, and each polynomial is one integer row (``core.Row``), one
integer product per term; the public functions read it out as a Poly.
The per-n functions run the same pass for their one n.  The triangle has
no division, so q = 1 gives the classical limits, e.g. cauchy_pn at q = 1
is (x - y)^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence

from .core import ONE, ZERO, ParamSet, Poly, Row, X, Y, _UNIT, _dot, _poly, _row, as_fraction
from .qkernel import _poch_row, _qbinom_rows, _ratio, _remember

_FAMILY_ROWS: dict = {}  # (family, q, a..e) -> (row_0, ..., row_m), None where not built


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
    if lo < 0:
        raise ValueError("polynomial degree n must be >= 0")
    xr, yr = (_row(v if isinstance(v, Poly) else as_fraction(v)) for v in (x, y))
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


def _family_rows(family: str, lo: int, N: int, q, a=ZERO, b=ZERO, c=ZERO, d=ZERO, e=ZERO,
                 x=X, y=Y) -> list[Row]:
    """[p_n(x, y) for n = lo..N] of one family as shared, unreduced rows.
    For the default x, y they are memoized per family and parameters, and
    a call builds only the span of those not yet built, from one weight row."""
    if x is not X or y is not Y:
        return _family_sum(family, lo, N, q, a, b, c, d, e, x, y)
    key = (family, *map(_ratio, (q, a, b, c, d, e)))
    rows = _FAMILY_ROWS.get(key, ())
    missing = [n for n in range(lo, N + 1) if not 0 <= n < len(rows) or rows[n] is None]
    if missing:
        first, last = missing[0], missing[-1]
        grown = list(rows) + [None] * (last + 1 - len(rows))
        grown[first : last + 1] = _family_sum(family, first, last, q, a, b, c, d, e, x, y)
        rows = _remember(_FAMILY_ROWS, key, tuple(grown))
    return list(rows[lo : N + 1])


def _family_sum(family: str, lo: int, N: int, q, a, b, c, d, e, x, y) -> list[Row]:
    q = as_fraction(q)
    psi = family.endswith("_psi")
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
    return _asc_sum(lo, N, q, w, x, y, psi)


def cauchy_pn(n: int, x=X, y=Y, q=Fraction(1, 2)):
    """Cauchy polynomial p_n(x,y) = (x - y)(x - qy) ... (x - q^(n-1) y),
    summed by the q-binomial theorem as sum_k [n;k] (-1)^k q^C(k,2) x^(n-k) y^k."""
    return _poly(_family_rows("cauchy", n, n, q, x=x, y=y)[0])


def rogers_szego_hn(n: int, a, b, q):
    """Homogeneous Rogers-Szego polynomial h_n(a,b|q) = sum_k [n;k] a^k b^(n-k)."""
    return _poly(_family_rows("rogers_szego", n, n, q, x=a, y=b)[0])


def asc_phi(n: int, a, x, q):
    """Classical family phi_n^(a)(x|q) = sum_k [n;k] (a;q)_k x^k."""
    return _poly(_family_rows("asc_classical_phi", n, n, q, a, x=x)[0])


def asc_psi(n: int, a, x, q):
    """Classical companion psi_n^(a)(x|q)
    = sum_k [n;k] q^(k(k-n)) (a q^(1-k);q)_k x^k."""
    return _poly(_family_rows("asc_classical_psi", n, n, q, a, x=x)[0])


def asc3_phi(n: int, a, b, c, x=X, y=Y, q=Fraction(1, 2)):
    """Three-parameter family
    phi_n^(a,b,c)(x,y|q) = sum_k [n;k] (a,b;q)_k/(c;q)_k x^k y^(n-k)."""
    return _poly(_family_rows("asc_gen3_phi", n, n, q, a, b, c, x=x, y=y)[0])


def asc3_psi(n: int, a, b, c, x=X, y=Y, q=Fraction(1, 2)):
    """Three-parameter companion with weight (-1)^k q^(C(k+1,2) - nk)."""
    return _poly(_family_rows("asc_gen3_psi", n, n, q, a, b, c, x=x, y=y)[0])


def asc5_phi(n: int, ps: ParamSet, x=X, y=Y):
    """Five-parameter family
    phi_n(x,y) = sum_k [n;k] (a,b,c;q)_k/(d,e;q)_k x^(n-k) y^k,
    equivalently T(a,b,c,d,e, y D){x^n}."""
    return _poly(_family_rows("asc_new_phi", n, n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)[0])


def asc5_psi(n: int, ps: ParamSet, x=X, y=Y):
    """Five-parameter companion
    psi_n(x,y) = sum_k [n;k] (-1)^k q^(k(k-n)) (a,b,c;q)_k/(d,e;q)_k x^(n-k) y^k,
    equivalently E(a,b,c,d,e, y theta){x^n}."""
    return _poly(_family_rows("asc_new_psi", n, n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)[0])


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
        """[p_n(x, y) for n = 0..N], all from one weight row."""
        ps = self.params
        return [_poly(r) for r in
                _family_rows(self.family, 0, N, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)]

    def evaluate(self, n: int, x=X, y=Y):
        ps = self.params
        return _poly(_family_rows(self.family, n, n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)[0])
