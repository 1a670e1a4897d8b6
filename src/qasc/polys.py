"""Polynomial families: Cauchy products, Rogers-Szego polynomials, and the
Al-Salam-Carlitz families (classical one-parameter, three-parameter, and
the five-parameter pair tied to the T/E operator series).

All functions accept exact rationals or Poly values for the variable slots
and return whichever the inputs produce; with the default symbolic x, y the
result is a Poly.

Every family is one sum  sum_k [n;k] w_k x^(n-k) y^k  whose weight w_k is
q-hypergeometric in k: (nums;q)_k / (dens;q)_k times a twist z^k r^C(k,2);
the psi families' n-dependent factor q^(-nk) is folded into y as q^-n y.
So one weight row serves the whole sequence p_0..p_N
(``PolyFamily.sequence``), and each [n;k] (by the ratio
(1-q^(n-k))/(1-q^(k+1))) and each power of x and y is built from the one
before it: one pass per sequence, O(n) exact operations per polynomial.
The per-n functions run the same pass for their one n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import ONE, ZERO, ParamSet, Poly, X, Y, as_fraction
from .qkernel import _poch_row


def _val(v):
    return v if isinstance(v, Poly) else Poly.const(as_fraction(v))


def _asc_sum(lo: int, N: int, q: Fraction, w: Sequence[Fraction], x, y,
             twist: Fraction = ONE) -> list[Poly]:
    """[sum_k [n;k] w[k] x^(n-k) (twist^n y)^k for n = lo..N].

    With monomial (or scalar) x and y every term goes straight into the
    term dict; otherwise the sums are formed over the symbols x, y and then
    substituted.
    """
    if lo < 0:
        raise ValueError("polynomial degree n must be >= 0")
    xv, yv = _val(x), _val(y)
    subst = not (xv.is_monomial() and yv.is_monomial())
    # a monomial's one term; the zero polynomial reads as 0 * x^0 y^0
    ((ix, jx), cx), = (X if subst else xv).terms.items() or [((0, 0), ZERO)]
    ((iy, jy), cy), = (Y if subst else yv).terms.items() or [((0, 0), ZERO)]
    qp, xp = [ONE], [ONE]  # q^m, cx^m for m = 0..N
    for _ in range(N):
        qp.append(qp[-1] * q)
        xp.append(xp[-1] * cx)
    cy *= twist**lo
    out = []
    for n in range(lo, N + 1):
        terms: dict[tuple[int, int], Fraction] = {}
        g = yk = ONE  # [n;k], (twist^n cy)^k
        for k in range(n + 1):
            e = (ix * (n - k) + iy * k, jx * (n - k) + jy * k)
            terms[e] = terms.get(e, ZERO) + g * w[k] * xp[n - k] * yk
            if k < n:
                g = g * (1 - qp[n - k]) / (1 - qp[k + 1])
                yk *= cy
        out.append(Poly(terms))
        cy *= twist
    if subst:
        xs, ys = [Poly.one()], [Poly.one()]
        for _ in range(N):
            xs.append(xs[-1] * xv)
            ys.append(ys[-1] * yv)
        out = [sum((xs[i] * ys[j] * c for (i, j), c in p.terms.items()), Poly.zero())
               for p in out]
    return out


def _family_seq(family: str, lo: int, N: int, q, a=ZERO, b=ZERO, c=ZERO, d=ZERO, e=ZERO,
                x=X, y=Y) -> list[Poly]:
    """[p_n(x, y) for n = lo..N] of one family, all from one weight row."""
    q = as_fraction(q)
    twist = ONE
    if family == "cauchy":
        w = _poch_row((), {}, q, N, z=-ONE, r=q)
    elif family == "rogers_szego":
        w, x, y = [ONE] * (N + 1), y, x
    elif family == "asc_classical_phi":
        w, x, y = _poch_row((a,), {}, q, N), ONE, x
    elif family == "asc_classical_psi":
        # (a q^(1-k);q)_k = (a;1/q)_k and q^(k(k-n)) = q^k (q^2)^C(k,2) q^(-nk)
        w, x, y, twist = _poch_row((a,), {}, 1 / q, N, z=q, r=q * q), ONE, x, 1 / q
    elif family == "asc_gen3_phi":
        w, x, y = _poch_row((a, b), {"c": c}, q, N), y, x
    elif family == "asc_gen3_psi":
        # (-1)^k q^(C(k+1,2) - nk) = (-q)^k q^C(k,2) q^(-nk)
        w, x, y, twist = _poch_row((a, b), {"c": c}, q, N, z=-q, r=q), y, x, 1 / q
    elif family == "asc_new_phi":
        w = _poch_row((a, b, c), {"d": d, "e": e}, q, N)
    else:
        # (-1)^k q^(k(k-n)) = (-q)^k (q^2)^C(k,2) q^(-nk)
        w, twist = _poch_row((a, b, c), {"d": d, "e": e}, q, N, z=-q, r=q * q), 1 / q
    return _asc_sum(lo, N, q, w, x, y, twist)


def cauchy_pn(n: int, x=X, y=Y, q=Fraction(1, 2)):
    """Cauchy polynomial p_n(x,y) = (x - y)(x - qy) ... (x - q^(n-1) y),
    summed by the q-binomial theorem as sum_k [n;k] (-1)^k q^C(k,2) x^(n-k) y^k."""
    return _family_seq("cauchy", n, n, q, x=x, y=y)[0]


def rogers_szego_hn(n: int, a, b, q):
    """Homogeneous Rogers-Szego polynomial h_n(a,b|q) = sum_k [n;k] a^k b^(n-k)."""
    return _family_seq("rogers_szego", n, n, q, x=a, y=b)[0]


def asc_phi(n: int, a, x, q):
    """Classical family phi_n^(a)(x|q) = sum_k [n;k] (a;q)_k x^k."""
    return _family_seq("asc_classical_phi", n, n, q, a, x=x)[0]


def asc_psi(n: int, a, x, q):
    """Classical companion psi_n^(a)(x|q)
    = sum_k [n;k] q^(k(k-n)) (a q^(1-k);q)_k x^k."""
    return _family_seq("asc_classical_psi", n, n, q, a, x=x)[0]


def asc3_phi(n: int, a, b, c, x=X, y=Y, q=Fraction(1, 2)):
    """Three-parameter family
    phi_n^(a,b,c)(x,y|q) = sum_k [n;k] (a,b;q)_k/(c;q)_k x^k y^(n-k)."""
    return _family_seq("asc_gen3_phi", n, n, q, a, b, c, x=x, y=y)[0]


def asc3_psi(n: int, a, b, c, x=X, y=Y, q=Fraction(1, 2)):
    """Three-parameter companion with weight (-1)^k q^(C(k+1,2) - nk)."""
    return _family_seq("asc_gen3_psi", n, n, q, a, b, c, x=x, y=y)[0]


def asc5_phi(n: int, ps: ParamSet, x=X, y=Y):
    """Five-parameter family
    phi_n(x,y) = sum_k [n;k] (a,b,c;q)_k/(d,e;q)_k x^(n-k) y^k,
    equivalently T(a,b,c,d,e, y D){x^n}."""
    return _family_seq("asc_new_phi", n, n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)[0]


def asc5_psi(n: int, ps: ParamSet, x=X, y=Y):
    """Five-parameter companion
    psi_n(x,y) = sum_k [n;k] (-1)^k q^(k(k-n)) (a,b,c;q)_k/(d,e;q)_k x^(n-k) y^k,
    equivalently E(a,b,c,d,e, y theta){x^n}."""
    return _family_seq("asc_new_psi", n, n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)[0]


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
        return _family_seq(self.family, 0, N, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)

    def evaluate(self, n: int, x=X, y=Y):
        ps = self.params
        return _family_seq(self.family, n, n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)[0]
