"""Polynomial families: Cauchy products, Rogers-Szego polynomials, and the
Al-Salam-Carlitz families (classical one-parameter, three-parameter, and
the five-parameter pair tied to the T/E operator series).

All functions accept exact rationals or Poly values for the variable slots
and return whichever the inputs produce; with the default symbolic x, y the
result is a Poly.

Every family is one sum  sum_k [n;k] w_k x^(n-k) y^k  whose weight w_k is
q-hypergeometric in k: (nums;q)_k / (dens;q)_k times a twist z^k r^C(k,2).
So each weight, each [n;k] (by the ratio (1-q^(n-k))/(1-q^(k+1))) and each
power of x and y is built from the one before it, in O(n) exact operations
per polynomial rather than O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import ONE, ParamSet, Poly, X, Y, as_fraction
from .qkernel import _poch_row


def _val(v):
    return v if isinstance(v, Poly) else Poly.const(as_fraction(v))


def _asc_sum(n: int, q: Fraction, w: Sequence[Fraction], x, y) -> Poly:
    """sum_k [n;k] w[k] x^(n-k) y^k."""
    if n < 0:
        raise ValueError("polynomial degree n must be >= 0")
    xv, yv = _val(x), _val(y)
    qp = [ONE]  # q^0 .. q^n
    xp = [Poly.one()]  # x^0 .. x^n
    for _ in range(n):
        qp.append(qp[-1] * q)
        xp.append(xp[-1] * xv)
    out = Poly.zero()
    g = ONE  # [n;k]
    yk = Poly.one()
    for k in range(n + 1):
        out = out + xp[n - k] * yk * (g * w[k])
        if k < n:
            g = g * (1 - qp[n - k]) / (1 - qp[k + 1])
            yk = yk * yv
    return out


def cauchy_pn(n: int, x=X, y=Y, q=Fraction(1, 2)):
    """Cauchy polynomial p_n(x,y) = (x - y)(x - qy) ... (x - q^(n-1) y),
    summed by the q-binomial theorem as sum_k [n;k] (-1)^k q^C(k,2) x^(n-k) y^k."""
    q = as_fraction(q)
    return _asc_sum(n, q, _poch_row((), {}, q, n, z=-ONE, r=q), x, y)


def rogers_szego_hn(n: int, a, b, q):
    """Homogeneous Rogers-Szego polynomial h_n(a,b|q) = sum_k [n;k] a^k b^(n-k)."""
    return _asc_sum(n, as_fraction(q), [ONE] * (n + 1), b, a)


def asc_phi(n: int, a, x, q):
    """Classical family phi_n^(a)(x|q) = sum_k [n;k] (a;q)_k x^k."""
    q = as_fraction(q)
    return _asc_sum(n, q, _poch_row((a,), {}, q, n), ONE, x)


def asc_psi(n: int, a, x, q):
    """Classical companion psi_n^(a)(x|q)
    = sum_k [n;k] q^(k(k-n)) (a q^(1-k);q)_k x^k.

    (a q^(1-k);q)_k = (a;1/q)_k and q^(k(k-n)) = q^((1-n)k) (q^2)^C(k,2)."""
    q = as_fraction(q)
    return _asc_sum(n, q, _poch_row((a,), {}, 1 / q, n, z=q ** (1 - n), r=q * q), ONE, x)


def asc3_phi(n: int, a, b, c, x=X, y=Y, q=Fraction(1, 2)):
    """Three-parameter family
    phi_n^(a,b,c)(x,y|q) = sum_k [n;k] (a,b;q)_k/(c;q)_k x^k y^(n-k)."""
    q = as_fraction(q)
    return _asc_sum(n, q, _poch_row((a, b), {"c": c}, q, n), y, x)


def asc3_psi(n: int, a, b, c, x=X, y=Y, q=Fraction(1, 2)):
    """Three-parameter companion with weight (-1)^k q^(C(k+1,2) - nk)
    = (-q^(1-n))^k q^C(k,2)."""
    q = as_fraction(q)
    w = _poch_row((a, b), {"c": c}, q, n, z=-(q ** (1 - n)), r=q)
    return _asc_sum(n, q, w, y, x)


def asc5_phi(n: int, ps: ParamSet, x=X, y=Y):
    """Five-parameter family
    phi_n(x,y) = sum_k [n;k] (a,b,c;q)_k/(d,e;q)_k x^(n-k) y^k,
    equivalently T(a,b,c,d,e, y D){x^n}."""
    w = _poch_row((ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e}, ps.q, n)
    return _asc_sum(n, ps.q, w, x, y)


def asc5_psi(n: int, ps: ParamSet, x=X, y=Y):
    """Five-parameter companion
    psi_n(x,y) = sum_k [n;k] (-1)^k q^(k(k-n)) (a,b,c;q)_k/(d,e;q)_k x^(n-k) y^k,
    equivalently E(a,b,c,d,e, y theta){x^n}.

    (-1)^k q^(k(k-n)) = (-q^(1-n))^k (q^2)^C(k,2)."""
    q = ps.q
    w = _poch_row(
        (ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e}, q, n, z=-(q ** (1 - n)), r=q * q
    )
    return _asc_sum(n, q, w, x, y)


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

    def evaluate(self, n: int, x=X, y=Y):
        ps = self.params
        q = ps.q
        if self.family == "cauchy":
            return cauchy_pn(n, x, y, q)
        if self.family == "rogers_szego":
            return rogers_szego_hn(n, x, y, q)
        if self.family == "asc_classical_phi":
            return asc_phi(n, ps.a, x, q)
        if self.family == "asc_classical_psi":
            return asc_psi(n, ps.a, x, q)
        if self.family == "asc_gen3_phi":
            return asc3_phi(n, ps.a, ps.b, ps.c, x, y, q)
        if self.family == "asc_gen3_psi":
            return asc3_psi(n, ps.a, ps.b, ps.c, x, y, q)
        if self.family == "asc_new_phi":
            return asc5_phi(n, ps, x, y)
        return asc5_psi(n, ps, x, y)
