"""The q-difference operators on the variable x and the five-parameter
operator series built from them.

    D f(x)     = (f(x) - f(qx)) / x
    theta f(x) = (f(x/q) - f(x)) / (x/q)

Both act on x only; y is an inert symbol.  Each sends a monomial to a
scalar, its symbol, times one monomial:

    D x^n     = (1 - q^n) x^(n-1)
    theta x^n = (q^(1-n) - q) x^(n-1)

so D^k and theta^k are one pass over the terms: x^n goes to the product
of the symbols for m = n-k+1..n times x^(n-k), and to 0 when n < k.

The operator series

    T(a,b,c,d,e, y*D)     = sum_n (a,b,c;q)_n / ((q,d,e;q)_n) (y D)^n
    E(a,b,c,d,e, y*theta) = sum_n (-1)^n q^C(n,2) (a,b,c;q)_n / ((q,d,e;q)_n) (y theta)^n

terminate on polynomials because the n-th power annihilates x-degrees
below n; no truncation cap is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .core import ONE, ZERO, ParamSet, Poly, as_fraction
from .qkernel import _poch_row, _qbinom_rows


_SYMBOLS = {"dq": lambda q, m: 1 - q**m, "theta": lambda q, m: q ** (1 - m) - q}


def _symbol_row(op: str, q, deg: int) -> list[Fraction]:
    """[sym(m) for m = 0..deg], where op x^m = sym(m) x^(m-1)."""
    sym = _SYMBOLS[op]
    return [sym(q, m) for m in range(deg + 1)]


def _lower(op: str, p: Poly, k: int, q) -> Poly:
    """op^k on p: x^i y^j with i >= k goes to prod_(m=i-k+1..i) sym(m)
    x^(i-k) y^j, lower x-degrees vanish.  The map is one-to-one on
    monomials, so no two terms meet."""
    s = _symbol_row(op, as_fraction(q), p.x_degree())
    return Poly({(i - k, j): prod(s[i - k + 1 : i + 1], start=c)
                 for (i, j), c in p.terms.items() if i >= k})


def dq_apply(p: Poly, q) -> Poly:
    """Forward q-derivative in x; constants vanish, x-degree drops by 1."""
    return _lower("dq", p, 1, q)


def theta_apply(p: Poly, q) -> Poly:
    """Backward q-derivative in x: theta x^n = (q^(1-n) - q) x^(n-1)."""
    return _lower("theta", p, 1, q)


def op_power(op: str, p: Poly, k: int, q) -> Poly:
    """k-fold application of D or theta, in one pass over the terms."""
    if k < 0:
        raise ValueError("op_power needs k >= 0")
    return _lower(op, p, k, q)


def leibniz(op: str, f: Poly, g: Poly, n: int, q) -> Poly:
    """n-th power of D or theta on a product, by the Leibniz expansion.

    The compact forms place the inner difference operator on the composite
    g(x q^k) resp. g(x q^-k); differentiating the composite produces a
    chain-rule power q^(+-k(n-k)) which is folded in here, leaving

        D^n(fg)     = sum_k [n;k]            D^k f     * (D^(n-k) g)(x q^k)
        theta^n(fg) = sum_k [n;k] q^(k(k-n)) theta^k f * (theta^(n-k) g)(x q^-k)
    """
    if n < 0:
        raise ValueError("leibniz needs n >= 0")
    q = as_fraction(q)
    binom, qd = _qbinom_rows(q, n)[n], q.denominator  # [n;k] = binom[k] / qd^(k(n-k))
    out = Poly.zero()
    fk = f
    for k in range(n + 1):
        gk = op_power(op, g, n - k, q)
        weight = Fraction(binom[k], qd ** (k * (n - k)))
        if op == "dq":
            shifted = gk.shift(q**k, ONE)
        else:
            weight *= q ** (k * (k - n))
            shifted = gk.shift(q**-k, ONE)
        out = out + fk * shifted * weight
        if k < n:
            fk = op_power(op, fk, 1, q)
    return out


@dataclass(frozen=True)
class OperatorSpec:
    """Which operator series to apply (T or E) and with which parameters."""

    kind: str  # "T" | "E"
    params: ParamSet

    def __post_init__(self):
        if self.kind not in ("T", "E"):
            raise ValueError("operator kind must be 'T' or 'E'")


def apply_operator(spec: OperatorSpec, p: Poly) -> Poly:
    """Apply T(a,b,c,d,e, y D) or E(a,b,c,d,e, y theta) to a polynomial.

    The sum runs until the operator power annihilates the input, which
    happens after its x-degree, so the result is exact.  The n-th term
    multiplies in y^n and the scalar weight (a,b,c;q)_n / ((q,d,e;q)_n),
    with the E-series carrying the extra (-1)^n q^C(n,2).  Each monomial
    x^i feeds the n = 0..i terms through the running product of symbols.
    """
    ps = spec.params
    q = ps.q
    z, r = (ONE, ONE) if spec.kind == "T" else (-ONE, q)
    deg = p.x_degree()
    weights = [Fraction(c, d) for c, d in
               _poch_row((ps.a, ps.b, ps.c), {"q": q, "d": ps.d, "e": ps.e}, q, deg, z=z, r=r)]
    s = _symbol_row("dq" if spec.kind == "T" else "theta", q, deg)
    t: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in p.terms.items():
        # w_n y^n op^n x^i = w_n prod_(m=i-n+1..i) sym(m) x^(i-n) y^n
        for n in range(i + 1):
            t[(i - n, j + n)] = t.get((i - n, j + n), ZERO) + c * weights[n]
            c *= s[i - n]
    return Poly(t)
