"""The q-difference operators on the variable x and the five-parameter
operator series built from them.

    D f(x)     = (f(x) - f(qx)) / x
    theta f(x) = (f(x/q) - f(x)) / (x/q)

Both act on x only; y is an inert symbol.  On monomials:

    D x^n     = (1 - q^n) x^(n-1)
    theta x^n = (q^(1-n) - q) x^(n-1)

The operator series

    T(a,b,c,d,e, y*D)     = sum_n (a,b,c;q)_n / ((q,d,e;q)_n) (y D)^n
    E(a,b,c,d,e, y*theta) = sum_n (-1)^n q^C(n,2) (a,b,c;q)_n / ((q,d,e;q)_n) (y theta)^n

terminate on polynomials because the n-th power annihilates x-degrees
below n; no truncation cap is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import ONE, ParamSet, Poly, as_fraction
from .qkernel import _poch_row, qbinom


def dq_apply(p: Poly, q) -> Poly:
    """Forward q-derivative in x; constants vanish, x-degree drops by 1."""
    q = as_fraction(q)
    t = {}
    for (i, j), c in p.terms.items():
        if i == 0:
            continue
        k = c * (1 - q**i)
        if k:
            t[(i - 1, j)] = t.get((i - 1, j), Fraction(0)) + k
    return Poly(t)


def theta_apply(p: Poly, q) -> Poly:
    """Backward q-derivative in x: theta x^n = (q^(1-n) - q) x^(n-1)."""
    q = as_fraction(q)
    t = {}
    for (i, j), c in p.terms.items():
        if i == 0:
            continue
        k = c * (q ** (1 - i) - q)
        if k:
            t[(i - 1, j)] = t.get((i - 1, j), Fraction(0)) + k
    return Poly(t)


_OPS = {"dq": dq_apply, "theta": theta_apply}


def op_power(op: str, p: Poly, k: int, q) -> Poly:
    """k-fold application of D or theta."""
    if k < 0:
        raise ValueError("op_power needs k >= 0")
    f = _OPS[op]
    for _ in range(k):
        if p.is_zero():
            break
        p = f(p, q)
    return p


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
    out = Poly.zero()
    fk = f
    for k in range(n + 1):
        gk = op_power(op, g, n - k, q)
        if op == "dq":
            weight = qbinom(n, k, q)
            shifted = gk.shift(q**k, ONE)
        else:
            weight = qbinom(n, k, q) * q ** (k * (k - n))
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
    happens after its x-degree, so the result is exact.  Each term
    multiplies in y^n and the scalar weight (a,b,c;q)_n / ((q,d,e;q)_n),
    with the E-series carrying the extra (-1)^n q^C(n,2).
    """
    ps = spec.params
    q = ps.q
    op = _OPS["dq" if spec.kind == "T" else "theta"]
    z, r = (ONE, ONE) if spec.kind == "T" else (-ONE, q)
    weights = _poch_row(
        (ps.a, ps.b, ps.c), {"q": q, "d": ps.d, "e": ps.e}, q, p.x_degree(), z=z, r=r
    )
    out = Poly.zero()
    for n, w in enumerate(weights):
        if n:
            p = op(p, q)
        out = out + p * Poly.monomial(0, n, w)
    return out
