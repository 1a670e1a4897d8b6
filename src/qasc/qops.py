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
below n; no truncation cap is involved.  Everything here runs on the
integer row of a Poly (``core.Row``) with integer symbol tables, so no
Fraction is built per term.
"""

from __future__ import annotations

from math import prod

from .core import Poly, _canon, _dot, _powers, _raw, _Record, as_fraction
from .qkernel import _poch_row, _qbinom_rows


def _symbols(op: str, q, deg: int) -> tuple[list[int], int, int]:
    """(s, u, v) with op x^m = s[m] / (u v^m) x^(m-1) for m = 0..deg, on
    integers with q = qn/qd: D has 1 - q^m = (qd^m - qn^m) / qd^m, theta
    has q^(1-m) - q = qn (qd^m - qn^m) / (qd qn^m)."""
    q = as_fraction(q)
    qn, qd = q.numerator, q.denominator
    s = [qd**m - qn**m for m in range(deg + 1)]
    if op == "dq":
        return s, 1, qd
    if op == "theta":
        if not qn:
            raise ZeroDivisionError("theta needs q != 0")
        return [qn * c for c in s], qd, qn
    raise ValueError(f"unknown operator {op!r}: use 'dq' or 'theta'")


def _lower(op: str, p: Poly, k: int, q) -> Poly:
    """op^k on p: x^i y^j with i >= k goes to prod_(m=i-k+1..i) sym(m)
    x^(i-k) y^j, lower x-degrees vanish.  The map is one-to-one on
    monomials, so no two terms meet; the symbol product lies over
    u^k v^(ki - C(k,2)), and the row over den u^k v^(kI - C(k,2)), I the
    top x-degree (at least k)."""
    s, u, v = _symbols(op, q, p.x_degree())
    nums, den = p.row
    top = max(p.x_degree(), k)
    return _raw(_canon({(i - k, j): prod(s[i - k + 1 : i + 1], start=c) * v ** (k * (top - i))
                        for (i, j), c in nums.items() if i >= k},
                       den * u**k * v ** (k * top - k * (k - 1) // 2)))


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

    With [n;k] = b_k / qd^(k(n-k)) (``_qbinom_rows``) the theta weight is
    b_k / qn^(k(n-k)); the n + 1 products are summed as one row.
    """
    if n < 0:
        raise ValueError("leibniz needs n >= 0")
    q = as_fraction(q)
    binom = _qbinom_rows(q, n)[n]
    r, sx = (q.denominator, q) if op == "dq" else (q.numerator, 1 / q)
    pairs = []
    fk = f
    for k in range(n + 1):
        gk, gd = op_power(op, g, n - k, q).shift(sx**k, 1).row
        pairs.append((fk.row, ({e: c * binom[k] for e, c in gk.items()}, gd * r ** (k * (n - k)))))
        if k < n:
            fk = op_power(op, fk, 1, q)
    return _raw(_canon(*_dot(pairs)))


class OperatorSpec(_Record):
    """Which operator series to apply (T or E) and with which parameters."""

    __slots__ = ("kind", "params")

    def _post_init(self):
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
    z, r = (1, 1) if spec.kind == "T" else (-1, q)
    deg = max(p.x_degree(), 0)
    w = _poch_row((ps.a, ps.b, ps.c), {"q": q, "d": ps.d, "e": ps.e}, q, deg, z=z, r=r)
    s, u, v = _symbols("dq" if spec.kind == "T" else "theta", q, deg)
    # the row lies over den u^deg v^E wd, E = C(deg+1, 2) the largest
    # ni - C(n,2) and wd the last weight denominator, which each
    # weight denominator divides
    E, wd = deg * (deg + 1) // 2, w[deg][1]
    nums, den = p.row
    # only the powers of v that the terms read
    up = [u**m for m in range(deg + 1)]
    vp = _powers(v, [E] + [E - n * i + n * (n - 1) // 2
                           for i in {i for i, _ in nums} for n in range(i + 1)])
    ws = [c * (wd // d) for c, d in w]
    acc: dict[tuple[int, int], int] = {}
    for (i, j), c in nums.items():
        # w_n y^n op^n x^i = w_n prod_(m=i-n+1..i) sym(m) x^(i-n) y^n,
        # the symbol product over u^n v^(ni - C(n,2))
        for n in range(i + 1):
            e = (i - n, j + n)
            acc[e] = acc.get(e, 0) + c * ws[n] * up[deg - n] * vp[E - n * i + n * (n - 1) // 2]
            c *= s[i - n]
    return _raw(_canon(acc, den * up[deg] * vp[E] * wd))
