"""The q-difference operators on the variable x and the five-parameter
operator series built from them.

    D f(x)     = (f(x) - f(qx)) / x
    theta f(x) = (f(x/q) - f(x)) / (x/q)

Both act on x only; y is an inert symbol.  Each sends a monomial to a
scalar, its symbol, times one monomial:

    D x^n     = (1 - q^n) x^(n-1)
    theta x^n = (q^(1-n) - q) x^(n-1)

so D^k and theta^k are one pass over the terms (``op_power``): x^n goes
to the product of the symbols for m = n-k+1..n times x^(n-k), and to 0
when n < k.  The symbols are written once, on integers, by ``_symbols``,
which ``op_power``, ``leibniz`` and ``apply_operator`` all read.

The operator series

    T(a,b,c,d,e, y*D)     = sum_n (a,b,c;q)_n / ((q,d,e;q)_n) (y D)^n
    E(a,b,c,d,e, y*theta) = sum_n (-1)^n q^C(n,2) (a,b,c;q)_n / ((q,d,e;q)_n) (y theta)^n

terminate on polynomials because the n-th power annihilates x-degrees
below n; no truncation cap is involved.  Their weights are those of the
asc_new_phi and asc_new_psi generating functions (``polys._gf_row``).  Everything here runs on the
exact integer row a Poly holds (``core.Row``), so no Fraction is built
per term, and no row is reduced: a result compared with another Poly
never is, and one read further is reduced by the Poly, once.

Their traffic is the library path: ``apply_operator`` on x^n for one
parameter set with n rising (phi_n = T{x^n}, psi_n = E{x^n}), and
``leibniz`` checked against ``op_power`` on the product f g.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import prod
from operator import mul

from .core import ParamSet, Poly, _dot, _poly, _Record, as_fraction
from .polys import _gf_row
from .qkernel import _qbinom_rows


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


def op_power(op: str, p: Poly, k: int, q) -> Poly:
    """k-fold application of D or theta, in one pass over the terms.

    x^i y^j with i >= k goes to prod_(m=i-k+1..i) sym(m) x^(i-k) y^j, lower
    x-degrees vanish.  The map is one-to-one on monomials, so no two terms
    meet; the symbol product lies over u^k v^(ki - C(k,2)), and the row
    over den u^k v^(kI - C(k,2)), I the top x-degree (at least k)."""
    if k < 0:
        raise ValueError("op_power needs k >= 0")
    s, u, v = _symbols(op, q, p.x_degree())
    nums, den = p._held
    top = max(p.x_degree(), k)
    return _poly(({(i - k, j): prod(s[i - k + 1 : i + 1], start=c) * v ** (k * (top - i))
                   for (i, j), c in nums.items() if i >= k},
                  den * u**k * v ** (k * top - k * (k - 1) // 2)))


def leibniz(op: str, f: Poly, g: Poly, n: int, q) -> Poly:
    """n-th power of D or theta on a product, by the Leibniz expansion.

    The compact forms place the inner difference operator on the composite
    g(x q^k) resp. g(x q^-k); differentiating the composite produces a
    chain-rule power q^(+-k(n-k)) which is folded in here, leaving

        D^n(fg)     = sum_k [n;k]            D^k f     * (D^(n-k) g)(x q^k)
        theta^n(fg) = sum_k [n;k] q^(k(k-n)) theta^k f * (theta^(n-k) g)(x q^-k)

    One pass on integer rows with one symbol table.  With
    op x^m = s_m / (u v^m) x^(m-1) (``_symbols``), I and J the top
    x-degrees of f and g and S(i, l) the product of s_m for
    m = i-l+1..i:
      * op^k f grows as a row over fden u^k v^(kI - C(k,2)), its term from
        x^i y^j carrying S(i, k) v^(k(I - i));
      * x -> x q^(+-k) multiplies x^e by (w/v)^(ke), w = qn for D and qd
        for theta, so it folds into the symbol product of op^(n-k) g;
      * [n;k] = b_k / qd^(k(n-k)) (``_qbinom_rows``) and the theta weight
        is b_k / qn^(k(n-k)), both b_k / v^(k(n-k)); the weighted,
        shifted op^(l) g, l = n - k, then lies over gden u^l v^(nJ - C(l,2)),
        its term from x^i y^j carrying b_k S(i, l) w^(k(i-l)) v^(n(J - i)).
    The n + 1 products are summed as one row (``_dot``).
    """
    if n < 0:
        raise ValueError("leibniz needs n >= 0")
    q = as_fraction(q)
    I, J = max(f.x_degree(), 0), max(g.x_degree(), 0)
    s, u, v = _symbols(op, q, max(I, J))
    vp = list(accumulate(repeat(v, max(I, n * J)), mul, initial=1))
    wp = list(accumulate(repeat(q.numerator if op == "dq" else q.denominator, n * J), mul,
                         initial=1))
    binom = _qbinom_rows(q, n)[n]
    (fk, den), F = f._held, []
    for k in range(n + 1):
        if not fk:
            break
        F.append((fk, den))
        fk = {(e - 1, j): c * s[e] * vp[I - e - k] for (e, j), c in fk.items() if e}
        den *= u * vp[I - k]
    gnums, gden = g._held
    terms = [(i, j, c * vp[n * (J - i)]) for (i, j), c in gnums.items()]
    pairs = []
    for l in range(n + 1):
        k = n - l
        if k < len(F) and terms:
            pairs.append((F[k], ({(i - l, j): binom[k] * c * wp[k * (i - l)] for i, j, c in terms},
                                 gden * u**l * v ** (n * J - l * (l - 1) // 2))))
        terms = [(i, j, c * s[i - l]) for i, j, c in terms if i > l]
    return _poly(_dot(pairs))


class OperatorSpec(_Record):
    """Which operator series to apply (T or E) and with which parameters."""

    __slots__ = ("kind", "params")

    def _post_init(self):
        if self.kind not in ("T", "E"):
            raise ValueError("operator kind must be 'T' or 'E'")
        if not isinstance(self.params, ParamSet):
            raise TypeError("OperatorSpec params must be a ParamSet, got "
                            f"{type(self.params).__name__}")


def apply_operator(spec: OperatorSpec, p: Poly) -> Poly:
    """Apply T(a,b,c,d,e, y D) or E(a,b,c,d,e, y theta) to a polynomial.

    The sum runs until the operator power annihilates the input, which
    happens after its x-degree, so the result is exact.  The n-th term
    multiplies in y^n and the scalar weight w_n = (a,b,c;q)_n / ((q,d,e;q)_n),
    with the E-series carrying the extra (-1)^n q^C(n,2) (``polys._gf_row``).

    Its traffic is one parameter set with x^n, n rising, so the weight row
    grows by one term a call, and the call builds only the
    symbols s_0..s_d and the powers of v: one pass over n carries each
    monomial's running term.  The row lies
    over den u^d v^C(d+1,2) wd_d (op x^m = s_m / (u v^m) x^(m-1),
    ``_symbols``; d the x-degree, wd_d the last weight denominator, which
    each weight denominator divides).  Over it the term n of x^i y^j has
    the numerator c wn_n (wd_d/wd_n) u^(d-n) v^(C(d+1,2) - ni + C(n,2))
    times s_i .. s_(i-n+1), so term n + 1 is term n times the small
    factors fn s_(i-n), divided exactly by fd u v^(i-n), where
    fn/fd = w_(n+1)/w_n is a step of the weight chain, read off the row
    by two small-quotient divisions.  Once a weight numerator vanishes,
    every later term does.
    """
    dq = spec.kind == "T"
    deg = max(p.x_degree(), 0)
    s, u, v = _symbols("dq" if dq else "theta", spec.params.q, deg)
    vp = list(accumulate(repeat(v, deg), mul, initial=1))
    w = _gf_row("asc_new_phi" if dq else "asc_new_psi", spec.params, deg)
    nums, den = p._held
    top = w[deg][1] * u**deg * v ** (deg * (deg + 1) // 2)
    live = [(i, j, c * top) for (i, j), c in nums.items()]  # (i - n, j + n, numerator)
    acc: dict[tuple[int, int], int] = {}
    # a zero weight after the last one ends the pass
    for (wn, wd), (wn1, wd1) in zip(w, w[1:] + ((0, 1),)):
        for i, j, c in live:
            t = acc.get((i, j))
            acc[i, j] = c if t is None else t + c
        if not wn1:
            break
        fn, fd = wn1 // wn, wd1 // wd * u
        live = [(i - 1, j + 1, c * fn * s[i] // (fd * vp[i])) for i, j, c in live if i]
    return _poly((acc, den * top))
