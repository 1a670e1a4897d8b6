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
asc_new_phi and asc_new_psi generating functions (``polys._gf_row``).
They are linear, so a polynomial's image is a sum of the images of its
monomials x^m, which are kept per parameter set as a fourth row prefix
beside the weight rows, the q-binomial triangles and the family rows
(``_op_rows``, ``_OP_ROWS``); ``_clear_row_memos`` empties all four.
Everything here runs on the exact integer row a Poly holds
(``core.Row``), so no Fraction is built per term, and no row is reduced:
a result compared with another Poly never is, and one read further is
reduced by the Poly, once.

Their traffic is the library path: ``apply_operator`` on x^n for one
parameter set with n rising (phi_n = T{x^n}, psi_n = E{x^n}), and
``leibniz`` checked against ``op_power`` on the product f g.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import prod
from operator import mul

from .core import ParamSet, Poly, Row, _UNIT, _dot, _poly, _Record, as_fraction
from .polys import _FAMILY_ROWS, _gf_request
from .qkernel import _POCH_ROWS, _QBINOM_ROWS, _poch_row, _qbinom_rows, _ratio, _remember

# (kind, q, a..e) -> ((T{x^0}, ..., T{x^m}) or E's, state after row m)
_OP_ROWS: dict = {}
# every row memo: the weight rows, the q-binomial triangles, the family
# prefixes and the operator's monomial images
_ROW_MEMOS = (_POCH_ROWS, _QBINOM_ROWS, _FAMILY_ROWS, _OP_ROWS)


def _clear_row_memos() -> None:
    """Empty every row memo, so that the next request of each builds cold."""
    for memo in _ROW_MEMOS:
        memo.clear()


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


def _op_rows(kind: str, ps: ParamSet, N: int) -> tuple[Row, ...]:
    """(T{x^m} for m = 0..N), or E's, as shared, unreduced rows, kept per
    kind and q, a..e as one grow-only prefix entry, (rows, state), replaced
    whole, by the rule of every row memo.

    With op x^m = s_m / (u v^m) x^(m-1) (``_symbols``) and wn_m/wd_m the
    weights (``polys._gf_row``), row m lies over D_m = wd_m u^m v^C(m+1,2),
    and its term x^(m-k) y^k carries wn_k and s_(m-k+1) .. s_m.  So row m
    is row m - 1 with x^i y^k moved to x^(i+1) y^k, times r_m u v^(i+1) s_m
    and divided exactly by s_(i+1) (r_m = wd_m/wd_(m-1)), plus its new term
    x^0 y^m, wn_m s_1 .. s_m, skipped once the weight numerator vanishes.
    The state holds the weight's request with its ``_poch_row`` key, made
    once, the product s_1 .. s_m and one symbol table with the powers of
    v, built to twice the degree asked for whenever it is short; a pole
    raises before any row is kept.  Only the weight row and the symbols
    are read, never a q-binomial or family row, so comparing T{x^n} with
    phi_n compares two routes.

    Its traffic, at seed 42: one exact-structure pass makes 102
    ``apply_operator`` calls, each on x^n one degree above the last call
    on its parameters (96 extend the prefix by one row, 6 read row 0);
    exact-o12 makes none."""
    key = (kind, *map(_ratio, (ps.q, ps.a, ps.b, ps.c, ps.d, ps.e)))
    rows, state = _OP_ROWS.get(key) or ((_UNIT,), None)
    if N < len(rows):
        return rows
    if state is None:
        state = (_gf_request("asc_new_phi" if kind == "T" else "asc_new_psi", ps),
                 1, [0], 1, 1, [1])
    weights, S, s, u, v, vp = state
    if N >= len(s):
        s, u, v = _symbols("dq" if kind == "T" else "theta", ps.q, 2 * N)
        vp = list(accumulate(repeat(v, 2 * N), mul, initial=1))
    nums, dens, q, z, r, wkey = weights
    w = _poch_row(nums, dens, q, N, z, r, key=wkey)
    (prev, den), new = rows[-1], []
    for m in range(len(rows), N + 1):
        step = w[m][1] // w[m - 1][1] * u
        f, S = step * s[m], S * s[m]
        prev = {(i + 1, k): c * (f * vp[i + 1]) // s[i + 1] for (i, k), c in prev.items()}
        if w[m][0]:
            prev[0, m] = w[m][0] * S
        den *= step * vp[m]
        new.append((prev, den))
    rows += tuple(new)
    _remember(_OP_ROWS, key, (rows, (weights, S, s, u, v, vp)))
    return rows


def apply_operator(spec: OperatorSpec, p: Poly) -> Poly:
    """Apply T(a,b,c,d,e, y D) or E(a,b,c,d,e, y theta) to a polynomial.

    The sum runs until the operator power annihilates the input, which
    happens after its x-degree, so the result is exact.  The n-th term
    multiplies in y^n and the scalar weight w_n = (a,b,c;q)_n / ((q,d,e;q)_n),
    with the E-series carrying the extra (-1)^n q^C(n,2) (``polys._gf_row``).

    T and E are linear, so T{sum c_ij x^i y^j} = sum c_ij y^j T{x^i}: the
    images of the monomials x^0..x^d (d the x-degree) are read off one
    prefix (``_op_rows``), each row i over D_i scaled by c_ij (D_d/D_i),
    exact as D_i divides D_d, and summed over den D_d (den the input's)
    by one ``_dot``.  The traffic is one parameter set with x^n, n rising
    (phi_n = T{x^n}, psi_n = E{x^n}), so a call extends the prefix by at
    most one row, and on x^n the result is the prefix's own row, shared as
    the family functions share theirs: no Poly writes to a held row, and
    its public views are read-only.
    """
    nums, den = p._held
    deg = max(p.x_degree(), 0)
    rows = _op_rows(spec.kind, spec.params, deg)
    if nums == {(deg, 0): den}:  # x^n
        return _poly(rows[deg])
    return _poly(_dot((rows[i], ({(0, j): c}, den)) for (i, j), c in nums.items()))
