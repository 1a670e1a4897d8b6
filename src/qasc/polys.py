"""Polynomial families: Cauchy products, Rogers-Szego polynomials, and the
Al-Salam-Carlitz families (classical one-parameter, three-parameter, and
the five-parameter pair tied to the T/E operator series).

All functions accept exact rationals or Poly values for the variable slots
(the symbols x, y by default) and return a Poly.

Every family is one sum  sum_k [n;k] w_k x^(n-k) y^k  whose weight w_k is
q-hypergeometric in k: (nums;q)_k / (dens;q)_k times a twist z^k r^C(k,2),
as its row of ``_FAMILIES`` says, which every family decision reads (its
generating function's weight ``_gf_row`` too); the psi families'
n-dependent factor q^(k(k-n)) is folded into [n;k].  So one weight row
serves the whole sequence p_0..p_N, the [n;k] come from one integer
q-binomial triangle, and each polynomial is one integer row (``core.Row``),
one large integer product per term.  The rows p_0, p_1, ... of a family
are kept per parameters and x, y as one grow-only prefix
(``_family_rows``); the per-n functions and ``PolyFamily`` index or slice
it.  A monomial or scalar x, y goes into each term as it is summed
(``qkernel._mono`` reads it), and scalar x, y make each row one integer
sum; a polynomial one is put into the rows over the symbols by the one
substitution, ``core._substituted``.  The triangle has no division, so
q = 1 gives the classical limits, e.g. cauchy_pn at q = 1 is (x - y)^n.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (ONE, ZERO, ParamSet, Poly, Row, X, Y, _UNIT, _ZROW, _exact, _poly, _Record,
                   _row, _substituted, as_fraction)
from .qkernel import _mono, _poch_key, _poch_row, _qbinom_rows, _ratio, _remember, _step

# (family, q, a..e, x, y) -> ((row_0, ..., row_m), state after row m), the
# state None for rows substituted from those over the symbols
_FAMILY_ROWS: dict = {}


# each family's sum_k [n;k] w_k x^(n-k) y^k as one row: its weight
# (nums;q)_k / (dens;q)_k z^k r^C(k,2) over the base q^base (nums, dens the
# letters of the a..e it reads, so a pole names c, d or e; r and the base
# as powers of q), whether the psi twist q^(k(k-n)) applies, and the slots
# it sums as x^(n-k) y^k: "xy", "yx" or "x" (x alone, the classical families)
class _Family(_Record):
    __slots__ = ("nums", "dens", "z", "r", "base", "psi", "sums")


_FAMILIES = {
    "cauchy": _Family("", "", -1, 1, 1, False, "xy"),
    "rogers_szego": _Family("", "", 1, 0, 1, False, "yx"),
    "asc_classical_phi": _Family("a", "", 1, 0, 1, False, "x"),
    # (a q^(1-k);q)_k = (a;1/q)_k
    "asc_classical_psi": _Family("a", "", 1, 0, -1, True, "x"),
    "asc_gen3_phi": _Family("ab", "c", 1, 0, 1, False, "yx"),
    # (-1)^k q^(C(k+1,2) - nk) = (-1)^k q^(-C(k,2)) q^(k(k-n))
    "asc_gen3_psi": _Family("ab", "c", -1, -1, 1, True, "yx"),
    "asc_new_phi": _Family("abc", "de", 1, 0, 1, False, "xy"),
    "asc_new_psi": _Family("abc", "de", -1, 0, 1, True, "xy"),
}


def _slots(family: str, x, y) -> tuple:
    """The family's x, y as the X, Y of its sum_k [n;k] w_k X^(n-k) Y^k."""
    return {"xy": (x, y), "yx": (y, x), "x": (ONE, x)}[_FAMILIES[family].sums]


def _gf_request(family: str, ps: ParamSet) -> tuple:
    """The ``_poch_row`` request (nums, dens, q, z, r, key) of ``_gf_row``,
    held by a caller that extends the row again and again."""
    f = _FAMILIES[family]
    if f.base != 1:
        raise ValueError(f"{family} sums over the base 1/q; its generating function has no row")
    q, m = ps.q, f.r + f.psi
    nums, dens = [getattr(ps, p) for p in f.nums], {p: getattr(ps, p) for p in "q" + f.dens}
    r = q if m == 1 else q**m if m else ONE
    return nums, dens, q, f.z, r, _poch_key(nums, dens, q, f.z, r)


def _gf_row(family: str, ps: ParamSet, N: int) -> tuple[tuple[int, int], ...]:
    """w_k/(q;q)_k, times q^C(k,2) under psi, for k <= N at the letters of
    ps: the weight of the family's generating function (a pole names q
    first) and of the operator series, phi_n = T{x^n} and psi_n = E{x^n}."""
    nums, dens, q, z, r, key = _gf_request(family, ps)
    return _poch_row(nums, dens, q, N, z, r, key=key)


def _rows(family: str, ps: ParamSet, N: int, x=X, y=Y) -> tuple[Row, ...]:
    """``_family_rows`` of the family at the letters its row declares, read from ps."""
    f = _FAMILIES[family]
    return _family_rows(family, N, ps.q, **{p: getattr(ps, p) for p in f.nums + f.dens}, x=x, y=y)


def _asc_start(family: str, q, a, b, c, d, e, x, y) -> tuple:
    """The state of a family's ``_asc_sum`` after row 0 (p_0 = 1, w_0 = 1),
    for a monomial or scalar x, y: the ``_poch_row`` request of its weight
    (its ``_FAMILIES`` row) with its key, the constants read off q, x and y
    (``qkernel._mono``), read once, and where a row's terms land."""
    q = as_fraction(q)
    f = _FAMILIES[family]
    given = {"a": a, "b": b, "c": c, "d": d, "e": e}
    nums, dens = tuple(map(given.get, f.nums)), {p: given[p] for p in f.dens}
    wq, r = (q if m == 1 else ONE if m == 0 else 1 / q for m in (f.base, f.r))
    weights = (nums, dens, wq, f.z, r, _poch_key(nums, dens, wq, f.z, r))
    x, y = _slots(family, x, y)
    ((ix, jx), cx, xd), ((iy, jy), cy, yd) = _mono(x), _mono(y)
    qb = q.numerator if f.psi else q.denominator
    # the symbols X, Y ("xy") or Y, X ("yx") put term k at its key alone,
    # but for q = -1, where [n;k] can vanish, they take the general path,
    # which drops zero terms; scalars ("scalar") put every term at x^0 y^0
    layout = None
    if (cx, xd, cy, yd) == (1, 1, 1, 1) and {(ix, jx), (iy, jy)} == {(1, 0), (0, 1)} and q != -1:
        layout = "xy" if ix else "yx"
    elif ix == jx == iy == jy == 0:
        layout = "scalar"
    # x^(n-k) y^k over (xd yd)^n: (cx yd)^(n-k) (xd cy)^k
    return [1], 1, [1], [1], [1], (q, weights, qb, cx * yd, xd * cy, ix, jx, iy, jy, xd * yd,
                                   layout)


def _asc_sum(lo: int, N: int, state: tuple) -> tuple[list[Row], tuple]:
    """Rows lo..N of sum_k [n;k] w_k x^(n-k) y^k, unreduced, and the state
    that extends them; under psi each term also carries q^(k(k-n)).

    Its traffic, at seed 42: one exact-o12 pass (13 checks x 5 trials)
    reads whole prefixes, 80 calls for 975 rows, 55 (675 rows) over the
    symbols and 25 (300) over scalars; one exact-structure pass, whose
    operator checks against T and E extend a prefix as n rises, makes 102
    calls, all over the symbols, 96 of them for one row.  The general path
    (monomials with coefficients, the symbols at q = -1) serves only
    library callers and ``qasc eval``.  So state, from ``_asc_start`` or
    the last call, holds all a row needs but its weight and its triangle
    row: the weight numerators ws of k < lo over wd = wd_(lo-1), the
    powers x^m, y^m and qb^(floor(m^2/4)) for m < lo, and the constants.
    A row costs one ``_poch_row`` step, one ``qkernel._step`` of ws
    along the weight chain, one product per power list and one triangle
    row.
    [n;k] = b(n,k)/qd^(k(n-k)) (``_qbinom_rows``), which q^(k(k-n)) turns
    into b(n,k)/qn^(k(n-k)), so row n lies over wd_n qb^E xd^n yd^n, qb
    the qd (qn under psi) and E = floor(n^2/4) the largest k(n-k); term k
    then carries qb^(E - k(n-k)) = qb^(floor((n-2k)^2/4)), and is one
    large product: its weight numerator times the small factors [n;k],
    the q power and the x, y powers.  For the symbols themselves (x, y =
    X, Y, or Y, X as the swapped families sum them) a term has no x, y
    powers and is written straight to its key; for scalar x, y the row is
    one integer sum at x^0 y^0.  A row whose terms cancel is the zero
    row, and no cancelled key is kept.
    """
    ws, wd, xs, ys, qs, consts = state
    q, (nums, dens, wq, z, r, key), qb, fx, fy, ix, jx, iy, jy, dxy, layout = consts
    w = _poch_row(nums, dens, wq, N, z, r, key=key)
    binom = _qbinom_rows(q, N)
    out = []
    # new lists: those a state holds are never changed
    xs, ys, qs = xs[:], ys[:], qs[:]
    for n in range(lo, N + 1):
        wn, d = w[n]
        ws, wd = _step(ws, wd, wn, d), d
        xs.append(xs[-1] * fx)
        ys.append(ys[-1] * fy)
        qs.append(qs[-1] * qb ** (n // 2))
        if layout == "xy":  # term k is x^(n-k) y^k
            out.append(({(n - k, k): ws[k] * (b * qs[abs(n - 2 * k)])
                         for k, b in enumerate(binom[n]) if ws[k]}, wd * qs[n]))
            continue
        if layout == "yx":  # term k is x^k y^(n-k)
            out.append(({(k, n - k): ws[k] * (b * qs[abs(n - 2 * k)])
                         for k, b in enumerate(binom[n]) if ws[k]}, wd * qs[n]))
            continue
        if layout == "scalar":  # every term is at x^0 y^0
            c = sum(wk * (b * qs[abs(n - 2 * k)] * xs[n - k] * ys[k])
                    for k, (wk, b) in enumerate(zip(ws, binom[n])) if wk)
            out.append(({(0, 0): c}, wd * qs[n] * dxy**n) if c else _ZROW)
            continue
        terms: dict[tuple[int, int], int] = {}
        for k, b in enumerate(binom[n]):
            if ws[k]:
                c = ws[k] * (b * qs[abs(n - 2 * k)] * xs[n - k] * ys[k])
                e = (ix * (n - k) + iy * k, jx * (n - k) + jy * k)
                s = terms.get(e)
                terms[e] = c if s is None else s + c
        out.append(_exact(terms, wd * qs[n] * dxy**n))
    return out, (ws, wd, xs, ys, qs, consts)


def _family_rows(family: str, N: int, q, a=ZERO, b=ZERO, c=ZERO, d=ZERO, e=ZERO,
                 x=X, y=Y) -> tuple[Row, ...]:
    """(p_n(x, y) for n = 0..N) of one family as shared, unreduced rows.

    They are kept per family, parameters and x, y (the classical families
    read x only and refuse any y but the symbol) as one grow-only prefix
    entry, (rows, state), replaced whole: a shorter request is a slice, and a
    longer one extends the rows from the state (``_asc_sum``), so an
    extension by one row reads one weight step (``_poch_row``) and one
    triangle row (``_qbinom_rows``) and sets up nothing else.  The traffic
    it serves is one parameter set with n rising (the per-n functions, the
    operator checks against T and E) and whole sequences (the generating
    functions and basis expansions).  A polynomial x or y (not a monomial)
    reads the rows over the symbols and substitutes them; its entry holds
    no state."""
    if not isinstance(x, Poly):
        x = as_fraction(x)
    if not isinstance(y, Poly):
        y = as_fraction(y)
    if _FAMILIES[family].sums == "x" and y != Y:
        raise ValueError(f"{family} reads x only; y must be the symbol y")
    key = (family, _ratio(q), _ratio(a), _ratio(b), _ratio(c), _ratio(d), _ratio(e), x, y)
    rows, state = _FAMILY_ROWS.get(key) or ((_UNIT,), None)  # p_0 = 1
    if N < len(rows):
        return rows if N + 1 == len(rows) else rows[: N + 1]
    if state is None and (len(_row(x)[0]) > 1 or len(_row(y)[0]) > 1):
        new = _substituted(_family_rows(family, N, q, a, b, c, d, e)[len(rows):], x, y)
    else:
        new, state = _asc_sum(len(rows), N, state or _asc_start(family, q, a, b, c, d, e, x, y))
    return _remember(_FAMILY_ROWS, key, (rows + tuple(new), state))[0]


def _family_poly(family: str, n: int, q, a=ZERO, b=ZERO, c=ZERO, d=ZERO, e=ZERO,
                 x=X, y=Y) -> Poly:
    """p_n(x, y) of one family, on the row its prefix holds: no Poly
    writes to a held row, and its public views are read-only."""
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


class PolyFamily(_Record):
    """A named polynomial family bound to one parameter assignment.

    Validates that params is a ``ParamSet`` whose parameters beyond those
    the family's ``_FAMILIES`` row reads are zero, so a mistaken draw
    cannot silently evaluate the wrong family; the classical families,
    which read x only, refuse a y other than the symbol (``_family_rows``).
    """

    __slots__ = ("family", "params")

    def _post_init(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not isinstance(self.params, ParamSet):
            raise TypeError("PolyFamily params must be a ParamSet, got "
                            f"{type(self.params).__name__}")
        f = _FAMILIES[self.family]
        used = tuple(f.nums + f.dens)
        for name in ("a", "b", "c", "d", "e"):
            if name not in used and self.params.get(name) != 0:
                raise ValueError(f"{self.family} takes parameters {used or '()'}; "
                                 f"{name} must be 0")

    def sequence(self, N: int, x=X, y=Y) -> list[Poly]:
        """[p_n(x, y) for n = 0..N], on the rows of the family's prefix."""
        return list(map(_poly, _rows(self.family, self.params, N, x, y)))

    def evaluate(self, n: int, x=X, y=Y):
        ps = self.params
        return _family_poly(self.family, n, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)
