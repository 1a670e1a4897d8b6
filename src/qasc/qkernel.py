"""q-shifted factorials, q-binomial coefficients, truncated basic
hypergeometric series, and the Euler product expansions.

Conventions:

    (a;q)_0 = 1,   (a;q)_n = (1-a)(1-aq)...(1-aq^{n-1})

    [n;k]_q = (q;q)_n / ((q;q)_k (q;q)_{n-k})

    rPhis(a_1..a_r; b_1..b_s; q, z)
        = sum_n [(-1)^n q^C(n,2)]^(1+s-r)
                * (a_1..a_r;q)_n / ((b_1..b_s;q)_n (q;q)_n) * z^n

Every series and weight row here is a q-hypergeometric term sequence
with the ratio prod(1 - a q^k) / prod(1 - b q^k) * z r^k.  It is written
twice: ``term_stream`` runs it on any field and is the loop of the
mpmath side; ``_poch_row`` runs it on integers as (num, den) pairs, one
small gcd per step, keeps its exact rows and is tested against
``term_stream`` on Fractions.  Its rows feed the integer
rows of TSeries (see ``core.Row``) directly: ``_euler`` places one exact
term per power of t, ``_step`` moves the numerators of terms so far to
the next denominator of such a row (``polys._asc_sum`` one row at a
time), and ``_walk`` takes those steps along any (num, den) row, moving
to the lcm where a denominator is no multiple of the last.  ID-5 to ID-8
read ``_walk``, and so does ``_chain_product``, the builders' one
product: it writes the product of the series of two such rows (an rPhis,
an Euler row, the scalar rows of an earlier product) times powers of two
monomials, row by row, as exact rows, from one walk per factor.
``_hyper_row`` is the rPhis row of plain parameter tuples, which the
identity builders call directly; ``PhiSpec`` and ``hyper_series`` wrap
it for library callers.
It, ``PhiSpec`` and ``numeric.hyper_num`` take their shape from ``_phi_shape``.
``_qbinom_rows`` builds the q-binomial triangle on integers.  It and
``_poch_row`` memoize each prefix of rows with the loop state after its
last row, so a longer request costs only its new rows.  ``qpoch``,
``qpoch_multi`` and ``qbinom`` stay as direct products, the reference of
the tests.

A denominator parameter equal to 0 is allowed, with (0;q)_n = 1; a
denominator parameter of the form q^(-j) makes a term blow up and raises
PoleError naming the offending term.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .core import ONE, Poly, TSeries, _ZROW, _exact, _lcm, _row, _series, as_fraction


class PoleError(ArithmeticError):
    """A q-shifted factorial in a denominator vanished."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def qpoch(a, q, n: int) -> Fraction:
    """q-shifted factorial (a;q)_n for exact rational a, q."""
    a = as_fraction(a)
    q = as_fraction(q)
    if n < 0:
        raise ValueError("qpoch needs n >= 0")
    out = ONE
    p = ONE
    for _ in range(n):
        out *= 1 - a * p
        p *= q
    return out


def qpoch_multi(params: Sequence, q, n: int) -> Fraction:
    """Product (a_1, ..., a_m; q)_n over a parameter list."""
    out = ONE
    for a in params:
        out *= qpoch(a, q, n)
    return out


def qbinom(n: int, k: int, q) -> Fraction:
    """Gaussian binomial coefficient [n;k]_q; 0 when k is out of range.

    At q = 1 and q = -1, where (q;q)_k can vanish, the value is the limit,
    read from the integer triangle (binomials at q = 1)."""
    if k < 0 or k > n:
        return Fraction(0)
    q = as_fraction(q)
    # (q^{n-k+1};q)_k / (q;q)_k, computed as a ratio of short products
    num = ONE
    den = ONE
    p = q ** (n - k)
    r = ONE
    for _ in range(k):
        p *= q
        r *= q
        num *= 1 - p
        den *= 1 - r
    if not den:
        return Fraction(_qbinom_rows(q, n)[n][k], q.denominator ** (k * (n - k)))
    return num / den


def term_stream(nums: Sequence, dens: Mapping, q, z, r, one) -> Iterator:
    """Yield (nums;q)_k / (dens;q)_k * z^k * r^C(k,2) for k = 0, 1, ...

    The q-hypergeometric term ratio prod(1 - a q^k) / prod(1 - b q^k) * z r^k
    on any field (Fraction, mpf, mpc): the loop of the numeric series, and
    on Fractions the reference that ``_poch_row`` is tested against.  one
    is the k = 0 term.  The powers of q and each denominator product start
    from q**0 instead, so a complex one or z leaves real denominators
    real.  dens maps each denominator parameter's name to its value; the
    first k at which (dens;q)_k vanishes raises PoleError(index=k) naming
    them, even past a vanished numerator.
    """
    den_values = list(dens.values())
    unit = q**0
    term, qk, step = one, unit, z  # term k, q^k, z r^k
    k = 0
    while True:
        yield term
        k += 1
        num = step
        for a in nums:
            num *= 1 - a * qk
        den = unit
        for b in den_values:
            den *= 1 - b * qk
        if den == 0:
            raise _pole(dens, k)
        term = term * num / den
        qk *= q
        step *= r


def _pole(dens: Mapping, k: int) -> PoleError:
    given = ", ".join(f"{name}={b}" for name, b in dens.items())
    return PoleError(f"({','.join(dens)};q)_k vanished at k={k} for {given}", index=k)


# Row memos, cleared when full, keyed on ints (a Fraction hashes slowly).
# Entries are (rows, state) tuples, replaced whole and never changed in
# place: a thread race only recomputes.
_MEMO_SIZE = 16
_POCH_ROWS: dict = {}
_QBINOM_ROWS: dict = {}


def _remember(memo: dict, key, value):
    if len(memo) >= _MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


def _ratio(v) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, as plain ints."""
    if type(v) is Fraction:
        return v.as_integer_ratio()
    return (v, 1) if type(v) is int else as_fraction(v).as_integer_ratio()


def _poch_key(nums: Sequence, dens: Mapping[str, Fraction], q, z=ONE, r=ONE) -> tuple:
    """The ``_poch_row`` memo key of a weight row: its parameters as integer
    pairs, (nums, dens, qn, qd, zn, zd, rn, rd)."""
    return (tuple(map(_ratio, nums)), tuple(map(_ratio, dens.values())),
            *_ratio(q), *_ratio(z), *_ratio(r))


def _poch_row(
    nums: Sequence, dens: Mapping[str, Fraction], q, n: int, z=ONE, r=ONE, *, key=None
) -> tuple[tuple[int, int], ...]:
    """((num, den) for k = 0..n) with num/den = (nums;q)_k / (dens;q)_k *
    z^k * r^C(k,2): the first n + 1 terms of term_stream on Fractions,
    on integers.  Every weight row is read from here, and nothing else
    steps a weight ratio.

    With q = qn/qd and a = an/ad the factor 1 - a q^k is
    (ad qd^k - an qn^k) / (ad qd^k); the ad and bd constants go into the
    step z r^k and the qd^k powers cancel down to qd^(k(#dens - #nums)).
    Each step divides the small integers of its ratio by their gcd and
    multiplies them into the running numerator and denominator, so den > 0,
    each den divides the next (see ``_common_den``) and the two quotients
    of a step are coprime; no gcd ever meets the running term.

    Memoized per parameters as integer pairs, as (row, state): the loop
    state after the last term, (z r^m with the ad, bd constants, qn^m,
    qd^m, qd^(m |#dens - #nums|)).  A shorter request is a slice, and a
    longer one resumes from the state, so an extension costs its new
    steps.  A pole is not kept: the entry stops short of it, and the
    resumed step finds it again.  A caller that extends one row again and
    again (a family prefix) passes the key of its request (``_poch_key``),
    made once.
    """
    if key is None:
        key = _poch_key(nums, dens, q, z, r)
    top, bottom, qn, qd, zn, zd, rn, rd = key
    row, state = _POCH_ROWS.get(key) or (
        ((1, 1),), (zn * prod(d for _, d in bottom), zd * prod(d for _, d in top), 1, 1, 1))
    if n >= len(row):
        (tn, td), new = row[-1], []
        sn, sd, qnk, qdk, ek = state
        excess = len(bottom) - len(top)
        qd_step = qd ** abs(excess)
        for k in range(len(row), n + 1):
            fn, fd = sn, sd
            for an, ad in top:
                fn *= ad * qdk - an * qnk
            for bn, bd in bottom:
                fd *= bd * qdk - bn * qnk
            if not fd:
                _remember(_POCH_ROWS, key, (row + tuple(new), (sn, sd, qnk, qdk, ek)))
                raise _pole({name: Fraction(*b) for name, b in zip(dens, bottom)}, k)
            if excess > 0:
                fn *= ek
            else:
                fd *= ek
            g = gcd(fn, fd)
            if fd < 0:
                g = -g
            tn *= fn // g
            td *= fd // g
            new.append((tn, td))
            sn *= rn
            sd *= rd
            qnk *= qn
            qdk *= qd
            ek *= qd_step
        row = _remember(_POCH_ROWS, key, (row + tuple(new), (sn, sd, qnk, qdk, ek)))[0]
    return row if n + 1 == len(row) else row[: n + 1]


def _common_den(row: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """(nums, den): a row of (num, den) pairs over the lcm of its
    denominators, which along a _poch_row row is the last one."""
    den = _lcm(d for _, d in row)
    return [c * (den // d) for c, d in row], den


def _step(nums: list[int], den: int, c: int, d: int) -> list[int]:
    """The numerators nums of terms over den, then c, as a new list over
    d, a multiple of den (the next denominator of a ``_poch_row`` row, or
    the lcm ``_walk`` moves to): one product by the small factor d/den."""
    s = d // den
    nums = [v * s for v in nums] if s > 1 else nums[:]
    nums.append(c)
    return nums


def _walk(row: Iterable) -> Iterator:
    """(nums, den_n) for each term n of any row of (num, den) pairs, den > 0:
    the numerators of terms 0..n over den_n, the lcm of the denominators so
    far, every yield a list of its own.  Along a ``_poch_row`` row, where
    each denominator divides the next, den_n is term n's own and a step is
    one remainder test and one ``_step``; a term whose denominator is no
    multiple of the running one moves the row to their lcm."""
    nums, den = [], 1
    for c, d in row:
        if d % den:
            m = lcm(den, d)
            c, d = c * (m // d), m
        nums, den = _step(nums, den, c, d), d
        yield nums, d


def _qbinom_rows(q, N: int) -> tuple[tuple[int, ...], ...]:
    """The q-binomial triangle on integers: with q = qn/qd in lowest terms,
    [n;k]_q = rows[n][k] / qd^(k(n-k)) for 0 <= k <= n <= N.  Nothing else
    builds triangle rows.

    Pascal's rule [n;k] = q^k [n-1;k] + [n-1;k-1], scaled by qd^(k(n-k)):
    b(n,k) = qn^k b(n-1,k) + qd^(n-k) b(n-1,k-1), with no division and no
    gcd.  It holds for every rational q, q = 1 and q = -1 included.
    Memoized per q as (rows, state), the state the powers qn^m and qd^m,
    m <= n, of the last row n, so a longer request computes only the rows
    it lacks; the rows handed out are the memo's own tuples, so no caller
    can change them.
    """
    qn, qd = _ratio(q)
    rows, (qnp, qdp) = _QBINOM_ROWS.get((qn, qd)) or (((1,),), ([1], [1]))
    if N >= len(rows):
        # new lists: those a state holds are never changed
        grown, prev, qnp, qdp = [], rows[-1], qnp[:], qdp[:]
        for n in range(len(rows), N + 1):
            prev = (1, *[qnp[k] * prev[k] + qdp[n - k] * prev[k - 1] for k in range(1, n)], 1)
            grown.append(prev)
            qnp.append(qnp[-1] * qn)
            qdp.append(qdp[-1] * qd)
        rows = _remember(_QBINOM_ROWS, (qn, qd), (rows + tuple(grown), (qnp, qdp)))[0]
    return rows if N + 1 == len(rows) else rows[: N + 1]


def binom2(n: int) -> int:
    """C(n, 2) = n(n-1)/2."""
    return n * (n - 1) // 2


class PhiSpec:
    """Parameter block for a basic hypergeometric series rPhis.

    The correction factor [(-1)^n q^C(n,2)] is raised to 1+s-r, which must
    be >= 0 for every series used here.  Denominator parameters may be 0.
    """

    def __init__(self, numerators: Sequence, denominators: Sequence, q):
        self.numerators = [as_fraction(v) for v in numerators]
        self.denominators = [as_fraction(v) for v in denominators]
        self.q = as_fraction(q)
        self.sign_exponent = _phi_shape(self.numerators, self.denominators, self.q)[1]


def _phi_shape(nums: Sequence, dens: Sequence, q) -> tuple[dict, int]:
    """(named, e) for rPhis(nums; dens; q): the denominator parameters
    named b1..bs, then q, as a PoleError names them, and e = 1 + s - r,
    the power of (-1)^n q^C(n,2); r > s + 1 is refused."""
    e = 1 + len(dens) - len(nums)
    if e < 0:
        raise ValueError("series with r > s+1 are not supported")
    return {**{f"b{i + 1}": b for i, b in enumerate(dens)}, "q": q}, e


def _hyper_row(nums: Sequence, dens: Sequence, q, order: int) -> tuple[tuple[int, int], ...]:
    """The scalar terms of rPhis(nums; dens; q) for n <= order as a
    ``_poch_row`` row, shaped by ``_phi_shape``."""
    named, e = _phi_shape(nums, dens, q)
    return _poch_row(nums, named, q, order, z=(-1) ** e, r=q**e)


def hyper_series(spec: PhiSpec, order: int, arg_mono: Poly | Fraction | int = 1) -> TSeries:
    """Truncated rPhis with argument z = arg_mono * t.

    arg_mono must be a monomial (a scalar, or scalar * x^i y^j); term n then
    lands exactly in t^n with Poly coefficient arg_mono^n times the scalar
    term of the series.  The denominator parameters are named b1..bs in a
    PoleError.
    """
    return _euler(arg_mono, order, _hyper_row(spec.numerators, spec.denominators, spec.q, order))


def _mono(mono: Poly | Fraction | int) -> tuple[tuple[int, int], int, int]:
    """((i, j), c, den) of a monomial c/den x^i y^j; zero reads as 0 * x^0 y^0."""
    nums, den = _row(mono)
    if len(nums) > 1:
        raise ValueError("series argument must be a monomial times t")
    ((i, j), c), = nums.items() or [((0, 0), 0)]
    return (i, j), c, den


def _euler(mono: Poly | Fraction | int, order: int, row: Sequence[tuple[int, int]]) -> TSeries:
    """sum_n num_n/den_n mono^n t^n for n <= order over the (num, den)
    pairs of row (den > 0); each t-power is one exact term, not reduced."""
    (i, j), c, den = _mono(mono)
    rows, cn, cd = [], 1, 1  # (c/den)^n
    for n, (w, d) in enumerate(row[: order + 1]):
        rows.append(({(i * n, j * n): w * cn}, d * cd) if w and cn else _ZROW)
        cn *= c
        cd *= den
    return _series(order, rows + [_ZROW] * (order + 1 - len(rows)))


def _chain_product(e: Sequence[tuple[int, int]], u: Poly | Fraction | int,
                   h: Sequence[tuple[int, int]], v: Poly | Fraction | int,
                   order: int) -> TSeries:
    """sum_n t^n sum_(m+k=n) e_m u^m h_k v^k for n <= order: the product of
    the series sum e_m u^m t^m and sum h_k v^k t^k for any rows e, h of
    (num, den) pairs (order + 1 terms each) and monomials u, v.

    Both factors are read from ``_walk``s over their rows scaled by powers
    of each monomial's coefficient, e_m (un/ud)^m and h_k (vn/vd)^k, so row
    n lies over the product of the two walks' denominators at n, which is
    ed_n ud^n hd_n vd^n for ``_poch_row`` rows; no earlier term needs a
    division, and no row is reduced (``core.Row``).  When u and v are one
    monomial, row n is one integer sum at u^n.
    """
    (ui, uj), un, ud = _mono(u)
    (vi, vj), vn, vd = _mono(v)
    walks = []
    for name, row, cn, cd in (("e", e, un, ud), ("h", h, vn, vd)):
        if len(row) <= order:
            raise ValueError(f"factor {name} has {len(row)} terms; order {order} needs {order + 1}")
        scaled, pn, pd = [], 1, 1  # term m times (cn/cd)^m
        for c, d in row[: order + 1]:
            scaled.append((c * pn, d * pd))
            pn, pd = pn * cn, pd * cd
        walks.append(_walk(scaled))
    rows = []
    for n, ((E, ed), (H, hd)) in enumerate(zip(*walks)):
        if (ui, uj) == (vi, vj):  # every term of row n meets at u^n
            acc = {(ui * n, uj * n): sum(map(mul, E, reversed(H)))}
        else:  # term m alone lands at u^m v^(n-m)
            acc = {(ui * m + vi * (n - m), uj * m + vj * (n - m)): c * d
                   for m, (c, d) in enumerate(zip(E, reversed(H)))}
        rows.append(_exact(acc, ed * hd))
    return _series(order, rows)


def _euler_row(q, order: int, product: bool = False) -> tuple[tuple[int, int], ...]:
    """1/(q;q)_n for n <= order, or (-1)^n q^C(n,2)/(q;q)_n when product,
    as a ``_poch_row`` row: the terms of 1/(z;q)_inf and (z;q)_inf."""
    if product:
        return _poch_row((), {"q": q}, q, order, z=-ONE, r=q)
    return _poch_row((), {"q": q}, q, order)


def euler_inverse_series(mono: Poly | Fraction | int, q, order: int) -> TSeries:
    """Series for 1/(mono*t; q)_inf = sum_n mono^n t^n / (q;q)_n."""
    return _euler(mono, order, _euler_row(q, order))


def euler_product_series(mono: Poly | Fraction | int, q, order: int) -> TSeries:
    """Series for (mono*t; q)_inf = sum_n (-1)^n q^C(n,2) mono^n t^n / (q;q)_n."""
    return _euler(mono, order, _euler_row(q, order, product=True))


def qpoch_t_poly(mono: Poly | Fraction | int, q, j: int, order: int) -> TSeries:
    """The finite product (mono*t; q)_j = prod_{i<j} (1 - mono q^i t) as a
    TSeries, for a monomial (or scalar) mono.

    Expanded by the q-binomial theorem: the t^k coefficient is
    [j;k] (-1)^k q^C(k,2) mono^k = (q^-j;q)_k / (q;q)_k * q^(jk) * mono^k.
    """
    if j < 0:
        raise ValueError("qpoch_t_poly needs j >= 0")
    q = as_fraction(q)
    return _euler(mono, order, _poch_row((q**-j,), {"q": q}, q, min(j, order), z=q**j))
