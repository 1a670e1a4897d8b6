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
mpmath side; ``_poch_row`` runs it for exact rows on integer
numerator/denominator pairs, with one gcd per emitted term, and is
tested against ``term_stream`` on Fractions.  ``_qbinom_rows`` builds the
q-binomial triangle on integers.  ``qpoch``, ``qpoch_multi`` and
``qbinom`` stay as direct products, the reference the tests compare
against.

A scalar series (every coefficient a constant) can also be carried as an
integer row over one denominator, ``(nums, den)``, the layout of FLINT's
``fmpq_poly``: ``_int_row`` puts Fractions over the lcm of their
denominators, ``_int_conv`` multiplies two rows with integer
multiply-adds and no gcd, and ``_row_series`` turns a row back into a
TSeries of constants with one reduced Fraction per entry.

A denominator parameter equal to 0 is allowed, with (0;q)_n = 1; a
denominator parameter of the form q^(-j) makes a term blow up and raises
PoleError naming the offending term.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Sequence

from .core import ONE, ZERO, Poly, TSeries, as_fraction


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


def _poch_row(
    nums: Sequence, dens: Mapping[str, Fraction], q, n: int, z=ONE, r=ONE
) -> list[Fraction]:
    """[(nums;q)_k / (dens;q)_k * z^k * r^C(k,2) for k = 0..n], exact:
    the first n + 1 terms of term_stream on Fractions.

    Computed on integers.  With q = qn/qd and a = an/ad the factor
    1 - a q^k is (ad qd^k - an qn^k) / (ad qd^k); the ad and bd constants
    go into the step z r^k and the qd^k powers cancel down to
    qd^(k(#dens - #nums)).  Each step multiplies the running term, kept as
    a reduced pair, by integers, and only the emitted Fraction(num, den)
    takes a gcd.
    """
    dens = {name: as_fraction(b) for name, b in dens.items()}
    nums = [as_fraction(a) for a in nums]
    q, z, r = as_fraction(q), as_fraction(z), as_fraction(r)
    qn, qd = q.numerator, q.denominator
    top = [(a.denominator, a.numerator) for a in nums]
    bottom = [(b.denominator, b.numerator) for b in dens.values()]
    sn, sd = z.numerator, z.denominator  # z r^k times the ad, bd constants
    for ad, _ in top:
        sd *= ad
    for bd, _ in bottom:
        sn *= bd
    excess = len(bottom) - len(top)
    qd_step = qd ** abs(excess)
    row = [ONE][: n + 1]
    tn = td = 1  # term k, reduced
    qnk = qdk = ek = 1  # qn^k, qd^k, qd^(k |excess|)
    for k in range(1, n + 1):
        fn, fd = sn, sd
        for ad, an in top:
            fn *= ad * qdk - an * qnk
        for bd, bn in bottom:
            f = bd * qdk - bn * qnk
            if not f:
                raise _pole(dens, k)
            fd *= f
        if excess > 0:
            fn *= ek
        else:
            fd *= ek
        term = Fraction(tn * fn, td * fd)
        row.append(term)
        tn, td = term.numerator, term.denominator
        sn *= r.numerator
        sd *= r.denominator
        qnk *= qn
        qdk *= qd
        ek *= qd_step
    return row


def _qbinom_rows(q, N: int) -> list[list[int]]:
    """The q-binomial triangle on integers: with q = qn/qd in lowest terms,
    [n;k]_q = rows[n][k] / qd^(k(n-k)) for 0 <= k <= n <= N.

    Pascal's rule [n;k] = q^k [n-1;k] + [n-1;k-1], scaled by qd^(k(n-k)):
    b(n,k) = qn^k b(n-1,k) + qd^(n-k) b(n-1,k-1), with no division and no
    gcd.  It holds for every rational q, q = 1 and q = -1 included.
    """
    q = as_fraction(q)
    qnp = [q.numerator**k for k in range(N + 1)]
    qdp = [q.denominator**k for k in range(N + 1)]
    rows = [[1]]
    for n in range(1, N + 1):
        prev = rows[-1]
        rows.append([1] + [qnp[k] * prev[k] + qdp[n - k] * prev[k - 1] for k in range(1, n)]
                    + [1])
    return rows[: N + 1]


def _int_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den): the rationals as integer numerators over the lcm of
    their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_conv(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n + 1 coefficients of the product of the integer rows a
    and b, which may be shorter."""
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i], i):
                out[j] += ai * bj
    return out


def _row_series(nums: Sequence[int], den: int, order: int) -> TSeries:
    """sum_n nums[n]/den t^n as a TSeries of constants, truncated at order;
    each nonzero entry becomes one reduced Fraction."""
    coeffs = [Poly.zero()] * (order + 1)
    for n, c in enumerate(nums[: order + 1]):
        if c:
            coeffs[n] = Poly.const(Fraction(c, den))
    return TSeries(order, coeffs)


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
        self.sign_exponent = 1 + len(self.denominators) - len(self.numerators)
        if self.sign_exponent < 0:
            raise ValueError("series with r > s+1 are not supported")


def hyper_series(spec: PhiSpec, order: int, arg_mono: Poly | Fraction | int = 1) -> TSeries:
    """Truncated rPhis with argument z = arg_mono * t.

    arg_mono must be a monomial (a scalar, or scalar * x^i y^j); term n then
    lands exactly in t^n with Poly coefficient arg_mono^n times the scalar
    term of the series.  The denominator parameters are named b1..bs in a
    PoleError.
    """
    e, q = spec.sign_exponent, spec.q
    dens = {f"b{i + 1}": b for i, b in enumerate(spec.denominators)}
    dens["q"] = q
    row = _poch_row(spec.numerators, dens, q, order, z=(-1) ** e, r=q**e)
    return _euler(arg_mono, order, row)


def _euler(mono: Poly | Fraction | int, order: int, row) -> TSeries:
    """sum_n row[n] mono^n t^n for n <= order."""
    if isinstance(mono, (int, Fraction)):
        mono = Poly.const(mono)
    if not mono.is_monomial():
        raise ValueError("series argument must be a monomial times t")
    ((i, j), c), = mono.terms.items() or [((0, 0), ZERO)]
    coeffs = [Poly.zero()] * (order + 1)
    for n, w in enumerate(row):
        coeffs[n] = Poly.monomial(i * n, j * n, c**n * w)
    return TSeries(order, coeffs)


def euler_inverse_series(mono: Poly | Fraction | int, q, order: int) -> TSeries:
    """Series for 1/(mono*t; q)_inf = sum_n mono^n t^n / (q;q)_n."""
    return _euler(mono, order, _poch_row((), {"q": q}, q, order))


def euler_product_series(mono: Poly | Fraction | int, q, order: int) -> TSeries:
    """Series for (mono*t; q)_inf = sum_n (-1)^n q^C(n,2) mono^n t^n / (q;q)_n."""
    return _euler(mono, order, _poch_row((), {"q": q}, q, order, z=-ONE, r=q))


def qpoch_t_poly(mono: Poly | Fraction | int, q, j: int, order: int) -> TSeries:
    """The finite product (mono*t; q)_j = prod_{i<j} (1 - mono q^i t) as a TSeries.

    Expanded by the q-binomial theorem: the t^k coefficient is
    [j;k] (-1)^k q^C(k,2) mono^k = (q^-j;q)_k / (q;q)_k * q^(jk) * mono^k.
    """
    if isinstance(mono, (int, Fraction)):
        mono = Poly.const(mono)
    q = as_fraction(q)
    top = min(j, order)
    coeffs = []
    mono_pow = Poly.one()
    for w in _poch_row((q**-j,), {"q": q}, q, top, z=q**j):
        coeffs.append(mono_pow * w)
        mono_pow = mono_pow * mono
    return TSeries(order, coeffs + [Poly.zero()] * (order - top))
