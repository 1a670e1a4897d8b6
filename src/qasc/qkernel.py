"""q-shifted factorials, q-binomial coefficients, truncated basic
hypergeometric series, and the Euler product expansions.

Conventions:

    (a;q)_0 = 1,   (a;q)_n = (1-a)(1-aq)...(1-aq^{n-1})

    [n;k]_q = (q;q)_n / ((q;q)_k (q;q)_{n-k})

    rPhis(a_1..a_r; b_1..b_s; q, z)
        = sum_n [(-1)^n q^C(n,2)]^(1+s-r)
                * (a_1..a_r;q)_n / ((b_1..b_s;q)_n (q;q)_n) * z^n

A denominator parameter equal to 0 is allowed, with (0;q)_n = 1; a
denominator parameter of the form q^(-j) makes a term blow up and raises
PoleError naming the offending term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

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
    """Gaussian binomial coefficient [n;k]_q; 0 when k is out of range."""
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
    return num / den


def _poch_row(
    nums: Sequence, dens: Mapping[str, Fraction], q, n: int, z=ONE, r=ONE
) -> list[Fraction]:
    """[(nums;q)_k / (dens;q)_k * z^k * r^C(k,2) for k = 0..n].

    Each entry is the one before times the term ratio
    prod(1 - a q^k) / prod(1 - b q^k) * z r^k.  dens maps each denominator
    parameter's name to its value; the first k at which (dens;q)_k vanishes
    raises PoleError(index=k) naming them, even past a vanished numerator.
    """
    nums = [as_fraction(a) for a in nums]
    den_values = [as_fraction(b) for b in dens.values()]
    q, step, r = as_fraction(q), as_fraction(z), as_fraction(r)
    row = [ONE]
    qk = ONE
    for k in range(1, n + 1):
        num = step
        for a in nums:
            num *= 1 - a * qk
        den = ONE
        for b in den_values:
            den *= 1 - b * qk
        if den == 0:
            given = ", ".join(f"{name}={b}" for name, b in zip(dens, den_values))
            raise PoleError(
                f"({','.join(dens)};q)_k vanished at k={k} for {given}", index=k
            )
        row.append(row[-1] * num / den)
        qk *= q
        step *= r
    return row


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
    term of the series.  Terms are built by the n -> n+1 ratio recurrence.
    """
    if isinstance(arg_mono, (int, Fraction)):
        arg_mono = Poly.const(arg_mono)
    if not arg_mono.is_monomial():
        raise ValueError("hyper_series argument must be a monomial times t")
    q = spec.q
    coeffs = [Poly.zero()] * (order + 1)
    coeffs[0] = Poly.one()
    term = ONE  # scalar part of term n
    qn = ONE    # q^n
    mono_pow = Poly.one()
    for n in range(order):
        ratio = ONE
        for a in spec.numerators:
            ratio *= 1 - a * qn
        for b in spec.denominators:
            f = 1 - b * qn
            if f == 0:
                raise PoleError(
                    f"denominator parameter {b} hits a pole at term {n + 1}",
                    index=n + 1,
                )
            ratio /= f
        ratio /= 1 - q * qn
        if spec.sign_exponent:
            ratio *= (-qn) ** spec.sign_exponent
        term *= ratio
        qn *= q
        mono_pow = mono_pow * arg_mono
        if term:
            coeffs[n + 1] = mono_pow * term
    return TSeries(order, coeffs)


def _euler(mono: Poly | Fraction | int, order: int, t_power: int, row) -> TSeries:
    """sum_n row[n] mono^n t^(n*t_power) for n <= order // t_power."""
    if isinstance(mono, (int, Fraction)):
        mono = Poly.const(mono)
    if not mono.is_monomial():
        raise ValueError("euler expansions take a monomial argument")
    ((i, j), c), = mono.terms.items() or [((0, 0), ZERO)]
    coeffs = [Poly.zero()] * (order + 1)
    for n, w in enumerate(row):
        coeffs[n * t_power] = Poly.monomial(i * n, j * n, c**n * w)
    return TSeries(order, coeffs)


def euler_inverse_series(mono: Poly | Fraction | int, q, order: int, t_power: int = 1) -> TSeries:
    """Series for 1/(mono*t^t_power; q)_inf = sum_n mono^n t^(n*t_power) / (q;q)_n."""
    return _euler(mono, order, t_power, _poch_row((), {"q": q}, q, order // t_power))


def euler_product_series(mono: Poly | Fraction | int, q, order: int, t_power: int = 1) -> TSeries:
    """Series for (mono*t^t_power; q)_inf
    = sum_n (-1)^n q^C(n,2) mono^n t^(n*t_power) / (q;q)_n."""
    row = _poch_row((), {"q": q}, q, order // t_power, z=-ONE, r=q)
    return _euler(mono, order, t_power, row)


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
