"""Exact arithmetic substrate: rationals, sparse bivariate polynomials in
{x, y}, and truncated power series in a formal variable t.

Both polynomial types share one exact layout, the canonical integer row
(``Row``, the layout of FLINT's ``fmpq_poly``): a ``Poly`` holds one row,
a ``TSeries`` one row per power of t, and all their arithmetic and
comparison runs on those integers.  ``Poly.terms`` reads a row out as a
read-only {(i, j): Fraction} mapping, built on first read.  No value here
is changed after construction, so values are safe to share across
threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(v) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as an exact rational")


class Poly:
    """Sparse polynomial in x and y with rational coefficients.

    Held as one canonical row (see ``Row``): the coefficient of x^i y^j,
    i the degree in x and j the degree in y, is row[0][(i, j)] / row[1].
    Zero coefficients are never stored and the row is unique, so equality
    is row equality.  ``terms`` gives the coefficients as Fractions.
    """

    __slots__ = ("row", "_terms")

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        cs = {}
        for (i, j), c in (terms or {}).items():
            if c := as_fraction(c):
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term ({i},{j})")
                cs[(i, j)] = c
        # each prime power of den divides some denominator exactly, whose
        # numerator it does not divide, so the row is canonical
        den = lcm(*(c.denominator for c in cs.values()))
        self.row = {e: c.numerator * (den // c.denominator) for e, c in cs.items()}, den
        self._terms = None

    @property
    def terms(self) -> Mapping[tuple[int, int], Fraction]:
        # two threads may both build the mapping; either result is the same
        if self._terms is None:
            nums, den = self.row
            self._terms = MappingProxyType({e: Fraction(c, den) for e, c in nums.items()})
        return self._terms

    @staticmethod
    def zero() -> "Poly":
        return _raw(_ZROW)

    @staticmethod
    def one() -> "Poly":
        return _raw(_UNIT)

    @staticmethod
    def const(c) -> "Poly":
        return _raw(_row(as_fraction(c)))

    @staticmethod
    def monomial(i: int, j: int, c=ONE) -> "Poly":
        return Poly({(i, j): c})

    @staticmethod
    def x() -> "Poly":
        return _raw(({(1, 0): 1}, 1))

    @staticmethod
    def y() -> "Poly":
        return _raw(({(0, 1): 1}, 1))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        return _raw(_dot(((self.row, _UNIT), (_row(other), _UNIT))))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        nums, den = self.row
        return _raw(({e: -c for e, c in nums.items()}, den))

    def __sub__(self, other) -> "Poly":
        return _raw(_dot(((self.row, _UNIT), (_row(other), _MINUS))))

    def __rsub__(self, other) -> "Poly":
        return _raw(_dot(((self.row, _MINUS), (_row(other), _UNIT))))

    def __mul__(self, other) -> "Poly":
        return _raw(_dot([(self.row, _row(other))]))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        nums, den = self.row
        if len(nums) == 1:  # a monomial: gcd(c, den) = 1 gives gcd(c^n, den^n) = 1
            ((i, j), c), = nums.items()
            return _raw(({(n * i, n * j): c**n}, den**n))
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self.row == _row(other)

    def __hash__(self):
        nums, den = self.row
        if self.is_constant():
            return hash(Fraction(nums.get((0, 0), 0), den))
        return hash((frozenset(nums.items()), den))

    def __bool__(self) -> bool:
        return bool(self.row[0])

    def __reduce__(self):
        return (_raw, (self.row,))  # the terms view does not pickle

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.row[0]

    def is_constant(self) -> bool:
        return self.row[0].keys() <= {(0, 0)}

    def coeff(self, i: int, j: int) -> Fraction:
        nums, den = self.row
        return Fraction(nums.get((i, j), 0), den)

    def constant(self) -> Fraction:
        return self.coeff(0, 0)

    def x_degree(self) -> int:
        """Largest x-exponent present; -1 for the zero polynomial."""
        return max((i for (i, _) in self.row[0]), default=-1)

    def shift(self, sx: Fraction, sy: Fraction) -> "Poly":
        """Substitute x -> sx*x and y -> sy*y.

        The coefficient of x^i y^j is multiplied by sx^i sy^j.
        """
        return _raw(_canon(*_substitute(self.row, sx, sy)))

    def eval(self, xv, yv) -> Fraction:
        """Evaluate at exact rational points."""
        nums, den = _substitute(self.row, xv, yv)
        return Fraction(sum(nums.values()), den)

    def xcoeff_as_y_poly(self, i: int) -> "Poly":
        """Collect the coefficient of x^i as a polynomial in y alone."""
        nums, den = self.row
        return _raw(_canon({(0, j): c for (ii, j), c in nums.items() if ii == i}, den))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda e: (-e[0], -e[1])):
            c = self.terms[(i, j)]
            mono = ""
            if i == 1:
                mono += "x"
            elif i > 1:
                mono += f"x^{i}"
            if j == 1:
                mono += "y"
            elif j > 1:
                mono += f"y^{j}"
            if not mono:
                body = str(c if c > 0 else -c)
            elif abs(c) == 1:
                body = mono
            else:
                a = c if c > 0 else -c
                coeff = str(a) if a.denominator == 1 else f"({a})"
                body = f"{coeff}{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


# A row is one polynomial as (nums, den): integer numerators keyed by (i, j)
# over one positive denominator.  Canonical rows have no zero numerator and
# gcd(den, *nums) == 1, so equal polynomials have equal rows.
Row = tuple[dict[tuple[int, int], int], int]
_ZROW: Row = ({}, 1)
_UNIT: Row = ({(0, 0): 1}, 1)
_MINUS: Row = ({(0, 0): -1}, 1)


def _raw(row: Row) -> Poly:
    """The Poly on a canonical row, sharing it."""
    p = Poly.__new__(Poly)
    p.row, p._terms = row, None
    return p


def _row(v) -> Row:
    """The canonical row of a Poly or of a rational scalar."""
    if isinstance(v, Poly):
        return v.row
    if isinstance(v, (int, Fraction)):
        return ({(0, 0): v.numerator}, v.denominator) if v else _ZROW
    raise TypeError(f"cannot use {v!r} as a polynomial")


def _poly(row: Row) -> Poly:
    """The Poly on any row with a positive denominator, made canonical, with
    numerators of its own (a memoized row may come in)."""
    nums, den = _canon(*row)
    return _raw((dict(nums) if nums is row[0] else nums, den))


def _substitute(row: Row, sx, sy) -> Row:
    """row under x -> sx*x, y -> sy*y, not reduced: with sx = sn/sd,
    sy = tn/td and I, J the largest exponents, over den sd^I td^J the
    term c x^i y^j has numerator c sn^i sd^(I-i) tn^j td^(J-j)."""
    (sn, sd), (tn, td) = (as_fraction(v).as_integer_ratio() for v in (sx, sy))
    nums, den = row
    I, J = map(max, zip(*nums)) if nums else (0, 0)
    xs = [sn**m * sd ** (I - m) for m in range(I + 1)]
    ys = [tn**m * td ** (J - m) for m in range(J + 1)]
    return {(i, j): c * xs[i] * ys[j] for (i, j), c in nums.items()}, den * xs[0] * ys[0]


def _mul_into(acc: dict, a: Mapping, b: Mapping, f: int = 1) -> None:
    """Add f times the product of the term maps a and b into acc; a
    cancelled key stays in acc with value 0."""
    for (i1, j1), c1 in a.items():
        if f != 1:
            c1 *= f
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            s = acc.get(e)
            acc[e] = c1 * c2 if s is None else s + c1 * c2


X = Poly.x()
Y = Poly.y()


def _lcm(dens: Iterable[int]) -> int:
    """lcm of the denominators; along a Pochhammer row, where each divides
    the next (or the last), a step costs a remainder, not a gcd."""
    out = 1
    for d in dens:
        if out % d:
            out = d if d % out == 0 else lcm(out, d)
    return out


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


def _canon(nums: dict, den: int) -> Row:
    """nums/den as a canonical row: zeros dropped, content divided out."""
    g = gcd(den, min(nums.values(), key=abs, default=0))
    if g != 1:
        g = gcd(g, *nums.values())
    if den < 0:
        g = -g
    if g == 1 and all(nums.values()):
        return nums, den
    nums = {e: c // g for e, c in nums.items() if c}
    return (nums, den // g) if nums else _ZROW


def _sum_terms(terms: Sequence[tuple[tuple[int, int], int, tuple[int, ...]]],
               reduce: bool = True) -> Row:
    """The row (canonical with reduce) of sum c/(d_1 d_2 ...) x^i y^j over
    the terms ((i, j), c, (d_1, d_2, ...)), over the product of the lcms of
    each slot's denominators."""
    slots = [_lcm(ds) for ds in zip(*(ds for _, _, ds in terms))]
    acc: dict[tuple[int, int], int] = {}
    for e, c, ds in terms:
        for m, d in zip(slots, ds):
            c *= m // d
        acc[e] = acc.get(e, 0) + c
    return _canon(acc, prod(slots)) if reduce else (acc, prod(slots))


def _dot(pairs: Iterable[tuple[Row, Row]], la: int = 0, lb: int = 0) -> Row:
    """The canonical row of sum a*b over pairs of rows, over la lb: the lcms
    of the a and of the b denominators unless given."""
    pairs = [(a, b) for a, b in pairs if a[0] and b[0]]
    la, lb = la or _lcm(a[1] for a, _ in pairs), lb or _lcm(b[1] for _, b in pairs)
    acc: dict[tuple[int, int], int] = {}
    for (an, ad), (bn, bd) in pairs:
        _mul_into(acc, an, bn, (la // ad) * (lb // bd))
    return _canon(acc, la * lb)


def _series(order: int, rows: Iterable[Row]) -> "TSeries":
    """A TSeries from order + 1 canonical rows."""
    s = TSeries.__new__(TSeries)
    s.order, s.rows, s._coeffs = order, tuple(rows), None
    return s


class TSeries:
    """Power series in t truncated at a fixed order N.

    Each t^n coefficient is held as a canonical row (see ``Row``), and all
    arithmetic and comparison runs on those integers.  ``coeffs`` wraps
    them as Poly values t^0 .. t^N, on first read.  Arithmetic never
    reads or writes beyond the truncation order, and mixing different
    orders is an error rather than a silent re-truncation.
    """

    __slots__ = ("order", "rows", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[Poly] | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        rows = [_ZROW] * (order + 1)
        if coeffs is not None:
            rows = [_row(c) for c in coeffs]
            if len(rows) != order + 1:
                raise ValueError(f"need {order + 1} coefficients, got {len(rows)}")
        self.order, self.rows, self._coeffs = order, tuple(rows), None

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        # two threads may both build the tuple; either result is the same
        if self._coeffs is None:
            self._coeffs = tuple(_raw(r) for r in self.rows)
        return self._coeffs

    @staticmethod
    def zeros(order: int) -> "TSeries":
        return TSeries(order)

    @staticmethod
    def one(order: int) -> "TSeries":
        return _series(order, [_UNIT] + [_ZROW] * order)

    @staticmethod
    def from_poly(p: Poly, order: int) -> "TSeries":
        return _series(order, [_row(p)] + [_ZROW] * order)

    def coeff(self, n: int) -> Poly:
        if not 0 <= n <= self.order:
            raise IndexError(f"t^{n} is beyond truncation order {self.order}")
        return self.coeffs[n]

    def _check(self, other: "TSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; "
                "construct both series at the same truncation order"
            )

    def __add__(self, other: "TSeries") -> "TSeries":
        self._check(other)
        return _series(self.order, [_dot(((a, _UNIT), (b, _UNIT)))
                                    for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + (-other)

    def __neg__(self) -> "TSeries":
        return _series(self.order, [({e: -c for e, c in nums.items()}, den)
                                    for nums, den in self.rows])

    def __mul__(self, other) -> "TSeries":
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        self._check(other)
        a, b = self.rows, other.rows
        # row n over the lcms of the denominators of a[:n + 1] and b[:n + 1]
        la, lb = [1], [1]
        for (_, ad), (_, bd) in zip(a, b):
            la.append(_lcm((la[-1], ad)))
            lb.append(_lcm((lb[-1], bd)))
        return _series(self.order, [_dot(zip(a[: n + 1], b[n::-1]), la[n + 1], lb[n + 1])
                                    for n in range(self.order + 1)])

    __rmul__ = __mul__

    def scale(self, p) -> "TSeries":
        p = _row(p)
        return _series(self.order, [_dot([(r, p)]) for r in self.rows])

    def shift_t(self, k: int) -> "TSeries":
        """Multiply by t^k, dropping coefficients past the order."""
        if k < 0:
            raise ValueError("negative t-shift")
        n = self.order + 1
        return _series(self.order, [_ZROW] * min(k, n) + list(self.rows[: max(n - k, 0)]))

    def inverse(self) -> "TSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        nums, den = self.rows[0]
        if set(nums) != {(0, 0)}:
            raise ValueError("series inverse needs a nonzero constant t^0 coefficient")
        c = nums[(0, 0)]
        out = [_canon({(0, 0): den}, c)]
        minus_inv = _canon({(0, 0): -den}, c)
        for n in range(1, self.order + 1):
            acc = _dot((self.rows[k], out[n - k]) for k in range(1, n + 1))
            out.append(_dot([(acc, minus_inv)]))
        return _series(self.order, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and self.rows == other.rows

    def is_zero(self) -> bool:
        return not any(nums for nums, _ in self.rows)

    def first_mismatch(self, other: "TSeries") -> int | None:
        """Lowest t-power where the two series differ, or None if equal."""
        self._check(other)
        for n, (a, b) in enumerate(zip(self.rows, other.rows)):
            if a != b:
                return n
        return None

    def __str__(self) -> str:
        parts = [f"({c})*t^{n}" for n, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TSeries(order={self.order}, {self})"


@dataclass(frozen=True)
class ParamSet:
    """One verification trial's rational parameter assignment.

    Holds the base q and the five family parameters a, b, c, d, e, plus
    identity-specific extras by name in a read-only mapping.  Requires
    0 < q < 1.  Hashable; the hash leaves the extras out, which equal
    ParamSets still share.
    """

    q: Fraction
    a: Fraction = ZERO
    b: Fraction = ZERO
    c: Fraction = ZERO
    d: Fraction = ZERO
    e: Fraction = ZERO
    extras: Mapping[str, Fraction] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "q", as_fraction(self.q))
        for name in ("a", "b", "c", "d", "e"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        object.__setattr__(
            self,
            "extras",
            MappingProxyType({k: as_fraction(v) for k, v in self.extras.items()}),
        )
        if not (0 < self.q < 1):
            raise ValueError(f"q must satisfy 0 < q < 1, got {self.q}")

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild from a plain dict
        return (ParamSet, (self.q, self.a, self.b, self.c, self.d, self.e, dict(self.extras)))

    def get(self, name: str) -> Fraction:
        if name in ("q", "a", "b", "c", "d", "e"):
            return getattr(self, name)
        return self.extras[name]

    def with_values(self, **kv) -> "ParamSet":
        base = {n: getattr(self, n) for n in ("q", "a", "b", "c", "d", "e")}
        extras = dict(self.extras)
        for k, v in kv.items():
            if k in base:
                base[k] = as_fraction(v)
            else:
                extras[k] = as_fraction(v)
        return ParamSet(extras=extras, **base)

    def render(self) -> dict[str, str]:
        """Exact 'p/q' rendering for reports, stable key order."""
        out = {n: str(getattr(self, n)) for n in ("q", "a", "b", "c", "d", "e")}
        for k in sorted(self.extras):
            out[k] = str(self.extras[k])
        return out


def random_rational(rng: random.Random, positive: bool = False) -> Fraction:
    """Draw one bounded rational: numerator in [-8, 8] without 0, denominator
    in [9, 32], halved when the magnitude exceeds 1/2.

    Keeps every draw inside (-1/2, 1/2], which stays clear of q-shifted
    factorial poles and bounds coefficient bit-growth through order 12.
    """
    num = rng.randint(1, 8)
    if not positive and rng.random() < 0.5:
        num = -num
    v = Fraction(num, rng.randint(9, 32))
    if abs(v) > Fraction(1, 2):
        v = v / 2
    return v


def random_paramset(rng: random.Random, extras: Iterable[str] = ()) -> ParamSet:
    """Sample a full ParamSet; q is positive, extras use the same policy."""
    return ParamSet(
        q=random_rational(rng, positive=True),
        a=random_rational(rng),
        b=random_rational(rng),
        c=random_rational(rng),
        d=random_rational(rng),
        e=random_rational(rng),
        extras={name: random_rational(rng) for name in extras},
    )
