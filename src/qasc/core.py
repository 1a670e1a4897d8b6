"""Exact arithmetic substrate: rationals, sparse bivariate polynomials in
{x, y}, and truncated power series in a formal variable t.

Both polynomial types share one exact layout, the integer row (``Row``,
the layout of FLINT's ``fmpq_poly``): a ``Poly`` holds one exact row, a
``TSeries`` one exact row per power of t, and all their arithmetic and
comparison runs on those integers.  A ``Poly`` reduces its row to the
canonical one on first use; ``Poly.terms`` reads that out as a read-only
{(i, j): Fraction} mapping, built on first read.  No value here changes
after construction (a reduced row holds the same value), so values are
safe to share across threads.  A substitution of x and y into rows is
written once, ``_substituted``: ``Poly.shift`` and ``Poly.eval`` call it,
and so do the families of ``polys`` for a polynomial x or y.

The value classes (``ParamSet`` here, the check, config and report classes
elsewhere) are slotted records on ``_Record``, with the frozen-dataclass
behaviour but without ``dataclasses``, whose import of ``inspect`` every
command-line call would pay for at start-up.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul
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

    Held as one exact row (see ``Row``), as each power of a ``TSeries``
    is: the coefficient of x^i y^j, i the degree in x and j the degree in
    y, is nums[(i, j)] / den.  ``==`` compares two rows with ``_same`` and
    reduces neither.  ``row`` is a read-only view of the canonical row,
    unique to the value: it, ``terms``, the hash, ``str`` and pickling
    reduce the row once, on first use, and keep the result, which the
    kernels read without a view as ``_canonical``.  The arithmetic reads
    the canonical rows of its operands and leaves its result exact;
    ``==``, ``coeff``, ``shift``, ``eval``, ``xcoeff_as_y_poly`` and the
    kernels that map a row term by term (``qops``, the basis expansion and
    synthesis) read the row as held (``_held``), exact or already reduced.
    Exponents are non-negative ints, coefficients exact rationals.  ``+``,
    ``-`` and ``*`` take a Poly, an int or a Fraction and give
    ``NotImplemented`` for any other operand, so a ``TSeries`` scales by a
    Poly from either side and a float is a ``TypeError``.
    """

    __slots__ = ("_held", "_reduced", "_view", "_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        cs = {}
        for (i, j), c in (terms or {}).items():
            if c := as_fraction(c):
                if not (isinstance(i, int) and isinstance(j, int)):
                    raise TypeError(f"non-integer exponent in term ({i},{j})")
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term ({i},{j})")
                cs[(i, j)] = c
        # each prime power of den divides some denominator exactly, whose
        # numerator it does not divide, so the row is canonical
        den = lcm(*(c.denominator for c in cs.values()))
        self._held = {e: c.numerator * (den // c.denominator) for e, c in cs.items()}, den
        self._reduced, self._view, self._terms, self._hash = True, None, None, None

    @property
    def _canonical(self) -> Row:
        # two threads may both reduce the row; either result is the same
        if not self._reduced:
            self._held = _canon(*self._held)
            self._reduced = True
        return self._held

    @property
    def row(self) -> tuple[Mapping[tuple[int, int], int], int]:
        # built on first read, like terms, so that writing through it
        # raises TypeError instead of changing the value
        if self._view is None:
            nums, den = self._canonical
            self._view = MappingProxyType(nums), den
        return self._view

    @property
    def terms(self) -> Mapping[tuple[int, int], Fraction]:
        # two threads may both build the mapping; either result is the same
        if self._terms is None:
            nums, den = self._canonical
            self._terms = MappingProxyType({e: Fraction(c, den) for e, c in nums.items()})
        return self._terms

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({(0, 0): ONE})

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0, 0): c})

    @staticmethod
    def monomial(i: int, j: int, c=ONE) -> "Poly":
        return Poly({(i, j): c})

    @staticmethod
    def x() -> "Poly":
        return Poly({(1, 0): ONE})

    @staticmethod
    def y() -> "Poly":
        return Poly({(0, 1): ONE})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return _poly(_dot(((self._canonical, _UNIT), (_row(other), _UNIT))))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        nums, den = self._held
        return _poly(({e: -c for e, c in nums.items()}, den))

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return _poly(_dot(((self._canonical, _UNIT), (_row(other), _MINUS))))

    def __rsub__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return _poly(_dot(((self._canonical, _MINUS), (_row(other), _UNIT))))

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return _poly(_dot([(self._canonical, _row(other))]))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        nums, den = self._canonical
        if len(nums) == 1:  # a monomial: gcd(c, den) = 1 gives gcd(c^n, den^n) = 1
            ((i, j), c), = nums.items()
            return _poly(({(n * i, n * j): c**n}, den**n))
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return _same(self._held, other._held)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _same(self._held, _row(other))

    def __hash__(self):
        # filled on first use, like terms; a constant hashes as its Fraction
        if self._hash is None:
            nums, den = self._canonical
            self._hash = hash(Fraction(nums.get((0, 0), 0), den) if self.is_constant()
                              else (frozenset(nums.items()), den))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._held[0])

    def __reduce__(self):
        return (_poly, (self._canonical,))  # the views do not pickle

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._held[0]

    def is_constant(self) -> bool:
        return self._held[0].keys() <= {(0, 0)}

    def coeff(self, i: int, j: int) -> Fraction:
        nums, den = self._held
        return Fraction(nums.get((i, j), 0), den)

    def constant(self) -> Fraction:
        return self.coeff(0, 0)

    def x_degree(self) -> int:
        """Largest x-exponent present; -1 for the zero polynomial."""
        return max((i for (i, _) in self._held[0]), default=-1)

    def shift(self, sx: Fraction, sy: Fraction) -> "Poly":
        """Substitute x -> sx*x and y -> sy*y.

        The coefficient of x^i y^j is multiplied by sx^i sy^j.
        """
        (row,) = _substituted([self._held], as_fraction(sx) * X, as_fraction(sy) * Y)
        return _poly(row)

    def eval(self, xv, yv) -> Fraction:
        """Evaluate at exact rational points."""
        ((nums, den),) = _substituted([self._held], as_fraction(xv), as_fraction(yv))
        return Fraction(nums.get((0, 0), 0), den)

    def xcoeff_as_y_poly(self, i: int) -> "Poly":
        """Collect the coefficient of x^i as a polynomial in y alone."""
        nums, den = self._held
        return _poly(({(0, j): c for (ii, j), c in nums.items() if ii == i}, den))

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


# A row is one polynomial as (nums, den): nonzero integer numerators keyed by
# (i, j) over one positive denominator.  An exact row (kernel output) may carry
# content (``_same`` compares two); a canonical one has gcd(den, *nums) == 1.
Row = tuple[dict[tuple[int, int], int], int]
_ZROW: Row = ({}, 1)
_UNIT: Row = ({(0, 0): 1}, 1)
_MINUS: Row = ({(0, 0): -1}, 1)


def _row(v) -> Row:
    """The canonical row of a Poly or of a rational scalar."""
    if isinstance(v, Poly):
        return v._canonical
    if isinstance(v, (int, Fraction)):
        return ({(0, 0): v.numerator}, v.denominator) if v else _ZROW
    raise TypeError(f"cannot use {v!r} as a polynomial")


def _poly(row: Row) -> Poly:
    """The Poly on any row, sharing its numerators unless it drops a zero
    or turns a negative denominator positive; reduced on first use."""
    nums, den = row
    if den < 0:
        nums, den = {e: -c for e, c in nums.items()}, -den
    p = Poly.__new__(Poly)
    p._held, p._reduced, p._view, p._terms, p._hash = _exact(nums, den), False, None, None, None
    return p


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


def _canon(nums: dict, den: int) -> Row:
    """nums/den as a canonical row: zeros dropped, content divided out."""
    g = gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g == 1 and all(nums.values()):
        return nums, den
    nums = {e: c // g for e, c in nums.items() if c}
    return (nums, den // g) if nums else _ZROW


def _exact(nums: dict, den: int) -> Row:
    """nums/den, den > 0, as an exact row: zeros dropped, content kept."""
    if not all(nums.values()):
        nums = {e: c for e, c in nums.items() if c}
    return (nums, den) if nums else _ZROW


def _same(a: Row, b: Row) -> bool:
    """Whether exact rows a, b hold the same polynomial: over one
    denominator, the same numerators; else the same terms, and each
    c (bd/g) equal to its c' (ad/g), g = gcd(ad, bd); neither is reduced."""
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return an == bn
    g = gcd(ad, bd)
    fa, fb = bd // g, ad // g
    return an.keys() == bn.keys() and all(c * fa == bn[e] * fb for e, c in an.items())


def _dot(pairs: Iterable[tuple[Row, Row]]) -> Row:
    """The exact row of sum a*b over pairs of rows, not reduced, over the
    lcm of the products ad bd for every caller (a ``TSeries`` product is
    one ``_dot`` per power); ``_canon(*_dot(...))`` reduces it."""
    pairs = [(an, bn, ad * bd) for (an, ad), (bn, bd) in pairs if an and bn]
    den = _lcm(d for _, _, d in pairs)
    acc: dict[tuple[int, int], int] = {}
    for an, bn, d in pairs:
        if len(an) > len(bn):  # scale the shorter row by den / d
            an, bn = bn, an
        f = den // d
        for (i1, j1), c1 in an.items():
            c1 *= f
            for (i2, j2), c2 in bn.items():
                e = (i1 + i2, j1 + j2)
                s = acc.get(e)
                acc[e] = c1 * c2 if s is None else s + c1 * c2
    return _exact(acc, den)


def _substituted(rows: Sequence[Row], x, y) -> list[Row]:
    """Rows over the symbols X, Y with x, y (each a Poly or a rational) put
    in their place: nums/den over X^i Y^j goes to sum nums[i, j]/den x^i y^j,
    not reduced."""
    top = max((max(e) for nums, _ in rows for e in nums), default=0)
    xp, yp = ([_row(p) for p in accumulate(repeat(v, top), mul, initial=1)] for v in (x, y))
    return [_dot((({e: c * k for e, k in xp[i][0].items()}, xp[i][1] * den), yp[j])
                 for (i, j), c in nums.items()) for nums, den in rows]


def _series(order: int, rows: Iterable[Row], s: "TSeries | None" = None) -> "TSeries":
    """The TSeries s (a new one by default) filled with order + 1 exact
    rows; any other count is refused."""
    if order < 0:
        raise ValueError("order must be >= 0")
    rows = tuple(rows)
    if len(rows) != order + 1:
        raise ValueError(f"need {order + 1} coefficients, got {len(rows)}")
    if s is None:
        s = TSeries.__new__(TSeries)
    s._order, s._rows, s._coeffs = order, rows, None
    return s


class TSeries:
    """Power series in t truncated at a fixed order N.

    Each t^n coefficient is an exact row (see ``Row``), which ``==`` and
    ``first_mismatch`` compare unreduced; arithmetic writes canonical rows.
    ``rows`` hands them out as read-only views, which the kernels do not
    build: they read the held rows, ``_rows``.  ``coeffs`` wraps them as
    Poly values t^0 .. t^N, on first read.  ``order`` is read-only too, so
    it always counts the rows that ``_series`` checked.
    Arithmetic never reads or writes beyond the truncation order, and
    mixing different orders is an error rather than a silent re-truncation.
    ``+``, ``-`` and ``*`` give ``NotImplemented`` for an operand that is
    not a series (a ``TypeError``), but ``*`` scales by an int, a Fraction
    or a Poly.
    """

    __slots__ = ("_order", "_rows", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[Poly] | None = None):
        _series(order, [_ZROW] * (order + 1) if coeffs is None else map(_row, coeffs), self)

    @property
    def order(self) -> int:
        return self._order

    @property
    def rows(self) -> tuple[tuple[Mapping[tuple[int, int], int], int], ...]:
        return tuple((MappingProxyType(nums), den) for nums, den in self._rows)

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        # two threads may both build the tuple; either result is the same
        if self._coeffs is None:
            self._coeffs = tuple(map(_poly, self._rows))
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

    def _check(self, other) -> bool:
        """Whether other is a TSeries; one of another order is refused."""
        if not isinstance(other, TSeries):
            return False
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; "
                "construct both series at the same truncation order"
            )
        return True

    def __add__(self, other: "TSeries") -> "TSeries":
        if not self._check(other):
            return NotImplemented
        return _series(self.order, [_canon(*_dot(((a, _UNIT), (b, _UNIT))))
                                    for a, b in zip(self._rows, other._rows)])

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + (-other) if self._check(other) else NotImplemented

    def __neg__(self) -> "TSeries":
        return _series(self.order, [({e: -c for e, c in nums.items()}, den)
                                    for nums, den in self._rows])

    def __mul__(self, other) -> "TSeries":
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        if not self._check(other):
            return NotImplemented
        a, b = self._rows, other._rows
        return _series(self.order, [_canon(*_dot(zip(a[: n + 1], b[n::-1])))
                                    for n in range(self.order + 1)])

    __rmul__ = __mul__

    def scale(self, p) -> "TSeries":
        p = _row(p)
        return _series(self.order, [_canon(*_dot([(r, p)])) for r in self._rows])

    def shift_t(self, k: int) -> "TSeries":
        """Multiply by t^k, dropping coefficients past the order."""
        if k < 0:
            raise ValueError("negative t-shift")
        n = self.order + 1
        return _series(self.order, [_ZROW] * min(k, n) + list(self._rows[: max(n - k, 0)]))

    def inverse(self) -> "TSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        nums, den = self._rows[0]
        if set(nums) != {(0, 0)}:
            raise ValueError("series inverse needs a nonzero constant t^0 coefficient")
        c = nums[(0, 0)]
        out = [_canon({(0, 0): den}, c)]
        minus_inv = _canon({(0, 0): -den}, c)
        for n in range(1, self.order + 1):
            acc = _dot((self._rows[k], out[n - k]) for k in range(1, n + 1))
            out.append(_canon(*_dot([(acc, minus_inv)])))
        return _series(self.order, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and all(map(_same, self._rows, other._rows))

    def is_zero(self) -> bool:
        return not any(nums for nums, _ in self._rows)

    def first_mismatch(self, other: "TSeries") -> int | None:
        """Lowest t-power where the two series differ, or None if equal."""
        if not self._check(other):
            raise TypeError(f"cannot compare a TSeries with {other!r}")
        return next((n for n, (a, b) in enumerate(zip(self._rows, other._rows))
                     if not _same(a, b)), None)

    def __str__(self) -> str:
        parts = [f"({c})*t^{n}" for n, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TSeries(order={self.order}, {self})"


class _Record:
    """Base of the value classes, whose fields are the subclass's ``__slots__``.

    ``__init__`` takes them by position or keyword, with ``_defaults``, then
    runs ``_post_init`` to check or normalise them.  Fields are read-only;
    ``==``, ``hash``, ``repr``, pickle, copy and ``to_dict`` run over them
    in slot order.  A record with a dict field (a report) cannot be hashed.
    """

    __slots__ = ()
    _defaults: Mapping[str, object] = {}

    def __init__(self, *args, **kw):
        names = self.__slots__
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kw}
        if len(args) > len(names) or given.keys() & kw.keys() or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._post_init()

    def _post_init(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())

    def to_dict(self) -> dict:
        """The fields in slot order, those that are None left out: the
        JSON form of a report."""
        return {k: v for k, v in zip(self.__slots__, self._values()) if v is not None}


class ParamSet(_Record):
    """One verification trial's rational parameter assignment.

    Holds the base q and the five family parameters a, b, c, d, e, plus
    identity-specific extras by name in a read-only mapping; an extra may
    not take a base name.  Requires 0 < q < 1.  Hashable; the hash leaves
    the extras out, which equal ParamSets still share.
    """

    __slots__ = ("q", "a", "b", "c", "d", "e", "extras")
    _defaults = {"a": ZERO, "b": ZERO, "c": ZERO, "d": ZERO, "e": ZERO, "extras": {}}

    def _post_init(self):
        for name in self.extras:
            if name in ("q", "a", "b", "c", "d", "e"):
                raise ValueError(f"extra {name!r} has the name of a base parameter")
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

    def __hash__(self):
        return hash(self._values()[:-1])

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
    # randrange(a, b + 1) is randint(a, b), one call shorter
    num = rng.randrange(1, 9)
    if not positive and rng.random() < 0.5:
        num = -num
    den = rng.randrange(9, 33)
    # |num/den| > 1/2 exactly when 2|num| > den: one Fraction per draw
    return Fraction(num, 2 * den if 2 * abs(num) > den else den)


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
