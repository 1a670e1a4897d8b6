"""Exact arithmetic substrate: rationals, sparse bivariate polynomials in
{x, y}, and truncated power series in a formal variable t.

No value here is changed after construction, so values are safe to share
across threads; ``Poly.terms`` and ``TSeries.coeffs`` are plain containers
that callers must not write to.  The coefficient field is
``fractions.Fraction`` throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

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
    """Sparse polynomial in x and y with Fraction coefficients.

    Terms are stored as a dict mapping exponent pairs (i, j) to nonzero
    coefficients, where i is the degree in x and j the degree in y.
    Zero coefficients are never stored, so equality is term-map equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        t = {}
        if terms:
            for (i, j), c in terms.items():
                if c:
                    if i < 0 or j < 0:
                        raise ValueError(f"negative exponent in term ({i},{j})")
                    t[(i, j)] = c
        self.terms = t

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({(0, 0): ONE})

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0, 0): as_fraction(c)})

    @staticmethod
    def monomial(i: int, j: int, c=ONE) -> "Poly":
        return Poly({(i, j): as_fraction(c)})

    @staticmethod
    def x() -> "Poly":
        return Poly({(1, 0): ONE})

    @staticmethod
    def y() -> "Poly":
        return Poly({(0, 1): ONE})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce_poly(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            if s is None:
                t[e] = c
            elif s := s + c:
                t[e] = s
            else:
                del t[e]
        return _raw(t)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if not c:
                return Poly()
            return _raw({e: k * c for e, k in self.terms.items()})
        t: dict[tuple[int, int], Fraction] = {}
        _mul_into(t, self.terms, _coerce_poly(other).terms)
        return _nonzero(t)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) <= 1

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0)}

    def coeff(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), ZERO)

    def constant(self) -> Fraction:
        return self.terms.get((0, 0), ZERO)

    def x_degree(self) -> int:
        """Largest x-exponent present; -1 for the zero polynomial."""
        return max((i for (i, _) in self.terms), default=-1)

    def shift(self, sx: Fraction, sy: Fraction) -> "Poly":
        """Substitute x -> sx*x and y -> sy*y.

        The coefficient of x^i y^j is multiplied by sx^i sy^j.
        """
        sx = as_fraction(sx)
        sy = as_fraction(sy)
        t = {}
        for (i, j), c in self.terms.items():
            k = c * sx**i * sy**j
            if k:
                t[(i, j)] = k
        return _raw(t)

    def eval(self, xv, yv) -> Fraction:
        """Evaluate at exact rational points."""
        xv = as_fraction(xv)
        yv = as_fraction(yv)
        return sum((c * xv**i * yv**j for (i, j), c in self.terms.items()), ZERO)

    def xcoeff_as_y_poly(self, i: int) -> "Poly":
        """Collect the coefficient of x^i as a polynomial in y alone."""
        return _raw({(0, j): c for (ii, j), c in self.terms.items() if ii == i})

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


def _raw(terms: dict[tuple[int, int], Fraction]) -> Poly:
    p = Poly.__new__(Poly)
    p.terms = terms
    return p


def _mul_into(acc: dict, a: Mapping, b: Mapping) -> None:
    """Add the product of the term maps a and b into acc; a cancelled key
    stays in acc with value 0 (see _nonzero)."""
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            s = acc.get(e)
            acc[e] = c1 * c2 if s is None else s + c1 * c2


def _nonzero(terms: dict) -> Poly:
    """The Poly of an accumulator's nonzero terms."""
    return _raw({e: c for e, c in terms.items() if c})


def _coerce_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    raise TypeError(f"cannot use {v!r} as a polynomial")


X = Poly.x()
Y = Poly.y()


class TSeries:
    """Power series in t truncated at a fixed order N.

    Coefficients are Poly values for t^0 .. t^N.  Arithmetic never reads or
    writes beyond the truncation order, and mixing different orders is an
    error rather than a silent re-truncation.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Poly] | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        if coeffs is None:
            self.coeffs = [Poly.zero()] * (order + 1)
        else:
            cs = [_coerce_poly(c) for c in coeffs]
            if len(cs) != order + 1:
                raise ValueError(f"need {order + 1} coefficients, got {len(cs)}")
            self.coeffs = cs

    @staticmethod
    def zeros(order: int) -> "TSeries":
        return TSeries(order)

    @staticmethod
    def one(order: int) -> "TSeries":
        cs = [Poly.one()] + [Poly.zero()] * order
        return TSeries(order, cs)

    @staticmethod
    def from_poly(p: Poly, order: int) -> "TSeries":
        cs = [_coerce_poly(p)] + [Poly.zero()] * order
        return TSeries(order, cs)

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
        return TSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TSeries") -> "TSeries":
        self._check(other)
        return TSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "TSeries":
        return TSeries(self.order, [-a for a in self.coeffs])

    def __mul__(self, other) -> "TSeries":
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        self._check(other)
        n = self.order
        acc = [{} for _ in range(n + 1)]  # one term map per power of t
        right = [(j, b.terms) for j, b in enumerate(other.coeffs) if b.terms]
        for i, a in enumerate(self.coeffs):
            if a.terms:
                for j, b in right:
                    if i + j > n:
                        break
                    _mul_into(acc[i + j], a.terms, b)
        return TSeries(n, [_nonzero(t) for t in acc])

    __rmul__ = __mul__

    def scale(self, p) -> "TSeries":
        p = _coerce_poly(p)
        return TSeries(self.order, [c * p for c in self.coeffs])

    def shift_t(self, k: int) -> "TSeries":
        """Multiply by t^k, dropping coefficients past the order."""
        if k < 0:
            raise ValueError("negative t-shift")
        cs = [Poly.zero()] * min(k, self.order + 1) + self.coeffs[: max(self.order + 1 - k, 0)]
        return TSeries(self.order, cs)

    def inverse(self) -> "TSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self.coeffs[0]
        if not c0.is_constant() or c0.is_zero():
            raise ValueError("series inverse needs a nonzero constant t^0 coefficient")
        inv0 = 1 / c0.constant()
        out = [Poly.zero()] * (self.order + 1)
        out[0] = Poly.const(inv0)
        for n in range(1, self.order + 1):
            acc: dict[tuple[int, int], Fraction] = {}
            for k in range(1, n + 1):
                _mul_into(acc, self.coeffs[k].terms, out[n - k].terms)
            out[n] = _nonzero(acc) * (-inv0)
        return TSeries(self.order, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def first_mismatch(self, other: "TSeries") -> int | None:
        """Lowest t-power where the two series differ, or None if equal."""
        self._check(other)
        for n in range(self.order + 1):
            if self.coeffs[n] != other.coeffs[n]:
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


def random_rational(rng: random.Random, positive: bool = False, nonzero: bool = True) -> Fraction:
    """Draw one bounded rational: numerator in [-8, 8] without 0, denominator
    in [9, 32], halved when the magnitude exceeds 1/2.

    Keeps every draw inside (-1/2, 1/2], which stays clear of q-shifted
    factorial poles and bounds coefficient bit-growth through order 12.
    """
    num = rng.randint(1, 8)
    if not positive and rng.random() < 0.5:
        num = -num
    if not nonzero and rng.random() < 0.1:
        return ZERO
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
