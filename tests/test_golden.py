"""Printed exact outputs pinned by sha256: the operator series T/E, the
Leibniz rules, a nonzero q-difference residual and two basis expansions
(spanned series coefficients, and random polynomials with y-dependent mu_n),
and the canonical rows of every catalog side.

The first five digests were taken from the Fraction-dict Poly, before Poly
moved onto integer rows; any change of value, term order or rendering shows
here.  The catalog digest was taken before ``_chain_product`` moved onto
``qkernel._walk``, so a builder rewrite that changes any side's value shows.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as F

from qasc.core import Poly, TSeries, Y, _canon, random_paramset
from qasc.identities import (CATALOG, build_id3_rhs, build_id4_rhs, expand_poly_in_basis,
                             expand_series_in_basis, qdiff_residual, trial_paramset)
from qasc.qops import OperatorSpec, apply_operator, leibniz

ORDER = 8


def _random_poly(rng: random.Random) -> Poly:
    """Six monomials of x-degree <= 6, y-degree <= 3, signed coefficients."""
    return Poly({(rng.randint(0, 6), rng.randint(0, 3)): F(rng.randint(-9, 9), rng.randint(1, 40))
                 for _ in range(6)})


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _operator_lines():
    rng = random.Random("golden:operator")
    for _ in range(4):
        ps, p = random_paramset(rng), _random_poly(rng)
        for kind in ("T", "E"):
            yield str(apply_operator(OperatorSpec(kind, ps), p))


def _leibniz_lines():
    rng = random.Random("golden:leibniz")
    for _ in range(2):
        q, f, g = random_paramset(rng).q, _random_poly(rng), _random_poly(rng)
        for n in range(5):
            for op in ("dq", "theta"):
                yield str(leibniz(op, f, g, n, q))


def _shifted_residual(which: str, build) -> TSeries:
    ps = random_paramset(random.Random(f"golden:{which}"))
    coeffs = list(build(ps, ORDER).coeffs)
    coeffs[3] = coeffs[3] + Y
    return qdiff_residual(which, TSeries(ORDER, coeffs), ps)


def _basis_lines():
    for basis, build in (("phi", build_id3_rhs), ("psi", build_id4_rhs)):
        ps = random_paramset(random.Random(f"golden:{basis}"))
        for mus in expand_series_in_basis(build(ps, ORDER), basis, ps):
            yield " | ".join(map(str, mus))


def _random_expansion_lines():
    """mu_0..mu_deg of seeded random polynomials, whose mu_n are polynomials
    in y; the length of each list is part of the printed line."""
    for basis in ("phi", "psi"):
        rng = random.Random(f"golden:expand:{basis}")
        ps = random_paramset(rng)
        for _ in range(6):
            mu = expand_poly_in_basis(_random_poly(rng), basis, ps)
            yield f"{len(mu)}: " + " | ".join(map(str, mu))


def _catalog_lines():
    """Each side's canonical rows, sorted terms over their denominator, for
    every catalog check at order 12 (seeds 42 and 101, trials 0 and 1) and
    at order 20 (seed 42, trial 0); none of these draws meets a pole."""
    for order, seed, trial in ((12, 42, 0), (12, 42, 1), (12, 101, 0), (12, 101, 1),
                               (20, 42, 0)):
        for cid, check in CATALOG.items():
            for sub, lhs, rhs in check.build(trial_paramset(check, seed, trial), order):
                for name, s in (("lhs", lhs), ("rhs", rhs)):
                    rows = (_canon(*row) for row in s._rows)
                    yield f"{cid}:{order}:{seed}:{trial}:{sub}:{name} " + "; ".join(
                        f"{sorted(nums.items())}/{den}" for nums, den in rows)


def test_operator_series_digest():
    assert _digest(_operator_lines()) == (
        "0c0d43d19df1d9f3259d60a87c8c686065075050836f6d2361f91d1ed72fa546")


def test_leibniz_digest():
    assert _digest(_leibniz_lines()) == (
        "8e1dc1b17b1e4e5ab6928b2cf9f1d9b6921e78f4dfb0fa14af5f78a49ade05fd")


def test_shifted_residual_digest():
    phi, psi = _shifted_residual("phi_eq", build_id3_rhs), _shifted_residual("psi_eq", build_id4_rhs)
    # moving t^3 by y breaks the equation there and nowhere else
    assert [n for n, c in enumerate(phi.coeffs) if c] == [3]
    assert [n for n, c in enumerate(psi.coeffs) if c] == [3]
    assert _digest([str(phi), str(psi)]) == (
        "a61264a61d25eff90e8fbe6cfb37da15f64ef1b66e6cf90086e6a12b5ac1c01e")


def test_basis_expansion_digest():
    assert _digest(_basis_lines()) == (
        "93faf596b3f71500fb29b585b198a4de64d74cda3eaa3df4203da012a256feb1")


def test_random_expansion_digest():
    lines = list(_random_expansion_lines())
    assert any("y" in line for line in lines)  # some mu_n depend on y
    assert _digest(lines) == (
        "ec3c71f23cb211a0aabd6d9de250e04f9d5cf942a8e2528d98b6ea77c9681e94")


def test_catalog_rows_digest():
    assert _digest(_catalog_lines()) == (
        "6b6ff2e9e8f9a216e16619b3571e99c11f5deb1ac67833ec9e01aa631ec826e5")
