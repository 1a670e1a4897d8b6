"""Exact coefficientwise verification: the identity catalog ID-1..ID-13,
the seven-variable q-difference-equation residuals, and triangular
expansion in the five-parameter polynomial basis.

Every catalog entry builds both sides of one generating-function or
transformation identity as TSeries over Poly coefficients and compares
them exactly.  Identities whose natural coefficients are infinite sums
are handled by the numeric module instead; two entries here (ID-5 and
ID-12) regain finite coefficients by scaling a parameter pair with the
formal variable.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import ONE, ZERO, ParamSet, Poly, TSeries, X, Y, random_paramset
from .qkernel import (
    PhiSpec,
    PoleError,
    _poch_row,
    euler_inverse_series,
    euler_product_series,
    hyper_series,
    qpoch_t_poly,
)
from .polys import PolyFamily, asc5_phi, asc5_psi

Side = tuple[str, TSeries, TSeries]


# ---------------------------------------------------------------------------
# generating-function builders
# ---------------------------------------------------------------------------

def _gf(N: int, q: Fraction, seq: Sequence[Poly],
        weights: Sequence[Fraction] | None = None) -> TSeries:
    """sum_n seq[n] * weights[n] * t^n / (q;q)_n, truncated at N."""
    w = _poch_row((), {"q": q}, q, N)
    if weights is not None:
        w = [a * b for a, b in zip(w, weights)]
    return TSeries(N, [p * c for p, c in zip(seq, w)])


def _phi_seq(ps: ParamSet, N: int, x=X, y=Y) -> list[Poly]:
    """The five-parameter phi_0(x,y) .. phi_N(x,y)."""
    return PolyFamily("asc_new_phi", ps).sequence(N, x, y)


def _alt_weights(q: Fraction, N: int, t_scale: Fraction = ONE) -> list[Fraction]:
    """[(-1)^n q^C(n,2) t_scale^n for n = 0..N]."""
    return _poch_row((), {}, q, N, z=-t_scale, r=q)


def build_id3_rhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    """1/(x*s*t;q)_inf * 3phi2(a,b,c; d,e; q, y*s*t) with t-scale s."""
    pre = euler_inverse_series(X * t_scale, ps.q, N)
    tail = hyper_series(
        PhiSpec([ps.a, ps.b, ps.c], [ps.d, ps.e], ps.q), N, arg_mono=Y * t_scale
    )
    return pre * tail


def build_id3_lhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    return _gf(N, ps.q, _phi_seq(ps, N), [t_scale**n for n in range(N + 1)])


def build_id4_rhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    """(x*s*t;q)_inf * 3phi3(a,b,c; 0,d,e; q, -y*s*t)."""
    pre = euler_product_series(X * t_scale, ps.q, N)
    tail = hyper_series(
        PhiSpec([ps.a, ps.b, ps.c], [Fraction(0), ps.d, ps.e], ps.q),
        N,
        arg_mono=Y * (-t_scale),
    )
    return pre * tail


def build_id4_lhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    psi = PolyFamily("asc_new_psi", ps).sequence(N)
    return _gf(N, ps.q, psi, _alt_weights(ps.q, N, t_scale))


def build_id6_rhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    """(x*s*t;q)_inf * 3phi3(a,b,c; d,e,x*s*t; q, y*s*t), assembled with the
    x-dependent denominator parameter folded into per-term Euler products:
    term k carries (x*s*q^k*t;q)_inf."""
    q = ps.q
    w = _poch_row(
        (ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e, "q": q}, q, N, z=-t_scale, r=q
    )
    out = TSeries.zeros(N)
    for k in range(N + 1):
        term = euler_product_series(X * (t_scale * q**k), q, N).shift_t(k)
        out = out + term.scale(Poly.monomial(0, k, w[k]))
    return out


def build_id6_lhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    return _gf(N, ps.q, _phi_seq(ps, N), _alt_weights(ps.q, N, t_scale))


def build_id5_pair(ps: ParamSet, N: int, sig: Fraction, tau: Fraction) -> Side:
    """Cauchy-polynomial transformation, verified as series in u after the
    substitution (s, t) = (sig*u, tau*u).

    LHS: sum_n phi_n(x,y) p_n(tau,sig) u^n / (q;q)_n
    RHS: 1/(x*tau*u;q)_inf * sum_k W_k y^k u^k (x*sig*q^k*u;q)_inf
         with W_k = (a,b,c;q)_k p_k(tau,sig) / ((d,e;q)_k (q;q)_k).
    """
    q = ps.q
    p = [ONE]  # p_n(tau, sig)
    for n in range(N):
        p.append(p[-1] * (tau - sig * q**n))
    lhs = _gf(N, q, _phi_seq(ps, N), p)
    w = _poch_row((ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e, "q": q}, q, N)
    acc = TSeries.zeros(N)
    for k in range(N + 1):
        wk = w[k] * p[k]
        if wk == 0:
            continue
        term = euler_product_series(X * (sig * q**k), q, N).shift_t(k)
        acc = acc + term.scale(Poly.monomial(0, k, wk))
    rhs = euler_inverse_series(X * tau, q, N) * acc
    return ("u-scaled", lhs, rhs)


def build_id7_pair(ps: ParamSet, N: int, K: int,
                   phi: Sequence[Poly] | None = None) -> Side:
    """Index-shifted generating function for shift K; phi holds
    phi_0 .. phi_(N+K) (at least), built here when not given.

    LHS: sum_n phi_(n+K)(x,y) t^n/(q;q)_n
    RHS: x^K/(xt;q)_inf * sum_n A_n (yt)^n
         * sum_j [n;j] (-1)^j q^(Kj-C(j,2)) (q^-K, xt;q)_j / (xt)^j
    with A_n = (a,b,c;q)_n/((q,d,e;q)_n); the (xt;q)_j/(xt)^j factor is
    expanded exactly, every x and t exponent staying nonnegative because
    (q^-K;q)_j kills j > K.  The q^(Kj) power makes the j-weight equal to
    [n;j] (q;q)_K/(q;q)_(K-j), which is what the K-fold derivative of
    x^K/(xt;q)_inf produces.
    """
    q = ps.q
    if phi is None:
        phi = _phi_seq(ps, N + K)
    lhs = _gf(N, q, phi[K:])

    M = N + K
    qp = [q**m for m in range(M + 1)]
    A = _poch_row((ps.a, ps.b, ps.c), {"q": q, "d": ps.d, "e": ps.e}, q, M)
    # (-1)^j q^(Kj - C(j,2)) (q^-K;q)_j, j <= K
    J = _poch_row((q**-K,), {}, q, K, z=-(q**K), r=1 / q)
    # (xt;q)_j/(xt)^j = sum_i E[j][i] (xt)^-i, E[j][i] = [j;i] (-1)^(j-i) q^C(j-i,2):
    # the q-binomial theorem for (u;q)_j read from the top power down
    E = [_poch_row((q**-j,), {"q": q}, q, j, z=q**j)[::-1] for j in range(K + 1)]
    acc = [Poly.zero()] * (N + 1)
    for n in range(M + 1):
        g = ONE  # [n;j]
        for j in range(min(n, K) + 1):
            if j:
                g = g * (1 - qp[n - j + 1]) / (1 - qp[j])
            base = A[n] * g * J[j]
            if base == 0:
                continue
            for i in range(max(0, n - N), j + 1):
                acc[n - i] = acc[n - i] + Poly.monomial(K - i, n, base * E[j][i])
    rhs = euler_inverse_series(X, q, N) * TSeries(N, acc)
    return (f"k={K}", lhs, rhs)


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    """One exactly-verifiable identity: builders for both sides plus the
    extra parameter names its trials draw."""

    id: str
    title: str
    extras: tuple[str, ...]
    build: Callable[[ParamSet, int], list[Side]]

    def sample(self, rng: random.Random, trial: int = 0) -> ParamSet:
        ps = random_paramset(rng, extras=self.extras)
        if self.id == "ID-12":
            ps = ps.with_values(em=Fraction(1 + trial % 3))
        return ps


def _build_id1(ps: ParamSet, N: int) -> list[Side]:
    lhs = _gf(N, ps.q, PolyFamily("asc_gen3_phi", ps.with_values(d=0, e=0)).sequence(N))
    rhs = euler_inverse_series(Y, ps.q, N) * hyper_series(
        PhiSpec([ps.a, ps.b], [ps.c], ps.q), N, arg_mono=X
    )
    return [("", lhs, rhs)]


def _build_id2(ps: ParamSet, N: int) -> list[Side]:
    psi = PolyFamily("asc_gen3_psi", ps.with_values(d=0, e=0)).sequence(N)
    lhs = _gf(N, ps.q, psi, _alt_weights(ps.q, N))
    rhs = euler_product_series(Y, ps.q, N) * hyper_series(
        PhiSpec([ps.a, ps.b], [ps.c], ps.q), N, arg_mono=X
    )
    return [("", lhs, rhs)]


def _build_id3(ps: ParamSet, N: int) -> list[Side]:
    return [("", build_id3_lhs(ps, N), build_id3_rhs(ps, N))]


def _build_id4(ps: ParamSet, N: int) -> list[Side]:
    return [("", build_id4_lhs(ps, N), build_id4_rhs(ps, N))]


def _build_id5(ps: ParamSet, N: int) -> list[Side]:
    return [build_id5_pair(ps, N, ps.get("sig"), ps.get("tau"))]


def _build_id6(ps: ParamSet, N: int) -> list[Side]:
    return [("", build_id6_lhs(ps, N), build_id6_rhs(ps, N))]


def _build_id7(ps: ParamSet, N: int) -> list[Side]:
    phi = _phi_seq(ps, N + 3)
    return [build_id7_pair(ps, N, K, phi) for K in range(4)]


def _build_id8(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    ps2 = ParamSet(
        q=q,
        a=ps.get("a2"),
        b=ps.get("b2"),
        c=ps.get("c2"),
        d=ps.get("d2"),
        e=ps.get("e2"),
    )
    x1, y1 = ps.get("x1"), ps.get("y1")
    x2, y2 = ps.get("x2"), ps.get("y2")

    lhs = _gf(N, q, [u * v for u, v in zip(_phi_seq(ps, N, x1, y1), _phi_seq(ps2, N, x2, y2))])

    # inner[j][m]: t^m of (x1 x2 t;q)_j * 3phi2(a q^j, b q^j, c q^j; d q^j, e q^j; q, x2 y1 t),
    # all scalars since x1, y1, x2, y2 are
    inner = []
    for j in range(N + 1):
        qj = q**j
        phi32 = hyper_series(
            PhiSpec([ps.a * qj, ps.b * qj, ps.c * qj], [ps.d * qj, ps.e * qj], q),
            N,
            arg_mono=x2 * y1,
        )
        inner.append([p.constant() for p in (qpoch_t_poly(x1 * x2, q, j, N) * phi32).coeffs])

    qp = [q**m for m in range(N + 1)]
    s = _poch_row(
        (ps2.a, ps2.b, ps2.c), {"q": q, "d": ps2.d, "e": ps2.e}, q, N, z=x1 * y2
    )
    v = _poch_row((ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e}, q, N, z=y1 / x1)
    # sum_n s_n t^n sum_j [n;j] v_j inner[j], [n;j] = (q^(n-j+1);q)_j / (q;q)_j;
    # term n reaches only the t-powers m >= n
    acc = [ZERO] * (N + 1)
    for n in range(N + 1):
        g = ONE
        for j in range(n + 1):
            if j:
                g = g * (1 - qp[n - j + 1]) / (1 - qp[j])
            c = s[n] * g * v[j]
            if c:
                for m in range(N + 1 - n):
                    acc[n + m] += c * inner[j][m]
    rhs = euler_inverse_series(Poly.const(x1 * x2), q, N) * TSeries(N, acc)
    return [("", lhs, rhs)]


def _build_id9(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    lhs = _gf(N, q, PolyFamily("cauchy", ParamSet(q)).sequence(N))
    rhs = euler_product_series(Y, q, N) * euler_inverse_series(X, q, N)
    return [("", lhs, rhs)]


def _build_id10(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    lam, x0, y0 = ps.get("lam"), ps.get("x0"), ps.get("y0")
    lhs = _gf(N, q, PolyFamily("cauchy", ParamSet(q)).sequence(N, x0, y0),
              _poch_row((lam,), {}, q, N))
    rhs = hyper_series(
        PhiSpec([lam, y0 / x0], [Fraction(0)], q), N, arg_mono=Poly.const(x0)
    )
    return [("", lhs, rhs)]


def _build_id11(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    ra, rb, rc, rd = (ps.get(k) for k in ("ra", "rb", "rc", "rd"))
    h = PolyFamily("rogers_szego", ParamSet(q))
    lhs = _gf(N, q, [u * v for u, v in zip(h.sequence(N, ra, rb), h.sequence(N, rc, rd))])
    rhs = euler_product_series(Poly.const(ra * rb * rc * rd), q, N, t_power=2)
    for pair in (ra * rc, ra * rd, rb * rc, rb * rd):
        rhs = rhs * euler_inverse_series(Poly.const(pair), q, N)
    return [("", lhs, rhs)]


def _quotient_sum(w: Sequence[Fraction], a: Fraction, b: Fraction, q: Fraction,
                  N: int) -> TSeries:
    """sum_n w[n] u^n (a u;q)_n / (b u;q)_n for scalar a, b, truncated at u^N.

    Each quotient f is the one before times one linear factor
    (1 - a q^(n-1) u) and divided by one (1 - b q^(n-1) u), whose
    geometric series makes the division f_m += b q^(n-1) f_(m-1):
    O(N) per n.
    """
    f = [ONE] + [ZERO] * N
    acc = [ZERO] * (N + 1)
    qn = ONE  # q^(n-1)
    for n, wn in enumerate(w):
        if n:
            aq, bq = a * qn, b * qn
            for m in range(N, 0, -1):
                f[m] -= aq * f[m - 1]
            for m in range(1, N + 1):
                f[m] += bq * f[m - 1]
            qn *= q
        for m in range(N + 1 - n):
            acc[n + m] += wn * f[m]
    return TSeries(N, acc)


def _build_id12(ps: ParamSet, N: int) -> list[Side]:
    """Heine transformation on the terminating slice r = q^-M s, with the
    argument pair (x, s) = (xi*u, sig*u) scaled by the formal variable.

    Any other rational slice leaves u-free infinite products like (r;q)_inf
    in exactly one side, which no finite regrouping cancels; on this slice
    every infinite product is u-scaled and both sides expand exactly.
    """
    q = ps.q
    t0, xi, sig = ps.get("tt"), ps.get("xi"), ps.get("sig")
    M = int(ps.get("em"))
    r_scale = sig * q**-M  # r = r_scale * u

    # LHS: sum_n (t;q)_n (sig*u;q)_n (xi*u)^n / ((r_scale*u;q)_n (q;q)_n)
    lhs = _quotient_sum(_poch_row((t0,), {"q": q}, q, N, z=xi), sig, r_scale, q, N)

    # RHS prefactor (s, x t;q)_inf / ((r, x;q)_inf), all u-scaled products
    pre = (
        euler_product_series(Poly.const(sig), q, N)
        * euler_product_series(Poly.const(xi * t0), q, N)
        * euler_inverse_series(Poly.const(r_scale), q, N)
        * euler_inverse_series(Poly.const(xi), q, N)
    )
    # 2phi1(q^-M, x; x t; q, s): terminating in k <= M
    tail = _quotient_sum(_poch_row((q**-M,), {"q": q}, q, M, z=sig), xi, xi * t0, q, N)
    rhs = pre * tail
    return [("u-scaled", lhs, rhs)]


def _build_id13(ps: ParamSet, N: int) -> list[Side]:
    """Parameter collapse c = e = 0 of the five-parameter pair.

    The phi side coincides literally with the three-parameter machinery
    under the role swap (x <-> y, c-slot <- d); the psi side collapses to
    the matching product-times-2phi2 shape (its three-parameter cousin
    differs termwise by a q^C(k,2) twist, checked at the polynomial level
    in the test suite).
    """
    q = ps.q
    ps0 = ps.with_values(c=0, e=0)

    s1 = build_id3_lhs(ps0, N)
    s2 = _gf(N, q, PolyFamily("asc_gen3_phi", ParamSet(q, ps.a, ps.b, ps.d)).sequence(N, Y, X))
    r1 = build_id3_rhs(ps0, N)
    r2 = euler_inverse_series(X, q, N) * hyper_series(
        PhiSpec([ps.a, ps.b], [ps.d], q), N, arg_mono=Y
    )
    l4 = build_id4_lhs(ps0, N)
    r4 = euler_product_series(X, q, N) * hyper_series(
        PhiSpec([ps.a, ps.b], [Fraction(0), ps.d], q), N, arg_mono=-Y
    )
    return [
        ("phi-lhs-swap", s1, s2),
        ("phi-rhs-swap", r1, r2),
        ("phi-identity", s1, r1),
        ("psi-identity", l4, r4),
    ]


CATALOG: dict[str, IdentityCheck] = {
    c.id: c
    for c in [
        IdentityCheck(
            "ID-1",
            "three-parameter phi generating function",
            (),
            _build_id1,
        ),
        IdentityCheck(
            "ID-2",
            "three-parameter psi generating function (alternating weight)",
            (),
            _build_id2,
        ),
        IdentityCheck(
            "ID-3",
            "five-parameter phi generating function: 1/(xt)_inf * 3phi2",
            (),
            _build_id3,
        ),
        IdentityCheck(
            "ID-4",
            "five-parameter psi generating function: (xt)_inf * 3phi3, "
            "alternating weight",
            (),
            _build_id4,
        ),
        IdentityCheck(
            "ID-5",
            "Cauchy-polynomial transformation, (s,t) scaled by the formal variable",
            ("sig", "tau"),
            _build_id5,
        ),
        IdentityCheck(
            "ID-6",
            "alternating phi generating function: (xt)_inf * 3phi3 with xt slot",
            (),
            _build_id6,
        ),
        IdentityCheck(
            "ID-7",
            "index-shifted generating function, shifts k = 0..3",
            (),
            _build_id7,
        ),
        IdentityCheck(
            "ID-8",
            "product of two five-parameter families: double-sum expansion",
            ("a2", "b2", "c2", "d2", "e2", "x1", "y1", "x2", "y2"),
            _build_id8,
        ),
        IdentityCheck(
            "ID-9",
            "Cauchy identity: sum p_n t^n/(q;q)_n = (yt)_inf/(xt)_inf",
            (),
            _build_id9,
        ),
        IdentityCheck(
            "ID-10",
            "Srivastava-Agarwal generating function for Cauchy polynomials",
            ("lam", "x0", "y0"),
            _build_id10,
        ),
        IdentityCheck(
            "ID-11",
            "Rogers-Szego Mehler formula",
            ("ra", "rb", "rc", "rd"),
            _build_id11,
        ),
        IdentityCheck(
            "ID-12",
            "Heine transformation, terminating slice r = q^-M s",
            ("tt", "xi", "sig"),
            _build_id12,
        ),
        IdentityCheck(
            "ID-13",
            "c = e = 0 collapse onto the three-parameter families",
            (),
            _build_id13,
        ),
    ]
}

CATALOG_ORDER = list(CATALOG)


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """Outcome of one identity trial."""

    id: str
    params: dict[str, str]
    order: int
    status: str  # pass | fail | pole | error
    first_mismatch: dict | None = None
    runtime_ms: int = 0
    trial: int = 0

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "trial": self.trial,
            "params": self.params,
            "status": self.status,
        }
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch
        out["runtime_ms"] = self.runtime_ms
        return out


def verify(check: IdentityCheck, params: ParamSet, order: int, trial: int = 0) -> Report:
    """Build both sides of every subcheck and compare exactly."""
    t0 = time.perf_counter()
    status = "pass"
    mismatch = None
    try:
        for sub, lhs, rhs in check.build(params, order):
            n = lhs.first_mismatch(rhs)
            if n is not None:
                status = "fail"
                mismatch = {
                    "power": n,
                    "sub": sub,
                    "lhs": str(lhs.coeff(n)),
                    "rhs": str(rhs.coeff(n)),
                }
                break
    except PoleError as exc:
        status = "pole"
        mismatch = {"power": exc.index, "sub": "", "lhs": str(exc), "rhs": ""}
    except Exception as exc:
        # anything but a named pole is a defect in the builder, not a
        # property of the draw
        status = "error"
        mismatch = {"power": None, "sub": "", "lhs": f"{type(exc).__name__}: {exc}", "rhs": ""}
    ms = int((time.perf_counter() - t0) * 1000)
    return Report(
        id=check.id,
        params=params.render(),
        order=order,
        status=status,
        first_mismatch=mismatch,
        runtime_ms=ms,
        trial=trial,
    )


def trial_paramset(check: IdentityCheck, seed: int, trial: int) -> ParamSet:
    """Deterministic per-(identity, trial) parameter draw."""
    rng = random.Random(f"{seed}:{check.id}:{trial}")
    return check.sample(rng, trial)


# ---------------------------------------------------------------------------
# q-difference-equation residuals
# ---------------------------------------------------------------------------

def _residual_poly(which: str, p: Poly, ps: ParamSet) -> Poly:
    q = ps.q
    a, b, c, d, e = ps.a, ps.b, ps.c, ps.d, ps.e

    def s(al: int, be: int) -> Poly:
        return p.shift(q**al, q**be)

    if which == "phi_eq":
        left = X * (
            s(0, 0)
            - s(0, 1)
            - (d + e) / q * (s(0, 1) - s(0, 2))
            + d * e / q**2 * (s(0, 2) - s(0, 3))
        )
        right = Y * (
            (s(0, 0) - s(1, 0))
            - (a + b + c) * (s(0, 1) - s(1, 1))
            + (a * b + a * c + b * c) * (s(0, 2) - s(1, 2))
            - a * b * c * (s(0, 3) - s(1, 3))
        )
    elif which == "psi_eq":
        left = X * (
            s(1, 0)
            - s(1, 1)
            - (d + e) / q * (s(1, 1) - s(1, 2))
            + d * e / q**2 * (s(1, 2) - s(1, 3))
        )
        right = Y * (
            (s(1, 1) - s(0, 1))
            - (a + b + c) * (s(1, 2) - s(0, 2))
            + (a * b + a * c + b * c) * (s(1, 3) - s(0, 3))
            - a * b * c * (s(1, 4) - s(0, 4))
        )
    else:
        raise ValueError("which must be 'phi_eq' or 'psi_eq'")
    return left - right


def qdiff_residual(which: str, f: TSeries, ps: ParamSet) -> TSeries:
    """Left minus right side of the seven-variable difference equation,
    applied to every t-coefficient of f.  Zero means f satisfies it."""
    return TSeries(f.order, [_residual_poly(which, p, ps) for p in f.coeffs])


# ---------------------------------------------------------------------------
# triangular basis expansion
# ---------------------------------------------------------------------------

class BasisExpansionError(ValueError):
    """Input not expressible in the requested basis range."""

    def __init__(self, message: str, remainder: Poly):
        super().__init__(message)
        self.remainder = remainder


def _basis_poly(basis: str, n: int, ps: ParamSet) -> Poly:
    if basis == "phi":
        return asc5_phi(n, ps)
    if basis == "psi":
        return asc5_psi(n, ps)
    raise ValueError("basis must be 'phi' or 'psi'")


def expand_poly_in_basis(
    p: Poly, basis: str, ps: ParamSet, nmax: int | None = None
) -> list[Poly]:
    """Write p = sum_n mu_n * basis_n(x,y) by back-substitution on the
    x-degree, which is triangular because basis_n = x^n + (y-tail).

    The mu_n come back as polynomials in y alone; inputs lying in the
    rational span (like the generating-function coefficients) produce
    constant mu_n.  Raises BasisExpansionError when nmax is too small to
    absorb the x-degree of p.
    """
    deg = max(p.x_degree(), 0)
    if nmax is None:
        nmax = deg
    mu = [Poly.zero()] * (nmax + 1)
    rem = p
    for n in range(min(nmax, max(rem.x_degree(), 0)), -1, -1):
        cn = rem.xcoeff_as_y_poly(n)
        if cn.is_zero():
            continue
        mu[n] = cn
        rem = rem - cn * _basis_poly(basis, n, ps)
    if not rem.is_zero():
        raise BasisExpansionError(
            f"remainder of x-degree {rem.x_degree()} exceeds basis range {nmax}",
            rem,
        )
    return mu


def expand_series_in_basis(
    f: TSeries, basis: str, ps: ParamSet, nmax: int | None = None
) -> list[list[Poly]]:
    """Per-t-power basis expansion of a TSeries; element [m][n] is mu_n for
    the coefficient of t^m."""
    return [expand_poly_in_basis(p, basis, ps, nmax) for p in f.coeffs]


def synthesize_from_basis(mu: Sequence[Poly], basis: str, ps: ParamSet) -> Poly:
    """Inverse of expand_poly_in_basis: sum_n mu_n * basis_n."""
    out = Poly.zero()
    for n, m in enumerate(mu):
        if not m.is_zero():
            out = out + m * _basis_poly(basis, n, ps)
    return out
