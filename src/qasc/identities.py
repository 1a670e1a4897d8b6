"""Exact coefficientwise verification: the identity catalog ID-1..ID-13,
the seven-variable q-difference-equation residuals, and triangular
expansion in the five-parameter polynomial basis.

Every catalog entry builds both sides of one generating-function or
transformation identity as TSeries, writing their integer rows directly,
and compares them exactly.  Identities whose natural coefficients are infinite sums
are handled by the numeric module instead; two entries here (ID-5 and
ID-12) regain finite coefficients by scaling a parameter pair with the
formal variable.  The builders and the basis expansion read the family
rows p_0..p_N as one prefix (``polys._family_rows``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from .core import (ONE, ParamSet, Poly, Row, TSeries, X, Y, _canon, _dot, _poly,
                   _reduced, _series, _sum_terms, random_paramset)
from .qkernel import (
    PhiSpec,
    PoleError,
    _common_den,
    _euler,
    _poch_row,
    _qbinom_rows,
    euler_inverse_series,
    euler_product_series,
    hyper_series,
)
from .polys import _family_rows

Side = tuple[str, TSeries, TSeries]


# ---------------------------------------------------------------------------
# generating-function builders
# ---------------------------------------------------------------------------

def _gf(N: int, q: Fraction, seq: Sequence[Row],
        weights: Sequence[tuple[int, int]] | None = None) -> TSeries:
    """sum_n seq[n] * weights[n] * t^n / (q;q)_n for rows seq and a
    ``_poch_row`` weight row, truncated at N."""
    e = _poch_row((), {"q": q}, q, N)
    if weights is not None:
        e = [(a * c, b * d) for (a, b), (c, d) in zip(e, weights)]
    rows = []
    for (nums, den), (en, ed) in zip(seq, e):
        g = gcd(en, den)  # the powers of qd in en cancel against den
        rows.append(_canon({k: c * (en // g) for k, c in nums.items()}, den // g * ed))
    return _series(N, rows)


def _asc5_rows(which: str, ps: ParamSet, N: int, x=X, y=Y) -> list[Row]:
    """The five-parameter phi_0(x,y) .. phi_N(x,y), or psi_0 .. psi_N, as
    rows: one read of the family's prefix."""
    if which not in ("phi", "psi"):
        raise ValueError("basis must be 'phi' or 'psi'")
    return _family_rows(f"asc_new_{which}", N, ps.q, ps.a, ps.b, ps.c, ps.d, ps.e, x, y)


def _alt_weights(q: Fraction, N: int, t_scale: Fraction = ONE) -> list[tuple[int, int]]:
    """(-1)^n q^C(n,2) t_scale^n for n = 0..N, as a ``_poch_row`` row."""
    return _poch_row((), {}, q, N, z=-t_scale, r=q)


def build_id3_rhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    """1/(x*s*t;q)_inf * 3phi2(a,b,c; d,e; q, y*s*t) with t-scale s."""
    pre = euler_inverse_series(X * t_scale, ps.q, N)
    tail = hyper_series(
        PhiSpec([ps.a, ps.b, ps.c], [ps.d, ps.e], ps.q), N, arg_mono=Y * t_scale
    )
    return pre * tail


def build_id3_lhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    return _gf(N, ps.q, _asc5_rows("phi", ps, N), _poch_row((), {}, ps.q, N, z=t_scale))


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
    return _gf(N, ps.q, _asc5_rows("psi", ps, N), _alt_weights(ps.q, N, t_scale))


def _euler_rows(terms: Iterable[tuple[int, int, int, int, int, Fraction]], q: Fraction,
                N: int, inverse: bool = False, reduce: bool = True) -> list[Row]:
    """The rows (canonical with reduce) of sum c x^i y^j t^d (x s t;q)_inf
    over terms (cn, cd, i, j, d, s) with c = cn/cd, or of
    c x^i y^j t^d / (x s t;q)_inf when inverse, truncated at t^N.

    One Euler row e_m serves every term: term m of a summand is
    c e_m s^m x^(i+m) y^j t^(d+m), each t-power summed on integers.
    """
    e = _poch_row((), {"q": q}, q, N) if inverse else _poch_row((), {"q": q}, q, N, z=-ONE, r=q)
    rows: dict[Fraction, list] = {}  # s -> e_m s^m, reduced
    parts: list[list] = [[] for _ in range(N + 1)]
    for cn, cd, i, j, d, s in terms:
        if s not in rows:
            rows[s] = [_reduced(n * s.numerator**m, dn * s.denominator**m)
                       for m, (n, dn) in enumerate(e)]
        cn, cd = _reduced(cn, cd)
        for m, (en, ed) in enumerate(rows[s][: max(N + 1 - d, 0)]):
            parts[d + m].append(((i + m, j), cn * en, (cd, ed)))
    return [_sum_terms(p, reduce) for p in parts]


def build_id6_rhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    """(x*s*t;q)_inf * 3phi3(a,b,c; d,e,x*s*t; q, y*s*t), summed as
    sum_k w_k y^k t^k (x*s*q^k*t;q)_inf: the x-dependent denominator
    parameter folded into the Euler product of term k."""
    q = ps.q
    w = _poch_row((ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e, "q": q}, q, N, z=-t_scale, r=q)
    return _series(N, _euler_rows([(wn, wd, 0, k, k, t_scale * q**k)
                                   for k, (wn, wd) in enumerate(w)], q, N))


def build_id6_lhs(ps: ParamSet, N: int, t_scale: Fraction = ONE) -> TSeries:
    return _gf(N, ps.q, _asc5_rows("phi", ps, N), _alt_weights(ps.q, N, t_scale))


def build_id5_pair(ps: ParamSet, N: int, sig: Fraction, tau: Fraction) -> Side:
    """Cauchy-polynomial transformation, verified as series in u after the
    substitution (s, t) = (sig*u, tau*u).

    LHS: sum_n phi_n(x,y) p_n(tau,sig) u^n / (q;q)_n
    RHS: 1/(x*tau*u;q)_inf * sum_k W_k y^k u^k (x*sig*q^k*u;q)_inf
         with W_k = (a,b,c;q)_k p_k(tau,sig) / ((d,e;q)_k (q;q)_k).
    """
    q = ps.q
    # p_n(tau, sig) = prod_(m<n) (tau - sig q^m) = tau^n (sig/tau;q)_n
    p = _poch_row((sig / tau,), {}, q, N, z=tau) if tau else _poch_row((), {}, q, N, z=-sig, r=q)
    lhs = _gf(N, q, _asc5_rows("phi", ps, N), p)
    w = _poch_row((ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e, "q": q}, q, N)
    acc = _series(N, _euler_rows([(wn * pn, wd * pd, 0, k, k, sig * q**k)
                                  for k, ((wn, wd), (pn, pd)) in enumerate(zip(w, p))], q, N))
    rhs = euler_inverse_series(X * tau, q, N) * acc
    return ("u-scaled", lhs, rhs)


def _id7_sums(ps: ParamSet, N: int, top: int) -> list[list[Row]]:
    """The unreduced rows of H_j = sum_(n=j..N+j) A_n [n;j] y^n t^(n-j)
    / (x q^j t;q)_inf for j = 0..top, A_n = (a,b,c;q)_n/((q,d,e;q)_n)."""
    q = ps.q
    binom, qd = _qbinom_rows(q, N + top), q.denominator
    A = _poch_row((ps.a, ps.b, ps.c), {"q": q, "d": ps.d, "e": ps.e}, q, N + top)
    return [_euler_rows([(A[n][0] * binom[n][j], A[n][1] * qd ** (j * (n - j)), 0, n, n - j, q**j)
                         for n in range(j, N + j + 1)], q, N, inverse=True, reduce=False)
            for j in range(top + 1)]


def build_id7_pair(ps: ParamSet, N: int, K: int, phi: Sequence[Row] | None = None,
                   H: Sequence[list[Row]] | None = None) -> Side:
    """Index-shifted generating function for shift K; phi (the rows of
    phi_0 .. phi_(N+K)) and H (``_id7_sums`` to K) are built when not given.

    LHS: sum_n phi_(n+K)(x,y) t^n/(q;q)_n
    RHS: x^K/(xt;q)_inf * sum_n A_n (yt)^n
         * sum_j [n;j] (-1)^j q^(Kj-C(j,2)) (q^-K, xt;q)_j / (xt)^j
    with A_n = (a,b,c;q)_n/((q,d,e;q)_n).  Since (xt;q)_j/(xt;q)_inf =
    1/(x q^j t;q)_inf, the right side is sum_j J_j x^(K-j) H_j, every x
    and t exponent nonnegative because (q^-K;q)_j kills j > K.  The q^(Kj)
    power makes the j-weight J_j equal to (q;q)_K/(q;q)_(K-j), which is
    what the K-fold derivative of x^K/(xt;q)_inf produces.
    """
    q = ps.q
    if phi is None:
        phi = _asc5_rows("phi", ps, N + K)
    lhs = _gf(N, q, phi[K:])
    if H is None:
        H = _id7_sums(ps, N, K)
    # (-1)^j q^(Kj - C(j,2)) (q^-K;q)_j, j <= K
    J = _poch_row((q**-K,), {}, q, K, z=-(q**K), r=1 / q)
    rhs = _series(N, [_dot((h[n], ({(K - j, 0): J[j][0]}, J[j][1]))
                           for j, h in enumerate(H[: K + 1])) for n in range(N + 1)])
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
    lhs = _gf(N, ps.q, _family_rows("asc_gen3_phi", N, ps.q, ps.a, ps.b, ps.c))
    rhs = euler_inverse_series(Y, ps.q, N) * hyper_series(
        PhiSpec([ps.a, ps.b], [ps.c], ps.q), N, arg_mono=X
    )
    return [("", lhs, rhs)]


def _build_id2(ps: ParamSet, N: int) -> list[Side]:
    psi = _family_rows("asc_gen3_psi", N, ps.q, ps.a, ps.b, ps.c)
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
    phi = _asc5_rows("phi", ps, N + 3)
    H = _id7_sums(ps, N, 3)
    return [build_id7_pair(ps, N, K, phi, H) for K in range(4)]


def _build_id8(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    ps2 = ParamSet(q, *(ps.get(k) for k in ("a2", "b2", "c2", "d2", "e2")))
    x1, y1, x2, y2 = (ps.get(k) for k in ("x1", "y1", "x2", "y2"))

    phi1, phi2 = _asc5_rows("phi", ps, N, x1, y1), _asc5_rows("phi", ps2, N, x2, y2)
    lhs = _gf(N, q, [_dot([(u, v)]) for u, v in zip(phi1, phi2)])

    # v_j times t^m of the j-th 3phi2(a q^j, b q^j, c q^j; d q^j, e q^j; q, x2 y1 t)
    # is A_(j+m) (y1/x1)^j (x2 y1)^m/(q;q)_m with A_k = (a,b,c;q)_k/(d,e;q)_k:
    # one A row and one (x2 y1)^m/(q;q)_m row, on integers over Ad and wd
    A, Ad = _common_den(_poch_row((ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e}, q, N))
    w, wd = _common_den(_poch_row((), {"q": q}, q, N, z=x2 * y1))
    s, sd = _common_den(_poch_row(
        (ps2.a, ps2.b, ps2.c), {"q": q, "d": ps2.d, "e": ps2.e}, q, N, z=x1 * y2
    ))
    # inner[j]: t^m of v_j (x1 x2 t;q)_j * 3phi2 for m <= N - j, all that the
    # terms n >= j reach: the q-binomial row of (x1 x2 t;q)_j, [j;k] (-1)^k
    # q^C(k,2) (x1 x2)^k over L = qd^C(N,2) pd^N with x1 x2 = pn/pd,
    # convolved with v_j times the 3phi2 row over Ad wd rd^N, y1/x1 = rn/rd
    binom, qn, qd = _qbinom_rows(q, N), q.numerator, q.denominator
    P, r = x1 * x2, y1 / x1
    pn, pd, rn, rd = P.numerator, P.denominator, r.numerator, r.denominator
    top = N * (N - 1) // 2
    inner = []
    for j in range(N + 1):
        f = [(-1) ** k * b * qn ** (k * (k - 1) // 2) * pn**k * pd ** (N - k)
             * qd ** (top - k * (j - k) - k * (k - 1) // 2) for k, b in enumerate(binom[j])]
        g = [rn**j * rd ** (N - j) * a * b for a, b in zip(A[j:], w)]
        row = [0] * (N + 1 - j)
        for k, fk in enumerate(f[: N + 1 - j]):
            for m, x in enumerate(g[: N + 1 - j - k], k):
                row[m] += fk * x
        inner.append(row)
    # sum_n s_n t^n sum_j [n;j] inner[j] on integers over one denominator,
    # [n;j] = binom[n][j] / qd^(j(n-j)) over qd^E with E the largest
    # j(n-j); term n reaches only the t-powers m >= n
    E = (N // 2) * (N - N // 2)
    acc = [0] * (N + 1)
    for n in range(N + 1):
        if s[n]:
            row = [0] * (N + 1 - n)
            for j in range(n + 1):
                c = binom[n][j] * qd ** (E - j * (n - j))
                for m, x in enumerate(inner[j][: N + 1 - n]):
                    row[m] += c * x
            for m, x in enumerate(row, n):
                acc[m] += s[n] * x
    # times 1/(x1 x2 t;q)_inf
    den = sd * Ad * wd * rd**N * pd**N * qd ** (top + E)
    rhs = euler_inverse_series(P, q, N) * _euler(ONE, N, [(c, den) for c in acc])
    return [("", lhs, rhs)]


def _build_id9(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    lhs = _gf(N, q, _family_rows("cauchy", N, q))
    rhs = euler_product_series(Y, q, N) * euler_inverse_series(X, q, N)
    return [("", lhs, rhs)]


def _build_id10(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    lam, x0, y0 = ps.get("lam"), ps.get("x0"), ps.get("y0")
    lhs = _gf(N, q, _family_rows("cauchy", N, q, x=x0, y=y0), _poch_row((lam,), {}, q, N))
    rhs = hyper_series(
        PhiSpec([lam, y0 / x0], [Fraction(0)], q), N, arg_mono=x0
    )
    return [("", lhs, rhs)]


def _build_id11(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    ra, rb, rc, rd = (ps.get(k) for k in ("ra", "rb", "rc", "rd"))
    h1 = _family_rows("rogers_szego", N, q, x=ra, y=rb)
    h2 = _family_rows("rogers_szego", N, q, x=rc, y=rd)
    lhs = _gf(N, q, [_dot([(u, v)]) for u, v in zip(h1, h2)])
    # (ra rb rc rd t^2;q)_inf / (ra rc t, ra rd t, rb rc t, rb rd t;q)_inf
    top = _poch_row((), {"q": q}, q, N // 2, z=-(ra * rb * rc * rd), r=q)
    rhs = _euler(ONE, N, [c for t in top for c in (t, (0, 1))])
    for pair in (ra * rc, ra * rd, rb * rc, rb * rd):
        rhs = rhs * euler_inverse_series(pair, q, N)
    return [("", lhs, rhs)]


def _quotient_sum(w: Sequence[tuple[int, int]], a: Fraction, b: Fraction, q: Fraction,
                  N: int) -> TSeries:
    """sum_n w[n] u^n (a u;q)_n / (b u;q)_n for scalar a, b and the
    ``_poch_row`` row w, truncated at u^N.

    Summed by Horner's rule from the top term down, on one integer row
    over one denominator: h_(n-1) = w[n-1] + u h_n (1 - a q^(n-1) u) /
    (1 - b q^(n-1) u), each step one linear factor and one geometric
    division, whose series makes k_m = g_m + b q^(n-1) k_(m-1).  h_n is
    needed only through u^(N-n), and one gcd per step keeps the row
    reduced.
    """
    nums, den = _common_den(w[: N + 1])
    top = len(nums) - 1
    h, hd = nums[top:] + [0] * (N - top), 1  # h_top = w[top]; h_0 is the sum
    for n in range(top, 0, -1):
        qn = q ** (n - 1)
        al, be = a * qn, b * qn
        an, ad, bn, bd = al.numerator, al.denominator, be.numerator, be.denominator
        # g = (1 - al u) h_n over hd ad; k_m = K_m / bd^m, brought to bd^(N-n)
        bdp = [bd**m for m in range(len(h))]
        K, prev = [], 0
        for p, hm, hp in zip(bdp, h, [0] + h):
            prev = p * (ad * hm - an * hp) + bn * prev
            K.append(prev)
        hd *= ad * bdp[-1]
        row = [nums[n - 1] * hd] + [k * p for k, p in zip(K, reversed(bdp))]
        g = gcd(hd, *row)
        h, hd = [x // g for x in row], hd // g
    return _euler(ONE, N, [(c, den * hd) for c in h])


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

    # 2phi1(q^-M, x; x t; q, s): terminating in k <= M
    tail = _quotient_sum(_poch_row((q**-M,), {"q": q}, q, M, z=sig), xi, xi * t0, q, N)
    # times the prefactor (s, x t;q)_inf / ((r, x;q)_inf), all u-scaled: with
    # r = q^-M s it is (x t;q)_inf/(x;q)_inf = 1phi0(t; x) times
    # (s;q)_inf/(r;q)_inf = 1/(r;q)_M = 1phi0(q^M; r)
    rhs = (hyper_series(PhiSpec([t0], [], q), N, xi)
           * hyper_series(PhiSpec([q**M], [], q), N, r_scale) * tail)
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
    s2 = _gf(N, q, _family_rows("asc_gen3_phi", N, q, ps.a, ps.b, ps.d, x=Y, y=X))
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
    trial: int
    params: dict[str, str]
    status: str  # pass | fail | pole | error
    first_mismatch: dict | None = None
    runtime_ms: int = 0

    def to_dict(self) -> dict:
        """The fields in declaration order, the order __init__ sets them in;
        first_mismatch only when set."""
        return {k: v for k, v in vars(self).items() if v is not None}


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
    return Report(check.id, trial, params.render(), status, mismatch, ms)


def trial_paramset(check: IdentityCheck, seed: int, trial: int) -> ParamSet:
    """Deterministic per-(identity, trial) parameter draw."""
    rng = random.Random(f"{seed}:{check.id}:{trial}")
    return check.sample(rng, trial)


# ---------------------------------------------------------------------------
# q-difference-equation residuals
# ---------------------------------------------------------------------------

def _residual_row(which: str, row: Row, ps: ParamSet) -> Row:
    if which not in ("phi_eq", "psi_eq"):
        raise ValueError("which must be 'phi_eq' or 'psi_eq'")
    q, dq, eq = ps.q, ps.d / ps.q, ps.e / ps.q
    qn, qd = q.numerator, q.denominator
    nums, den = row
    top = max((max(e) for e in nums), default=0)
    # 1 - f q^m = (fd qd^m - fn qn^m) / (fd qd^m), one table per f
    one, a, b, c, d, e = ([f.denominator * qd**m - f.numerator * qn**m for m in range(top + 1)]
                          for f in (ONE, ps.a, ps.b, ps.c, dq, eq))
    # L lies over ld qd^(3j) and R over rd qd^(i+3j); each side takes the
    # other's constant, so both lie over den ld rd qd^E
    ld, rd = dq.denominator * eq.denominator, ps.a.denominator * ps.b.denominator * ps.c.denominator
    base, psi = den * ld * rd, which == "psi_eq"
    terms = []
    for (i, j), k in nums.items():
        left, el = k * rd * one[j] * d[j] * e[j], 3 * j
        right, er = -k * ld * one[i] * a[j] * b[j] * c[j], i + 3 * j
        if psi:  # u L and -v R
            left, el, right, er = left * qn**i, el + i, -right * qn**j, er + j
        terms += [((i + 1, j), left, (base, qd**el)), ((i, j + 1), right, (base, qd**er))]
    return _sum_terms(terms)


def qdiff_residual(which: str, f: TSeries, ps: ParamSet) -> TSeries:
    """Left minus right side of the seven-variable difference equation,
    applied to every t-coefficient of f.  Zero means f satisfies it.

    Every operator in either equation rescales monomials, so each is
    applied by its symbol: with u = q^i, v = q^j,
    L = (1-v)(1-dv/q)(1-ev/q) and R = (1-u)(1-av)(1-bv)(1-cv), the term
    k x^i y^j goes to

        phi_eq:  k (L x^(i+1) y^j - R x^i y^(j+1))
        psi_eq:  k (u L x^(i+1) y^j + v R x^i y^(j+1))
    """
    return _series(f.order, [_residual_row(which, r, ps) for r in f.rows])


# ---------------------------------------------------------------------------
# triangular basis expansion
# ---------------------------------------------------------------------------

class BasisExpansionError(ValueError):
    """Input not expressible in the requested basis range."""

    def __init__(self, message: str, remainder: Poly):
        super().__init__(message)
        self.remainder = remainder


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
    rows: list[Row] = []
    for n in range(min(nmax, deg), -1, -1):
        cn = rem.xcoeff_as_y_poly(n)
        if cn.is_zero():
            continue
        rows = rows or _asc5_rows(basis, ps, n)
        mu[n] = cn
        rem = rem - cn * _poly(rows[n])
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
    used = [n for n, m in enumerate(mu) if not m.is_zero()]
    rows = _asc5_rows(basis, ps, used[-1]) if used else []
    return sum((mu[n] * _poly(rows[n]) for n in used), Poly.zero())
