"""Exact coefficientwise verification: the identity catalog ID-1..ID-13,
the seven-variable q-difference-equation residuals, and triangular
expansion in the five-parameter polynomial basis.

Every catalog entry builds both sides of one generating-function or
transformation identity as TSeries, writing their integer rows directly
(a product of two series one ``qkernel._chain_product``; ID-5, ID-6,
ID-7 and ID-8 write their own rows over running numerators from
``qkernel._walk``, ID-7 the right sides of its four shifts in one pass),
and compares them exactly as exact rows (``core.Row``), reduced only
where they feed more products.
A generating function sum_n p_n w_n t^n is one ``_gf`` over a single
``_poch_row`` weight row w that holds its 1/(q;q)_n; ID-1 to ID-4, ID-9
and the ID-13 swap read both sides off a family's table row (``_gf_lhs``,
``_gf_rhs``).  The builders take the draw and the order (ps, N) alone.
Identities whose natural coefficients are infinite sums are handled by
the numeric module instead; two entries here (ID-5 and ID-12) regain
finite coefficients by scaling a parameter pair with the formal variable.
The builders and the basis expansion read the family rows p_0..p_N as one
prefix (``polys._family_rows``).  A series expansion reads its basis rows
once, and its coefficients as held; each back-substitution step and
synthesis is one ``_dot``, left exact.  A step reduces only the top
coefficient c_n it subtracts, so mu_n is canonical; a remainder is reduced
only when a further step subtracts from it, and a synthesis, which is
compared, is never reduced.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .core import (ONE, ParamSet, Poly, Row, TSeries, X, Y, _UNIT, _ZROW, _canon, _dot, _exact,
                   _poly, _Record, _series, random_paramset)
from .qkernel import (
    PoleError,
    _chain_product,
    _common_den,
    _euler,
    _euler_row,
    _hyper_row,
    _poch_row,
    _qbinom_rows,
    _walk,
)
from .polys import _FAMILIES, _gf_row, _rows, _slots

Side = tuple[str, TSeries, TSeries]


# ---------------------------------------------------------------------------
# generating-function builders
# ---------------------------------------------------------------------------

def _gf(N: int, seq: Sequence[Row], e: Sequence[tuple[int, int]]) -> TSeries:
    """sum_n seq[n] * e[n] * t^n for rows seq and one ``_poch_row`` weight
    row e, which holds the side's 1/(q;q)_n, truncated at N, as exact rows."""
    rows = []
    for (nums, den), (en, ed) in zip(seq, e):
        g = gcd(en, den)  # the powers of qd in en cancel against den
        f = en // g
        # an exact row times a nonzero f has no zero term to drop
        rows.append(({k: c * f for k, c in nums.items()}, den // g * ed) if f and nums else _ZROW)
    return _series(N, rows)


def _basis_family(which: str) -> str:
    """The ``polys._FAMILIES`` name of the basis 'phi' or 'psi'; any other is refused."""
    family = f"asc_new_{which}"
    if family not in _FAMILIES:
        raise ValueError("basis must be 'phi' or 'psi'")
    return family


def _gf_lhs(family: str, ps: ParamSet, N: int, x=X, y=Y) -> TSeries:
    """sum_n p_n(x, y) t^n/(q;q)_n, times (-1)^n q^C(n,2) under psi."""
    psi = _FAMILIES[family].psi
    return _gf(N, _rows(family, ps, N, x, y), _euler_row(ps.q, N, product=psi))


def _gf_rhs(family: str, ps: ParamSet, N: int, x=X, y=Y) -> TSeries:
    """The closed form of ``_gf_lhs``: 1/(Xt;q)_inf times the series of ``polys._gf_row`` at
    Yt, or (Xt;q)_inf times it at -Yt under psi, X and Y the family's ``polys._slots``."""
    psi, (u, v) = _FAMILIES[family].psi, _slots(family, x, y)
    return _chain_product(_euler_row(ps.q, N, product=psi), u, _gf_row(family, ps, N),
                          -v if psi else v, N)


class _GfCheck(_Record):
    """A family's generating function as a catalog builder."""

    __slots__ = ("family",)

    def __call__(self, ps: ParamSet, N: int) -> list[Side]:
        return [("", _gf_lhs(self.family, ps, N), _gf_rhs(self.family, ps, N))]


def build_id3_rhs(ps: ParamSet, N: int) -> TSeries:
    """1/(x*t;q)_inf * 3phi2(a,b,c; d,e; q, y*t)."""
    return _gf_rhs("asc_new_phi", ps, N)


def build_id3_lhs(ps: ParamSet, N: int) -> TSeries:
    return _gf_lhs("asc_new_phi", ps, N)


def build_id4_rhs(ps: ParamSet, N: int) -> TSeries:
    """(x*t;q)_inf * 3phi3(a,b,c; 0,d,e; q, -y*t)."""
    return _gf_rhs("asc_new_psi", ps, N)


def build_id4_lhs(ps: ParamSet, N: int) -> TSeries:
    return _gf_lhs("asc_new_psi", ps, N)


def build_id6_rhs(ps: ParamSet, N: int) -> TSeries:
    """(x*t;q)_inf * 3phi3(a,b,c; d,e,x*t; q, y*t), summed as
    sum_k w_k y^k t^k (x*q^k*t;q)_inf: the x-dependent denominator
    parameter folded into the Euler product of term k, each expanded from
    the one Euler-product row f, so that t^n holds
    sum_k w_k f_(n-k) q^(k(n-k)) x^(n-k) y^k.

    One pass writes row n over wd_n fd_n qd^floor(n^2/4), the numerators of
    w and f over wd_n and fd_n read from ``qkernel._walk``; term k carries
    qn^(k(n-k)) qd^floor((n-2k)^2/4), floor(n^2/4) being the largest k(n-k)
    (the q powers of ``polys._asc_sum``).
    """
    q = ps.q
    w = _gf_row("asc_new_psi", ps, N)
    f = _euler_row(q, N, product=True)
    qnp = list(accumulate(repeat(q.numerator, N * N // 4), mul, initial=1))
    qs = list(accumulate((q.denominator ** (n // 2) for n in range(1, N + 1)), mul, initial=1))
    return _series(N, [
        _exact({(n - k, k): W[k] * F[n - k] * (qnp[k * (n - k)] * qs[abs(n - 2 * k)])
                for k in range(n + 1) if W[k]}, wd * fd * qs[n])
        for n, ((W, wd), (F, fd)) in enumerate(zip(_walk(w), _walk(f)))])


def build_id6_lhs(ps: ParamSet, N: int) -> TSeries:
    return _gf(N, _rows("asc_new_phi", ps, N), _euler_row(ps.q, N, product=True))


def build_id5_pair(ps: ParamSet, N: int) -> Side:
    """Cauchy-polynomial transformation, verified as series in u after the
    substitution (s, t) = (sig*u, tau*u), sig and tau read from ps.

    LHS: sum_n phi_n(x,y) p_n(tau,sig) u^n / (q;q)_n
    RHS: sum_k W_k y^k u^k P_k,  P_k = (x*sig*q^k*u;q)_inf / (x*tau*u;q)_inf
         with W_k = (a,b,c;q)_k p_k(tau,sig) / ((d,e;q)_k (q;q)_k).

    P_0 is the one ``_chain_product`` of both Euler rows, its row m over
    L_m = ed_m fd_m (taud sigd)^m.  The rows of every P_k are c x^m, so
    P_(k+1) = P_k / (1 - sig q^k x u) is the scalar recurrence
    c'_m = c_m + sig q^k c'_(m-1), one geometric-division pass per k, and
    only as far as the last nonzero W_k.  Row m of P_k lies over
    L_(m+k) qd^(km), so a pass multiplies by small step factors alone, and
    t^n of the sum takes term k over wd_n L_n qd^floor(n^2/4) with one
    factor qd^floor((n-2k)^2/4), the W_k over wd_n read from
    ``qkernel._walk``.
    """
    q, sig, tau = ps.q, ps.get("sig"), ps.get("tau")
    # p_n(tau, sig) = prod_(m<n) (tau - sig q^m) = tau^n (sig/tau;q)_n
    top, z, r = ((sig / tau,), tau, 1) if tau else ((), -sig, q)
    lhs = _gf(N, _rows("asc_new_phi", ps, N), _poch_row(top, {"q": q}, q, N, z=z, r=r))
    w = _poch_row((ps.a, ps.b, ps.c, *top), {"d": ps.d, "e": ps.e, "q": q}, q, N, z=z, r=r)
    e, f = _euler_row(q, N), _euler_row(q, N, product=True)
    p0 = _chain_product(e, X * tau, f, X * sig, N)._rows
    K = max(k for k, (c, _) in enumerate(w) if c)  # P_k is needed for k <= K
    qn, qd, sn, sd = q.numerator, q.denominator, sig.numerator, sig.denominator
    # steps[m] = L_m / (L_(m-1) sigd), small; a zero row of P_0 has den 1
    steps = [0] + [ed // ep * (fd // fp) * tau.denominator
                   for (_, ep), (_, ed), (_, fp), (_, fd) in zip(e, e[1:], f, f[1:])]
    L = list(accumulate((s * sd for s in steps[1:]), mul, initial=1))
    qdp = list(accumulate(repeat(qd, N), mul, initial=1))
    P = [[nums.get((m, 0), 0) * (L[m] // den) for m, (nums, den) in enumerate(p0)]]
    s = sn * qd  # sig q^k = s / (sigd qd^(k+1))
    for k in range(K):
        # row m of P_(k+1) over L_(m+k+1) qd^((k+1)m) from P_k's over
        # L_(m+k) qd^(km) and its own row m - 1
        prev, row = P[-1], [L[k + 1]]
        for m in range(1, N - k):
            row.append(steps[m + k + 1] * (sd * qdp[m] * prev[m] + s * row[-1]))
        P.append(row)
        s *= qn
    qs = list(accumulate((qd ** (n // 2) for n in range(1, N + 1)), mul, initial=1))
    # W_k is 0 for k > K
    return ("u-scaled", lhs, _series(N, [
        _exact({(n - k, k): c * P[k][n - k] * qs[abs(n - 2 * k)] for k, c in enumerate(Wk) if c},
               wd * L[n] * qs[n])
        for n, (Wk, wd) in enumerate(_walk(w))]))


def build_id7_pairs(ps: ParamSet, N: int) -> list[Side]:
    """Index-shifted generating function, both sides of the shifts
    K = 0..3 in one pass.

    LHS: sum_n phi_(n+K)(x,y) t^n/(q;q)_n
    RHS: x^K/(xt;q)_inf * sum_n A_n (yt)^n
         * sum_j [n;j] (-1)^j q^(Kj-C(j,2)) (q^-K, xt;q)_j / (xt)^j
    with A_n = (a,b,c;q)_n/((q,d,e;q)_n).  The q^(Kj) power makes the
    j-weight J_j equal to (q;q)_K/(q;q)_(K-j), which is what the K-fold
    derivative of x^K/(xt;q)_inf produces, and (q^-K;q)_j kills j > K.
    Since (xt;q)_j/(xt;q)_inf = 1/(x q^j t;q)_inf, the coefficient of
    t^n x^(n+K-s) y^s is

        A_s sum_j J_j [s;j] q^(j(n-s+j)) / (q;q)_(n-s+j),
        max(0, s-n) <= j <= min(K, s).

    [s;j] q^(j(n-s+j)) lies over exactly qd^(jn), so row n of shift K lies
    over Ad_(n+K) JD_K qd^(Kn) ed_n: the numerators of A over Ad_(n+K) and
    of 1/(q;q)_l over ed_n are ``qkernel._walk``'s, and the j-terms without
    J_j, which every shift shares, are formed once per (n, s).  The right
    side reads the A, Euler, q-binomial and J rows and no family row.
    """
    q, top = ps.q, 3
    qn, qd = q.numerator, q.denominator
    # the phi prefix first, so that a (d,e;q)_k pole is named before the
    # (q,d,e;q)_k pole of the A row
    phi, e = _rows("asc_new_phi", ps, N + top), _euler_row(q, N)
    lhs = [_gf(N, phi[K:], e) for K in range(top + 1)]
    A = list(_walk(_gf_row("asc_new_phi", ps, N + top)))
    binom = _qbinom_rows(q, N + top)
    qnp, qdp = (list(accumulate(repeat(p, top * N), mul, initial=1)) for p in (qn, qd))
    # (-1)^j q^(Kj - C(j,2)) (q^-K;q)_j over JD_K, j <= K, each one nonzero
    J = [_common_den(_poch_row((q**-K,), {}, q, K, z=-(q**K), r=1 / q)) for K in range(top + 1)]
    rhs: list[list[Row]] = [[] for _ in J]
    for n, (E, ed) in enumerate(_walk(e)):
        # cols[j][s - j] = [s;j] q^(j(n-s+j)) / (q;q)_(n-s+j) over qd^(jn) ed_n,
        # s = j..n+j, which every shift shares
        cols = [[binom[s][j] * qnp[j * (n + j - s)] * E[n + j - s] for s in range(j, n + j + 1)]
                for j in range(top + 1)]
        for K, (Jk, jd) in enumerate(J):
            C = [0] * (n + K + 1)
            for j, c in enumerate(Jk):
                c *= qdp[(K - j) * n]
                for s, b in enumerate(cols[j], j):
                    C[s] += c * b
            a, ad = A[n + K]
            rhs[K].append(_exact({(n + K - s, s): x * y for s, (x, y) in enumerate(zip(a, C)) if x},
                                 ad * jd * qdp[K * n] * ed))
    return [(f"k={K}", l, _series(N, r)) for K, (l, r) in enumerate(zip(lhs, rhs))]


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------

class IdentityCheck(_Record):
    """One exactly-verifiable identity: builders for both sides plus the
    extra parameter names its trials draw."""

    __slots__ = ("id", "title", "extras", "build")


def _build_id5(ps: ParamSet, N: int) -> list[Side]:
    return [build_id5_pair(ps, N)]


def _build_id6(ps: ParamSet, N: int) -> list[Side]:
    return [("", build_id6_lhs(ps, N), build_id6_rhs(ps, N))]


def _build_id8(ps: ParamSet, N: int) -> list[Side]:
    """Product of two five-parameter families, as a double sum.

    LHS: sum_n phi_n(x1,y1) phi'_n(x2,y2) t^n/(q;q)_n, phi' the family of
         a2..e2; x1..y2 are scalars, so each product is one integer
         product over the product of the two row denominators.
    RHS: 1/(x1 x2 t;q)_inf sum_n s_n t^n sum_(j<=n) [n;j] v_j (x1 x2 t;q)_j
         3phi2(a q^j, b q^j, c q^j; d q^j, e q^j; q, x2 y1 t), with
         s_n = (a2,b2,c2;q)_n/((q,d2,e2;q)_n) (x1 y2)^n and
         v_j = (a,b,c;q)_j/((d,e;q)_j) (y1/x1)^j.

    v_j times t^i of the j-th 3phi2 is A_(j+i) (y1/x1)^j (x2 y1)^i/(q;q)_i,
    A_k = (a,b,c;q)_k/(d,e;q)_k: one A row and one (x2 y1)^i/(q;q)_i row,
    over their last denominators Ad and wd, with (y1/x1)^j = rn^j/rd^j
    left to the j-sum.  inner_j, that row convolved with the q-binomial
    row f_(j,k) = [j;k] (-1)^k q^C(k,2) P^k of (P t;q)_j, P = x1 x2 =
    pn/pd, is needed only through t^(N-j), so k <= min(j, N-j) and f lies
    over qd^M_j pd^floor(N/2), M_j the largest k(j-k) + C(k,2) there.
    X_n = sum_(j<=n) [n;j] (y1/x1)^j inner_j lies over qd^E_n rd^n, E_n
    the largest M_j + j(n-j).  t^m of the double sum, sum_(n<=m) s_n
    X_n[m-n], lies over sd_m rd^m qd^E_m pd^floor(N/2) Ad wd: the s_n
    numerators are ``qkernel._walk``'s over the row (s_n, sd_n rd^n
    qd^E_n), whose denominators divide one another along n, so those of
    the double sum do too, and it is multiplied by 1/(P t;q)_inf in one
    ``_chain_product``.  Every power is read off a table.
    """
    q = ps.q
    ps2 = ParamSet(q, *(ps.get(k) for k in ("a2", "b2", "c2", "d2", "e2")))
    x1, y1, x2, y2 = (ps.get(k) for k in ("x1", "y1", "x2", "y2"))

    phi1, phi2 = _rows("asc_new_phi", ps, N, x1, y1), _rows("asc_new_phi", ps2, N, x2, y2)
    lhs = _gf(N, [({(0, 0): u[0, 0] * v[0, 0]}, ud * vd) if u and v else _ZROW
                  for (u, ud), (v, vd) in zip(phi1, phi2)], _euler_row(q, N))

    A, Ad = _common_den(_poch_row((ps.a, ps.b, ps.c), {"d": ps.d, "e": ps.e}, q, N))
    w, wd = _common_den(_poch_row((), {"q": q}, q, N, z=x2 * y1))
    s = _poch_row((ps2.a, ps2.b, ps2.c), {"q": q, "d": ps2.d, "e": ps2.e}, q, N, z=x1 * y2)
    binom, qn, qd = _qbinom_rows(q, N), q.numerator, q.denominator
    P, (rn, rd) = x1 * x2, (y1 / x1).as_integer_ratio()
    h = N // 2
    M = [max(k * (j - k) + k * (k - 1) // 2 for k in range(min(j, N - j) + 1))
         for j in range(N + 1)]
    E = [max(mj + j * (n - j) for j, mj in enumerate(M[: n + 1])) for n in range(N + 1)]
    qnp, qdp = (list(accumulate(repeat(p, n), mul, initial=1))
                for p, n in ((qn, h * (h - 1) // 2), (qd, E[N])))
    pnp, pdp = (list(accumulate(repeat(p, h), mul, initial=1)) for p in P.as_integer_ratio())
    rnp, rdp = (list(accumulate(repeat(p, N), mul, initial=1)) for p in (rn, rd))
    # inner[j]: t^i of v_j (P t;q)_j * 3phi2 / (y1/x1)^j, i <= N - j
    inner = []
    for j, mj in enumerate(M):
        f = [(-1) ** k * b * qnp[k * (k - 1) // 2] * pnp[k] * pdp[h - k]
             * qdp[mj - k * (j - k) - k * (k - 1) // 2]
             for k, b in enumerate(binom[j][: min(j, N - j) + 1])]
        g = [a * b for a, b in zip(A[j:], w)]
        row = [0] * (N + 1 - j)
        for k, fk in enumerate(f):
            for i, x in enumerate(g[: N + 1 - j - k], k):
                row[i] += fk * x
        inner.append(row)
    # X_n, needed through t^(N-n); s is 0 from its first zero on
    X = []
    for n, (sn, _) in enumerate(s):
        if not sn:
            break
        row = [0] * (N + 1 - n)
        for j in range(n + 1):
            c = binom[n][j] * qdp[E[n] - j * (n - j) - M[j]] * rnp[j] * rdp[n - j]
            for i, x in enumerate(inner[j][: N + 1 - n]):
                row[i] += c * x
        X.append(row)
    D = pdp[h] * Ad * wd
    chain = [(sn, sd * rdp[n] * qdp[E[n]]) for n, (sn, sd) in enumerate(s)]
    acc = [(sum(c * x[m - n] for n, (c, x) in enumerate(zip(S, X))), d * D)
           for m, (S, d) in enumerate(_walk(chain))]
    # times 1/(x1 x2 t;q)_inf
    rhs = _chain_product(_euler_row(q, N), P, acc, ONE, N)
    return [("", lhs, rhs)]


def _build_id10(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    lam, x0, y0 = ps.get("lam"), ps.get("x0"), ps.get("y0")
    lhs = _gf(N, _rows("cauchy", ps, N, x0, y0), _poch_row((lam,), {"q": q}, q, N))
    rhs = _euler(x0, N, _hyper_row((lam, y0 / x0), (0,), q, N))
    return [("", lhs, rhs)]


def _build_id11(ps: ParamSet, N: int) -> list[Side]:
    q = ps.q
    ra, rb, rc, rd = (ps.get(k) for k in ("ra", "rb", "rc", "rd"))
    h1, h2 = _rows("rogers_szego", ps, N, ra, rb), _rows("rogers_szego", ps, N, rc, rd)
    lhs = _gf(N, [_dot([(u, v)]) for u, v in zip(h1, h2)], _euler_row(q, N))
    # (ra rb rc rd t^2;q)_inf / (ra rc t, ra rd t, rb rc t, rb rd t;q)_inf, one fold per factor
    top = _poch_row((), {"q": q}, q, N // 2, z=-(ra * rb * rc * rd), r=q)
    h, e = [c for t in top for c in (t, (0, 1))], _euler_row(q, N)
    for pair in (ra * rc, ra * rd, rb * rc, rb * rd):
        rhs = _chain_product(e, pair, h, ONE, N)
        h = _scalars(rhs)
    return [("", lhs, rhs)]


def _scalars(s: TSeries) -> list[tuple[int, int]]:
    """The reduced (num, den) pairs of a series of scalars, for a further product."""
    return [(nums.get((0, 0), 0), den) for nums, den in (_canon(*row) for row in s._rows)]


def _quotient_sum(w: Sequence[tuple[int, int]], a: Fraction, b: Fraction, q: Fraction,
                  N: int) -> list[tuple[int, int]]:
    """sum_n w[n] u^n (a u;q)_n / (b u;q)_n for scalar a, b and the
    ``_poch_row`` row w to u^N, as N + 1 (num, den) pairs over one denominator.

    Summed by Horner's rule from the top term down, on one integer row
    over one denominator: h_(n-1) = w[n-1] + u h_n (1 - a q^(n-1) u) /
    (1 - b q^(n-1) u), each step one linear factor and one geometric
    division, whose series makes k_m = g_m + b q^(n-1) k_(m-1).  h_n is
    needed only through u^(N-n).  Every step is on integers: a q^(n-1) and
    b q^(n-1) are reduced int pairs read off tables of qn^m and qd^m, the
    powers of their bd are grown by one product each, and one gcd per step
    keeps the row reduced.
    """
    nums, den = _common_den(w[: N + 1])
    top = len(nums) - 1
    h, hd = nums[top:] + [0] * (N - top), 1  # h_top = w[top]; h_0 is the sum
    qnp, qdp = (list(accumulate(repeat(p, top), mul, initial=1))
                for p in (q.numerator, q.denominator))
    (an0, ad0), (bn0, bd0) = a.as_integer_ratio(), b.as_integer_ratio()
    for n in range(top, 0, -1):
        an, ad, bn, bd = an0 * qnp[n - 1], ad0 * qdp[n - 1], bn0 * qnp[n - 1], bd0 * qdp[n - 1]
        ga, gb = gcd(an, ad), gcd(bn, bd)
        an, ad, bn, bd = an // ga, ad // ga, bn // gb, bd // gb
        # g = (1 - al u) h_n over hd ad; k_m = K_m / bd^m, brought to bd^(N-n)
        bdp = list(accumulate(repeat(bd, len(h) - 1), mul, initial=1))
        K, prev = [], 0
        for p, hm, hp in zip(bdp, h, [0] + h):
            prev = p * (ad * hm - an * hp) + bn * prev
            K.append(prev)
        hd *= ad * bdp[-1]
        row = [nums[n - 1] * hd] + [k * p for k, p in zip(K, reversed(bdp))]
        g = gcd(hd, *row)
        h, hd = [x // g for x in row], hd // g
    return [(c, den * hd) for c in h]


def _build_id12(ps: ParamSet, N: int) -> list[Side]:
    """Heine transformation on the terminating slice r = q^-M s, with the
    argument pair (x, s) = (xi*u, sig*u) scaled by the formal variable.

    Any other rational slice leaves u-free infinite products like (r;q)_inf
    in exactly one side, which no finite regrouping cancels; on this slice
    every infinite product is u-scaled and both sides expand exactly.
    """
    q = ps.q
    t0, xi, sig = ps.get("tt"), ps.get("xi"), ps.get("sig")
    em = ps.get("em")
    if em.denominator != 1 or em < 0:
        raise ValueError(f"ID-12 needs em to be a non-negative integer, got {em}")
    M = int(em)
    r_scale = sig * q**-M  # r = r_scale * u

    # LHS: sum_n (t;q)_n (sig*u;q)_n (xi*u)^n / ((r_scale*u;q)_n (q;q)_n)
    lhs = _euler(ONE, N, _quotient_sum(_poch_row((t0,), {"q": q}, q, N, z=xi), sig, r_scale, q, N))

    # 2phi1(q^-M, x; x t; q, s): terminating in k <= M
    tail = _quotient_sum(_poch_row((q**-M,), {"q": q}, q, M, z=sig), xi, xi * t0, q, N)
    # times the prefactor (s, x t;q)_inf / ((r, x;q)_inf), all u-scaled: with
    # r = q^-M s it is (x t;q)_inf/(x;q)_inf = 1phi0(t; x) times
    # (s;q)_inf/(r;q)_inf = 1/(r;q)_M = 1phi0(q^M; r), each folded into the tail
    rhs = _chain_product(_hyper_row((q**M,), (), q, N), r_scale, tail, ONE, N)
    rhs = _chain_product(_hyper_row((t0,), (), q, N), xi, _scalars(rhs), ONE, N)
    return [("u-scaled", lhs, rhs)]


def _build_id13(ps: ParamSet, N: int) -> list[Side]:
    """Parameter collapse c = e = 0 of the five-parameter pair.

    The phi side coincides literally with the three-parameter machinery
    under the role swap (x <-> y, c-slot <- d); the psi side collapses to
    the matching product-times-2phi2 shape (its three-parameter cousin
    differs termwise by a q^C(k,2) twist, checked at the polynomial level
    in the test suite).
    """
    q, ps0, swap = ps.q, ps.with_values(c=0, e=0), ps.with_values(c=ps.d)
    s1 = build_id3_lhs(ps0, N)
    s2 = _gf_lhs("asc_gen3_phi", swap, N, x=Y, y=X)
    r1 = build_id3_rhs(ps0, N)
    r2 = _gf_rhs("asc_gen3_phi", swap, N, x=Y, y=X)
    l4 = build_id4_lhs(ps0, N)
    r4 = _chain_product(_euler_row(q, N, product=True), X,
                        _hyper_row((ps.a, ps.b), (0, ps.d), q, N), -Y, N)
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
            _GfCheck("asc_gen3_phi"),
        ),
        IdentityCheck(
            "ID-2",
            "three-parameter psi generating function (alternating weight)",
            (),
            _GfCheck("asc_gen3_psi"),
        ),
        IdentityCheck(
            "ID-3",
            "five-parameter phi generating function: 1/(xt)_inf * 3phi2",
            (),
            _GfCheck("asc_new_phi"),
        ),
        IdentityCheck(
            "ID-4",
            "five-parameter psi generating function: (xt)_inf * 3phi3, "
            "alternating weight",
            (),
            _GfCheck("asc_new_psi"),
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
            build_id7_pairs,
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
            _GfCheck("cauchy"),
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

class Report(_Record):
    """Outcome of one identity trial; status is pass, fail, pole or error."""

    __slots__ = ("id", "trial", "params", "status", "first_mismatch", "runtime_ms")


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
    """Deterministic per-(identity, trial) parameter draw: q, a..e and the
    check's extras, in that order; ID-12's em is 1 + trial % 3."""
    ps = random_paramset(random.Random(f"{seed}:{check.id}:{trial}"), extras=check.extras)
    return ps.with_values(em=1 + trial % 3) if check.id == "ID-12" else ps


# ---------------------------------------------------------------------------
# q-difference-equation residuals
# ---------------------------------------------------------------------------

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
    if which not in ("phi_eq", "psi_eq"):
        raise ValueError("which must be 'phi_eq' or 'psi_eq'")
    psi = which == "psi_eq"
    q, dq, eq = ps.q, ps.d / ps.q, ps.e / ps.q
    qn, qd = q.numerator, q.denominator
    # L lies over ld qd^(3j) and R over rd qd^(i+3j), u L over ld qd^(i+3j)
    # and v R over rd qd^(i+4j); each side takes the other's constant, so a
    # row lies over den ld rd qd^E, E its largest right-side exponent
    tops = [max((i + (4 if psi else 3) * j for i, j in nums), default=0) for nums, _ in f._rows]
    top = max((max(e) for nums, _ in f._rows for e in nums), default=0)
    qnp, qdp = [qn**m for m in range(top + 1)], [qd**m for m in range(max(tops) + 1)]
    # 1 - p q^m = (pd qd^m - pn qn^m) / (pd qd^m), one table per constant p
    one, a, b, c, d, e = ([p.denominator * qdp[m] - p.numerator * qnp[m] for m in range(top + 1)]
                          for p in (ONE, ps.a, ps.b, ps.c, dq, eq))
    ld, rd = dq.denominator * eq.denominator, ps.a.denominator * ps.b.denominator * ps.c.denominator
    rows = []
    for (nums, den), E in zip(f._rows, tops):
        acc: dict[tuple[int, int], int] = {}
        for (i, j), k in nums.items():
            el, er = (i + 3 * j, i + 4 * j) if psi else (3 * j, i + 3 * j)
            left = k * rd * one[j] * d[j] * e[j] * qdp[E - el]
            right = -k * ld * one[i] * a[j] * b[j] * c[j] * qdp[E - er]
            if psi:  # u L and -v R
                left, right = left * qnp[i], -right * qnp[j]
            acc[i + 1, j] = acc.get((i + 1, j), 0) + left
            acc[i, j + 1] = acc.get((i, j + 1), 0) + right
        rows.append(_exact(acc, den * ld * rd * qdp[E]))
    return _series(f.order, rows)


# ---------------------------------------------------------------------------
# triangular basis expansion
# ---------------------------------------------------------------------------

def expand_poly_in_basis(p: Poly, basis: str, ps: ParamSet) -> list[Poly]:
    """Write p = sum_n mu_n * basis_n(x,y), n = 0..deg_x p, by
    back-substitution on the x-degree, which is triangular because
    basis_n = x^n + (y-tail).

    The mu_n come back canonical, as polynomials in y alone; inputs lying
    in the rational span (like the generating-function coefficients)
    produce constant mu_n.  p is read as held and never reduced.
    """
    return _expand_rows(p, _basis_rows(basis, ps, [p._held]))


def _basis_rows(basis: str, ps: ParamSet, rows: Iterable[Row]) -> list[Row]:
    """The basis rows as far as an expansion of the rows reads them: to
    their highest x-power, so a pole past it is never reached."""
    family, cols = _basis_family(basis), [i for nums, _ in rows for i, _ in nums]
    return _rows(family, ps, max(cols)) if cols else []


def _expand_rows(p: Poly, rows: Sequence[Row]) -> list[Poly]:
    """expand_poly_in_basis of p over the basis rows rows (``_basis_rows``).

    Step n reduces only the top coefficient c_n that it subtracts, in
    place, and subtracts c_n * basis_n from the remainder in one ``_dot``.
    p is read as held; a later remainder is reduced as a step n > 0 reads
    it, so that its content does not compound, and basis_0 = 1 takes the
    last remainder whole as c_0.
    """
    deg = max(p.x_degree(), 0)
    mu = [Poly.zero()] * (deg + 1)
    rem = p
    for n in range(deg, -1, -1):
        cn = rem.xcoeff_as_y_poly(n)
        if cn.is_zero():
            continue
        mu[n] = cn
        nums, den = cn._canonical  # reduced in place, so mu_n is canonical
        if n == 0:
            break
        held = rem._held if rem is p else rem._canonical
        rem = _poly(_dot(((held, _UNIT), (({e: -c for e, c in nums.items()}, den), rows[n]))))
        if rem.is_zero():
            break
    return mu


def expand_series_in_basis(f: TSeries, basis: str, ps: ParamSet) -> list[list[Poly]]:
    """Per-t-power basis expansion of a TSeries; element [m][n] is mu_n for
    the coefficient of t^m.  The basis rows are read once, as far as the
    expansion of any coefficient reads them, and shared by all of them."""
    rows = _basis_rows(basis, ps, f._rows)
    return [_expand_rows(p, rows) for p in f.coeffs]


def synthesize_from_basis(mu: Sequence[Poly], basis: str, ps: ParamSet) -> Poly:
    """Inverse of expand_poly_in_basis: sum_n mu_n * basis_n as one _dot."""
    family, used = _basis_family(basis), [n for n, m in enumerate(mu) if not m.is_zero()]
    rows = _rows(family, ps, used[-1]) if used else []
    return _poly(_dot((mu[n]._held, rows[n]) for n in used))
