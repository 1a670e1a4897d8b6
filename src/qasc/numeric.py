"""High-precision numeric verification for the identities whose series
coefficients are not finite exact expressions: the series transformation
with embedded 4phi3, the U(n+1) multiple q-binomial sums, and the
Gaussian-weighted q-product integrals.

All arithmetic runs on mpmath mpf/mpc at a configurable binary precision.
Infinite products and sums are truncated at a tail tolerance well below
the comparison tolerance, with heuristic tail estimates accumulated into
an error budget (labeled as such; these are not rigorous enclosures).
Every q-hypergeometric term sequence, the (q x_r/x_s;q)_j and (b;q)_m
tables of the U(n+1) shells included, comes from ``qkernel.term_stream``.
Quadrature is composite Gauss-Legendre over a truncated domain, with
nodes computed at working precision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Sequence

from mpmath import mp, mpc, mpf

from .core import ParamSet, as_fraction
from .qkernel import term_stream

F = Fraction

_MAX_TERMS = 100_000  # terms of one series or factors of one q-product
_MAX_SHELLS = 600     # total-degree shells of one U(n+1) sum


@dataclass(frozen=True)
class QuadConfig:
    """Composite Gauss-Legendre layout: [center-L, center+L] split into
    panels with a fixed node count per panel."""

    half_width: float = 12.0
    nodes: int = 48
    panels: int = 24


@dataclass(frozen=True)
class NumericConfig:
    precision_bits: int = 256
    tail_tol: str = "1e-40"
    compare_tol: str = "1e-12"
    quad: QuadConfig = field(default_factory=QuadConfig)

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("precision must be at least 64 bits")
        with mp.workprec(64):
            tail, ctol = mpf(self.tail_tol), mpf(self.compare_tol)
            if not ctol <= mpf("1e-12"):  # the documented gate may only tighten
                raise ValueError("compare_tol must be at most 1e-12")
            if not tail < ctol:
                raise ValueError("tail_tol must sit well below compare_tol")
            if mp.e ** (-mpf(self.quad.half_width) ** 2) >= tail:
                raise ValueError(
                    "quadrature half-width too small: exp(-L^2) must be below tail_tol"
                )

    def tail(self) -> mpf:
        return mpf(self.tail_tol)

    def ctol(self) -> mpf:
        return mpf(self.compare_tol)


def to_mp(v) -> mpf:
    """Exact rational to mpf at current working precision."""
    v = as_fraction(v)
    return mpf(v.numerator) / mpf(v.denominator)


class NonConvergence(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def sum_until_tail(terms: Iterator, cfg: NumericConfig, budget: list | None = None):
    """Sum a term stream until |term| < tail_tol three times in a row.

    The neglected tail is estimated geometrically from the trailing ratio
    and appended to the budget list when one is supplied.
    """
    tail = cfg.tail()
    total = mpf(0)
    small = 0
    prev_abs = None
    ratio = mpf(0)
    for count, t in enumerate(terms):
        total = total + t
        a = abs(t)
        if prev_abs is not None and prev_abs > 0:
            ratio = a / prev_abs
        prev_abs = a
        if a < tail:
            small += 1
            if small >= 3:
                if budget is not None:
                    r = ratio if ratio < mpf("0.9") else mpf("0.9")
                    budget.append(a * r / (1 - r))
                return total
        else:
            small = 0
        if count >= _MAX_TERMS:
            raise NonConvergence(f"series did not pass the tail test in {_MAX_TERMS} terms")
    return total


def qpoch_num(a, q, n: int):
    """Finite (a;q)_n on mpf/mpc values."""
    out = mpf(1)
    p = mpf(1)
    for _ in range(n):
        out = out * (1 - a * p)
        p = p * q
    return out


def poch_inf(a, q, cfg: NumericConfig, budget: list | None = None):
    """Infinite product (a;q)_inf, truncated once |a| q^i < tail_tol.

    The dropped factors multiply to 1 + O(|a| q^(I+1)/(1-q)); that bound
    goes into the budget as a relative error estimate.
    """
    absa = abs(a)
    if absa == 0:
        return mpf(1)
    tail = cfg.tail()
    out = mpf(1) if isinstance(a, mpf) else mpc(1)
    p = mpf(1)
    i = 0
    while absa * p >= tail:
        out = out * (1 - a * p)
        p = p * q
        i += 1
        if i > _MAX_TERMS:
            raise NonConvergence("infinite q-product did not reach the tail tolerance")
    if budget is not None:
        budget.append(absa * p / (1 - q) * abs(out))
    return out


def hyper_num(nums: Sequence, dens: Sequence, q, z, cfg: NumericConfig,
              budget: list | None = None):
    """Numeric rPhis(nums; dens; q, z) with the usual sign/q-power factor
    raised to 1+s-r, summed by term recurrence until the tail rule.  The
    denominator parameters are named b1..bs in a PoleError."""
    e = 1 + len(dens) - len(nums)
    if e < 0:
        raise ValueError("series with r > s+1 are not supported")
    named = {f"b{i + 1}": b for i, b in enumerate(dens)}
    named["q"] = q
    terms = term_stream(nums, named, q, z * (-1) ** e, q**e, mpc(1))
    return sum_until_tail(terms, cfg, budget)


def _asc5_phi_seq(a, b, c, d, e, q, x, y) -> Iterator:
    """phi_0(x,y), phi_1(x,y), ... on floats, from one weight row
    (a,b,c;q)_j/(d,e;q)_j and one table each of x^j, y^j and 1 - q^j,
    every one grown by one entry per n."""
    weights = term_stream((a, b, c), {"d": d, "e": e}, q, 1, 1, mpf(1))
    row, xp, yp, om = [], [], [], []
    for n, w in enumerate(weights):
        row.append(w)
        xp.append(xp[-1] * x if n else mpf(1))  # by multiplication, so x = 0 is allowed
        yp.append(y**n)
        om.append(1 - q**n)
        total = mpc(0)
        binom = mpf(1)
        for k in range(n + 1):
            total = total + binom * row[k] * xp[n - k] * yp[k]
            if k < n:
                binom = binom * om[n - k] / om[k + 1]
        yield total


def asc5_phi_num(n: int, a, b, c, d, e, q, x, y):
    """phi_n(x,y) = sum_k [n;k] (a,b,c;q)_k/(d,e;q)_k x^(n-k) y^k on floats."""
    return next(islice(_asc5_phi_seq(a, b, c, d, e, q, x, y), n, None))


# ---------------------------------------------------------------------------
# series transformation with embedded 4phi3
# ---------------------------------------------------------------------------

def transformation_lhs(ps: ParamSet, x, y, t, s, r, cfg: NumericConfig):
    """sum_k phi_k(x,y) (t,s;q)_k / ((q,r;q)_k)."""
    q = to_mp(ps.q)
    a, b, c, d, e = (to_mp(v) for v in (ps.a, ps.b, ps.c, ps.d, ps.e))
    x, y, t, s, r = (to_mp(v) for v in (x, y, t, s, r))

    weights = term_stream((t, s), {"q": q, "r": r}, q, 1, 1, mpf(1))
    phis = _asc5_phi_seq(a, b, c, d, e, q, x, y)
    return sum_until_tail((w * phi for w, phi in zip(weights, phis)), cfg)


def transformation_rhs(ps: ParamSet, x, y, t, s, r, cfg: NumericConfig,
                       budget: list | None = None):
    """(xt, s;q)_inf / ((x, r;q)_inf)
       * sum_k (r/s, x;q)_k s^k / ((q, xt;q)_k)
       * 4phi3(a,b,c,t; d,e,xt q^k; q, y q^k).

    The fourth numerator entry is t: expanding each summand through the
    q-binomial theorem forces it, and the y = 0 case then collapses to the
    two-term Heine transformation.
    """
    q = to_mp(ps.q)
    a, b, c, d, e = (to_mp(v) for v in (ps.a, ps.b, ps.c, ps.d, ps.e))
    x, y, t, s, r = (to_mp(v) for v in (x, y, t, s, r))
    pre = (
        poch_inf(x * t, q, cfg, budget)
        * poch_inf(s, q, cfg, budget)
        / (poch_inf(x, q, cfg, budget) * poch_inf(r, q, cfg, budget))
    )

    weights = term_stream((r / s, x), {"q": q, "xt": x * t}, q, s, 1, mpf(1))
    terms = (
        w * hyper_num([a, b, c, t], [d, e, x * t * q**k], q, y * q**k, cfg, budget)
        for k, w in enumerate(weights)
    )
    return pre * sum_until_tail(terms, cfg)


# ---------------------------------------------------------------------------
# U(n+1) multiple series
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def u_series(
    n: int,
    xs: Sequence,
    b,
    z,
    q,
    cfg: NumericConfig,
    weight: ParamSet | None = None,
    y=None,
    budget: list | None = None,
):
    """The multiple q-binomial sum over (y_1..y_n) >= 0, summed by total
    degree shells; a shell whose absolute term sum stays below tail_tol
    twice in a row ends the sum.

    With weight=None the summand carries (b;q)_|y| z^|y|; with a weight
    ParamSet it carries phi_|y|(z, y) (b;q)_|y| for the five-parameter
    family with those parameters.  Divergence (shell growth) is flagged
    empirically via NonConvergence.
    """
    q = to_mp(q)
    xs_mp = [to_mp(v) for v in xs]
    b = to_mp(b)
    z = to_mp(z)
    if weight is not None:
        w5 = (to_mp(v) for v in (weight.a, weight.b, weight.c, weight.d, weight.e))
        phis = _asc5_phi_seq(*w5, q, z, to_mp(y))

    ratio = [[xr / xc for xc in xs_mp] for xr in xs_mp]
    pairs = [(r_i, s_i, ratio[r_i][s_i]) for r_i in range(n) for s_i in range(r_i + 1, n)]
    pair_norm = mpf(1)
    for _, _, x_rs in pairs:
        pair_norm = pair_norm * (1 - x_rs)
    # tables[r][j] = prod_s (q x_r/x_s;q)_j and tables[n][m] = (b;q)_m, one
    # entry appended per shell
    streams = [term_stream([q * v for v in row], {}, q, 1, 1, mpf(1)) for row in ratio]
    streams.append(term_stream((b,), {}, q, 1, 1, mpf(1)))
    tables = [[] for _ in streams]

    tail = cfg.tail()
    total = mpc(0)
    small = 0
    grow = 0
    prev_abs = None
    for m in range(_MAX_SHELLS + 1):
        for table, stream in zip(tables, streams):
            table.append(next(stream))
        if weight is None:
            shell_w = tables[n][m] * z**m
        else:
            shell_w = tables[n][m] * next(phis)
        shell = mpc(0)
        shell_abs = mpf(0)
        for ys in _compositions(m, n):
            val = mpf(1)
            for r_i, s_i, x_rs in pairs:
                val = val * (1 - x_rs * q ** (ys[r_i] - ys[s_i]))
            val = val / pair_norm
            for r_i in range(n):
                val = val / tables[r_i][ys[r_i]]
            for i in range(n):
                val = val * xs_mp[i] ** (n * ys[i] - m)
            if (n - 1) * m % 2:
                val = -val
            expo = (
                sum(i * ys[i] for i in range(n))
                + (n - 1) * sum(v * (v - 1) // 2 for v in ys)
                - (m * m - sum(v * v for v in ys)) // 2
            )
            val = val * q**expo
            term = val * shell_w
            shell = shell + term
            shell_abs = shell_abs + abs(term)
        total = total + shell
        if shell_abs < tail:
            small += 1
            if small >= 2:
                if budget is not None:
                    budget.append(shell_abs)
                return total
        else:
            small = 0
        if prev_abs is not None and shell_abs > prev_abs:
            grow += 1
            if grow >= 12 and m > 24:
                raise NonConvergence("shell sums are growing; outside the convergence region")
        else:
            grow = 0
        prev_abs = shell_abs
    raise NonConvergence(f"shell sum did not converge within {_MAX_SHELLS} shells")


def u_series_rhs(b, z, q, cfg: NumericConfig, weight: ParamSet | None = None,
                 y=None, budget: list | None = None):
    """(bz;q)_inf/(z;q)_inf, times 4phi3(r,s,t,b; u,v,bz; q, y) when the
    five-parameter weight is present."""
    q = to_mp(q)
    b = to_mp(b)
    z = to_mp(z)
    out = poch_inf(b * z, q, cfg, budget) / poch_inf(z, q, cfg, budget)
    if weight is not None:
        wa, wb, wc, wd, we = (to_mp(v) for v in (weight.a, weight.b, weight.c, weight.d, weight.e))
        out = out * hyper_num([wa, wb, wc, b], [wd, we, b * z], q, to_mp(y), cfg, budget)
    return out


# ---------------------------------------------------------------------------
# Gaussian-weighted q-product integrals
# ---------------------------------------------------------------------------

_GL_CACHE: dict[tuple[int, int], tuple[list, list]] = {}


def gauss_legendre_nodes(n: int, prec: int) -> tuple[list, list]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    computed by Newton iteration at (prec + guard) bits and cached."""
    key = (n, prec)
    if key in _GL_CACHE:
        return _GL_CACHE[key]

    def legendre(x):
        """P_n(x) and P_n'(x) by the three-term recurrence."""
        p0, p1 = mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    with mp.workprec(prec + 32):
        nodes = []
        weights = []
        for i in range(n):
            x = mp.cos(mp.pi * (i + mpf(3) / 4) / (n + mpf(1) / 2))
            for _ in range(100):
                p, dp = legendre(x)
                dx = p / dp
                x = x - dx
                if abs(dx) < mpf(2) ** (-prec - 16):
                    break
            _, dp = legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    _GL_CACHE[key] = (nodes, weights)
    return nodes, weights


def integrate_panels(f: Callable, lo, hi, cfg: NumericConfig):
    """Composite Gauss-Legendre integral of f over [lo, hi]."""
    nodes, weights = gauss_legendre_nodes(cfg.quad.nodes, cfg.precision_bits)
    panels = cfg.quad.panels
    width = (hi - lo) / panels
    half = width / 2
    total = mpc(0)
    for p in range(panels):
        mid = lo + p * width + half
        acc = mpc(0)
        for xi, wi in zip(nodes, weights):
            acc = acc + wi * f(mid + half * xi)
        total = total + acc * half
    return total


def gaussian_decay_rate(q) -> mpf:
    """k with q = exp(-2 k^2), the frequency tying the q-products to the
    Gaussian weight."""
    return mp.sqrt(-mp.log(to_mp(q)) / 2)


def ramanujan_integral(a, b, m, q, cfg: NumericConfig,
                       weight: ParamSet | None = None, y=None):
    """integral of exp(-x^2+2mx) / ((a q^(1/2) e^(2ikx), b q^(1/2) e^(-2ikx);q)_inf)
    [times 3phi2(r,s,t; u,v; q, y q^(1/2) e^(2ikx)) when weighted] over the
    real line, truncated to [m-L, m+L] with exp(-L^2) below the tail."""
    qm = to_mp(q)
    am, bm, mm = to_mp(a), to_mp(b), to_mp(m)
    k = gaussian_decay_rate(q)
    sq = mp.sqrt(qm)
    ym = to_mp(y) if y is not None else None
    if weight is not None:
        wp = [to_mp(v) for v in (weight.a, weight.b, weight.c)]
        wd = [to_mp(v) for v in (weight.d, weight.e)]

    def f(x):
        phase = mp.expj(2 * k * x)
        den = poch_inf(am * sq * phase, qm, cfg) * poch_inf(bm * sq / phase, qm, cfg)
        val = mp.e ** (-x * x + 2 * mm * x) / den
        if weight is not None:
            val = val * hyper_num(wp, wd, qm, ym * sq * phase, cfg)
        return val

    L = mpf(cfg.quad.half_width)
    return integrate_panels(f, mm - L, mm + L, cfg)


def ramanujan_closed_form(a, b, m, q, cfg: NumericConfig,
                          weight: ParamSet | None = None, y=None,
                          budget: list | None = None):
    """sqrt(pi) e^(m^2) (-aq e^(2mki), -bq e^(-2mki);q)_inf / (abq;q)_inf,
    times 4phi3(r,s,t, -e^(2mki)/b; u,v, -aq e^(2mki); q, ybq) when
    weighted.

    The fourth numerator entry is -e^(2mki)/b: shifting the Gaussian
    center by ijk and rebalancing the two q-products produces
    (-e^(2mki)/b; q)_j, so the entry carries the minus sign.
    """
    qm = to_mp(q)
    am, bm, mm = to_mp(a), to_mp(b), to_mp(m)
    k = gaussian_decay_rate(q)
    phase = mp.expj(2 * mm * k)
    out = (
        mp.sqrt(mp.pi)
        * mp.e ** (mm * mm)
        * poch_inf(-am * qm * phase, qm, cfg, budget)
        * poch_inf(-bm * qm / phase, qm, cfg, budget)
        / poch_inf(am * bm * qm, qm, cfg, budget)
    )
    if weight is not None:
        wnum = [to_mp(v) for v in (weight.a, weight.b, weight.c)] + [-phase / bm]
        wden = [to_mp(weight.d), to_mp(weight.e), -am * qm * phase]
        out = out * hyper_num(wnum, wden, qm, to_mp(y) * bm * qm, cfg, budget)
    return out


# ---------------------------------------------------------------------------
# numeric check catalog
# ---------------------------------------------------------------------------

@dataclass
class NumericReport:
    id: str
    description: str
    params: dict[str, str]
    status: str  # pass | fail | no-convergence | error
    rel_diff: str | None = None
    error_budget: str | None = None
    precision_bits: int = 256
    runtime_ms: int = 0
    trial: int = 0

    def to_dict(self) -> dict:
        """The fields in declaration order; rel_diff and error_budget only
        when set."""
        return {k: v for k, v in vars(self).items() if v is not None}


def rel_diff(lhs, rhs) -> mpf:
    scale = max(abs(lhs), abs(rhs))
    if scale == 0:
        return mpf(0)
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class NumericCheck:
    id: str
    description: str
    params: dict[str, Fraction]
    run: Callable[["NumericCheck", NumericConfig], tuple]

    def execute(self, cfg: NumericConfig) -> NumericReport:
        t0 = time.perf_counter()
        report = NumericReport(
            id=self.id,
            description=self.description,
            params={k: str(v) for k, v in self.params.items()},
            status="no-convergence",
            precision_bits=cfg.precision_bits,
        )
        with mp.workprec(cfg.precision_bits):
            try:
                lhs, rhs, budget = self.run(self, cfg)
            except NonConvergence as exc:
                report.error_budget = str(exc)
            except Exception as exc:
                # a defect in the check, not a property of the identity
                report.status = "error"
                report.error_budget = f"{type(exc).__name__}: {exc}"
            else:
                d = rel_diff(lhs, rhs)
                report.status = "pass" if d < cfg.ctol() else "fail"
                report.rel_diff = mp.nstr(d, 8)
                if budget:
                    report.error_budget = mp.nstr(sum(budget, mpf(0)), 5)
        report.runtime_ms = int((time.perf_counter() - t0) * 1000)
        return report

    def diff(self, cfg: NumericConfig) -> mpf:
        with mp.workprec(cfg.precision_bits):
            lhs, rhs, _ = self.run(self, cfg)
            return rel_diff(lhs, rhs)


def _ps_of(p: dict) -> ParamSet:
    return ParamSet(q=p["q"], a=p["a"], b=p["b"], c=p["c"], d=p["d"], e=p["e"])


_BASE = dict(q=F(1, 2), a=F(1, 5), b=F(1, 7), c=F(1, 9), d=F(1, 4), e=F(1, 6))
_WEIGHT = _ps_of(_BASE)


def _run_transformation(chk: NumericCheck, cfg: NumericConfig):
    p = chk.params
    ps = _ps_of(p)
    budget: list = []
    lhs = transformation_lhs(ps, p["x"], p["y"], p["t"], p["s"], p["r"], cfg)
    rhs = transformation_rhs(ps, p["x"], p["y"], p["t"], p["s"], p["r"], cfg, budget)
    return lhs, rhs, budget


def _run_u(chk: NumericCheck, cfg: NumericConfig):
    p = chk.params
    n = int(p["n"])
    xs = [p[f"x{i + 1}"] for i in range(n)]
    budget: list = []
    weight = _WEIGHT.with_values(q=p["q"]) if "y" in p else None
    y = p.get("y")
    lhs = u_series(n, xs, p["b"], p["z"], p["q"], cfg, weight=weight, y=y, budget=budget)
    rhs = u_series_rhs(p["b"], p["z"], p["q"], cfg, weight=weight, y=y, budget=budget)
    return lhs, rhs, budget


def _run_gauss_anchor(chk: NumericCheck, cfg: NumericConfig):
    p = chk.params
    lhs = ramanujan_integral(0, 0, p["m"], p["q"], cfg)
    rhs = mp.sqrt(mp.pi) * mp.e ** (to_mp(p["m"]) ** 2)
    return lhs, rhs, []


def _run_ramanujan(chk: NumericCheck, cfg: NumericConfig):
    p = chk.params
    budget: list = []
    weight = _WEIGHT.with_values(q=p["q"]) if "y" in p else None
    y = p.get("y")
    lhs = ramanujan_integral(p["a"], p["b"], p["m"], p["q"], cfg, weight=weight, y=y)
    rhs = ramanujan_closed_form(p["a"], p["b"], p["m"], p["q"], cfg, weight=weight, y=y, budget=budget)
    return lhs, rhs, budget


NUMERIC_CATALOG: dict[str, NumericCheck] = {
    c.id: c
    for c in [
        NumericCheck(
            "NUM-1",
            "series transformation at y=0 (two-term Heine instance)",
            dict(_BASE, x=F(1, 3), y=F(0), t=F(1, 5), s=F(1, 7), r=F(1, 6)),
            _run_transformation,
        ),
        NumericCheck(
            "NUM-2",
            "series transformation with embedded 4phi3, full parameters",
            dict(_BASE, x=F(1, 3), y=F(1, 8), t=F(1, 5), s=F(1, 7), r=F(1, 6)),
            _run_transformation,
        ),
        NumericCheck(
            "NUM-3",
            "U(2) sum at n=1 equals the q-binomial closed form",
            dict(q=F(1, 2), n=F(1), x1=F(1), b=F(1, 4), z=F(1, 10)),
            _run_u,
        ),
        NumericCheck(
            "NUM-4",
            "U(3) sum at n=2 equals the q-binomial closed form",
            dict(q=F(1, 2), n=F(2), x1=F(1), x2=F(1, 3), b=F(1, 4), z=F(1, 10)),
            _run_u,
        ),
        NumericCheck(
            "NUM-5",
            "weighted U(2) sum at n=1: five-parameter weight, 4phi3 closed form",
            dict(q=F(1, 2), n=F(1), x1=F(1), b=F(1, 4), z=F(1, 10), y=F(1, 8)),
            _run_u,
        ),
        NumericCheck(
            "NUM-6",
            "weighted U(3) sum at n=2: five-parameter weight, 4phi3 closed form",
            dict(q=F(1, 2), n=F(2), x1=F(1), x2=F(1, 3), b=F(1, 4), z=F(1, 10), y=F(1, 8)),
            _run_u,
        ),
        NumericCheck(
            "NUM-7",
            "a=b=0 integral anchor: plain Gaussian sqrt(pi) e^(m^2)",
            dict(q=F(1, 4), m=F(1, 2)),
            _run_gauss_anchor,
        ),
        NumericCheck(
            "NUM-8",
            "Gaussian-weighted q-product integral, closed form",
            dict(q=F(1, 4), m=F(1, 2), a=F(1, 5), b=F(1, 4)),
            _run_ramanujan,
        ),
        NumericCheck(
            "NUM-9",
            "weighted integral at y=0 collapses to the unweighted one",
            dict(q=F(1, 4), m=F(1, 2), a=F(1, 5), b=F(1, 4), y=F(0)),
            _run_ramanujan,
        ),
        NumericCheck(
            "NUM-10",
            "weighted integral: 3phi2 inside, 4phi3 closed form",
            dict(q=F(1, 4), m=F(1, 2), a=F(1, 5), b=F(1, 4), y=F(1, 8)),
            _run_ramanujan,
        ),
    ]
}

NUMERIC_ORDER = list(NUMERIC_CATALOG)
