"""Existence criteria for primitive k-normal elements, decided exactly.

The criterion compares q^(n/2-k) against W(q^n-1) * W(x^n-1), where W
counts squarefree (monic) divisors.  Half-integer powers never touch a
float: both sides are squared and compared as exact integers.  The same
discipline applies to the companion bounds; the one place real analysis
is unavoidable (the h margin, which involves log log (q^n - 1)) uses
interval arithmetic at 60+ significant digits and reports an explicit
"indeterminate" instead of silently rounding.

A criterion verdict asserts existence only when it can: besides the
inequality it requires that x^n - 1 actually has a divisor of the target
degree, since extensions with gaps in their divisor degrees (for example
q = 2, n = 19) can satisfy the inequality at a k admitting no k-normal
elements at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetError
from .ff import FieldContext
from .intfactor import FactorCache, FactoredInt, factor_integer
from .polyring import degree_set, euler_phi_poly

if TYPE_CHECKING:
    import mpmath


def squarefree_divisor_count_int(m: FactoredInt) -> int:
    """W(m): 2 to the number of distinct prime factors."""
    return m.squarefree_divisor_count()


@dataclass(frozen=True)
class SieveReport:
    """Exact verdict data for one (q, n, k) instance."""

    q: int
    n: int
    k: int
    w_int: int
    w_poly: int
    k_feasible: bool
    inequality_holds: bool
    verdict: bool
    nf_lower_bound: Fraction
    theta: Fraction
    big_theta: Fraction

    CSV_HEADER = "q,n,k,W_int,W_poly,verdict,nf_lower_bound_num,nf_lower_bound_den"

    def csv_row(self) -> str:
        return ",".join(
            str(v)
            for v in (
                self.q,
                self.n,
                self.k,
                self.w_int,
                self.w_poly,
                self.verdict,
                self.nf_lower_bound.numerator,
                self.nf_lower_bound.denominator,
            )
        )

    def to_text(self) -> str:
        lines = [
            f"sieve q={self.q} n={self.n} k={self.k}",
            f"W_int = {self.w_int}",
            f"W_poly = {self.w_poly}",
            f"k_feasible = {self.k_feasible}",
            f"inequality_holds = {self.inequality_holds}",
            f"verdict = {self.verdict}",
            f"nf_lower_bound = {self.nf_lower_bound}",
            f"theta = {self.theta}",
            f"Theta = {self.big_theta}",
        ]
        return "\n".join(lines) + "\n"


def _ceil_sqrt(n: int) -> int:
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def sieve_verdict(ctx: FieldContext, k: int, cache: FactorCache | None = None) -> SieveReport:
    """Evaluate the existence criterion for primitive k-normal elements.

    The inequality q^(n/2-k) >= W(q^n-1) W(x^n-1) is decided by squaring;
    the reported lower bound on the number of primitive images of normal
    elements rounds outward (ceiling on q^(n/2+k)) so it is never
    overstated.  verdict is the inequality together with feasibility of
    degree k among the divisors of x^n - 1.
    """
    n = ctx.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    fi = ctx.qn_minus_1(cache=cache)
    fp = ctx.xn_minus_1()
    w_int = fi.squarefree_divisor_count()
    w_poly = 1 << len(fp.factors)
    rhs = (w_int * w_poly) ** 2
    if n >= 2 * k:
        inequality = ctx.q ** (n - 2 * k) >= rhs
    else:
        inequality = 1 >= rhs * ctx.q ** (2 * k - n)
    feasible = k in degree_set(fp)
    theta = Fraction(fi.phi(), fi.value)
    big_theta = Fraction(euler_phi_poly(fp), ctx.order)
    upper = _ceil_sqrt(ctx.q ** (n + 2 * k))
    bound = theta * big_theta * (ctx.order - upper * w_int * w_poly)
    return SieveReport(
        q=ctx.q,
        n=n,
        k=k,
        w_int=w_int,
        w_poly=w_poly,
        k_feasible=feasible,
        inequality_holds=inequality,
        verdict=inequality and feasible,
        nf_lower_bound=bound,
        theta=theta,
        big_theta=big_theta,
    )


def sieve_1normal(ctx: FieldContext, cache: FactorCache | None = None) -> bool:
    """Strict criterion W(T) W(q^n-1) < q^(n/2-1) with T = (x^n-1)/(x-1);
    requires n not divisible by the characteristic."""
    if ctx.n % ctx.p == 0:
        raise ValueError(f"requires gcd(n, p) = 1, got n={ctx.n}, p={ctx.p}")
    fi = ctx.qn_minus_1(cache=cache)
    fp = ctx.xn_minus_1()
    # x - 1 appears exactly once when p does not divide n, so T keeps every
    # other irreducible factor
    w_t = 1 << (len(fp.factors) - 1)
    lhs = (w_t * fi.squarefree_divisor_count()) ** 2
    return lhs < ctx.q ** (ctx.n - 2)


# -- analytic bounds, certified --------------------------------------------

_BOUND_EXPONENT_NUM = "1.5379"  # times log 2, in the divisor-count bound


def _iv_ctx(digits: int):
    import mpmath  # imported here: only the certified bounds need it

    iv = mpmath.iv
    iv.dps = digits
    return iv


def divisor_bound_check(m: FactoredInt, digits: int = 60) -> bool:
    """Certified check of d(m) <= m^(1.5379 log 2 / log log m) for m >= 3.

    Equivalent comparison: log d(m) * log log m <= 1.5379 log 2 * log m,
    evaluated in interval arithmetic; precision escalates until the
    comparison is decided.
    """
    if m.value < 3:
        raise ValueError("bound needs m >= 3")
    d = m.num_divisors()
    while digits <= 960:
        iv = _iv_ctx(digits)
        lhs = iv.log(d) * iv.log(iv.log(m.value))
        rhs = iv.mpf(_BOUND_EXPONENT_NUM) * iv.log(2) * iv.log(m.value)
        if lhs < rhs:
            return True
        if lhs > rhs:
            return False
        digits *= 2
    raise BudgetError(f"divisor bound comparison indeterminate for m={m.value}")


def divisor_bound_scan(limit: int) -> list[int]:
    """All m in [3, limit] violating the divisor-count bound (expect none).

    Bulk float screening with a wide certification margin; only the rare
    near-margin cases escalate to interval arithmetic.
    """
    if limit < 3:
        return []
    d = np.zeros(limit + 1, dtype=np.int32)
    for i in range(1, limit + 1):
        d[i::i] += 1
    m = np.arange(3, limit + 1, dtype=np.float64)
    logm = np.log(m)
    slack = 1.5379 * math.log(2) * logm - np.log(d[3:]) * np.log(logm)
    margin = 1e-9 * np.maximum(logm, 1.0)
    suspects = np.nonzero(slack < margin)[0] + 3
    return [
        int(v) for v in suspects if not divisor_bound_check(factor_integer(int(v)))
    ]


def power_of_two_bound_check(
    q: int, t: int, cache: FactorCache | None = None, rho_budget: int | None = None
) -> bool:
    """Exact check of W(q^(2^t) - 1) < 2 q^(2^t / (t - 1)) for odd q >= 3.

    Both sides are raised to the power t - 1 so the fractional exponent
    disappears: W^(t-1) < 2^(t-1) * q^(2^t) in plain integers.
    """
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be odd and at least 3")
    if len(factor_integer(q).factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    if t < 2:
        raise ValueError("t must be at least 2")
    kwargs = {} if rho_budget is None else {"rho_budget": rho_budget}
    fi = factor_integer(q ** (1 << t) - 1, cache=cache, **kwargs)
    w = fi.squarefree_divisor_count()
    return w ** (t - 1) < 2 ** (t - 1) * q ** (1 << t)


@dataclass(frozen=True)
class HMargin:
    """Certified enclosure of the admissible-k fraction h(n, q)."""

    q: int
    n: int
    lo: mpmath.mpf
    hi: mpmath.mpf
    k_max: int
    indeterminate: bool

    def to_text(self) -> str:
        import mpmath

        return (
            f"h q={self.q} n={self.n}\n"
            f"enclosure = [{mpmath.nstr(self.lo, 25)}, {mpmath.nstr(self.hi, 25)}]\n"
            f"k_max = {self.k_max}\n"
            f"indeterminate = {self.indeterminate}\n"
        )


def h_margin(q: int, n: int, digits: int = 65) -> HMargin:
    """Enclose h(n, q) = 1/2 - 1.06/log log(q^n - 1) - log 2/log q.

    k_max = floor(n * h) is taken from the lower endpoint (the safe
    direction, never above the true value) and clamped at zero; the result
    is flagged indeterminate when the enclosure does not pin the floor
    down.
    """
    if q**n < 16:
        raise ValueError("need q^n >= 16 so that log log (q^n - 1) is positive")
    import mpmath

    iv = _iv_ctx(digits)
    big = q**n - 1  # exact; interval conversion rounds outward
    h = (
        iv.mpf(1) / 2
        - iv.mpf("1.06") / iv.log(iv.log(iv.mpf(big)))
        - iv.log(2) / iv.log(q)
    )
    nh = iv.mpf(n) * h
    with mpmath.workdps(digits):
        # endpoints convert exactly at matching precision
        lo, hi = mpmath.mpf(h.a), mpmath.mpf(h.b)
        lo_floor = int(mpmath.floor(mpmath.mpf(nh.a)))
        hi_floor = int(mpmath.floor(mpmath.mpf(nh.b)))
    return HMargin(
        q=q,
        n=n,
        lo=lo,
        hi=hi,
        k_max=max(0, lo_floor),
        indeterminate=lo_floor != hi_floor,
    )
