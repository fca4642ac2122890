"""Independent reference implementations used only by the test suite.

Everything here is written for obviousness, not speed, and deliberately
avoids the production code paths it is used to check: products,
remainders and powers of F_q[x] coefficient lists by schoolbook loops in
FqField scalar arithmetic (no digit layout, no packed integers),
factorization by trial division, irreducibility by trial division with
list arithmetic, orders by successive products or by one FFElement power
per prime of q^n - 1 (no shared exponent tree), normality by Gaussian
elimination on the conjugate matrix, minimal annihilators by scanning
divisors in order, polynomial values from log/exp tables built by
successive products, and a generic distinct-degree/equal-degree
polynomial factorizer to cross-check the cyclotomic coset route.  The factorizer
works on coefficient lists through school_mul, school_divmod,
school_powmod and a list gcd, not through FqPoly arithmetic.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from knormal.basefield import FqField
from knormal.ff import FieldContext, FFElement
from knormal.polyring import FqPoly


def trial_division(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def divisor_count(m: int) -> int:
    return sum(1 for d in range(1, m + 1) if m % d == 0)


def squarefree_divisor_count(m: int) -> int:
    def squarefree(x):
        d = 2
        while d * d <= x:
            if x % (d * d) == 0:
                return False
            d += 1
        return True

    return sum(1 for d in range(1, m + 1) if m % d == 0 and squarefree(d))


def euler_phi(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


def school_mul(fq: FqField, a: list[int], b: list[int]) -> list[int]:
    """Product of two coefficient lists (constant first, no trailing zeros)
    by the schoolbook double loop."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = fq.add(out[i + j], fq.mul(ai, bj))
    return out


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def school_divmod(fq: FqField, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b (nonzero leading coefficient) by
    long division, both without trailing zeros."""
    rem = list(a)
    d = len(b) - 1
    lead_inv = fq.inv(b[-1])
    quot = [0] * max(len(a) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = fq.mul(rem[i], lead_inv)
        quot[i - d] = c
        for j, bj in enumerate(b):
            rem[i - d + j] = fq.sub(rem[i - d + j], fq.mul(c, bj))
    return _strip(quot), _strip(rem[:d])


def school_powmod(fq: FqField, a: list[int], k: int, mod: list[int]) -> list[int]:
    """a^k mod `mod` by repeated squaring of school_mul products."""
    result = school_divmod(fq, [1], mod)[1]
    base = school_divmod(fq, a, mod)[1]
    while k:
        if k & 1:
            result = school_divmod(fq, school_mul(fq, result, base), mod)[1]
        base = school_divmod(fq, school_mul(fq, base, base), mod)[1]
        k >>= 1
    return result


def monic_coeffs(fq: FqField, d: int):
    """Coefficient lists (constant first) of every monic polynomial of
    degree d over F_q, in canonical order: lex on (c0, ..., c_{d-1})."""
    q = fq.q
    for idx in range(q**d):
        yield [idx // q**i % q for i in range(d - 1, -1, -1)] + [1]


def _monic_divides(fq: FqField, g: list[int], f: list[int]) -> bool:
    rem = list(f)
    k = len(g) - 1
    for i in range(len(rem) - 1, k - 1, -1):
        c = rem[i]
        if c:
            for j, gj in enumerate(g):
                rem[i - k + j] = fq.sub(rem[i - k + j], fq.mul(c, gj))
    return not any(rem)


def brute_is_irreducible(fq: FqField, coeffs) -> bool:
    """Irreducibility of a polynomial (constant first, nonzero leading
    coefficient) by trial division by every monic polynomial of degree
    1..d/2, in list arithmetic over FqField."""
    f = list(coeffs)
    d = len(f) - 1
    if d < 1:
        return False
    return not any(
        _monic_divides(fq, g, f) for k in range(1, d // 2 + 1) for g in monic_coeffs(fq, k)
    )


def slow_multiplicative_order(ctx: FieldContext, a: FFElement) -> int:
    one = ctx.one()
    b = a
    t = 1
    while b != one:
        b = b * a
        t += 1
    return t


@functools.lru_cache(maxsize=None)
def _group_factors(order: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(trial_division(order - 1).items()))


def per_prime_is_primitive(ctx: FieldContext, a: FFElement) -> bool:
    """a^(N/r) != 1 for every prime r | N = q^n - 1, each a power of its
    own, with N factored by trial division."""
    N = ctx.order - 1
    return not a.is_zero() and all(a ** (N // r) != ctx.one() for r, _ in _group_factors(ctx.order))


def peeled_order(ctx: FieldContext, a: FFElement) -> int:
    """Least t with a^t = 1: starting from t = N, divide t by each prime r
    of N while a^(t/r) = 1, each test a power of its own."""
    t = ctx.order - 1
    for r, _ in _group_factors(ctx.order):
        while t % r == 0 and a ** (t // r) == ctx.one():
            t //= r
    return t


class LogTables:
    """Discrete log and exponential tables of F_{q^n} by element index.

    The generator is the first index whose successive FFElement products
    run through all q^n - 1 nonzero elements before returning to one."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.N = ctx.order - 1
        one = ctx.one()
        for i in range(1, ctx.order):
            g = ctx.from_index(i)
            exp, b = [1], g
            while b != one:
                exp.append(ctx.index(b))
                b = b * g
            if len(exp) == self.N:
                break
        self.exp = np.array(exp, dtype=np.int64)
        self.log = np.full(ctx.order, -1, dtype=np.int64)
        self.log[self.exp] = np.arange(self.N)

    def evaluate(self, f: FqPoly, points: np.ndarray) -> np.ndarray:
        """Indices of f(a) (coefficients in F_q) at nonzero element indices:
        the digit-wise sum mod p of the terms c_i a^i, each read off the
        tables (the scalar c has element index c)."""
        ctx = self.ctx
        p = ctx.p
        ppow = p ** np.arange(ctx.flat_dim, dtype=np.int64)
        loga = self.log[points]
        assert (loga >= 0).all(), "evaluation points must be nonzero"
        acc = np.zeros((len(points), ctx.flat_dim), dtype=np.int64)
        for i, c in enumerate(f.coeffs):
            if c:
                term = self.exp[(self.log[c] + i * loga) % self.N]
                acc += term[:, None] // ppow % p
        return acc % p @ ppow


def conjugate_corank(ctx: FieldContext, a: FFElement) -> int:
    """n minus the F_q-rank of the conjugate matrix; equals the normality
    index by definition."""
    fq = ctx.fq
    rows = []
    b = a
    for _ in range(ctx.n):
        rows.append(list(b.coeffs))
        b = b**ctx.q
    rank = 0
    col = 0
    n = ctx.n
    while col < n and rank < n:
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = fq.inv(rows[rank][col])
        rows[rank] = [fq.mul(inv, v) for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [fq.sub(v, fq.mul(c, w)) for v, w in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return n - rank


def direct_associate(ctx: FieldContext, f: FqPoly, a: FFElement) -> FFElement:
    """L_f(a) by raw powering, no shared Frobenius machinery."""
    acc = ctx.zero()
    for i, c in enumerate(f.coeffs):
        if c:
            acc = acc + (a ** (ctx.q**i)).scale(c)
    return acc


def direct_trace(ctx: FieldContext, a: FFElement, m: int) -> FFElement:
    """The relative trace onto F_{q^m} by raw powering: sum of a^(q^(m*i))."""
    acc = ctx.zero()
    for i in range(ctx.n // m):
        acc = acc + a ** (ctx.q ** (m * i))
    return acc


def minimal_annihilator(ctx: FieldContext, a: FFElement) -> FqPoly:
    """First monic divisor of x^n - 1 (by degree, then canonical order)
    with L_g(a) = 0, found by scanning all divisors."""
    from knormal.polyring import all_divisors

    zero = ctx.zero()
    for g in sorted(all_divisors(ctx.xn_minus_1()), key=lambda h: h.sort_key()):
        if direct_associate(ctx, g, a) == zero:
            return g
    raise AssertionError("x^n - 1 itself must annihilate")


# -- generic polynomial factorization (distinct/equal degree) ----------------


def _pointwise(op, a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return _strip([op(x, y) for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])


def list_add(fq: FqField, a: list[int], b: list[int]) -> list[int]:
    """Sum of two coefficient lists, coefficient by coefficient."""
    return _pointwise(fq.add, a, b)


def list_sub(fq: FqField, a: list[int], b: list[int]) -> list[int]:
    """Difference of two coefficient lists, coefficient by coefficient."""
    return _pointwise(fq.sub, a, b)


def _list_monic(fq: FqField, a: list[int]) -> list[int]:
    inv = fq.inv(a[-1])
    return [fq.mul(inv, c) for c in a]


def _list_gcd(fq: FqField, a: list[int], b: list[int]) -> list[int]:
    """Monic gcd of two coefficient lists, a nonzero, by Euclid's algorithm."""
    while b:
        a, b = b, school_divmod(fq, a, b)[1]
    return _list_monic(fq, a)


def _split_equal_degree(fq: FqField, g: list[int], d: int, rng: random.Random) -> list[list[int]]:
    deg = len(g) - 1
    if deg == d:
        return [_list_monic(fq, g)]
    while True:
        # any residue mod g, not only monic u of degree deg - 1: for deg = 2
        # that would be u = x + r, and as the trace is additive for p = 2,
        # Tr(xi1 + r) - Tr(xi2 + r) would not depend on r, so two roots of
        # equal trace would never be separated
        u = [rng.randrange(fq.q) for _ in range(deg)]
        if fq.p == 2:
            # trace splitting polynomial over characteristic 2
            w = school_divmod(fq, u, g)[1]
            acc = w
            for _ in range(fq.e * d - 1):
                w = school_divmod(fq, school_mul(fq, w, w), g)[1]
                acc = list_add(fq, acc, w)
            cand = _list_gcd(fq, g, acc)
        else:
            w = school_powmod(fq, u, (fq.q**d - 1) // 2, g)
            cand = _list_gcd(fq, g, list_sub(fq, w, [1]))
        if 0 < len(cand) - 1 < deg:
            return _split_equal_degree(fq, cand, d, rng) + _split_equal_degree(
                fq, school_divmod(fq, g, cand)[0], d, rng
            )


def generic_factor_xn_minus_1(fq: FqField, n: int, seed: int = 0) -> list[tuple[FqPoly, int]]:
    """Factor x^n - 1 by distinct-degree then equal-degree splitting."""
    rng = random.Random(seed)
    p = fq.p
    m, t = n, 0
    while m % p == 0:
        m //= p
        t += 1
    mult = p**t
    rest = [fq.neg(1)] + [0] * (m - 1) + [1]
    x = [0, 1]
    out: list[tuple[FqPoly, int]] = []
    d = 0
    while len(rest) > 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append((FqPoly(fq, _list_monic(fq, rest)), mult))
            break
        h = school_powmod(fq, x, fq.q**d, rest)
        g = _list_gcd(fq, rest, list_sub(fq, h, x))
        if len(g) > 1:
            for piece in _split_equal_degree(fq, g, d, rng):
                out.append((FqPoly(fq, piece), mult))
            rest = school_divmod(fq, rest, g)[0]
    return sorted(out, key=lambda fm: fm[0].sort_key())
