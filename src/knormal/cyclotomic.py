"""Factorization of x^n - 1 over F_q by Berlekamp splitting on coset sums.

Write n = p^t * m with gcd(m, p) = 1; then x^n - 1 = (x^m - 1)^(p^t) and
x^m - 1 is squarefree.  In A = F_q[x]/(x^m - 1) the q-power map sends x^j
to x^(jq mod m), so Berlekamp's subalgebra B = {b : b^q = b} has the
F_q-basis of coset sums s_C = sum_{j in C} x^j, one per q-cyclotomic
coset C of Z/m, and its dimension r, the number of cosets, is the number
of irreducible factors of x^m - 1 (Berlekamp, Bell System Tech. J. 46,
1967; Math. Comp. 24, 1970).

Every b in B takes a value in F_q at each root of x^m - 1, and the values
of the coset sums tell the factors apart.  For each s_C and each c of the
F_p-basis 1, u, ..., u^(e-1) of F_q, the trace polynomial

    T = sum_{i<e} (c * s_C)^(p^i) mod x^m - 1

takes the value Tr(c * s_C(xi)) in F_p at each root xi; it is built by
permuting exponents, x^j -> x^(j p^i mod m) with coefficient c^(p^i).
These values still tell the factors apart, since the trace form is
nondegenerate.  A piece g on which T is not constant splits by gcd(g,
T + a) or gcd(g, (T + a)^((p-1)/2) - 1) for some a = 0, 1, ...: with
a = -v for a value v of T the first gcd is proper, so the scan ends
within p steps.  The second gcd parts squares from non-squares, so for
large p a small a nearly always splits; for p = 2 it is g itself.
Splitting stops at r pieces, which are then the irreducible factors.

Everything is F_q[x] arithmetic; the factor list is deterministic and in
canonical order.
"""

from __future__ import annotations

from .basefield import FqField
from .errors import InternalCheckError
from .polyring import FactoredPoly, FqPoly, poly_gcd, powmod


def _coprime_part(n: int, p: int) -> tuple[int, int]:
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return n, p**t


def _cosets(q: int, m: int) -> list[list[int]]:
    """Orbits of multiplication by q on Z/m, {0} included."""
    seen = [False] * m
    cosets = []
    for j in range(m):
        orbit = []
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = j * q % m
        if orbit:
            cosets.append(orbit)
    return cosets


def _trace_polys(fq: FqField, m: int, cosets: list[list[int]]):
    """Tr(c * s_C) mod x^m - 1 for every coset C and basis element c."""
    p = fq.p
    for coset in cosets:
        for i in range(fq.e):
            coeffs = [0] * m
            c = p**i
            shift = 1
            for _ in range(fq.e):
                for j in coset:
                    k = j * shift % m
                    coeffs[k] = fq.add(coeffs[k], c)
                c = fq.pow(c, p)
                shift = shift * p % m
            yield FqPoly._make(fq, coeffs)


def _proper_divisor(g: FqPoly, t: FqPoly) -> FqPoly:
    """A proper monic divisor of g, for t mod g not constant with values in F_p."""
    fq = g.fq
    one = FqPoly.one(fq)
    for a in range(fq.p):
        s = t + FqPoly._make(fq, (a,))
        h = poly_gcd(g, s)
        if not 0 < h.degree < g.degree:
            h = poly_gcd(g, powmod(s, (fq.p - 1) // 2, g) - one)
        if 0 < h.degree < g.degree:
            return h
    raise InternalCheckError(f"trace polynomial does not split {g!r}")


def _split(pieces: list[FqPoly], T: FqPoly, r: int) -> list[FqPoly]:
    """Split the pieces on T until T is constant mod each, or there are r."""
    done, todo = [], list(pieces)
    while todo and len(done) + len(todo) < r:
        g = todo.pop()
        t = T % g
        if t.degree < 1:
            done.append(g)
            continue
        h = _proper_divisor(g, t)
        todo += [h, g // h]
    return done + todo


def factor_xm_minus_1(fq: FqField, n: int) -> FactoredPoly:
    """Irreducible factorization of x^n - 1 over F_q."""
    if n < 1:
        raise ValueError("n must be positive")
    m, mult = _coprime_part(n, fq.p)
    cosets = _cosets(fq.q, m)
    r = len(cosets)
    pieces = [FqPoly.x_pow_minus_one(fq, m)]
    for T in _trace_polys(fq, m, cosets):
        if len(pieces) == r:
            break
        pieces = _split(pieces, T, r)
    if len(pieces) != r:
        raise InternalCheckError(f"x^{m} - 1 split into {len(pieces)} pieces, not {r}")
    result = FactoredPoly(fq, tuple((f, mult) for f in sorted(pieces, key=FqPoly.sort_key)))
    if result.product() != FqPoly.x_pow_minus_one(fq, n):
        raise InternalCheckError("cyclotomic factors do not multiply back to x^n - 1")
    return result
