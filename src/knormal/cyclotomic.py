"""Factorization of x^n - 1 over F_q via cyclotomic cosets.

Write n = p^t * m with gcd(m, p) = 1; then x^n - 1 = (x^m - 1)^(p^t) and
x^m - 1 is squarefree.  For each divisor d of m, the roots of order d are
the powers xi^j of a fixed element xi of order d, j ranging over the units
of Z/d; the coset of j under multiplication by q yields one irreducible
factor, the product of (x - xi^c) over the coset.  Every coset of the
divisor d has ord_d(q) elements, so the coset products of d are computed
in the extension F_{q^L} with L = ord_d(q), and every resulting
coefficient is checked to be a base field constant before the factor is
accepted.

This route is deterministic (no probabilistic splitting) and exposes the
coset structure that divisor degree sets are made of.
"""

from __future__ import annotations

from .basefield import FqField
from .errors import InternalCheckError
from .ff import FFElement, FieldContext, build_field
from .polyring import FactoredPoly, FqPoly


def _coprime_part(n: int, p: int) -> tuple[int, int]:
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return n, p**t


def _divisors(m: int) -> list[int]:
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


def _ord_mod(q: int, d: int) -> int:
    if d == 1:
        return 1
    v, k = q % d, 1
    while v != 1:
        v = v * q % d
        k += 1
    return k


def _unit_cosets(q: int, d: int) -> list[list[int]]:
    """Orbits of multiplication by q on the units of Z/d, canonically ordered."""
    units = [j for j in range(1, d + 1) if _gcd(j, d) == 1] if d > 1 else [0]
    seen: set[int] = set()
    cosets = []
    for j in units:
        if j in seen:
            continue
        orbit = []
        c = j
        while c not in seen:
            seen.add(c)
            orbit.append(c)
            c = c * q % d
        cosets.append(sorted(orbit))
    return cosets


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _element_of_order(ctx: FieldContext, d: int) -> FFElement:
    # deterministic index-order scan for an element of exact order d
    cofactor = (ctx.order - 1) // d
    prime_parts = []
    dd = d
    r = 2
    while r * r <= dd:
        if dd % r == 0:
            prime_parts.append(r)
            while dd % r == 0:
                dd //= r
        r += 1
    if dd > 1:
        prime_parts.append(dd)
    one = ctx.one()
    i = 1
    while True:
        a = ctx.from_index(i) ** cofactor
        if not a.is_zero() and all(a ** (d // r) != one for r in prime_parts):
            return a
        i += 1


def factor_xm_minus_1(fq: FqField, n: int) -> FactoredPoly:
    """Irreducible factorization of x^n - 1 over F_q."""
    if n < 1:
        raise ValueError("n must be positive")
    p = fq.p
    m, mult = _coprime_part(n, p)
    factors: list[tuple[FqPoly, int]] = []
    for d in _divisors(m):
        if d == 1:
            factors.append((FqPoly(fq, (fq.neg(1), 1)), mult))
            continue
        L = _ord_mod(fq.q, d)
        ext = build_field(p, fq.e, L)
        if ext.fq != fq:
            raise InternalCheckError("extension tower has a different base field")
        xi = _element_of_order(ext, d)
        for coset in _unit_cosets(fq.q, d):
            # product of (x - xi^c) over the coset, computed in F_{q^L}
            prod = [ext.one()]
            for c in coset:
                root = xi**c
                nxt = [ext.zero()] * (len(prod) + 1)
                for i, w in enumerate(prod):
                    nxt[i + 1] = nxt[i + 1] + w
                    nxt[i] = nxt[i] - w * root
                prod = nxt
            coeffs = []
            for w in prod:
                if any(w.coeffs[1:]):
                    raise InternalCheckError(
                        f"coset factor coefficient {w!r} does not lie in the base field"
                    )
                coeffs.append(w.coeffs[0])
            factors.append((FqPoly(fq, coeffs), mult))
    factors.sort(key=lambda fm: fm[0].sort_key())
    result = FactoredPoly(fq, tuple(factors))
    if result.product() != FqPoly.x_pow_minus_one(fq, n):
        raise InternalCheckError("cyclotomic factors do not multiply back to x^n - 1")
    return result
