"""The x^p - x - a family: irreducible, (p-2)-normal, conjecturally primitive.

For a prime p and a primitive root a mod p, x^p - x - a is irreducible
over F_p, and a root alpha of it in F_{p^p} is annihilated by (x-1)^2 but
not by x - 1, so its order is (x-1)^2 and alpha is (p-2)-normal.  Whether
such alpha is always primitive is open; this module checks it instance by
instance, over every primitive root a, and persists the factorization of
p^p - 1 each verdict relied on so the verdict can be re-derived.

Factoring p^p - 1 can exceed the budget for larger p; those instances are
reported as untested rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError
from .ff import FieldContext, field_with_modulus, multiplicative_order
from .intfactor import FactorCache, factor_integer, is_prime
from .normality import fq_order, normality_index, q_associate
from .polyring import FqPoly

DEFAULT_PRIMES = (3, 5, 7, 11, 13)


@dataclass(frozen=True)
class ArtinSchreierRecord:
    """Verdict for one (p, a) instance."""

    p: int
    a: int
    irreducible: bool
    k_normality: int | None
    primitive: bool | None
    order: int | None
    order_factorization: str | None
    status: str  # "ok" or "untested"

    def row(self) -> str:
        prim = "?" if self.primitive is None else str(self.primitive)
        k = "?" if self.k_normality is None else str(self.k_normality)
        fac = self.order_factorization or "?"
        return f"{self.p},{self.a},{self.irreducible},{k},{prim},{fac}"


def primitive_roots(p: int) -> list[int]:
    """All primitive roots mod p, ascending."""
    if p == 2:
        return [1]
    pm1 = factor_integer(p - 1)
    roots = []
    for a in range(2, p):
        if all(pow(a, (p - 1) // r, p) != 1 for r in pm1.primes):
            roots.append(a)
    return roots


def artin_schreier_check(
    p: int,
    cache: FactorCache | None = None,
    rho_budget: int | None = None,
) -> list[ArtinSchreierRecord]:
    """Check the conjecture for every primitive root a of F_p.

    Each record certifies irreducibility of x^p - x - a, the exact order
    (x-1)^2 of the root (hence (p-2)-normality), and primitivity against
    the recorded factorization of p^p - 1.
    """
    if not is_prime(p) or p < 3:
        raise ValueError("p must be an odd prime (the k = n-2 case needs n > 2)")
    fq = _fp(p)
    records = []
    for a in primitive_roots(p):
        f = FqPoly(fq, _as_coeffs(p, a))
        try:
            ctx = field_with_modulus(p, 1, p, f)
        except ValueError:
            records.append(
                ArtinSchreierRecord(p, a, False, None, None, None, None, "ok")
            )
            continue
        alpha = ctx.gen()
        one = FqPoly(ctx.fq, ((p - 1), 1))  # x - 1
        sq = one * one
        ann1 = q_associate(ctx, one, alpha)
        ann2 = q_associate(ctx, sq, alpha)
        order_poly = fq_order(ctx, alpha)
        k = normality_index(ctx, alpha)
        if not (ann2.is_zero() and not ann1.is_zero() and order_poly == sq and k == p - 2):
            raise AssertionError(f"order structure broken for p={p}, a={a}")
        try:
            kwargs = {} if rho_budget is None else {"rho_budget": rho_budget}
            fi = ctx.qn_minus_1(cache=cache, **kwargs)
        except BudgetError:
            records.append(
                ArtinSchreierRecord(p, a, True, k, None, None, None, "untested")
            )
            continue
        order = multiplicative_order(ctx, alpha, cache=cache)
        prim = order == fi.value
        records.append(
            ArtinSchreierRecord(
                p, a, True, k, prim, order, str(fi), "ok"
            )
        )
    return records


def _fp(p: int):
    from .ff import build_field

    return build_field(p, 1, 1).fq


def _as_coeffs(p: int, a: int) -> tuple[int, ...]:
    # x^p - x - a over F_p
    coeffs = [0] * (p + 1)
    coeffs[0] = (-a) % p
    coeffs[1] = p - 1
    coeffs[p] = 1
    return tuple(coeffs)
