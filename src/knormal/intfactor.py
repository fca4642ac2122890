"""Arbitrary precision integer factorization with certified primality.

Factorizations are exact and deterministic: trial division by a fixed set
of small primes, then Brent-cycle Pollard rho driven by a fixed polynomial
sequence (x^2 + c for c = 1, 2, ...), with every reported prime certified
by Miller-Rabin.  Below 2^64 the Miller-Rabin bases form a proven
deterministic set; above, 64 rounds with bases drawn from a fixed-seed
generator keep runs reproducible.

A factorization either completes or raises BudgetError ("factorization
incomplete"); a wrong answer is never returned.  An optional line-based
cache file lets expensive factorizations be reused across runs.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

from .errors import BudgetError

logger = logging.getLogger(__name__)

TRIAL_DIVISION_BOUND = 100_000
RHO_ITERATION_BUDGET = 40_000_000

# Deterministic Miller-Rabin witness set for n < 2^64.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_ROUNDS_BIG = 64
_MR_SEED = 0x6B6E6F726D616C  # fixed; reproducible witnesses above 2^64


def _mr_witness(a: int, n: int, d: int, r: int) -> bool:
    # True if a witnesses compositeness of n = d * 2^r + 1.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 1 << 64:
        bases = _MR_BASES_64
    else:
        rng = random.Random(_MR_SEED)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS_BIG))
    return not any(_mr_witness(a, n, d, r) for a in bases)


def _small_primes(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound + 1) if sieve[i]]


_SMALL_PRIMES: list[int] | None = None


def small_primes() -> list[int]:
    """Primes up to the trial-division bound (computed once)."""
    global _SMALL_PRIMES
    if _SMALL_PRIMES is None:
        _SMALL_PRIMES = _small_primes(TRIAL_DIVISION_BOUND)
    return _SMALL_PRIMES


def _pollard_rho(n: int, budget: list[int]) -> int:
    """Return a nontrivial factor of odd composite n, or raise BudgetError.

    Brent's cycle variant; the polynomial constant c steps through 1, 2, ...
    so the search is deterministic.  budget is a single-element mutable
    iteration allowance shared across recursive calls.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= min(m, r - k)
                if budget[0] <= 0:
                    raise BudgetError(f"factorization incomplete: rho budget exhausted on {n}")
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget[0] -= 1
                if budget[0] <= 0:
                    raise BudgetError(f"factorization incomplete: rho budget exhausted on {n}")
        if g != n:
            return g
    raise BudgetError(f"factorization incomplete: rho failed on {n}")


@dataclass(frozen=True)
class FactoredInt:
    """A nonnegative integer together with its complete prime factorization.

    factors is a tuple of (prime, multiplicity) pairs with strictly
    increasing primes; the empty tuple factors 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        for p, a in self.factors:
            prod *= p**a
        if prod != self.value:
            raise ValueError(f"factor list does not multiply back to {self.value}")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("factor primes must be strictly increasing")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def phi(self) -> int:
        """Euler totient of value (value >= 1 required)."""
        out = self.value
        for p, _ in self.factors:
            out = out // p * (p - 1)
        return out

    def num_divisors(self) -> int:
        out = 1
        for _, a in self.factors:
            out *= a + 1
        return out

    def squarefree_divisor_count(self) -> int:
        """Number of squarefree divisors, 2^(number of distinct primes)."""
        return 1 << len(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{a}" for p, a in self.factors)


def factor_integer(
    m: int,
    cache: FactorCache | None = None,
    rho_budget: int = RHO_ITERATION_BUDGET,
) -> FactoredInt:
    """Complete prime factorization of m >= 1.

    Raises BudgetError when the rho iteration allowance runs out before the
    factorization is complete; consults and feeds the cache when given one.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}: need m >= 1")
    if cache is not None:
        hit = cache.lookup(m)
        if hit is not None:
            return hit
    found: dict[int, int] = {}
    n = m
    for p in small_primes():
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    budget = [rho_budget]
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            found[n] = found.get(n, 0) + 1
            continue
        d = _pollard_rho(n, budget)
        stack.append(d)
        stack.append(n // d)
    result = FactoredInt(m, tuple(sorted(found.items())))
    if cache is not None:
        cache.record(result)
    return result


class FactorCache:
    """Append-only text cache of factorizations.

    File format, one entry per line:  ``value = p1^a1 * p2^a2 * ...``
    with all numbers in decimal.  Lines that fail to parse, multiply back
    wrong, or contain a composite "prime" are rejected with a logged
    warning; they are never silently ignored.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._table: dict[int, FactoredInt] = {}
        if path is not None:
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parsed = self._parse_line(line)
            if parsed is None:
                logger.warning("%s:%d: rejected malformed cache line: %r", path, lineno, line)
                continue
            self._table[parsed.value] = parsed

    @staticmethod
    def _parse_line(line: str) -> FactoredInt | None:
        try:
            left, right = line.split("=", 1)
            value = int(left.strip())
            factors = []
            right = right.strip()
            if right != "1":
                for part in right.split("*"):
                    part = part.strip()
                    if "^" in part:
                        base, exp = part.split("^", 1)
                        p, a = int(base.strip()), int(exp.strip())
                    else:
                        p, a = int(part), 1
                    if a < 1 or not is_prime(p):
                        return None
                    factors.append((p, a))
            return FactoredInt(value, tuple(sorted(factors)))
        except (ValueError, OverflowError):
            return None

    def lookup(self, value: int) -> FactoredInt | None:
        return self._table.get(value)

    def record(self, fi: FactoredInt) -> None:
        """Remember fi, appending to the backing file if it is new."""
        if fi.value in self._table:
            return
        self._table[fi.value] = fi
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(f"{fi.value} = {fi}\n")
