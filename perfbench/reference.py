"""Independent arithmetic behind the benchmark's output checks.

Nothing here calls the package under test.  Fields are rebuilt from the
moduli the package reports (h1 for F_q = F_p[u]/(h1), h2 for
F_{q^n} = F_q[v]/(h2)) with table-driven F_q arithmetic, and use the
package's element coding: an element is a tuple of n F_q codes, low
first, and the code of an F_q element is the integer whose base-p digits
are its coordinates in 1, u, ..., u^(e-1).  Integer factorizations come
from sympy; prime-field powering uses sympy's galoistools.
"""

from __future__ import annotations

import math

import numpy as np
import sympy
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of an integer matrix, by sympy's DomainMatrix."""
    dom = sympy.GF(p)
    mat = DomainMatrix([[dom(v) for v in row] for row in rows], (len(rows), len(rows[0])), dom)
    return mat.rank()


class Tower:
    """F_{q^n} over F_q = F_p[u]/(h1), with q x q add and multiply tables."""

    def __init__(self, p: int, h1: tuple[int, ...] | None, h2: tuple[int, ...]):
        self.p = p
        self.e = 1 if h1 is None else len(h1) - 1
        self.q = q = p**self.e
        self.n = len(h2) - 1
        if h2[-1] != 1:
            raise ValueError("top modulus must be monic")
        self.h2 = h2
        digits = [self._digits(a) for a in range(q)]
        self.add_t = [self._encode([(x + y) % p for x, y in zip(da, db)]) for da in digits for db in digits]
        self.mul_t = [self._encode(_mulmod_fp(da, db, h1, p)) for da in digits for db in digits]
        self.neg_t = [self._encode([(-x) % p for x in da]) for da in digits]

    def _digits(self, a: int) -> list[int]:
        return [a // self.p**j % self.p for j in range(self.e)]

    def _encode(self, digits: list[int]) -> int:
        return sum(d * self.p**j for j, d in enumerate(digits))

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        q, n, add, mul = self.q, self.n, self.add_t, self.mul_t
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                row = ai * q
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = add[prod[i + j] * q + mul[row + bj]]
        for d in range(2 * n - 2, n - 1, -1):
            c = prod[d]
            if c:
                row = self.neg_t[c] * q
                for j in range(n):
                    prod[d - n + j] = add[prod[d - n + j] * q + mul[row + self.h2[j]]]
        return tuple(prod[:n])

    def pow(self, a: tuple[int, ...], k: int) -> tuple[int, ...]:
        result = self.one()
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.n - 1)

    def scale(self, c: int, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.mul_t[c * self.q + x] for x in a)

    def flat(self, a: tuple[int, ...]) -> list[int]:
        """The e*n base-p digits of a, which are those of its index."""
        return [d for c in a for d in self._digits(c)]

    def from_index(self, i: int) -> tuple[int, ...]:
        return tuple(i // self.q**j % self.q for j in range(self.n))


def _mulmod_fp(a: list[int], b: list[int], h1: tuple[int, ...] | None, p: int) -> list[int]:
    # product of F_p digit vectors, reduced mod the monic h1
    if h1 is None:
        return [a[0] * b[0] % p]
    e = len(h1) - 1
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * e - 2, e - 1, -1):
        c = prod[d]
        for j in range(e):
            prod[d - e + j] = (prod[d - e + j] - c * h1[j]) % p
    return prod[:e]


# -- search: normality index and primitivity of one element ---------------


def normality_index(tower: Tower, alpha: tuple[int, ...]) -> int:
    """n minus the F_q-rank of the conjugates alpha, alpha^q, ...

    The F_q-span of the conjugates is the F_p-span of u^j * alpha^(q^i),
    whose F_p-dimension is e times the F_q-rank.
    """
    rows = []
    conj = alpha
    for _ in range(tower.n):
        for j in range(tower.e):
            rows.append(tower.flat(tower.scale(tower.p**j, conj)))
        conj = tower.pow(conj, tower.q)
    return tower.n - rank_mod_p(rows, tower.p) // tower.e


def is_primitive(tower: Tower, alpha: tuple[int, ...], primes: list[int]) -> bool:
    """alpha^((q^n - 1)/r) != 1 for every prime r of q^n - 1."""
    order = tower.q**tower.n - 1
    return all(tower.pow(alpha, order // r) != tower.one() for r in primes)


def prime_field_checks(p: int, h2: tuple[int, ...], alpha: tuple[int, ...], primes: list[int]) -> tuple[int, bool]:
    """(normality index, primitivity) of alpha in F_p[x]/(h2), by galoistools."""
    n = len(h2) - 1
    mod = list(reversed(h2))  # galoistools lists coefficients high first
    a = gt.gf_strip(list(reversed(alpha)))

    def coords(f: list[int]) -> list[int]:
        low = list(reversed(f))
        return low + [0] * (n - len(low))

    rows = []
    conj = a
    for _ in range(n):
        rows.append(coords(conj))
        conj = gt.gf_pow_mod(conj, p, mod, p, ZZ)
    index = n - rank_mod_p(rows, p)
    order = p**n - 1
    primitive = bool(a) and all(gt.gf_pow_mod(a, order // r, mod, p, ZZ) != [1] for r in primes)
    return index, primitive


# -- charpoly: evaluation of a polynomial at many field elements -----------


class LogTables:
    """Discrete log and exponential tables of a small tower (q^n <= 2^16)."""

    def __init__(self, tower: Tower):
        self.tower = tower
        p, en = tower.p, tower.e * tower.n
        self.size = tower.q**tower.n
        self.order = self.size - 1
        self.ppow = p ** np.arange(en, dtype=np.int64)
        basis = [tower.from_index(int(v)) for v in self.ppow]
        for cand in range(tower.q, self.size):
            gen = tower.from_index(cand)
            mat = np.array([tower.flat(tower.mul(b, gen)) for b in basis], dtype=np.int64)
            exp = self._powers(mat)
            if np.unique(exp).size == self.order:
                break
        else:
            raise ValueError("no generator found: top modulus not irreducible")
        self.exp = exp
        self.log = np.full(self.size, -1, dtype=np.int64)
        self.log[exp] = np.arange(self.order, dtype=np.int64)

    def _powers(self, mat: np.ndarray) -> np.ndarray:
        # flat indices of gen^0 .. gen^(N-1): B baby steps, then giant steps by mat^B
        p, N = self.tower.p, self.order
        B = math.isqrt(N) + 1
        rows = np.zeros((B, mat.shape[0]), dtype=np.int64)
        r = np.zeros(mat.shape[0], dtype=np.int64)
        r[0] = 1
        for j in range(B):
            rows[j] = r
            r = r @ mat % p
        giant = np.eye(mat.shape[0], dtype=np.int64)
        step, k = mat, B
        while k:
            if k & 1:
                giant = giant @ step % p
            step = step @ step % p
            k >>= 1
        out = []
        for _ in range(0, N, B):
            out.append(rows @ self.ppow)
            rows = rows @ giant % p
        return np.concatenate(out)[:N]

    def evaluate(self, coeffs: tuple[int, ...], points: np.ndarray) -> np.ndarray:
        """Flat indices of f(x) at each nonzero point (Horner, vectorized)."""
        if (points == 0).any():
            raise ValueError("points must be nonzero")
        tower = self.tower
        p = tower.p
        logx = self.log[points]
        acc = np.zeros(points.size, dtype=np.int64)
        for c in reversed(coeffs):
            nz = acc != 0
            acc[nz] = self.exp[(self.log[acc[nz]] + logx[nz]) % self.order]
            # adding the F_q constant c changes only the first e digits
            for j, cj in enumerate(tower._digits(c)):
                if cj:
                    d = acc // self.ppow[j] % p
                    acc += ((d + cj) % p - d) * self.ppow[j]
        return acc


# -- survey: the sieve criterion from first principles ----------------------


def cyclotomic_data(q: int, n: int) -> tuple[int, set[int]]:
    """(number of distinct irreducible factors of x^n - 1, its divisor degrees).

    With n = p^t m, gcd(m, p) = 1, the factors are one per q-coset of the
    units mod d for each d | m: phi(d)/ord_d(q) of them, each of degree
    ord_d(q) and multiplicity p^t.
    """
    p = sympy.primefactors(q)[0]
    m, mult = n, 1
    while m % p == 0:
        m //= p
        mult *= p
    count = 0
    degrees = {0}
    for d in sympy.divisors(m):
        size = 1 if d == 1 else sympy.n_order(q, d)
        cosets = int(sympy.totient(d)) // size
        count += cosets
        for _ in range(cosets * mult):
            degrees |= {s + size for s in degrees if s + size <= n}
    return count, degrees


def sieve_expectation(q: int, n: int, k: int, w_int: int, w_poly: int, degrees: set[int]) -> tuple[bool, bool]:
    """(inequality q^(n/2-k) >= W_int W_poly, verdict), decided in integers."""
    rhs = (w_int * w_poly) ** 2
    holds = q ** (n - 2 * k) >= rhs if n >= 2 * k else 1 >= rhs * q ** (2 * k - n)
    return holds, holds and k in degrees
