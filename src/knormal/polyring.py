"""Dense univariate polynomial arithmetic over F_q.

Polynomials are represented as tuples of F_q element codes, constant
coefficient first, with no trailing zeros; the empty tuple is the zero
polynomial.  All operations are exact.  A product whose shorter operand
has fewer than _SCHOOLBOOK_CUTOFF coefficients runs a schoolbook loop,
any other Kronecker substitution (Harvey, JSC 2009; FLINT's nmod_poly):
each operand, in basefield's digit layout, becomes one Python int with a
digit per whole-byte field sized for the bound min(len_a, len_b) * e *
(p-1)^2 of a product field; the big-int product is unpacked (numpy byte
views, or Python ints when exact_dtype(bound) is object) and folded mod
p and h1.  Division stays long division, skipping zero divisor
coefficients, so dividing by a sparse polynomial costs O(deg * terms).
Division, sums and differences take the two coefficient paths of the
schoolbook product: inline % p for prime q, FqField methods (table
lookups up to TABLE_MAX_Q) for extension fields.  powmod runs left to
right from the reduced base, one squaring per bit below the top and one
product per further set bit, so a Ben-Or step over F_2 is one squaring
mod f.

FqPoly(...) range-checks its codes, since they may come from outside.
FqPoly._make skips that check and only strips trailing zeros; the
package uses it for the results it computes itself (sums, differences,
negations, products, quotients and remainders), whose codes are in
[0, q) by construction.

Irreducibility is Ben-Or's test: f of degree d is irreducible iff
gcd(x^(q^i) - x, f) = 1 for every i <= d/2, because a reducible f has an
irreducible factor of degree at most d/2.  The test stops at the first i
with a common factor, so most reducible candidates cost a step or two.

The canonical ordering used everywhere (divisor listings, factor lists,
"least irreducible" modulus selection) is: by degree, then lexicographic
on the coefficient tuple (c0, c1, ..., cd) as integers.

Text formats accepted by parse_poly and produced by format_poly:

    3 + x + 2*x^4        sum-of-terms form, decimal coefficient codes
    [3, 1, 0, 0, 2]      compact list form, constant first

Coefficient codes at or above q are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .basefield import FqField, exact_dtype
from .errors import BudgetError

_SCHOOLBOOK_CUTOFF = 32

# Divisor enumeration refuses to materialize more than this many divisors.
DIVISOR_CAP = 1 << 20


class FqPoly:
    """Immutable dense polynomial over an FqField."""

    __slots__ = ("fq", "coeffs")

    def __init__(self, fq: FqField, coeffs=()):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not (0 <= c < fq.q):
                raise ValueError(f"coefficient code {c} out of range for q={fq.q}")
        _set(self, fq, coeffs)

    @classmethod
    def _make(cls, fq: FqField, coeffs) -> "FqPoly":
        """A polynomial from codes known to lie in [0, q): no range check."""
        out = object.__new__(cls)
        _set(out, fq, tuple(coeffs))
        return out

    def __setattr__(self, *a):
        raise AttributeError("FqPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, fq: FqField) -> "FqPoly":
        return cls(fq, ())

    @classmethod
    def one(cls, fq: FqField) -> "FqPoly":
        return cls(fq, (1,))

    @classmethod
    def x(cls, fq: FqField) -> "FqPoly":
        return cls(fq, (0, 1))

    @classmethod
    def monomial(cls, fq: FqField, d: int, c: int = 1) -> "FqPoly":
        return cls(fq, (0,) * d + (c,))

    @classmethod
    def x_pow_minus_one(cls, fq: FqField, n: int) -> "FqPoly":
        """x^n - 1."""
        return cls(fq, (fq.neg(1),) + (0,) * (n - 1) + (1,))

    # -- structure --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqPoly)
            and self.fq == other.fq
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.fq, self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __lt__(self, other: "FqPoly") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"FqPoly({format_poly(self)})"

    def _check_same_field(self, other: "FqPoly") -> None:
        if self.fq is not other.fq and self.fq != other.fq:
            raise ValueError("polynomials live over different fields")

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "FqPoly") -> "FqPoly":
        self._check_same_field(other)
        fq = self.fq
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if fq.e == 1:
            p = fq.p
            out = [(x + y) % p for x, y in zip(a, b)]
        else:
            add = fq.add
            out = [add(x, y) for x, y in zip(a, b)]
        out += a[len(b):]
        return FqPoly._make(fq, out)

    def __neg__(self) -> "FqPoly":
        fq = self.fq
        return FqPoly._make(fq, [fq.neg(c) for c in self.coeffs])

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        self._check_same_field(other)
        fq = self.fq
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        if fq.e == 1:
            p = fq.p
            out = [(x - y) % p for x, y in zip(a, b)]
            out += [-y % p for y in b[n:]]
        else:
            sub, neg = fq.sub, fq.neg
            out = [sub(x, y) for x, y in zip(a, b)]
            out += [neg(y) for y in b[n:]]
        out += a[n:]
        return FqPoly._make(fq, out)

    def scale(self, c: int) -> "FqPoly":
        fq = self.fq
        if c == 0:
            return FqPoly.zero(fq)
        return FqPoly._make(fq, [fq.mul(c, a) for a in self.coeffs])

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        self._check_same_field(other)
        if not self or not other:
            return FqPoly.zero(self.fq)
        return FqPoly._make(self.fq, _mul(self.fq, list(self.coeffs), list(other.coeffs)))

    def __pow__(self, k: int) -> "FqPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = FqPoly.one(self.fq)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "FqPoly") -> tuple["FqPoly", "FqPoly"]:
        self._check_same_field(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        fq = self.fq
        d = other.degree
        lead_inv = fq.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        if len(rem) <= d:
            return FqPoly.zero(fq), self
        quot = [0] * (len(rem) - d)
        sparse = [(j, c) for j, c in enumerate(other.coeffs[:-1]) if c]
        # rem[i] is not cleared once used: only rem[:d] is kept
        if fq.e == 1:
            p = fq.p
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                if c:
                    c = c * lead_inv % p
                    quot[i - d] = c
                    for j, bj in sparse:
                        k = i - d + j
                        rem[k] = (rem[k] - c * bj) % p
        else:
            mul, sub = fq.mul, fq.sub
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                if c:
                    c = mul(c, lead_inv)
                    quot[i - d] = c
                    for j, bj in sparse:
                        k = i - d + j
                        rem[k] = sub(rem[k], mul(c, bj))
        return FqPoly._make(fq, quot), FqPoly._make(fq, rem[:d])

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[1]

    def divides(self, other: "FqPoly") -> bool:
        return not other % self

    def monic(self) -> "FqPoly":
        if not self or self.coeffs[-1] == 1:
            return self
        return self.scale(self.fq.inv(self.coeffs[-1]))

    def eval(self, a: int) -> int:
        """Horner evaluation at an F_q element code."""
        fq = self.fq
        acc = 0
        for c in reversed(self.coeffs):
            acc = fq.add(fq.mul(acc, a), c)
        return acc


def _set(poly: FqPoly, fq: FqField, coeffs: tuple[int, ...]) -> None:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    object.__setattr__(poly, "fq", fq)
    object.__setattr__(poly, "coeffs", coeffs[:end])


def _mul(fq: FqField, a: list[int], b: list[int]) -> list[int]:
    if min(len(a), len(b)) < _SCHOOLBOOK_CUTOFF:
        return _mul_school(fq, a, b)
    return _mul_ks(fq, a, b)


def _mul_school(fq: FqField, a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    if fq.e == 1:
        p = fq.p
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        k = i + j
                        out[k] = (out[k] + ai * bj) % p
    else:
        add, mul = fq.add, fq.mul
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        k = i + j
                        out[k] = add(out[k], mul(ai, bj))
    return out


def _mul_ks(fq: FqField, a: list[int], b: list[int]) -> list[int]:
    # Kronecker substitution (see the module docstring)
    bound = min(len(a), len(b)) * fq.e * (fq.p - 1) ** 2
    width = (bound.bit_length() + 7) // 8  # bytes per digit field
    dtype = exact_dtype(bound)
    prod = _pack(fq.code_slots(a, dtype), width) * _pack(fq.code_slots(b, dtype), width)
    slots = _unpack(prod, (len(a) + len(b) - 1) * (2 * fq.e - 1), width, dtype)
    return (fq.fold_slots(slots.reshape(-1, 2 * fq.e - 1)) @ fq.code_pow).tolist()


def _pack(digits: np.ndarray, width: int) -> int:
    """One int holding the digits, low first, in fields of `width` bytes."""
    if digits.dtype == object:
        return int.from_bytes(b"".join(d.to_bytes(width, "little") for d in digits.flat), "little")
    fields = digits.astype("<i8").view(np.uint8).reshape(-1, 8)[:, :width]
    return int.from_bytes(fields.tobytes(), "little")


def _unpack(value: int, count: int, width: int, dtype) -> np.ndarray:
    """The first `count` fields of `width` bytes of value, low first."""
    raw = value.to_bytes(count * width, "little")
    if dtype is object:
        fields = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
        return np.array(fields, dtype=object)
    buf = np.zeros((count, 8), dtype=np.uint8)
    buf[:, :width] = np.frombuffer(raw, dtype=np.uint8).reshape(count, width)
    return buf.view("<i8")


def poly_gcd(a: FqPoly, b: FqPoly) -> FqPoly:
    """Monic greatest common divisor; gcd(f, 0) = monic(f)."""
    a._check_same_field(b)
    while b:
        a, b = b, a % b
    return a.monic()


def powmod(base: FqPoly, k: int, mod: FqPoly) -> FqPoly:
    """base^k reduced mod `mod`, square and multiply from the top bit down."""
    if k < 0:
        raise ValueError("negative exponent")
    if k == 0:
        return FqPoly.one(base.fq) % mod
    base = base % mod
    result = base
    for bit in bin(k)[3:]:
        result = result * result % mod
        if bit == "1":
            result = result * base % mod
    return result


def is_irreducible(f: FqPoly) -> bool:
    """Ben-Or's deterministic irreducibility test for f over F_q.

    A reducible f of degree d has an irreducible factor of some degree
    i <= d/2, and that factor divides gcd(x^(q^i) - x, f); an irreducible
    f of degree d shares no factor with x^(q^i) - x for 0 < i < d.  So f
    is irreducible iff gcd(x^(q^i) - x, f) = 1 for i = 1, ..., d/2.  The
    iterates x^(q^i) mod f come from repeated q-th powering, and the test
    stops at the first i with a common factor.  Repeated factors need no
    separate check.
    """
    d = f.degree
    if d < 1:
        return False
    if d == 1:
        return True
    fq = f.fq
    if f.coeffs[0] == 0:
        return False  # divisible by x
    x = FqPoly.x(fq)
    t = x
    for _ in range(d // 2):
        t = powmod(t, fq.q, f)
        if poly_gcd(t - x, f).degree > 0:
            return False
    return True


def least_irreducible(fq: FqField, d: int) -> FqPoly:
    """The canonically least monic irreducible of degree d over F_q.

    When gcd(d, e) > 1, candidates with every coefficient in F_p are
    reducible over F_q = F_{p^e} and are skipped without a test.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    q, p = fq.q, fq.p
    # Lex order on (c0, ..., c_{d-1}) makes c0 the most significant digit.
    # For d >= 2 the first q^(d-1) candidates have c0 = 0, so x divides
    # them; skipping that block returns the same polynomial.
    idx = q ** (d - 1) if d >= 2 else 0
    # An irreducible of degree d over F_p splits over F_{p^e} into gcd(d, e)
    # factors, so F_p-polynomials of degree d are reducible there when
    # gcd(d, e) > 1.  Such a candidate jumps to the next value of its last
    # coefficient that lies outside F_p; every candidate jumped over is one
    # of them.
    skip_base = math.gcd(d, fq.e) > 1
    while idx < q**d:
        coeffs = [idx // q**i % q for i in range(d - 1, -1, -1)]
        if skip_base and max(coeffs) < p:
            idx += p - coeffs[-1]
            continue
        f = FqPoly(fq, tuple(coeffs) + (1,))
        if is_irreducible(f):
            return f
        idx += 1
    raise RuntimeError(f"no irreducible of degree {d} found over F_{q}")


# -- factored polynomials -------------------------------------------------


@dataclass(frozen=True)
class FactoredPoly:
    """A monic polynomial held as its irreducible factorization.

    factors: (irreducible monic FqPoly, multiplicity) pairs, pairwise
    distinct, sorted by the canonical polynomial order.
    """

    fq: FqField
    factors: tuple[tuple[FqPoly, int], ...]

    def __post_init__(self):
        keys = [f.sort_key() for f, _ in self.factors]
        if keys != sorted(set(keys)):
            raise ValueError("factors must be distinct and canonically sorted")

    def product(self) -> FqPoly:
        out = FqPoly.one(self.fq)
        for f, m in self.factors:
            out = out * f**m
        return out

    @property
    def degree(self) -> int:
        return sum(f.degree * m for f, m in self.factors)

    def exponents(self, f: FqPoly) -> tuple[int, ...]:
        """Exponent of each factor in f, in factor order, for f dividing
        this polynomial up to a unit; ValueError if f does not divide it."""
        exps = []
        rem = f
        for P, m in self.factors:
            e = 0
            while e < m:
                quot, r = divmod(rem, P)
                if r:
                    break
                rem = quot
                e += 1
            exps.append(e)
        if rem.degree != 0:
            raise ValueError(f"{f!r} does not divide {self}")
        return tuple(exps)

    def multiplicity(self, f: FqPoly) -> int:
        for g, m in self.factors:
            if g == f:
                return m
        return 0

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for f, m in self.factors:
            s = f"({format_poly(f)})"
            parts.append(s if m == 1 else f"{s}^{m}")
        return " * ".join(parts)


def euler_phi_poly(fp: FactoredPoly) -> int:
    """Order of the unit group of F_q[x]/(f) from the factorization of f."""
    q = fp.fq.q
    out = 1
    for f, m in fp.factors:
        d = f.degree
        out *= q ** (d * m) - q ** (d * (m - 1))
    return out


def mobius_poly(fp: FactoredPoly) -> int:
    """Polynomial Mobius function: 0 unless squarefree, else (-1)^r."""
    for _, m in fp.factors:
        if m > 1:
            return 0
    return -1 if len(fp.factors) % 2 else 1


def count_squarefree_divisors_poly(fp: FactoredPoly) -> int:
    return 1 << len(fp.factors)


def _divisor_count(fp: FactoredPoly) -> int:
    return reduce(lambda acc, fm: acc * (fm[1] + 1), fp.factors, 1)


def all_divisors(fp: FactoredPoly) -> list[FqPoly]:
    """Every monic divisor, in canonical order."""
    if _divisor_count(fp) > DIVISOR_CAP:
        raise BudgetError(f"too many divisors ({_divisor_count(fp)} > {DIVISOR_CAP})")
    divs = [FqPoly.one(fp.fq)]
    for f, m in fp.factors:
        powers = [f**i for i in range(m + 1)]
        divs = [d * pw for d in divs for pw in powers]
    return sorted(divs, key=FqPoly.sort_key)


def divisors_of_degree(fp: FactoredPoly, k: int) -> list[FqPoly]:
    """All monic divisors of exactly degree k, in canonical order."""
    if not 0 <= k <= fp.degree:
        raise ValueError(f"degree {k} out of range 0..{fp.degree}")
    if _divisor_count(fp) > DIVISOR_CAP:
        raise BudgetError(f"too many divisors ({_divisor_count(fp)} > {DIVISOR_CAP})")
    out: list[FqPoly] = []

    def descend(i: int, acc: FqPoly, deg: int) -> None:
        if deg > k:
            return
        if i == len(fp.factors):
            if deg == k:
                out.append(acc)
            return
        f, m = fp.factors[i]
        pw = FqPoly.one(fp.fq)
        for j in range(m + 1):
            descend(i + 1, acc * pw, deg + j * f.degree)
            if j < m:
                pw = pw * f
    descend(0, FqPoly.one(fp.fq), 0)
    return sorted(out, key=FqPoly.sort_key)


def degree_set(fp: FactoredPoly) -> set[int]:
    """Degrees realized by monic divisors: subset sums of factor degrees."""
    reach = 1
    for f, m in fp.factors:
        for _ in range(m):
            reach |= reach << f.degree
    return {i for i in range(fp.degree + 1) if reach >> i & 1}


# -- text formats ---------------------------------------------------------


def format_poly(f: FqPoly) -> str:
    """Sum-of-terms text form; the zero polynomial prints as "0"."""
    if not f:
        return "0"
    parts = []
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("x" if c == 1 else f"{c}*x")
        else:
            parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
    return " + ".join(parts)


def format_poly_list(f: FqPoly) -> str:
    return "[" + ",".join(str(c) for c in f.coeffs) + "]"


def parse_poly(fq: FqField, text: str) -> FqPoly:
    """Parse either text form; coefficient codes must be below q."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated list form: {text!r}")
        body = text[1:-1].strip()
        coeffs = [int(t) for t in body.split(",")] if body else []
        return FqPoly(fq, coeffs)
    coeffs: dict[int, int] = {}
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        if term.startswith("-"):
            raise ValueError(f"negative coefficients are not valid codes: {term!r}")
        if "x" in term:
            c_part, _, e_part = term.partition("x")
            c_part = c_part.strip().rstrip("*").strip()
            c = int(c_part) if c_part else 1
            e_part = e_part.strip()
            if e_part.startswith("^"):
                exp = int(e_part[1:])
            elif e_part == "":
                exp = 1
            else:
                raise ValueError(f"malformed term: {term!r}")
        else:
            c = int(term)
            exp = 0
        if exp in coeffs:
            raise ValueError(f"repeated exponent {exp} in {text!r}")
        coeffs[exp] = c
    out = [0] * (max(coeffs) + 1)
    for exp, c in coeffs.items():
        out[exp] = c
    return FqPoly(fq, out)
