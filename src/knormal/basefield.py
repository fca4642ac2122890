"""Scalar arithmetic in F_q, q = p^e.

Elements of F_q are encoded as plain ints in [0, q): the integer whose
base-p digits (least significant first) are the coordinates of the element
in the power basis 1, u, ..., u^(e-1) of F_p[u]/(h(u)).  For prime fields
(e = 1) the code is just the residue and no modulus is involved.

The encoding makes elements hashable, cheap to store in bulk, and directly
usable as table indices: for extension fields with q <= TABLE_MAX_Q the
q x q add, sub and mul tables and the length-q neg and inv tables are
built together on first use, and all arithmetic becomes list lookups.
Larger extension fields fall back to digit-vector arithmetic per call.
Prime fields compute every operation inline with % p.

The field also owns the digit layout of the bulk product kernels (ff,
polyring): code i of a list fills slot i of 2e-1 digit positions with its
e base-p digits (weights code_pow), then e-1 zeros, so products never
spill between slots; fold_slots reduces a slot mod p and h1 with
slot_fold (row j: the digits of u^j mod h1).  exact_dtype is the width rule.
"""

from __future__ import annotations

import functools

import numpy as np

from .intfactor import is_prime

# Lazy arithmetic tables are built for extension fields up to this size.
TABLE_MAX_Q = 256


def exact_dtype(bound: int):
    """The narrowest of int16, int32 and int64 that holds 0..bound, else object."""
    for t in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(t).max:
            return t
    return object


def _poly_mulmod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    # Schoolbook product of digit vectors, reduced mod the monic modulus.
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(e):
                prod[d - e + j] = (prod[d - e + j] - c * modulus[j]) % p
    return prod[:e] + [0] * (e - len(prod))


class FqField:
    """Arithmetic context for F_q = F_p[u]/(h), with int-coded elements."""

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree {e} must be positive")
        if e == 1:
            modulus = None
        elif modulus is None:
            raise ValueError("extension fields need an explicit modulus")
        elif len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._add_table: list[int] | None = None
        self._sub_table: list[int] | None = None
        self._neg_table: list[int] | None = None
        self._mul_table: list[int] | None = None
        self._inv_table: list[int] | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FqField(p={self.p}, e={self.e})"

    # -- encoding ---------------------------------------------------------

    def digits(self, a: int) -> list[int]:
        """Base-p digit vector (length e) of the element code a."""
        out = []
        for _ in range(self.e):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def encode(self, digits: list[int]) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    def elements(self):
        return range(self.q)

    @functools.cached_property
    def code_pow(self) -> np.ndarray:
        """p^j for j < e: digit j's weight in a code."""
        return np.array([self.p**j for j in range(self.e)], dtype=exact_dtype(self.q - 1))

    @functools.cached_property
    def slot_fold(self) -> np.ndarray:
        """(2e-1) x e; row j holds the digits of u^j mod h1."""
        rows = [self.digits(self.pow(self.p, j)) for j in range(2 * self.e - 1)]
        return np.array(rows, dtype=exact_dtype(len(rows) * (self.p - 1) ** 2))

    def code_digits(self, codes) -> np.ndarray:
        """(len(codes), e) base-p digits of the codes."""
        return np.array(codes, dtype=self.code_pow.dtype)[:, None] // self.code_pow % self.p

    def code_slots(self, codes, dtype) -> np.ndarray:
        """(len(codes), 2e-1) slots in dtype: each code's digits, then zeros."""
        slots = np.zeros((len(codes), 2 * self.e - 1), dtype=dtype)
        slots[:, : self.e] = self.code_digits(codes)
        return slots

    def fold_slots(self, slots: np.ndarray) -> np.ndarray:
        """(m, e) digits of the (m, 2e-1) nonnegative slots mod p and h1."""
        return (slots % self.p) @ self.slot_fold % self.p

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.q <= TABLE_MAX_Q:
            if self._add_table is None:
                self._build_tables()
            return self._add_table[a * self.q + b]
        p = self.p
        out, shift = 0, 1
        for _ in range(self.e):
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        if self.q <= TABLE_MAX_Q:
            if self._sub_table is None:
                self._build_tables()
            return self._sub_table[a * self.q + b]
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.q <= TABLE_MAX_Q:
            if self._neg_table is None:
                self._build_tables()
            return self._neg_table[a]
        p = self.p
        out, shift = 0, 1
        for _ in range(self.e):
            out += ((-a) % p) * shift
            a //= p
            shift *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if self.q <= TABLE_MAX_Q:
            if self._mul_table is None:
                self._build_tables()
            return self._mul_table[a * self.q + b]
        return self.encode(_poly_mulmod(self.digits(a), self.digits(b), self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= TABLE_MAX_Q:
            if self._inv_table is None:
                self._build_tables()
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        if self.e == 1:
            return pow(a, k, self.p)
        result = 1
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def _build_tables(self) -> None:
        q, p, w = self.q, self.p, self.code_pow
        digits = self.code_digits(range(q))
        self._add_table = ((digits[:, None] + digits[None, :]) % p @ w).ravel().tolist()
        self._sub_table = ((digits[:, None] - digits[None, :]) % p @ w).ravel().tolist()
        self._neg_table = (-digits % p @ w).tolist()
        mul = [0] * (q * q)
        for a in range(q):
            da = self.digits(a)
            for b in range(a, q):
                v = self.encode(_poly_mulmod(da, self.digits(b), self.modulus, self.p))
                mul[a * q + b] = v
                mul[b * q + a] = v
        inv = [0] * q
        for a in range(1, q):
            if inv[a]:
                continue
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    inv[b] = a
                    break
        self._mul_table = mul
        self._inv_table = inv
