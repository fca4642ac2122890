"""The field tower F_p < F_q = F_p[u]/(h1) < F_{q^n} = F_q[v]/(h2).

A FieldContext fixes the tower once: both moduli are the canonically least
monic irreducibles of their degree (see polyring), so identical parameters
always produce identical contexts.  Elements of the top field are tuples
of n F_q element codes in the power basis of v; they are immutable value
objects with overloaded ring operators.

Products in F_{q^n} are one exact F_p kernel on basefield's digit layout
with v as the list variable: a product of two digit arrays (np.convolve)
has u-degree at most 2e-2 in every v-slot; after reducing mod p, one
precomputed F_p matrix (the fold) maps every monomial u^j v^i, j < 2e-1,
i < 2n-1, to the digits of its reduction mod h1 and h2.

Powers are one square-and-multiply helper on digit arrays (_pow_digits),
which FFElement.__pow__ and the order tests share.  Element orders are
tested through one product tree of cofactor exponents (_order_tree):
with N = q^n - 1, a node that holds pairwise coprime parts S of N and
b = a^(N/prod S) descends into each half of S with b raised to the
product of the other half, so every leaf r holds a^(N/r) without a
full-size exponent per leaf.  is_primitive walks the primes from
a^(N/rad N) and stops at the first node that is one; multiplicative_order
walks the prime powers from a and finds each leaf's r-part of the order.

Every other map this package applies to F_{q^n} is F_p-linear: the q-power
map, multiplication by an F_q scalar, and above all the q-associate

    L_f(a) = sum f_i a^(q^i),

of which a^(q^i) (f = x^i) and the relative trace onto F_{q^m}
(f = sum_j x^(mj)) are special cases.  They act on the flat view of an
element, its e*n base-p digits (coefficient i's digit j at position
i*e + j), as integer matrices mod p, row @ matrix.  FieldContext holds the
one layer that builds those matrices (linear_matrix, frobenius_matrix,
const_matrix, associate_matrix) and the one L_f accumulation
(apply_associate); f is reduced mod x^n - 1 first, since a^(q^n) = a.
Subfields F_{q^m} for m | n are never built as separate structures:
membership is the fixed point test a^(q^m) = a.

One rule picks every integer width: exact_dtype(bound) is the narrowest
of int16, int32 and int64 that holds the largest value a computation can
reach before its reduction mod p, and Python-int object arrays above
2^63 - 1, so nothing wraps.  The bounds, all from entries below p:

  * the product kernel: a fold dot product sums (2n-1)(2e-1) products,
    bound (2n-1)(2e-1)(p-1)^2;
  * the flat views: a row @ matrix sums e*n products, and L_f adds at most
    n of them, bound n * e*n * (p-1)^2;
  * whole-field scans (fieldscan): a half-digit table, digit rows @ a
    reduced matrix, and a product of two reduced matrices are bound by
    e*n*(p-1)^2; an image digit sums two reduced table entries, bound
    2(p-1); order-test keys and element indices are below q^n; the pivot
    search multiplies two reduced entries, bound (p-1)^2;
  * F_q[x] products by Kronecker substitution (polyring): a packed field
    sums at most min(len_a, len_b) * e products, bound that times (p-1)^2.

Everything here is exact integer arithmetic; the context's lazy caches
(factorization of q^n - 1 and of x^n - 1) are write-once under a lock, so
contexts may be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
import random
import threading

import numpy as np

from .basefield import FqField, exact_dtype
from .cyclotomic import factor_xm_minus_1
from .errors import BudgetError, InternalCheckError
from .intfactor import FactorCache, FactoredInt, factor_integer, is_prime
from .polyring import FactoredPoly, FqPoly, least_irreducible

# Exhaustive scans over a whole field refuse to run above this many elements.
ENUMERATION_CAP = 1_000_000


class FFElement:
    """An element of F_{q^n}, held as n F_q codes (power basis, low first)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "FieldContext", coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def _lift(self, other) -> "FFElement":
        if isinstance(other, FFElement):
            if other.ctx != self.ctx:
                raise ValueError("elements live in different fields")
            return other
        if isinstance(other, int):
            return self.ctx.embed_scalar(other % self.ctx.fq.p)
        return NotImplemented

    def __add__(self, other) -> "FFElement":
        other = self._lift(other)
        fq = self.ctx.fq
        return FFElement(self.ctx, tuple(fq.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "FFElement":
        fq = self.ctx.fq
        return FFElement(self.ctx, tuple(fq.neg(a) for a in self.coeffs))

    def __sub__(self, other) -> "FFElement":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "FFElement":
        return -(self - other)

    def __mul__(self, other) -> "FFElement":
        other = self._lift(other)
        ctx = self.ctx
        return ctx._decode(ctx._mul_digits(ctx._encode(self.coeffs), ctx._encode(other.coeffs)))

    __rmul__ = __mul__

    def scale(self, c: int) -> "FFElement":
        """Multiply by an F_q scalar given as an element code."""
        fq = self.ctx.fq
        return FFElement(self.ctx, tuple(fq.mul(c, a) for a in self.coeffs))

    def inverse(self) -> "FFElement":
        return self.ctx.invert(self)

    def __truediv__(self, other) -> "FFElement":
        return self * self._lift(other).inverse()

    def __pow__(self, k: int) -> "FFElement":
        if k < 0:
            return self.inverse() ** (-k)
        ctx = self.ctx
        return ctx._decode(ctx._pow_digits(ctx._encode(self.coeffs), k))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FFElement)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


class FieldContext:
    """Immutable description of the tower, with write-once lazy caches."""

    def __init__(self, p: int, e: int, n: int, top_modulus: FqPoly | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1 or n < 1:
            raise ValueError("degenerate extension degrees")
        self.p = p
        self.e = e
        self.n = n
        if e == 1:
            self.fq = FqField(p)
        else:
            base_fp = FqField(p)
            h1 = least_irreducible(base_fp, e)
            self.fq = FqField(p, e, h1.coeffs)
        self.q = self.fq.q
        self.order = self.q**n
        if top_modulus is None:
            top_modulus = least_irreducible(self.fq, n)
        else:
            if top_modulus.fq != self.fq or top_modulus.degree != n or not top_modulus.is_monic():
                raise ValueError("top modulus must be monic of degree n over F_q")
        self.top_modulus = top_modulus
        self._build_kernel()
        self._lock = threading.RLock()  # reentrant: lazy fills call each other
        self._qn_minus_1: FactoredInt | None = None
        self._xn_minus_1: FactoredPoly | None = None
        self._scan = None  # whole-field scan state, owned by fieldscan
        self._cofactors = None  # (x^n - 1)/P per factor P, owned by normality
        self.flat_dim = self.e * self.n
        self._flat_dtype = exact_dtype(self.n * self.flat_dim * (self.p - 1) ** 2)
        self._frob_mat: np.ndarray | None = None
        self._const_mats: dict[int, np.ndarray] = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and (self.p, self.e, self.n) == (other.p, other.e, other.n)
            and self.top_modulus.coeffs == other.top_modulus.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.n, self.top_modulus.coeffs))

    def __repr__(self) -> str:
        return f"FieldContext(q={self.q}, n={self.n})"

    # -- the product kernel (see the module docstring) -----------------------

    def _build_kernel(self) -> None:
        p, e, n, fq = self.p, self.e, self.n, self.fq
        s = 2 * e - 1  # stride of one v-slot
        self._kwidth = (n - 1) * s + e
        self._kdtype = exact_dtype((2 * n - 1) * s * (p - 1) ** 2)
        upow = (fq.slot_fold @ fq.code_pow).tolist()  # u^j mod h1
        neg_low = [fq.neg(c) for c in self.top_modulus.coeffs[:-1]]
        fold = np.zeros(((2 * n - 1) * s, self._kwidth), dtype=self._kdtype)
        vpow = [1] + [0] * (n - 1)  # v^i mod h2
        for i in range(2 * n - 1):
            for j, uj in enumerate(upow):
                fold[i * s + j] = self._encode([fq.mul(uj, c) for c in vpow])  # u^j v^i
            top = vpow[-1]
            vpow = [0] + vpow[:-1]
            if top:
                vpow = [fq.add(c, fq.mul(top, nl)) for c, nl in zip(vpow, neg_low)]
        self._fold = fold
        self._one_digits = self._encode((1,) + (0,) * (n - 1))

    def _encode(self, coeffs: tuple[int, ...]) -> np.ndarray:
        return self.fq.code_slots(coeffs, self._kdtype).reshape(-1)[: self._kwidth]

    def _decode(self, digits: np.ndarray) -> FFElement:
        e = self.e
        slots = np.concatenate((digits, np.zeros(e - 1, digits.dtype))).reshape(self.n, 2 * e - 1)
        return FFElement(self, tuple((slots[:, :e] @ self.fq.code_pow).tolist()))

    def _mul_digits(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (np.convolve(a, b) % self.p) @ self._fold % self.p

    def _pow_digits(self, a: np.ndarray, k: int) -> np.ndarray:
        """a^k (k >= 0) by right-to-left square-and-multiply on digit arrays."""
        result = None
        while k:
            if k & 1:
                result = a if result is None else self._mul_digits(result, a)
            k >>= 1
            if k:
                a = self._mul_digits(a, a)
        return self._one_digits if result is None else result

    def _is_one_digits(self, a: np.ndarray) -> bool:
        return np.array_equal(a, self._one_digits)

    # -- element construction ----------------------------------------------

    def element(self, coeffs) -> FFElement:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.n:
            raise ValueError(f"need exactly {self.n} coordinates, got {len(coeffs)}")
        for c in coeffs:
            if not (0 <= c < self.q):
                raise ValueError(f"coordinate code {c} out of range for q={self.q}")
        return FFElement(self, coeffs)

    def zero(self) -> FFElement:
        return FFElement(self, (0,) * self.n)

    def one(self) -> FFElement:
        return FFElement(self, (1,) + (0,) * (self.n - 1))

    def gen(self) -> FFElement:
        """The class of v (equals the scalar reduction of v when n = 1)."""
        if self.n == 1:
            return FFElement(self, (self.fq.neg(self.top_modulus.coeffs[0]),))
        return FFElement(self, (0, 1) + (0,) * (self.n - 2))

    def embed_scalar(self, c: int) -> FFElement:
        if not (0 <= c < self.q):
            raise ValueError(f"scalar code {c} out of range")
        return FFElement(self, (c,) + (0,) * (self.n - 1))

    def from_index(self, i: int) -> FFElement:
        coeffs = []
        for _ in range(self.n):
            i, r = divmod(i, self.q)
            coeffs.append(r)
        return FFElement(self, tuple(coeffs))

    def index(self, a: FFElement) -> int:
        i = 0
        for c in reversed(a.coeffs):
            i = i * self.q + c
        return i

    def elements(self):
        """All elements in index order; guarded by the enumeration cap."""
        if self.order > ENUMERATION_CAP:
            raise BudgetError(f"field of size {self.order} exceeds enumeration cap")
        for i in range(self.order):
            yield self.from_index(i)

    def random_element(self, rng: random.Random) -> FFElement:
        return self.from_index(rng.randrange(self.order))

    def invert(self, a: FFElement) -> FFElement:
        if a.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = FqPoly(self.fq, a.coeffs)
        g, s = _poly_invert(f, self.top_modulus)
        if g.degree != 0:
            raise ValueError("element not invertible (modulus not irreducible?)")
        s = s.scale(self.fq.inv(g.coeffs[0]))
        return FFElement(self, tuple(s.coeffs) + (0,) * (self.n - len(s.coeffs)))

    # -- lazy caches --------------------------------------------------------

    def qn_minus_1(self, cache: FactorCache | None = None, rho_budget: int | None = None) -> FactoredInt:
        """Factorization of q^n - 1, computed once."""
        with self._lock:
            if self._qn_minus_1 is None:
                kwargs = {} if rho_budget is None else {"rho_budget": rho_budget}
                self._qn_minus_1 = factor_integer(self.order - 1, cache=cache, **kwargs)
            return self._qn_minus_1

    def xn_minus_1(self) -> FactoredPoly:
        """Factorization of x^n - 1 over F_q, computed once."""
        with self._lock:
            if self._xn_minus_1 is None:
                self._xn_minus_1 = factor_xm_minus_1(self.fq, self.n)
            return self._xn_minus_1

    # -- the F_p-linear layer (see the module docstring) ---------------------
    # Row convention: apply as row @ matrix; every array is in _flat_dtype.

    def flat_digits(self, a: FFElement) -> np.ndarray:
        return self.fq.code_digits(a.coeffs).reshape(-1).astype(self._flat_dtype)

    def element_from_flat(self, row: np.ndarray) -> FFElement:
        return FFElement(self, tuple((row.reshape(self.n, self.e) @ self.fq.code_pow).tolist()))

    def linear_matrix(self, fn) -> np.ndarray:
        """Matrix of an F_p-linear map fn on the flat basis."""
        n, p = self.n, self.p
        basis = [
            FFElement(self, (0,) * i + (p**j,) + (0,) * (n - 1 - i))
            for i in range(n)
            for j in range(self.e)
        ]
        return np.stack([self.flat_digits(fn(b)) for b in basis])

    def frobenius_matrix(self) -> np.ndarray:
        with self._lock:
            if self._frob_mat is None:
                self._frob_mat = self.linear_matrix(lambda a: a**self.q)
            return self._frob_mat

    def const_matrix(self, c: int) -> np.ndarray:
        """Matrix of multiplication by the F_q scalar with code c."""
        with self._lock:
            if c not in self._const_mats:
                self._const_mats[c] = self.linear_matrix(lambda a: a.scale(c))
            return self._const_mats[c]

    def conjugates(self, x: np.ndarray, count: int | None = None) -> list[np.ndarray]:
        """x F^i for i < count (default n), F the Frobenius matrix: the flat
        digits of a^(q^i) for the row a (or every row a) of x."""
        m = self.frobenius_matrix()
        out = [x]
        for _ in range(1, self.n if count is None else count):
            out.append(out[-1] @ m % self.p)
        return out

    def apply_associate(self, f: FqPoly, conj: list[np.ndarray]) -> np.ndarray:
        """L_f on flat rows, given their conjugates (conj[i] = x F^i)."""
        n, coeffs = self.n, f.coeffs
        reduced = list(coeffs[:n])  # f mod x^n - 1
        for i in range(n, len(coeffs)):
            reduced[i % n] = self.fq.add(reduced[i % n], coeffs[i])
        acc = np.zeros_like(conj[0])
        for i, c in enumerate(reduced):
            if c:
                acc += conj[i] @ self.const_matrix(c)
        return acc % self.p

    def associate(self, f: FqPoly, x: np.ndarray) -> np.ndarray:
        """L_f on the flat row (or every row) x."""
        return self.apply_associate(f, self.conjugates(x, min(self.n, len(f.coeffs))))

    def associate_matrix(self, f: FqPoly) -> np.ndarray:
        """Matrix of a -> L_f(a) = sum f_i a^(q^i) on the flat basis."""
        return self.associate(f, np.eye(self.flat_dim, dtype=self._flat_dtype))


def _poly_invert(f: FqPoly, mod: FqPoly) -> tuple[FqPoly, FqPoly]:
    # extended Euclid: returns (g, s) with s*f = g (mod `mod`), g the gcd
    fq = f.fq
    r0, r1 = mod, f % mod
    s0, s1 = FqPoly.zero(fq), FqPoly.one(fq)
    while r1:
        quot, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quot * s1
    return r0, s0


@functools.lru_cache(maxsize=None)
def build_field(p: int, e: int, n: int) -> FieldContext:
    """Deterministic construction of the tower F_p < F_{p^e} < F_{q^n}.

    Contexts are shared: repeated calls with equal arguments return the
    same object, and its derived data is bit-identical across runs.
    """
    return FieldContext(p, e, n)


def field_with_modulus(p: int, e: int, n: int, top_modulus: FqPoly) -> FieldContext:
    """A tower with an explicitly chosen (and validated) top modulus."""
    from .polyring import is_irreducible

    if not is_irreducible(top_modulus):
        raise ValueError(f"{top_modulus!r} is not irreducible")
    return FieldContext(p, e, n, top_modulus=top_modulus)


def q_associate(ctx: FieldContext, f: FqPoly, a: FFElement) -> FFElement:
    """L_f(a), the q-associate of f evaluated at a."""
    if a.ctx != ctx:
        raise ValueError("element from a different context")
    return ctx.element_from_flat(ctx.associate(f, ctx.flat_digits(a)))


def frobenius(ctx: FieldContext, a: FFElement, i: int = 1) -> FFElement:
    """a^(q^i) = L_{x^i}(a); the identity at i = 0, with i reduced mod n."""
    return q_associate(ctx, FqPoly.monomial(ctx.fq, i % ctx.n), a)


def trace_to_subfield(ctx: FieldContext, a: FFElement, m: int) -> FFElement:
    """Relative trace onto F_{q^m}: sum of a^(q^(m*i)) over i = 0..n/m - 1."""
    if ctx.n % m != 0:
        raise ValueError(f"{m} does not divide {ctx.n}")
    return q_associate(ctx, trace_poly(ctx.fq, ctx.n, m), a)


def trace_poly(fq: FqField, n: int, m: int) -> FqPoly:
    """sum_j x^(mj) over j < n/m, whose q-associate is the trace onto F_{q^m}."""
    return FqPoly(fq, [int(i % m == 0) for i in range(n - m + 1)])


def in_subfield(ctx: FieldContext, a: FFElement, m: int) -> bool:
    """Fixed point test for membership in F_{q^m}."""
    return frobenius(ctx, a, m) == a


def _order_tree(ctx: FieldContext, b: np.ndarray, parts: list[int]):
    """The leaves of the product tree of cofactor exponents, depth first.

    b holds the digits of a^(N/P), N = q^n - 1 and P the product of parts,
    pairwise coprime divisors of N.  Yields (r, digits of a^(N/r)) for
    every part r, in the order of parts: a node splits its parts into A,
    the fewest leading parts that hold at least half the bits of their
    product, and B, the rest; it descends into A with b^(prod B), then
    into B with b^(prod A).  Each level above a leaf costs about the bits
    of the leaf's siblings there, so a split by bits rather than by count
    keeps the large parts near the root.  A node whose value is one
    yields every part under it with that value, as each of their leaves
    is a power of it.  (Bernstein, "Fast multiplication and its
    applications", 2008; von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 10.)
    """
    if len(parts) == 1 or ctx._is_one_digits(b):
        for r in parts:
            yield r, b
        return
    total = sum(r.bit_length() for r in parts)
    half, bits = 1, parts[0].bit_length()
    while half < len(parts) - 1 and 2 * bits < total:
        bits += parts[half].bit_length()
        half += 1
    low, high = parts[:half], parts[half:]
    yield from _order_tree(ctx, ctx._pow_digits(b, math.prod(high)), low)
    yield from _order_tree(ctx, ctx._pow_digits(b, math.prod(low)), high)


def multiplicative_order(ctx: FieldContext, a: FFElement, cache: FactorCache | None = None) -> int:
    """Least t >= 1 with a^t = 1: for each prime power r^m exactly dividing
    q^n - 1, the least r^j with (a^(N/r^m))^(r^j) = 1, from one tree."""
    if a.is_zero():
        raise ValueError("zero has no multiplicative order")
    fi = ctx.qn_minus_1(cache=cache)
    factor_of = {r**m: (r, m) for r, m in fi.factors}
    t = 1
    for part, c in _order_tree(ctx, ctx._encode(a.coeffs), list(factor_of)):
        r, m = factor_of[part]
        j = 0
        while not ctx._is_one_digits(c):  # c = a^(N/r^m), so c^(r^m) = a^N = 1
            if j == m:
                raise InternalCheckError(f"a^(N/{r}^{m}) raised to {r}^{m} is not one")
            c = ctx._pow_digits(c, r)
            j += 1
        t *= r**j
    return t


def is_primitive(ctx: FieldContext, a: FFElement, cache: FactorCache | None = None) -> bool:
    """Whether a generates the multiplicative group (false for zero): no
    leaf a^(N/r), r a prime dividing N = q^n - 1, is one.  The tree starts
    at a^(N/rad N), takes the primes in increasing order and stops at the
    first node that is one.  With no primes (q^n = 2) every nonzero a is
    primitive."""
    if a.is_zero():
        return False
    fi = ctx.qn_minus_1(cache=cache)
    primes = list(fi.primes)
    root = ctx._pow_digits(ctx._encode(a.coeffs), fi.value // math.prod(primes))
    return not any(ctx._is_one_digits(c) for _, c in _order_tree(ctx, root, primes))


def find_primitive(ctx: FieldContext, seed: int | None = None, cache: FactorCache | None = None) -> FFElement:
    """A primitive element: index-order scan, or seeded sampling if seed given."""
    if seed is None:
        # for n > 1 the indices below q are F_q scalars, of order dividing q - 1
        for i in range(ctx.q if ctx.n > 1 else 1, ctx.order):
            a = ctx.from_index(i)
            if is_primitive(ctx, a, cache=cache):
                return a
        raise InternalCheckError(f"no primitive element in F_{ctx.q}^{ctx.n}")
    rng = random.Random(seed)
    while True:
        a = ctx.random_element(rng)
        if is_primitive(ctx, a, cache=cache):
            return a
