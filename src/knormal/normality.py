"""k-normal elements: orders under the Frobenius action, counting, and
the characteristic polynomials whose roots they are.

For f = sum f_i x^i over F_q, the additive evaluation used throughout is

    L_f(a) = sum f_i a^(q^i),

the composition f . a.  The annihilator ideal {f : L_f(a) = 0} of an
element a is generated by a monic divisor of x^n - 1, its F_q-order; a is
k-normal exactly when that order has degree n - k, normal when the order
is all of x^n - 1, and zero is the unique n-normal element.

Two independent routes to every count are kept side by side: the divisor
sum over degrees (count_k_normals) and the literal whole-field census
(brute_census), which classifies each element by evaluating L on it and
never consults the counting formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InternalCheckError
from .fieldscan import FieldScan
from .ff import FFElement, FieldContext, q_associate
from .polyring import FactoredPoly, FqPoly, divisors_of_degree, format_poly

FIND_NORMAL_TRIES = 4096
PSI_DEGREE_CAP = 1 << 16


def _cofactors(ctx: FieldContext) -> list[FqPoly]:
    # (x^n - 1)/P for each irreducible factor P of x^n - 1, in factor order
    with ctx._lock:
        if ctx._cofactors is None:
            full = FqPoly.x_pow_minus_one(ctx.fq, ctx.n)
            ctx._cofactors = [full // P for P, _ in ctx.xn_minus_1().factors]
        return ctx._cofactors


def fq_order(
    ctx: FieldContext,
    a: FFElement,
    annihilator: FactoredPoly | None = None,
) -> FqPoly:
    """The monic generator of {f : L_f(a) = 0}, a divisor of x^n - 1.

    Peels each irreducible factor out of the annihilator for as long as the
    quotient still kills a.  With the default annihilator x^n - 1 this is
    total; a caller may pass the factorization of x^m - 1 for an element
    known to lie in F_{q^m}.
    """
    if annihilator is None:
        ann, cofactors = ctx.xn_minus_1(), _cofactors(ctx)
        order = FqPoly.x_pow_minus_one(ctx.fq, ctx.n)
    else:
        ann, order = annihilator, annihilator.product()
        cofactors = [order // P for P, _ in ann.factors]
    conj = ctx.conjugates(ctx.flat_digits(a))
    for (P, m), cof in zip(ann.factors, cofactors):
        # the exponent of P in the order is m minus the number of c >= 1
        # with L_{ann/P^c}(a) = 0, and those c form an initial run
        for c in range(m):
            if c:
                cof = cof // P
            if ctx.apply_associate(cof, conj).any():
                break
            order = order // P
    return order


def is_normal(ctx: FieldContext, a: FFElement) -> bool:
    """Whether the conjugates of a span everything (order = x^n - 1)."""
    conj = ctx.conjugates(ctx.flat_digits(a))
    return all(ctx.apply_associate(cof, conj).any() for cof in _cofactors(ctx))


def normality_index(ctx: FieldContext, a: FFElement) -> int:
    """k such that a is k-normal: n minus the degree of the F_q-order."""
    return ctx.n - fq_order(ctx, a).degree


def count_k_normals(ctx: FieldContext, k: int) -> int:
    """Number of k-normal elements, as a sum of unit group sizes over the
    divisors of x^n - 1 of degree n - k."""
    n, q = ctx.n, ctx.q
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range 0..{n}")
    factors = ctx.xn_minus_1().factors
    target = n - k
    total = 0

    def descend(i: int, deg: int, phi: int) -> None:
        nonlocal total
        if deg > target:
            return
        if i == len(factors):
            if deg == target:
                total += phi
            return
        P, m = factors[i]
        d = P.degree
        descend(i + 1, deg, phi)
        for e in range(1, m + 1):
            descend(i + 1, deg + e * d, phi * (q ** (d * e) - q ** (d * (e - 1))))

    descend(0, 0, 1)
    return total


def find_normal(ctx: FieldContext, seed: int = 0) -> FFElement:
    """A normal element, by seeded sampling with an exhaustive fallback."""
    rng = random.Random(seed)
    for _ in range(FIND_NORMAL_TRIES):
        a = ctx.random_element(rng)
        if is_normal(ctx, a):
            return a
    for a in ctx.elements():  # enumeration-cap guarded
        if is_normal(ctx, a):
            return a
    raise InternalCheckError("no normal element found; this cannot happen")


def construct_k_normal(ctx: FieldContext, beta: FFElement, f: FqPoly) -> FFElement:
    """L_f(beta) for normal beta and f a monic divisor of x^n - 1 of degree
    k; the result has order (x^n - 1)/f exactly, hence is k-normal."""
    if not f.is_monic():
        raise ValueError("f must be monic")
    full = FqPoly.x_pow_minus_one(ctx.fq, ctx.n)
    quot, rem = divmod(full, f)
    if rem:
        raise ValueError(f"{f!r} does not divide x^{ctx.n} - 1")
    if not is_normal(ctx, beta):
        raise ValueError("beta is not normal")
    alpha = q_associate(ctx, f, beta)
    if fq_order(ctx, alpha) != quot:
        raise InternalCheckError("constructed element has the wrong order")
    return alpha


# -- characteristic polynomials -------------------------------------------


def associate_poly(ctx: FieldContext, f: FqPoly) -> FqPoly:
    """L_f written out as an explicit (sparse-in-dense) polynomial."""
    if not f:
        return FqPoly.zero(ctx.fq)
    coeffs = [0] * (ctx.q ** f.degree + 1)
    for i, c in enumerate(f.coeffs):
        if c:
            coeffs[ctx.q**i] = c
    return FqPoly(ctx.fq, coeffs)


def phi_of_divisor(ctx: FieldContext, f: FqPoly) -> int:
    """Unit group size of F_q[x]/(f) for a divisor f of x^n - 1."""
    q = ctx.q
    fp = ctx.xn_minus_1()
    out = 1
    for (P, _), e in zip(fp.factors, fp.exponents(f)):
        if e:
            d = P.degree
            out *= q ** (d * e) - q ** (d * (e - 1))
    return out


def psi_poly(ctx: FieldContext, f: FqPoly, degree_cap: int = PSI_DEGREE_CAP) -> FqPoly:
    """The monic polynomial whose roots are exactly the elements of
    F_q-order f; its degree is the unit group size of F_q[x]/(f).

    Computed as a quotient of products of L_g over divisors g of f by
    squarefree complement, all divisions exact by construction; a nonzero
    remainder is an internal error, never an input condition.
    """
    exps = ctx.xn_minus_1().exponents(f)
    phi = phi_of_divisor(ctx, f)
    if phi > degree_cap:
        raise BudgetError(f"degree {phi} exceeds cap {degree_cap}")
    present = [P for (P, _), e in zip(ctx.xn_minus_1().factors, exps) if e]
    plus: list[FqPoly] = []
    minus: list[FqPoly] = []
    for mask in range(1 << len(present)):
        g = f
        bits = 0
        for i, P in enumerate(present):
            if mask >> i & 1:
                g = g // P
                bits += 1
        (minus if bits % 2 else plus).append(associate_poly(ctx, g))
    plus.sort(key=lambda t: t.degree)
    num = plus[0]
    for t in plus[1:]:
        num = num * t
    for t in minus:
        num, rem = divmod(num, t)
        if rem:
            raise InternalCheckError("inexact division while building the order polynomial")
    if num.degree != phi:
        raise InternalCheckError(
            f"order polynomial has degree {num.degree}, expected {phi}"
        )
    return num.monic()


def lambda_poly(ctx: FieldContext, k: int, degree_cap: int = PSI_DEGREE_CAP) -> FqPoly:
    """Product of the order polynomials over all divisors of degree n - k;
    its roots are exactly the k-normal elements.  Constant 1 when no
    divisor of that degree exists."""
    if not 0 <= k <= ctx.n:
        raise ValueError(f"k={k} out of range 0..{ctx.n}")
    nk = count_k_normals(ctx, k)
    if nk > degree_cap:
        raise BudgetError(f"degree {nk} exceeds cap {degree_cap}")
    divisors = divisors_of_degree(ctx.xn_minus_1(), ctx.n - k)
    parts = sorted((psi_poly(ctx, f, degree_cap) for f in divisors), key=lambda t: t.degree)
    out = FqPoly.one(ctx.fq)
    for part in parts:
        out = out * part
    if out.degree != max(nk, 0):
        raise InternalCheckError("k-normal polynomial degree mismatch")
    return out


# -- whole-field oracles ----------------------------------------------------


def get_scan(ctx: FieldContext, threads: int = 1) -> FieldScan:
    """The cached whole-field scan for ctx (built on first use)."""
    with ctx._lock:
        if ctx._scan is None:
            ctx._scan = FieldScan(ctx, threads=threads)
        return ctx._scan


def clear_scan(ctx: FieldContext) -> None:
    """Drop the cached scan (they are large; grids may want to free them)."""
    with ctx._lock:
        ctx._scan = None


def enumerate_by_order(ctx: FieldContext, f: FqPoly, threads: int = 1) -> list[FFElement]:
    """All elements whose F_q-order is exactly f, in index order."""
    scan = get_scan(ctx, threads)
    code = scan.code_of_divisor(f)
    idx = np.nonzero(scan.order_code == code)[0]
    return [ctx.from_index(int(i)) for i in idx]


@dataclass(frozen=True)
class CensusRecord:
    """Exhaustive per-field classification, arrays indexed by k = 0..n."""

    q: int
    n: int
    counts: tuple[int, ...]
    primitive_counts: tuple[int, ...]
    f: FqPoly | None = None
    nf_preimages: int | None = None
    nf_distinct_images: int | None = None

    def to_text(self) -> str:
        lines = [
            f"census q={self.q} n={self.n}",
            "N_k = " + " ".join(str(c) for c in self.counts),
            "primitive_k = " + " ".join(str(c) for c in self.primitive_counts),
        ]
        if self.f is not None:
            lines.append(f"f = {format_poly(self.f)}")
            lines.append(f"n_f = {self.nf_preimages}")
            lines.append(f"n_f_distinct = {self.nf_distinct_images}")
        return "\n".join(lines) + "\n"


def brute_census(
    ctx: FieldContext,
    f: FqPoly | None = None,
    threads: int = 1,
) -> CensusRecord:
    """One pass over the whole field, classifying every element.

    Returns the k-normal counts, the primitive k-normal counts and, when a
    divisor f is given, how many normal elements w have a primitive image
    L_f(w) together with the number of distinct primitive images.
    """
    ctx.qn_minus_1()
    scan = get_scan(ctx, threads)
    n = ctx.n
    k_of = n - scan.order_degree
    counts = np.bincount(k_of, minlength=n + 1)
    prim_counts = np.bincount(k_of[scan.is_primitive_mask], minlength=n + 1)
    rec = CensusRecord(
        q=ctx.q,
        n=n,
        counts=tuple(int(c) for c in counts),
        primitive_counts=tuple(int(c) for c in prim_counts),
    )
    if f is None:
        return rec
    ctx.xn_minus_1().exponents(f)  # validates divisibility
    normal_idx = np.nonzero(scan.order_degree == n)[0]
    images = scan.image_indices(scan.matrix_of_associate(f), normal_idx)
    prim_img = scan.is_primitive_mask[images]
    nf = int(prim_img.sum())
    distinct = int(np.unique(images[prim_img]).size)
    return CensusRecord(
        q=rec.q,
        n=rec.n,
        counts=rec.counts,
        primitive_counts=rec.primitive_counts,
        f=f,
        nf_preimages=nf,
        nf_distinct_images=distinct,
    )
