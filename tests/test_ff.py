import random
import time

import numpy as np
import pytest

from knormal import ff
from knormal.basefield import FqField
from knormal.errors import BudgetError, InternalCheckError
from knormal.ff import (
    build_field,
    exact_dtype,
    field_with_modulus,
    find_primitive,
    frobenius,
    in_subfield,
    is_primitive,
    multiplicative_order,
    trace_to_subfield,
)
from knormal.polyring import FqPoly, format_poly, is_irreducible

from oracles import (
    direct_trace,
    peeled_order,
    per_prime_is_primitive,
    school_divmod,
    school_mul,
    school_powmod,
    slow_multiplicative_order,
    trial_division,
)


def test_build_field_deterministic_and_shared():
    a = build_field(3, 2, 2)
    b = build_field(3, 2, 2)
    assert a is b
    assert a.q == 9 and a.order == 81
    assert is_irreducible(a.top_modulus)
    assert is_irreducible(FqPoly(FqField(3), a.fq.modulus))


def test_identity_extension():
    ctx = build_field(2, 1, 1)
    assert format_poly(ctx.top_modulus) == "x"
    assert ctx.order == 2
    one = ctx.one()
    assert one + one == ctx.zero()
    assert ctx.gen() == ctx.zero()  # v is the root of the degree-1 modulus x


def test_q9_n2_group_size():
    ctx = build_field(3, 2, 2)
    assert ctx.qn_minus_1().factors == ((2, 4), (5, 1))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_field(4, 1, 2)
    with pytest.raises(ValueError):
        build_field(2, 1, 0)
    ctx = build_field(2, 1, 2)
    with pytest.raises(ValueError):
        ctx.element((0, 1, 0))
    with pytest.raises(ValueError):
        ctx.element((0, 5))


@pytest.mark.parametrize("p,e,n", [(2, 1, 5), (3, 1, 3), (2, 2, 3), (5, 1, 2), (3, 2, 2)])
def test_field_axioms_random_triples(p, e, n):
    ctx = build_field(p, e, n)
    rng = random.Random(1000 * p + 10 * e + n)
    for _ in range(1000):
        a, b, c = (ctx.random_element(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ctx.zero()
        if not a.is_zero():
            assert a * a.inverse() == ctx.one()


def test_exact_dtype_boundaries():
    assert exact_dtype(0) is np.int16
    assert exact_dtype(2**15 - 1) is np.int16
    assert exact_dtype(2**15) is np.int32
    assert exact_dtype(2**31 - 1) is np.int32
    assert exact_dtype(2**31) is np.int64
    assert exact_dtype(2**63 - 1) is np.int64
    assert exact_dtype(2**63) is object


# the kernel bound (2n-1)(2e-1)(p-1)^2 on either side of each width
@pytest.mark.parametrize(
    "p,e,n,dtype",
    [
        (103, 1, 2, np.int16), (107, 1, 2, np.int32),
        (2**30 + 3, 1, 3, np.int64), (2**31 - 1, 1, 2, object),
    ],
)
def test_kernel_width_follows_its_bound(p, e, n, dtype):
    assert build_field(p, e, n)._kdtype is dtype


# prime q, prime-power q, n = 1, every kernel width, and p large enough that
# the kernel runs on Python ints: (2^61 - 1, 1, 3), (4294967291, 1, 2) and
# (2^31 - 1, 2, 1)
@pytest.mark.parametrize(
    "p,e,n",
    [
        (2, 1, 1), (2, 1, 24), (101, 1, 4), (5, 1, 1),
        (2, 3, 8), (3, 2, 5), (7, 3, 1), (257, 2, 3),
        (103, 1, 2), (107, 1, 2), (2**30 + 3, 1, 3),
        (2**61 - 1, 1, 3), (4294967291, 1, 2), (2**31 - 1, 2, 1),
    ],
)
def test_products_and_powers_match_polynomial_oracle(p, e, n):
    ctx = build_field(p, e, n)
    fq, h = ctx.fq, list(ctx.top_modulus.coeffs)
    rng = random.Random(p * 1000 + e * 10 + n)

    def padded(coeffs):
        return tuple(coeffs) + (0,) * (n - len(coeffs))

    for _ in range(20):
        a, b = ctx.random_element(rng), ctx.random_element(rng)
        want = school_divmod(fq, school_mul(fq, list(a.coeffs), list(b.coeffs)), h)[1]
        assert (a * b).coeffs == padded(want)
        k = rng.randrange(ctx.order)
        assert (a**k).coeffs == padded(school_powmod(fq, list(a.coeffs), k, h))
    assert ctx.gen() ** 0 == ctx.one()


def test_powering_makes_no_per_coefficient_calls(monkeypatch):
    ctx = build_field(2, 1, 24)
    a = ctx.random_element(random.Random(3))
    calls = 0

    def counted(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)

        return wrapper

    for name in ("add", "mul"):
        monkeypatch.setattr(FqField, name, counted(getattr(FqField, name)))
    a ** (ctx.order - 2)
    # a coefficient loop makes about n^2 calls per product, 2 log2(k) products
    assert calls <= ctx.n


def test_index_roundtrip():
    ctx = build_field(2, 2, 3)
    for i in range(ctx.order):
        assert ctx.index(ctx.from_index(i)) == i


def test_frobenius_basics():
    ctx = build_field(2, 1, 2)
    u = ctx.gen()
    assert frobenius(ctx, u, 0) == u
    assert frobenius(ctx, u, 1) == u + ctx.one()  # u^2 = u + 1
    assert frobenius(ctx, u, ctx.n) == u


def test_frobenius_fixes_scalars():
    ctx = build_field(3, 2, 2)
    for c in ctx.fq.elements():
        a = ctx.embed_scalar(c)
        for i in range(4):
            assert frobenius(ctx, a, i) == a


def test_frobenius_is_field_automorphism():
    ctx = build_field(2, 2, 3)
    rng = random.Random(4)
    for _ in range(100):
        a, b = ctx.random_element(rng), ctx.random_element(rng)
        assert frobenius(ctx, a + b, 1) == frobenius(ctx, a, 1) + frobenius(ctx, b, 1)
        assert frobenius(ctx, a * b, 1) == frobenius(ctx, a, 1) * frobenius(ctx, b, 1)


def test_frobenius_matches_direct_powering():
    ctx = build_field(3, 1, 4)
    rng = random.Random(5)
    for _ in range(50):
        a = ctx.random_element(rng)
        i = rng.randrange(0, 5)
        assert frobenius(ctx, a, i) == a ** (ctx.q**i)


# the flat-view bound n * e*n * (p-1)^2 on either side of 2^63, and
# prime-power fields on three widths
@pytest.mark.parametrize(
    "p,e,n,dtype",
    [
        (2**30 + 3, 1, 2, np.int64), (2**30 + 3, 1, 3, object),
        (2**31 - 1, 1, 2, object), (2**31 - 1, 1, 3, object),
        (3, 2, 4, np.int16), (101, 2, 2, np.int32), (2**31 - 1, 2, 3, object),
    ],
)
def test_frobenius_and_trace_match_powering_at_every_width(p, e, n, dtype):
    ctx = build_field(p, e, n)
    assert ctx._flat_dtype is dtype
    rng = random.Random(p + 10 * e + n)
    for _ in range(5):
        a = ctx.random_element(rng)
        for i in range(n + 1):
            assert frobenius(ctx, a, i) == a ** (ctx.q**i)
        for m in range(1, n + 1):
            if n % m == 0:
                assert trace_to_subfield(ctx, a, m) == direct_trace(ctx, a, m)


def test_trace_trivial_cases():
    ctx = build_field(5, 1, 2)
    rng = random.Random(6)
    a = ctx.random_element(rng)
    assert trace_to_subfield(ctx, a, ctx.n) == a
    assert trace_to_subfield(ctx, ctx.zero(), 1).is_zero()
    with pytest.raises(ValueError):
        trace_to_subfield(ctx, a, 3)


@pytest.mark.parametrize("p,e,n,m", [(2, 1, 4, 2), (2, 1, 4, 1), (3, 1, 4, 2), (2, 2, 4, 2)])
def test_trace_lands_in_subfield_and_surjects(p, e, n, m):
    ctx = build_field(p, e, n)
    images = set()
    for a in ctx.elements():
        b = trace_to_subfield(ctx, a, m)
        assert in_subfield(ctx, b, m)
        images.add(b.coeffs)
    assert len(images) == ctx.q**m  # onto the subfield


def test_trace_linear_over_subfield():
    ctx = build_field(2, 1, 4)
    rng = random.Random(8)
    subfield = [a for a in ctx.elements() if in_subfield(ctx, a, 2)]
    for _ in range(50):
        z = ctx.random_element(rng)
        c = rng.choice(subfield)
        assert trace_to_subfield(ctx, c * z, 2) == c * trace_to_subfield(ctx, z, 2)


def test_multiplicative_order_basics():
    ctx = build_field(5, 1, 2)
    assert multiplicative_order(ctx, ctx.one()) == 1
    minus_one = -ctx.one()
    assert multiplicative_order(ctx, minus_one) == 2
    with pytest.raises(ValueError):
        multiplicative_order(ctx, ctx.zero())


def test_order_of_explicit_cubic_root():
    # alpha a root of x^3 - x - 2 over F_3 has order 26
    f = FqPoly(FqField(3), (1, 2, 0, 1))
    ctx = field_with_modulus(3, 1, 3, f)
    alpha = ctx.gen()
    assert multiplicative_order(ctx, alpha) == 26
    assert slow_multiplicative_order(ctx, alpha) == 26


def test_order_matches_slow_oracle():
    ctx = build_field(2, 1, 4)
    for a in ctx.elements():
        if not a.is_zero():
            assert multiplicative_order(ctx, a) == slow_multiplicative_order(ctx, a)


def test_is_primitive():
    ctx = build_field(2, 1, 2)
    prims = [a for a in ctx.elements() if is_primitive(ctx, a)]
    assert len(prims) == 2  # the two elements outside F_2
    ctx25 = build_field(5, 1, 2)
    assert not is_primitive(ctx25, ctx25.one())
    assert not is_primitive(ctx25, ctx25.zero())
    assert sum(1 for a in ctx25.elements() if is_primitive(ctx25, a)) == 8  # phi(24)


@pytest.mark.parametrize("p,e,n", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (7, 1, 2)])
def test_primitive_count_is_phi(p, e, n):
    ctx = build_field(p, e, n)
    expected = ctx.qn_minus_1().phi()
    assert sum(1 for a in ctx.elements() if is_primitive(ctx, a)) == expected


# q^n - 1 = 1 (no primes), 4095 = 3^2 * 5 * 7 * 13 (a repeated prime),
# 80 = 2^4 * 5, 48, 63 and an n = 1 field
@pytest.mark.parametrize("p,e,n", [(2, 1, 1), (2, 1, 12), (3, 1, 4), (7, 1, 2), (2, 2, 3), (13, 1, 1)])
def test_order_tree_on_whole_group(p, e, n):
    ctx = build_field(p, e, n)
    order_oracle = slow_multiplicative_order if ctx.order <= 256 else peeled_order
    for a in ctx.elements():
        if a.is_zero():
            continue
        assert is_primitive(ctx, a) == per_prime_is_primitive(ctx, a), a
        assert multiplicative_order(ctx, a) == order_oracle(ctx, a), a


@pytest.mark.parametrize("p,e,n", [(2**61 - 1, 1, 2), (2**31 - 1, 1, 4), (2**31 - 1, 2, 2)])
def test_order_tree_large_characteristic(p, e, n):
    ctx = build_field(p, e, n)
    N = ctx.order - 1
    rng = random.Random(21)
    sample = [ctx.random_element(rng) for _ in range(20)]
    start = time.perf_counter()
    g = find_primitive(ctx)
    assert is_primitive(ctx, g)
    assert multiplicative_order(ctx, g) == N
    for r in trial_division(N):
        assert multiplicative_order(ctx, g**r) == N // r
    verdicts = [is_primitive(ctx, a) for a in sample]
    assert time.perf_counter() - start < 1.0
    assert verdicts == [per_prime_is_primitive(ctx, a) for a in sample]


def test_order_loops_end_on_a_broken_tree(monkeypatch):
    # a tree whose leaves keep a itself, not a^(N/r^m), and a primitivity
    # test that rejects everything: both must raise, not loop
    ctx = build_field(2, 1, 4)
    g = find_primitive(ctx)
    monkeypatch.setattr(ff, "_order_tree", lambda ctx, b, parts: ((r, b) for r in parts))
    with pytest.raises(InternalCheckError):
        multiplicative_order(ctx, g)
    monkeypatch.setattr(ff, "is_primitive", lambda *args, **kwargs: False)
    with pytest.raises(InternalCheckError):
        find_primitive(ctx)


def test_find_primitive_deterministic():
    ctx = build_field(3, 1, 3)
    a = find_primitive(ctx)
    assert a == find_primitive(ctx)
    assert is_primitive(ctx, a)
    b = find_primitive(ctx, seed=11)
    assert is_primitive(ctx, b)


@pytest.mark.parametrize("p,e,n", [(7, 1, 1), (2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 3), (3, 2, 2)])
def test_find_primitive_is_first_primitive_index(p, e, n):
    ctx = build_field(p, e, n)
    orders = (slow_multiplicative_order(ctx, ctx.from_index(i)) for i in range(1, ctx.order))
    first = 1 + next(i for i, t in enumerate(orders) if t == ctx.order - 1)
    assert ctx.index(find_primitive(ctx)) == first


def test_enumeration_cap():
    ctx = build_field(2, 1, 21)  # 2^21 elements, over the cap
    with pytest.raises(BudgetError):
        next(ctx.elements())


def test_explicit_modulus_must_be_irreducible():
    with pytest.raises(ValueError):
        field_with_modulus(2, 1, 2, FqPoly(FqField(2), (0, 0, 1)))  # x^2
