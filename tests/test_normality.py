import random

import numpy as np
import pytest

from knormal import fieldscan
from knormal.errors import BudgetError, InternalCheckError
from knormal.ff import build_field, is_primitive
from knormal.normality import (
    associate_poly,
    brute_census,
    clear_scan,
    construct_k_normal,
    count_k_normals,
    enumerate_by_order,
    find_normal,
    fq_order,
    get_scan,
    is_normal,
    lambda_poly,
    normality_index,
    phi_of_divisor,
    psi_poly,
    q_associate,
)
from knormal.polyring import FqPoly, all_divisors, divisors_of_degree

from oracles import conjugate_corank, direct_associate, minimal_annihilator

CTX57 = build_field(5, 1, 7)
CTX4 = build_field(2, 1, 2)


def x_pow_minus_one(ctx):
    return FqPoly.x_pow_minus_one(ctx.fq, ctx.n)


# -- q-associates --------------------------------------------------------------


def test_associate_identity_and_annihilation():
    rng = random.Random(0)
    for ctx in (CTX4, build_field(3, 1, 3), build_field(2, 2, 2)):
        for _ in range(20):
            a = ctx.random_element(rng)
            assert q_associate(ctx, FqPoly.one(ctx.fq), a) == a
            assert q_associate(ctx, x_pow_minus_one(ctx), a).is_zero()


def test_associate_hand_value():
    u = CTX4.gen()
    # (x + 1) . u = u^2 + u = 1
    assert q_associate(CTX4, FqPoly(CTX4.fq, (1, 1)), u) == CTX4.one()


def test_associate_matches_direct_powering():
    ctx = build_field(3, 1, 4)
    rng = random.Random(1)
    for _ in range(40):
        a = ctx.random_element(rng)
        f = FqPoly(ctx.fq, [rng.randrange(3) for _ in range(rng.randrange(1, 7))])
        assert q_associate(ctx, f, a) == direct_associate(ctx, f, a)


def test_associate_composition_and_additivity():
    ctx = build_field(2, 1, 4)
    rng = random.Random(2)
    for _ in range(60):
        a = ctx.random_element(rng)
        f = FqPoly(ctx.fq, [rng.randrange(2) for _ in range(rng.randrange(1, 5))])
        g = FqPoly(ctx.fq, [rng.randrange(2) for _ in range(rng.randrange(1, 5))])
        assert q_associate(ctx, f * g, a) == q_associate(ctx, f, q_associate(ctx, g, a))
        assert q_associate(ctx, f + g, a) == q_associate(ctx, f, a) + q_associate(ctx, g, a)


# -- orders ----------------------------------------------------------------------


def test_order_of_zero_and_one():
    assert fq_order(CTX57, CTX57.zero()) == FqPoly.one(CTX57.fq)
    assert fq_order(CTX57, CTX57.one()) == FqPoly(CTX57.fq, (4, 1))  # x - 1
    assert normality_index(CTX57, CTX57.zero()) == 7
    assert normality_index(CTX57, CTX57.one()) == 6


def test_order_of_one_above_int64_indices():
    ctx = build_field(2, 1, 64)  # q^n = 2^64: enumeration indices overflow int64
    assert normality_index(ctx, ctx.one()) == ctx.n - 1
    assert normality_index(ctx, ctx.zero()) == ctx.n


# n * e*n * (p-1)^2 passes 2^63 on F_{(2^61-1)^3}, so the flat views must
# run on Python ints there: int64 products would wrap
def test_associate_on_the_object_path():
    ctx = build_field(2**61 - 1, 1, 3)
    assert ctx._flat_dtype is object
    rng = random.Random(13)
    x = FqPoly.x(ctx.fq)
    for _ in range(5):
        a = ctx.random_element(rng)
        assert q_associate(ctx, x, a) == a**ctx.q


def test_normality_index_on_the_object_path():
    ctx = build_field(2**61 - 1, 1, 3)
    assert normality_index(ctx, ctx.embed_scalar(12345)) == 2
    rng = random.Random(14)
    for _ in range(20):
        a = ctx.random_element(rng)
        assert normality_index(ctx, a**ctx.q - a) == 1


def test_order_in_f4():
    u = CTX4.gen()
    assert fq_order(CTX4, u) == FqPoly(CTX4.fq, (1, 0, 1))  # x^2 + 1 = (x+1)^2
    assert minimal_annihilator(CTX4, u) == FqPoly(CTX4.fq, (1, 0, 1))


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
def test_order_matches_divisor_scan_oracle(p, e, n):
    ctx = build_field(p, e, n)
    for a in ctx.elements():
        assert fq_order(ctx, a) == minimal_annihilator(ctx, a)


@pytest.mark.parametrize("p,e,n", [(2, 1, 5), (3, 1, 4), (2, 2, 3)])
def test_normality_index_matches_conjugate_rank(p, e, n):
    ctx = build_field(p, e, n)
    rng = random.Random(n)
    for _ in range(60):
        a = ctx.random_element(rng)
        assert normality_index(ctx, a) == conjugate_corank(ctx, a)


def test_vanishing_iff_order_divides():
    ctx = build_field(2, 1, 6)
    rng = random.Random(3)
    divisors = all_divisors(ctx.xn_minus_1())
    for _ in range(80):
        a = ctx.random_element(rng)
        m = fq_order(ctx, a)
        g = rng.choice(divisors)
        assert q_associate(ctx, g, a).is_zero() == (not g % m)


def test_nonzero_k_range_5_7():
    rng = random.Random(4)
    seen = set()
    for _ in range(200):
        a = CTX57.random_element(rng)
        if not a.is_zero():
            seen.add(normality_index(CTX57, a))
    assert seen <= {0, 1, 6}


# -- counting --------------------------------------------------------------------


def test_count_paper_example():
    got = [count_k_normals(CTX57, k) for k in range(8)]
    assert got == [62496, 15624, 0, 0, 0, 0, 4, 1]
    assert sum(got) == 5**7
    with pytest.raises(ValueError):
        count_k_normals(CTX57, 8)


def test_count_k_equals_n_is_one():
    for ctx in (CTX4, build_field(3, 1, 3)):
        assert count_k_normals(ctx, ctx.n) == 1


# -- find/construct ----------------------------------------------------------------


def test_find_normal_f4():
    u = CTX4.gen()
    beta = find_normal(CTX4, seed=0)
    assert beta in (u, u + CTX4.one())
    assert is_normal(CTX4, beta)


def test_find_normal_char_divides():
    ctx = build_field(3, 1, 3)
    beta = find_normal(ctx, seed=1)
    assert fq_order(ctx, beta) == x_pow_minus_one(ctx)


def test_construct_trivial_and_typical():
    beta = find_normal(CTX57, seed=5)
    assert construct_k_normal(CTX57, beta, FqPoly.one(CTX57.fq)) == beta
    assert construct_k_normal(CTX57, beta, x_pow_minus_one(CTX57)).is_zero()
    alpha = construct_k_normal(CTX57, beta, FqPoly(CTX57.fq, (4, 1)))
    assert normality_index(CTX57, alpha) == 1


def test_construct_validates():
    beta = find_normal(CTX57, seed=6)
    with pytest.raises(ValueError):
        construct_k_normal(CTX57, beta, FqPoly(CTX57.fq, (1, 1)))  # x + 1 not a divisor
    one = CTX57.one()  # 1 is (n-1)-normal, not normal
    with pytest.raises(ValueError):
        construct_k_normal(CTX57, one, FqPoly(CTX57.fq, (4, 1)))


def test_construct_seeded_sweep():
    rng = random.Random(7)
    for ctx in (build_field(2, 1, 6), build_field(3, 1, 4), build_field(2, 2, 3)):
        divisors = all_divisors(ctx.xn_minus_1())
        full = x_pow_minus_one(ctx)
        for i in range(25):
            beta = find_normal(ctx, seed=i)
            f = rng.choice(divisors)
            alpha = construct_k_normal(ctx, beta, f)
            assert fq_order(ctx, alpha) == full // f


# -- characteristic polynomials ------------------------------------------------------


def test_psi_trivial_cases():
    # order x - 1 means lying in F_q*: psi = x^(q-1) - 1
    psi = psi_poly(CTX57, FqPoly(CTX57.fq, (4, 1)))
    assert psi == FqPoly(CTX57.fq, (4, 0, 0, 0, 1))
    assert psi_poly(CTX57, FqPoly.one(CTX57.fq)) == FqPoly.x(CTX57.fq)


def test_psi_degree_and_roots_f4():
    f = FqPoly(CTX4.fq, (1, 0, 1))
    psi = psi_poly(CTX4, f)
    assert psi.degree == phi_of_divisor(CTX4, f) == 2
    normals = enumerate_by_order(CTX4, f)
    assert len(normals) == 2
    for a in normals:
        acc = CTX4.zero()
        for i, c in enumerate(psi.coeffs):
            if c:
                acc = acc + (a**i).scale(c)
        assert acc.is_zero()


def test_psi_product_identity():
    # the product of psi over divisors of f rebuilds L_f
    for ctx in (build_field(2, 1, 4), build_field(3, 1, 4), build_field(2, 2, 2)):
        for f in all_divisors(ctx.xn_minus_1()):
            prod = FqPoly.one(ctx.fq)
            for g in all_divisors(ctx.xn_minus_1()):
                if f % g:
                    continue
                prod = prod * psi_poly(ctx, g)
            assert prod == associate_poly(ctx, f)


def test_psi_cap():
    with pytest.raises(BudgetError):
        psi_poly(CTX57, x_pow_minus_one(CTX57), degree_cap=100)


def test_lambda_trivial_and_empty():
    assert lambda_poly(CTX57, 7) == FqPoly.x(CTX57.fq)
    assert lambda_poly(CTX57, 2) == FqPoly.one(CTX57.fq)  # no degree-5 divisors


def test_lambda_roots_are_k_normals():
    ctx = build_field(3, 1, 4)
    lam = lambda_poly(ctx, 0)
    assert lam.degree == count_k_normals(ctx, 0) == 32
    hits = 0
    for a in ctx.elements():
        acc = ctx.zero()
        for i, c in enumerate(lam.coeffs):
            if c:
                acc = acc + (a**i).scale(c)
        if acc.is_zero():
            hits += 1
            assert normality_index(ctx, a) == 0
    assert hits == 32


# -- enumeration and census ------------------------------------------------------------


def test_enumerate_trivia():
    assert enumerate_by_order(CTX4, FqPoly.one(CTX4.fq)) == [CTX4.zero()]
    units = enumerate_by_order(CTX57, FqPoly(CTX57.fq, (4, 1)))
    assert len(units) == 4
    assert all(a.coeffs[1:] == (0,) * 6 for a in units)


def test_enumerate_f8_normals():
    ctx = build_field(2, 1, 3)
    normals = enumerate_by_order(ctx, x_pow_minus_one(ctx))
    assert len(normals) == 3  # phi((x-1)(x^2+x+1)) = 1 * 3
    for a in normals:
        assert is_normal(ctx, a)


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
def test_enumerate_lengths_are_phi(p, e, n):
    ctx = build_field(p, e, n)
    total = 0
    for f in all_divisors(ctx.xn_minus_1()):
        got = enumerate_by_order(ctx, f)
        assert len(got) == phi_of_divisor(ctx, f)
        for a in got[:5]:
            assert fq_order(ctx, a) == f
        total += len(got)
    assert total == ctx.order


def test_census_partitions_and_normal_count():
    for ctx in (build_field(2, 1, 6), build_field(3, 1, 4), build_field(2, 2, 3)):
        rec = brute_census(ctx)
        assert sum(rec.counts) == ctx.order
        assert rec.counts[0] == phi_of_divisor(ctx, x_pow_minus_one(ctx))
        assert rec.counts == tuple(count_k_normals(ctx, k) for k in range(ctx.n + 1))
        clear_scan(ctx)


@pytest.mark.parametrize("p", [257, 401])
def test_census_large_characteristic(p):
    # (p-1)^2 * e * n passes 2^15 here, so the scan must not run in int16
    ctx = build_field(p, 1, 2)
    rec = brute_census(ctx)
    assert rec.counts == tuple(count_k_normals(ctx, k) for k in range(ctx.n + 1))
    assert sum(rec.primitive_counts) == ctx.qn_minus_1().phi()
    clear_scan(ctx)


def test_census_primitive_counts():
    ctx = build_field(2, 1, 4)
    rec = brute_census(ctx)
    by_hand = [0] * 5
    for a in ctx.elements():
        if is_primitive(ctx, a):
            by_hand[normality_index(ctx, a)] += 1
    assert rec.primitive_counts == tuple(by_hand)


def test_census_5_7_paper_facts():
    rec = brute_census(CTX57)
    assert rec.counts == (62496, 15624, 0, 0, 0, 0, 4, 1)
    assert rec.primitive_counts[6] == 0  # no primitive (n-1)-normal
    withf = brute_census(CTX57, FqPoly(CTX57.fq, (4, 1)))
    assert withf.nf_preimages > 0
    assert withf.nf_distinct_images <= withf.nf_preimages


def test_census_nf_against_scalar_loop():
    ctx = build_field(2, 1, 4)
    f = FqPoly(ctx.fq, (1, 1))
    rec = brute_census(ctx, f)
    preimages = 0
    images = set()
    for w in ctx.elements():
        if is_normal(ctx, w):
            img = q_associate(ctx, f, w)
            if is_primitive(ctx, img):
                preimages += 1
                images.add(img.coeffs)
    assert rec.nf_preimages == preimages
    assert rec.nf_distinct_images == len(images)


def test_distinct_image_counts_recorded():
    # record whether fewer distinct primitive images than primitive-image
    # preimages ever shows up at desk scale (it does), and that the
    # primitive k-normal population always dominates the distinct images
    strict = []
    for p, e, n in [(2, 1, 4), (2, 1, 6), (3, 1, 4), (5, 1, 3), (5, 1, 7), (2, 2, 3)]:
        ctx = build_field(p, e, n)
        rec0 = brute_census(ctx)
        for k in range(1, n):
            for f in divisors_of_degree(ctx.xn_minus_1(), k):
                rec = brute_census(ctx, f)
                assert rec.nf_distinct_images <= rec.nf_preimages
                assert rec0.primitive_counts[k] >= rec.nf_distinct_images
                if rec.nf_distinct_images < rec.nf_preimages:
                    strict.append((ctx.q, n, k))
        clear_scan(ctx)
    print(f"\ndistinct-image count strictly below preimage count at: {sorted(set(strict))}")
    assert strict, "expected at least one strict case at desk scale"


def test_census_record_text_stable():
    rec = brute_census(CTX4)
    assert rec.to_text() == "census q=2 n=2\nN_k = 2 1 1\nprimitive_k = 2 0 0\n"


def test_census_threads_agree():
    # x^16 - 1 = (x + 1)^16 over F_2: a 136-column stack, many chunks
    for ctx in (build_field(3, 1, 6), build_field(2, 1, 16)):
        seq = brute_census(ctx)
        seq_codes = get_scan(ctx).order_code
        clear_scan(ctx)
        par = brute_census(ctx, threads=3)
        par_codes = get_scan(ctx).order_code
        clear_scan(ctx)
        assert seq == par
        assert np.array_equal(seq_codes, par_codes)


# fields where x^n - 1 has repeated factors, then fields with e > 1
@pytest.mark.parametrize(
    "p,e,n", [(2, 1, 4), (2, 1, 6), (3, 1, 6), (5, 1, 5), (2, 2, 4), (3, 2, 3)]
)
def test_order_codes_match_scalar_order(p, e, n):
    ctx = build_field(p, e, n)
    scan = get_scan(ctx)
    for i in range(ctx.order):
        order = fq_order(ctx, ctx.from_index(i))
        assert scan.order_code[i] == scan.code_of_divisor(order)
        assert scan.order_degree[i] == order.degree
    clear_scan(ctx)


def test_order_test_rank_is_checked(monkeypatch):
    real = fieldscan._basis_columns
    monkeypatch.setattr(fieldscan, "_basis_columns", lambda mat, p: real(mat, p)[:-1])
    with pytest.raises(InternalCheckError):
        fieldscan.FieldScan(build_field(2, 1, 4))


# The census benchmark's fields, with canonical moduli: (p, e, n) for q = p^e.
CENSUS_FIELDS = [
    (2, 1, 16), (2, 1, 17), (3, 1, 10), (3, 1, 11), (2, 2, 8), (5, 1, 8),
    (7, 1, 6), (2, 3, 5), (3, 2, 5), (11, 1, 5), (13, 1, 4), (13, 1, 5),
    (2, 4, 4), (19, 1, 4), (23, 1, 4), (5, 2, 4), (47, 1, 3), (101, 1, 2),
    (127, 1, 2), (257, 1, 2), (401, 1, 2),
]


@pytest.mark.parametrize("p,e,n", CENSUS_FIELDS)
def test_census_fields_match_counting(p, e, n):
    ctx = build_field(p, e, n)
    rec = brute_census(ctx)
    clear_scan(ctx)
    assert rec.counts == tuple(count_k_normals(ctx, k) for k in range(n + 1))
    assert sum(rec.primitive_counts) == ctx.qn_minus_1().phi()


# odd and even e*n, p = 2 and p > 2, e = 1 and e > 1
@pytest.mark.parametrize(
    "p,e,n", [(3, 1, 5), (2, 3, 3), (3, 3, 1), (7, 1, 3), (5, 1, 2), (2, 2, 3), (3, 2, 2)]
)
def test_scan_matches_scalar_on_every_element(p, e, n):
    ctx = build_field(p, e, n)
    scan = get_scan(ctx)
    f = FqPoly(ctx.fq, [(3 * i + 1) % ctx.q for i in range(n)])
    images = scan.image_indices(scan.matrix_of_associate(f), np.arange(ctx.order))
    for i in range(ctx.order):
        a = ctx.from_index(i)
        assert int(scan.order_degree[i]) == fq_order(ctx, a).degree
        assert bool(scan.is_primitive_mask[i]) == is_primitive(ctx, a)
        assert int(images[i]) == ctx.index(q_associate(ctx, f, a))
    clear_scan(ctx)


def test_generator_powers_are_checked(monkeypatch):
    # gamma^2 has order 13 in F_27^*, so its powers repeat
    real = fieldscan.find_primitive
    monkeypatch.setattr(fieldscan, "find_primitive", lambda ctx: real(ctx) ** 2)
    with pytest.raises(InternalCheckError):
        fieldscan.FieldScan(build_field(3, 1, 3))
