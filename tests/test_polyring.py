import random
import subprocess
import sys
from pathlib import Path

import pytest

import knormal
from knormal.basefield import FqField
from knormal.errors import BudgetError
from knormal.ff import build_field
from knormal.polyring import (
    FactoredPoly,
    FqPoly,
    all_divisors,
    count_squarefree_divisors_poly,
    degree_set,
    divisors_of_degree,
    euler_phi_poly,
    format_poly,
    format_poly_list,
    is_irreducible,
    least_irreducible,
    mobius_poly,
    parse_poly,
    poly_gcd,
    powmod,
)
from oracles import (
    brute_is_irreducible,
    list_add,
    list_sub,
    monic_coeffs,
    school_divmod,
    school_mul,
    school_powmod,
)

F2 = FqField(2)
F3 = FqField(3)
F5 = FqField(5)
F4 = build_field(2, 2, 1).fq
F8 = build_field(2, 3, 1).fq
F9 = build_field(3, 2, 1).fq


def rand_poly(fq, deg, rng):
    return FqPoly(fq, [rng.randrange(fq.q) for _ in range(deg)] + [rng.randrange(1, fq.q)])


def test_mul_hand_example():
    # (x - 1)(x + 1) = x^2 - 1 = x^2 + 2 over F_3
    assert FqPoly(F3, (2, 1)) * FqPoly(F3, (1, 1)) == FqPoly(F3, (2, 0, 1))


def test_divrem_x7_minus_1():
    q, r = divmod(FqPoly.x_pow_minus_one(F5, 7), FqPoly(F5, (4, 1)))
    assert q == FqPoly(F5, (1,) * 7)
    assert not r


def test_gcd_with_zero_is_monic():
    f = FqPoly(F3, (2, 2))  # 2x + 2
    assert poly_gcd(f, FqPoly.zero(F3)) == FqPoly(F3, (1, 1))
    assert poly_gcd(FqPoly.zero(F3), f) == FqPoly(F3, (1, 1))


def test_gcd_common_factor():
    rng = random.Random(1)
    for _ in range(30):
        c = rand_poly(F3, rng.randrange(1, 4), rng)
        a = rand_poly(F3, rng.randrange(0, 4), rng) * c
        b = rand_poly(F3, rng.randrange(0, 4), rng) * c
        g = poly_gcd(a, b)
        assert not a % g and not b % g
        assert not g % c.monic()  # c divides both, hence their gcd


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        FqPoly(F2, (1, 1)) + FqPoly(F3, (1, 1))
    with pytest.raises(ZeroDivisionError):
        divmod(FqPoly(F3, (1, 1)), FqPoly.zero(F3))


def field(p, e):
    return FqField(p) if e == 1 else FqField(p, e, least_irreducible(FqField(p), e).coeffs)


# Every field runs both product kernels.  The p >= 2^31 - 1 fields put
# the Kronecker kernel on Python ints; (2, 8) has q = TABLE_MAX_Q, the
# largest on the FqField tables, and (17, 2) and (17, 3) have q above it.
@pytest.mark.parametrize(
    "p,e",
    [
        (2, 1), (3, 1), (2, 2), (2, 4), (2, 8), (17, 2), (17, 3),
        (2**31 - 1, 1), (4294967291, 1), (2**61 - 1, 1), (2**31 - 1, 2),
    ],
)
def test_products_match_school_oracle(p, e):
    fq = field(p, e)
    rng = random.Random(p + e)
    top = fq.q - 1

    def dense(length):
        return [rng.randrange(fq.q) for _ in range(length - 1)] + [rng.randrange(1, fq.q)]

    sparse = [0] * 199 + [1]
    for i in rng.sample(range(199), 4):
        sparse[i] = rng.randrange(1, fq.q)
    pairs = [
        (dense(31), dense(31)), (dense(31), dense(90)),  # schoolbook side of the cutoff
        (dense(32), dense(32)), (dense(32), dense(90)),  # Kronecker side
        ([top] * 70, [top] * 45),  # the middle packed fields reach the bound
        (sparse, dense(50)),
        ([rng.randrange(1, fq.q)], dense(80)),
    ]
    for a, b in pairs:
        want = tuple(school_mul(fq, a, b))
        assert (FqPoly(fq, a) * FqPoly(fq, b)).coeffs == want
        assert (FqPoly(fq, b) * FqPoly(fq, a)).coeffs == want
    mod = dense(41)
    # the last two dividends have the divisor's degree: a quotient of length 1
    for num in (dense(120), dense(41), [top] * 41):
        quot, rem = divmod(FqPoly(fq, num), FqPoly(fq, mod))
        assert (list(quot.coeffs), list(rem.coeffs)) == school_divmod(fq, num, mod)
    base, k = dense(40), rng.randrange(2**10, 2**12)
    want = tuple(school_powmod(fq, base, k, mod))
    assert powmod(FqPoly(fq, base), k, FqPoly(fq, mod)).coeffs == want


def test_divmod_reconstructs():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_poly(F5, rng.randrange(0, 12), rng)
        b = rand_poly(F5, rng.randrange(0, 6), rng)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_powmod():
    f = FqPoly(F3, (1, 0, 1))  # x^2 + 1, irreducible over F_3
    assert powmod(FqPoly.x(F3), 9, f) == FqPoly.x(F3)  # x^(q^2) = x mod f


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 2), (3, 2), (17, 2), (2**61 - 1, 1)])
def test_powmod_edges_match_school_oracle(p, e):
    fq = field(p, e)
    q = fq.q
    rng = random.Random(q)

    def dense(length):
        return [rng.randrange(q) for _ in range(length - 1)] + [rng.randrange(1, q)]

    ks = [0, 1, 2, q, q**3, rng.getrandbits(69) | 1 << 69]
    for mod in (dense(1), dense(2), dense(8)):  # constant, linear, degree 7
        # below, equal to and above the degree of the modulus
        for base in ([0, 1], dense(len(mod)), dense(3 * len(mod) + 2)):
            for k in ks:
                got = powmod(FqPoly(fq, base), k, FqPoly(fq, mod))
                assert list(got.coeffs) == school_powmod(fq, base, k, mod), (mod, base, k)
                if len(mod) == 1:
                    assert not got  # everything is 0 mod a unit, x^0 included


@pytest.mark.parametrize("p,e", [(2, 1), (7, 1), (2**61 - 1, 1), (3, 2), (2, 4), (17, 2)])
def test_computed_coefficients_stay_in_range(p, e):
    # results are built without the constructor's range check
    fq = field(p, e)
    rng = random.Random(p * e)
    for _ in range(20):
        a = rand_poly(fq, rng.randrange(0, 50), rng)
        b = rand_poly(fq, rng.randrange(0, 20), rng)
        quot, rem = divmod(a, b)
        for f in (a * b, quot, rem, a - b, b - a, a + b, -a):
            assert all(0 <= c < fq.q for c in f.coeffs)
        assert list((a - b).coeffs) == list_sub(fq, list(a.coeffs), list(b.coeffs))
        assert list((b - a).coeffs) == list_sub(fq, list(b.coeffs), list(a.coeffs))
        assert list((a + b).coeffs) == list_add(fq, list(a.coeffs), list(b.coeffs))
        assert not (a - a) and (a - b) + b == a


def test_eval():
    f = parse_poly(F5, "3 + x + 2*x^2")
    for a in range(5):
        assert f.eval(a) == (3 + a + 2 * a * a) % 5


# -- irreducibility ----------------------------------------------------------


def _count_monic_irreducibles(fq, d):
    return sum(is_irreducible(FqPoly(fq, c)) for c in monic_coeffs(fq, d))


@pytest.mark.parametrize(
    "fq,d",
    [(F2, 1), (F2, 2), (F2, 3), (F2, 4), (F2, 6), (F3, 2), (F3, 3), (F5, 2)],
)
def test_irreducible_count_matches_gauss_formula(fq, d):
    # number of monic irreducibles of degree d is (1/d) sum mu(d/e) q^e
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius_int(d // e) * fq.q**e
    assert _count_monic_irreducibles(fq, d) == total // d


def _mobius_int(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


@pytest.mark.parametrize(
    "fq,d", [(F2, 4), (F2, 6), (F3, 4), (F4, 2), (F4, 3), (F4, 4), (F9, 2)]
)
def test_is_irreducible_matches_trial_division(fq, d):
    # every monic candidate, including those divisible by x and those
    # with repeated factors such as (x^2 + x + 1)^2 over F_2
    for coeffs in monic_coeffs(fq, d):
        assert is_irreducible(FqPoly(fq, coeffs)) == brute_is_irreducible(fq, coeffs), coeffs


def test_least_irreducible_is_least():
    # the first monic candidate in canonical order that trial division
    # finds irreducible; (F2, 10) and (F3, 6) have large blocks of
    # candidates with c0 = 0, and for prime-power q the candidates over
    # F_p are skipped when gcd(d, e) > 1 and must not be when it is 1
    cases = [(F2, 3), (F3, 2), (F5, 2), (F2, 10), (F3, 6)]
    cases += [(F4, 2), (F4, 3), (F4, 4), (F8, 3), (F9, 4)]
    for fq, d in cases:
        best = next(c for c in monic_coeffs(fq, d) if brute_is_irreducible(fq, c))
        assert least_irreducible(fq, d) == FqPoly(fq, best), (fq, d)
    # gcd(3, 2) = 1, so x^3 + x^2 + 1 over F_2 stays irreducible over F_4
    assert least_irreducible(F4, 3) == FqPoly(F4, (1, 0, 1, 1))


def test_least_irreducible_large_p_squared_finishes():
    # every x^2 + c1 x + c0 with c0, c1 in F_p is reducible over F_{p^2};
    # the scan must not test them one by one
    src = str(Path(knormal.__file__).resolve().parents[1])
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]\n"
        "from knormal.ff import build_field\n"
        "t = time.perf_counter(); ctx = build_field(2**31 - 1, 2, 2)\n"
        "print(time.perf_counter() - t, ctx.top_modulus.coeffs)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True, timeout=60
    )
    seconds, coeffs = out.stdout.split(" ", 1)
    assert float(seconds) < 1.0
    assert coeffs.strip() == "(1, 2147483648, 1)"


def test_least_irreducible_degree_one_is_x():
    assert least_irreducible(F2, 1) == FqPoly.x(F2)
    assert least_irreducible(F5, 1) == FqPoly.x(F5)


# -- factored polynomials ----------------------------------------------------


def _fp(ctx):
    return ctx.xn_minus_1()


def test_phi_examples():
    ctx = build_field(5, 1, 7)
    fp = _fp(ctx)
    xm1, big = fp.factors[0][0], fp.factors[1][0]
    assert euler_phi_poly(FactoredPoly(F5, ((xm1, 1),))) == 4
    assert euler_phi_poly(FactoredPoly(F5, ((big, 1),))) == 5**6 - 1
    assert euler_phi_poly(fp) == 4 * 15624


def test_phi_sum_is_q_to_deg():
    # sum of Phi over all divisors of x^n - 1 equals q^n
    for p, e, n in [(2, 1, 12), (2, 1, 9), (3, 1, 8), (2, 2, 6), (3, 2, 4), (5, 1, 6), (7, 1, 4)]:
        ctx = build_field(p, e, n)
        fp = _fp(ctx)
        total = 0
        for d in all_divisors(fp):
            exps = []
            rem = d
            phi = 1
            for P, m in fp.factors:
                cnt = 0
                while cnt < m:
                    quot, r = divmod(rem, P)
                    if r:
                        break
                    rem, cnt = quot, cnt + 1
                if cnt:
                    dd = P.degree
                    phi *= ctx.q ** (dd * cnt) - ctx.q ** (dd * (cnt - 1))
            total += phi
        assert total == ctx.q**n


def test_mobius_examples():
    ctx = build_field(5, 1, 7)
    fp = _fp(ctx)
    assert mobius_poly(fp) == 1  # two distinct irreducibles
    one = FactoredPoly(F5, ())
    assert mobius_poly(one) == 1
    sq = FactoredPoly(F5, ((FqPoly(F5, (4, 1)), 2),))
    assert mobius_poly(sq) == 0
    single = FactoredPoly(F5, ((FqPoly(F5, (4, 1)), 1),))
    assert mobius_poly(single) == -1


def test_w_poly():
    assert count_squarefree_divisors_poly(FactoredPoly(F5, ())) == 1
    assert count_squarefree_divisors_poly(_fp(build_field(5, 1, 7))) == 4
    assert count_squarefree_divisors_poly(_fp(build_field(3, 1, 4))) == 8


def test_exponents_of_divisors():
    # x^6 - 1 = (x + 1)^2 (x^2 + x + 1)^2 over F_2
    ctx = build_field(2, 1, 6)
    fp = _fp(ctx)
    assert fp.exponents(FqPoly.x_pow_minus_one(ctx.fq, 6)) == (2, 2)
    assert fp.exponents(FqPoly.one(ctx.fq)) == (0, 0)
    for d in all_divisors(fp):
        exps = fp.exponents(d)
        rebuilt = FqPoly.one(ctx.fq)
        for (P, _), e in zip(fp.factors, exps):
            rebuilt = rebuilt * P**e
        assert rebuilt == d
    for bad in (FqPoly(ctx.fq, (0, 1)), FqPoly(ctx.fq, (1, 1)) ** 3):
        with pytest.raises(ValueError):
            fp.exponents(bad)


def test_multiplicativity_on_coprime_parts():
    ctx = build_field(3, 1, 4)
    fp = _fp(ctx)  # three distinct irreducibles
    (a, _), (b, _), (c, _) = fp.factors
    pa = FactoredPoly(F3, ((a, 1),))
    pbc = FactoredPoly(F3, tuple(sorted([(b, 1), (c, 1)], key=lambda t: t[0].sort_key())))
    whole = FactoredPoly(F3, fp.factors)
    assert euler_phi_poly(whole) == euler_phi_poly(pa) * euler_phi_poly(pbc)
    assert mobius_poly(whole) == mobius_poly(pa) * mobius_poly(pbc)
    assert count_squarefree_divisors_poly(whole) == count_squarefree_divisors_poly(
        pa
    ) * count_squarefree_divisors_poly(pbc)


def test_divisors_of_degree():
    ctx57 = build_field(5, 1, 7)
    assert divisors_of_degree(_fp(ctx57), 0) == [FqPoly.one(F5)]
    assert divisors_of_degree(_fp(ctx57), 2) == []
    ctx34 = build_field(3, 1, 4)
    got = divisors_of_degree(_fp(ctx34), 2)
    assert got == sorted([FqPoly(F3, (2, 0, 1)), FqPoly(F3, (1, 0, 1))], key=FqPoly.sort_key)
    with pytest.raises(ValueError):
        divisors_of_degree(_fp(ctx34), 5)


def test_divisor_list_length_matches_generating_function():
    # coefficient of z^k in prod (1 + z^d + ... + z^(d*m)) counts divisors
    for p, e, n in [(2, 1, 12), (3, 1, 8), (2, 2, 6)]:
        ctx = build_field(p, e, n)
        fp = _fp(ctx)
        gen = [1]
        for f, m in fp.factors:
            nxt = [0] * (len(gen) + f.degree * m)
            for i, v in enumerate(gen):
                for j in range(m + 1):
                    nxt[i + j * f.degree] += v
            gen = nxt
        for k in range(n + 1):
            assert len(divisors_of_degree(fp, k)) == gen[k]


def test_degree_set():
    assert degree_set(_fp(build_field(5, 1, 7))) == {0, 1, 6, 7}
    assert degree_set(_fp(build_field(3, 1, 4))) == {0, 1, 2, 3, 4}
    assert degree_set(_fp(build_field(2, 1, 8))) == set(range(9))  # (x-1)^8


def test_divisor_cap():
    ctx = build_field(3, 1, 4)
    import knormal.polyring as pr

    old = pr.DIVISOR_CAP
    pr.DIVISOR_CAP = 3
    try:
        with pytest.raises(BudgetError):
            all_divisors(_fp(ctx))
    finally:
        pr.DIVISOR_CAP = old


# -- text formats -------------------------------------------------------------


def test_format_parse_roundtrip():
    rng = random.Random(9)
    for _ in range(50):
        f = rand_poly(F5, rng.randrange(0, 8), rng)
        assert parse_poly(F5, format_poly(f)) == f
        assert parse_poly(F5, format_poly_list(f)) == f
    assert format_poly(FqPoly.zero(F5)) == "0"
    assert parse_poly(F5, "[]") == FqPoly.zero(F5)


def test_parse_rejects_out_of_range():
    with pytest.raises(ValueError):
        FqPoly(F3, [3])
    with pytest.raises(ValueError):
        FqPoly(F4, [0, 4, 1])
    with pytest.raises(ValueError):
        parse_poly(F3, "[3]")
    with pytest.raises(ValueError):
        parse_poly(F3, "5 + x")
    with pytest.raises(ValueError):
        parse_poly(F3, "[1,4]")
    with pytest.raises(ValueError):
        parse_poly(F3, "")
    with pytest.raises(ValueError):
        parse_poly(F3, "1 + x + x")


def test_canonical_order():
    a = FqPoly(F3, (1, 1))
    b = FqPoly(F3, (2, 1))
    c = FqPoly(F3, (0, 0, 1))
    assert sorted([c, b, a], key=FqPoly.sort_key) == [a, b, c]
