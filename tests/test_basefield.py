import itertools
import random

import pytest

from knormal.basefield import TABLE_MAX_Q, FqField
from knormal.ff import build_field
from knormal.polyring import least_irreducible


def test_prime_field_matches_int_arithmetic():
    fq = FqField(7)
    for a in range(7):
        for b in range(7):
            assert fq.add(a, b) == (a + b) % 7
            assert fq.mul(a, b) == (a * b) % 7
            assert fq.sub(a, b) == (a - b) % 7
    for a in range(1, 7):
        assert fq.mul(a, fq.inv(a)) == 1


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FqField(6)
    with pytest.raises(ValueError):
        FqField(2, 0)
    with pytest.raises(ValueError):
        FqField(2, 2)  # extension without modulus
    with pytest.raises(ValueError):
        FqField(2, 2, (1, 1))  # not monic of degree 2


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    fq = build_field(p, e, 1).fq
    elems = list(fq.elements())
    for a, b, c in itertools.product(elems, repeat=3):
        assert fq.mul(a, fq.mul(b, c)) == fq.mul(fq.mul(a, b), c)
        assert fq.mul(a, fq.add(b, c)) == fq.add(fq.mul(a, b), fq.mul(a, c))
    for a in elems:
        assert fq.add(a, fq.neg(a)) == 0
        if a:
            assert fq.mul(a, fq.inv(a)) == 1
            assert fq.pow(a, fq.q - 1) == 1


def test_encode_digit_roundtrip():
    fq = build_field(3, 2, 1).fq
    for a in fq.elements():
        assert fq.encode(fq.digits(a)) == a


def test_table_and_direct_paths_agree():
    fq = build_field(2, 4, 1).fq  # q = 16, table-backed
    from knormal.basefield import _poly_mulmod

    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.randrange(16), rng.randrange(16)
        direct = fq.encode(_poly_mulmod(fq.digits(a), fq.digits(b), fq.modulus, 2))
        assert fq.mul(a, b) == direct


def test_frobenius_fixes_prime_field():
    fq = build_field(3, 3, 1).fq  # q = 27
    for a in fq.elements():
        assert fq.pow(a, 27) == a  # x^q = x on F_q


def _digits(a, p, e):
    return [a // p**j % p for j in range(e)]


def _code(digits, p):
    return sum(d * p**j for j, d in enumerate(digits))


# q = 4 ... 256 run on the add/sub/neg tables, 17^2 = 289 on the digit loops
@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 4), (3, 3), (5, 3), (2, 8), (17, 2)])
def test_add_sub_neg_match_digit_arithmetic(p, e):
    fq = FqField(p, e, least_irreducible(FqField(p), e).coeffs)
    q = fq.q
    digits = [_digits(a, p, e) for a in range(q)]
    for a in range(q):
        da = digits[a]
        assert fq.neg(a) == _code([-x % p for x in da], p)
        for b in range(q):
            db = digits[b]
            s = fq.sub(a, b)
            assert fq.add(a, b) == _code([(x + y) % p for x, y in zip(da, db)], p)
            assert s == _code([(x - y) % p for x, y in zip(da, db)], p)
            assert s == fq.add(a, fq.neg(b))
    assert (fq._add_table is not None) == (q <= TABLE_MAX_Q)
