import math

import pytest

from knormal.basefield import FqField
from knormal.cyclotomic import _proper_divisor, factor_xm_minus_1
from knormal.errors import InternalCheckError
from knormal.ff import build_field
from knormal.polyring import FqPoly, is_irreducible

from oracles import generic_factor_xn_minus_1


def test_q5_n7_shape():
    fp = factor_xm_minus_1(FqField(5), 7)
    degs = sorted(f.degree for f, _ in fp.factors)
    assert degs == [1, 6]
    assert all(m == 1 for _, m in fp.factors)


def test_char_divides_n():
    fp = factor_xm_minus_1(FqField(3), 3)
    assert len(fp.factors) == 1
    f, m = fp.factors[0]
    assert f == FqPoly(FqField(3), (2, 1)) and m == 3  # (x - 1)^3


def test_q3_n4():
    fp = factor_xm_minus_1(FqField(3), 4)
    assert sorted(f.degree for f, _ in fp.factors) == [1, 1, 2]
    assert all(m == 1 for _, m in fp.factors)
    assert FqPoly(FqField(3), (1, 0, 1)) in [f for f, _ in fp.factors]  # x^2 + 1


@pytest.mark.parametrize(
    "p,e,n",
    [
        (2, 1, 1), (2, 1, 7), (2, 1, 12), (2, 1, 15),
        (3, 1, 8), (3, 1, 9), (5, 1, 6), (7, 1, 7),
        (2, 2, 9), (2, 3, 7), (3, 2, 5),
    ],
)
def test_reconstructs_and_irreducible(p, e, n):
    fq = build_field(p, e, 1).fq
    fp = factor_xm_minus_1(fq, n)
    assert fp.product() == FqPoly.x_pow_minus_one(fq, n)
    for f, m in fp.factors:
        assert f.is_monic() and is_irreducible(f)
    # multiplicity is the p-part of n throughout
    p_part = 1
    nn = n
    while nn % p == 0:
        nn //= p
        p_part *= p
    assert all(m == p_part for _, m in fp.factors)


def _cyclotomic_coset_count(q, m):
    seen = set()
    count = 0
    for j in range(m):
        if j in seen:
            continue
        count += 1
        c = j
        while c not in seen:
            seen.add(c)
            c = c * q % m
    return count


@pytest.mark.parametrize("p,e,n", [(2, 1, 15), (3, 1, 10), (5, 1, 8), (2, 2, 9)])
def test_factor_count_equals_coset_count(p, e, n):
    assert math.gcd(n, p) == 1
    fq = build_field(p, e, 1).fq
    fp = factor_xm_minus_1(fq, n)
    assert len(fp.factors) == _cyclotomic_coset_count(fq.q, n)


@pytest.mark.parametrize(
    "p,e,n",
    [
        (2, 1, 9), (2, 1, 12), (3, 1, 8), (5, 1, 6), (2, 2, 5), (3, 2, 4), (7, 1, 6),
        (2, 2, 3), (2, 2, 15), (2, 4, 5),
        # a large characteristic: the scan over a in F_p must find its
        # gcds long before p steps
        (2**61 - 1, 1, 7), (2**61 - 1, 1, 12),
    ],
)
def test_agrees_with_generic_factorization(p, e, n):
    fq = build_field(p, e, 1).fq
    ours = factor_xm_minus_1(fq, n).factors
    theirs = generic_factor_xn_minus_1(fq, n, seed=42)
    assert list(ours) == theirs


def test_unsplittable_piece_raises_within_p_steps():
    # x^2 + 1 is irreducible over F_3, so no a gives a proper gcd: the
    # scan over a must give up after p steps instead of looping
    fq = FqField(3)
    with pytest.raises(InternalCheckError):
        _proper_divisor(FqPoly(fq, (1, 0, 1)), FqPoly.x(fq))
