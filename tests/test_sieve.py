import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import knormal
from knormal.errors import BudgetError
from knormal.ff import build_field
from knormal.intfactor import factor_integer
from knormal.normality import phi_of_divisor
from knormal.polyring import FqPoly
from knormal.sieve import (
    SieveReport,
    divisor_bound_check,
    divisor_bound_scan,
    h_margin,
    power_of_two_bound_check,
    sieve_1normal,
    sieve_verdict,
    squarefree_divisor_count_int,
)

from oracles import squarefree_divisor_count

CTX57 = build_field(5, 1, 7)


def test_w_int():
    assert squarefree_divisor_count_int(factor_integer(1)) == 1
    assert squarefree_divisor_count_int(factor_integer(80)) == 4
    assert squarefree_divisor_count_int(factor_integer(5**7 - 1)) == 4
    for m in (12, 36, 210, 1024):
        assert squarefree_divisor_count_int(factor_integer(m)) == squarefree_divisor_count(m)


def test_verdict_5_7():
    r = sieve_verdict(CTX57, 1)
    assert (r.w_int, r.w_poly) == (4, 4)
    assert r.inequality_holds and r.k_feasible and r.verdict
    r2 = sieve_verdict(CTX57, 2)
    assert not r2.inequality_holds and not r2.verdict
    with pytest.raises(ValueError):
        sieve_verdict(CTX57, 7)
    with pytest.raises(ValueError):
        sieve_verdict(CTX57, 0)


def test_verdict_requires_degree_feasibility():
    # 2^19 - 1 is prime, so the inequality holds at small k, yet x^19 - 1
    # has no divisor of degree 2 over F_2
    ctx = build_field(2, 1, 19)
    r = sieve_verdict(ctx, 2)
    assert r.inequality_holds and not r.k_feasible and not r.verdict
    r1 = sieve_verdict(ctx, 1)
    assert r1.verdict


def test_nf_lower_bound_value():
    # recompute the bound from first principles with exact rationals
    r = sieve_verdict(CTX57, 1)
    fi = factor_integer(5**7 - 1)
    theta = Fraction(fi.phi(), fi.value)
    big_theta = Fraction(phi_of_divisor(CTX57, FqPoly.x_pow_minus_one(CTX57.fq, 7)), 5**7)
    u = 1398  # ceil(5^4.5) since 1397^2 < 5^9 < 1398^2
    assert 1397**2 < 5**9 < 1398**2
    expected = theta * big_theta * (5**7 - u * 16)
    assert r.nf_lower_bound == expected
    assert r.theta == theta and r.big_theta == big_theta


def test_squared_comparison_matches_high_precision():
    rng = random.Random(0)
    with mpmath.workdps(60):
        for _ in range(1000):
            q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13])
            n = rng.randrange(2, 24)
            k = rng.randrange(1, n)
            w = rng.randrange(1, 1 << 10)
            exact = q ** (n - 2 * k) >= w * w if n >= 2 * k else 1 >= w * w * q ** (2 * k - n)
            real = mpmath.mpf(q) ** (mpmath.mpf(n) / 2 - k) >= w
            assert exact == real


def test_sieve_1normal_examples():
    assert sieve_1normal(CTX57) is True
    assert sieve_1normal(build_field(3, 1, 4)) is False
    with pytest.raises(ValueError):
        sieve_1normal(build_field(3, 1, 3))


def test_divisor_bound_examples():
    assert divisor_bound_check(factor_integer(3))
    assert divisor_bound_check(factor_integer(12))
    assert divisor_bound_check(factor_integer(720720))
    with pytest.raises(ValueError):
        divisor_bound_check(factor_integer(2))


def test_divisor_bound_scan_small():
    assert divisor_bound_scan(20000) == []


def test_power_of_two_bound():
    assert power_of_two_bound_check(3, 2)
    assert power_of_two_bound_check(5, 2)
    assert power_of_two_bound_check(3, 3)
    with pytest.raises(ValueError):
        power_of_two_bound_check(4, 2)
    with pytest.raises(ValueError):
        power_of_two_bound_check(3, 1)


def test_h_margin_420():
    hm = h_margin(420, 420)
    assert not hm.indeterminate
    assert hm.lo > 0.25  # the interval floor certifies the strict bound
    assert hm.hi - hm.lo < mpmath.mpf("1e-50")
    assert hm.k_max == 105


def test_import_leaves_mpmath_unloaded():
    src = str(Path(knormal.__file__).resolve().parents[1])
    code = "import sys; sys.path[:0] = sys.argv[1:]; import knormal; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"


def test_h_margin_small_field_clamps():
    hm = h_margin(5, 7)
    assert hm.lo < 0
    assert hm.k_max == 0
    with pytest.raises(ValueError):
        h_margin(2, 3)


def test_h_margin_monotone_spot():
    # increasing in either argument; certified when lo clears the other hi
    base = h_margin(420, 420)
    assert h_margin(420, 421).lo > base.hi
    assert h_margin(421, 420).lo > base.hi


def test_report_serialization():
    r = sieve_verdict(CTX57, 1)
    assert r.csv_row() == "5,7,1,4,4,True,6805403238816,305171875"
    text = r.to_text()
    assert text.splitlines()[0] == "sieve q=5 n=7 k=1"
    assert "verdict = True" in text
    assert SieveReport.CSV_HEADER.startswith("q,n,k,")
