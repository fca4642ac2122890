"""Acceptance suite: one test per criterion, in order, each printing a
single PASS/FAIL line (run with -s to watch them stream).

The census grid is every prime power q <= 9 and every n with q^n <= 10^6.
Per-field summaries (exact counts, primitive counts, criterion verdicts
and the per-divisor image counts behind them) are computed once and
shared across criteria; scans are dropped afterwards to bound memory.
"""

import hashlib
import random
import time

import numpy as np

from knormal.cli import main as cli_main
from knormal.conjecture import artin_schreier_check, primitive_roots
from knormal.ff import build_field, find_primitive, is_primitive
from knormal.intfactor import factor_integer
from knormal.normality import (
    associate_poly,
    brute_census,
    clear_scan,
    count_k_normals,
    enumerate_by_order,
    find_normal,
    fq_order,
    get_scan,
    phi_of_divisor,
    psi_poly,
    q_associate,
)
from knormal.polyring import FqPoly, all_divisors, divisors_of_degree, format_poly
from knormal.practical import is_fq_practical, is_phi_practical, practical_family_check
from knormal.sieve import (
    divisor_bound_scan,
    h_margin,
    power_of_two_bound_check,
    sieve_verdict,
)
from knormal.trace_lift import lift_by_trace, projection_check

from oracles import LogTables

PRIME_POWERS = ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3), (9, 3, 2))
CENSUS_LIMIT = 1_000_000
PSI_LIMIT = 10_000

_summaries: dict[tuple[int, int], dict] = {}


def grid_fields(limit=CENSUS_LIMIT):
    out = []
    for q, p, e in PRIME_POWERS:
        n = 1
        while q**n <= limit:
            out.append((q, p, e, n))
            n += 1
    return out


def field_summary(q, p, e, n):
    if (q, n) in _summaries:
        return _summaries[(q, n)]
    ctx = build_field(p, e, n)
    formula = [count_k_normals(ctx, k) for k in range(n + 1)]
    rec = brute_census(ctx)
    verdicts = []
    for k in range(1, n):
        r = sieve_verdict(ctx, k)
        entry = {
            "k": k,
            "verdict": r.verdict,
            "bound": r.nf_lower_bound,
            "prim_count": rec.primitive_counts[k],
            "nf": [],
        }
        if r.verdict:
            for f in divisors_of_degree(ctx.xn_minus_1(), k):
                entry["nf"].append(
                    (format_poly(f), brute_census(ctx, f).nf_preimages)
                )
        verdicts.append(entry)
    clear_scan(ctx)
    summary = {
        "formula": formula,
        "census": list(rec.counts),
        "prim": list(rec.primitive_counts),
        "verdicts": verdicts,
    }
    _summaries[(q, n)] = summary
    return summary


def _line(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:>2} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_paper_example(capsys):
    t0 = time.perf_counter()
    ctx = build_field(5, 1, 7)
    counts = [count_k_normals(ctx, k) for k in range(8)]
    code = cli_main(["count", "--q", "5", "--n", "7"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = (
        counts == [62496, 15624, 0, 0, 0, 0, 4, 1]
        and sum(counts) == 78125
        and code == 0
        and "2 0 0" in out
        and "total 78125" in out
        and elapsed < 1.0
    )
    with capsys.disabled():
        _line(1, "count at q=5 n=7", ok, f"{elapsed:.2f}s")


def test_criterion_02_counting_equivalence():
    t0 = time.perf_counter()
    bad = []
    for q, p, e, n in grid_fields():
        s = field_summary(q, p, e, n)
        if s["formula"] != s["census"]:
            bad.append((q, n))
    _line(
        2,
        "divisor-sum counts equal census on full grid",
        not bad,
        f"{len(grid_fields())} fields, {time.perf_counter() - t0:.0f}s",
    )


def test_criterion_03_construction_order():
    t0 = time.perf_counter()
    failures = 0
    total = 0
    for q, p, e, n in grid_fields():
        ctx = build_field(p, e, n)
        full = FqPoly.x_pow_minus_one(ctx.fq, n)
        divisors = all_divisors(ctx.xn_minus_1())
        rng = random.Random(q * 1000 + n)
        betas = [find_normal(ctx, seed=rng.randrange(1 << 30)) for _ in range(10)]
        for i in range(100):
            beta = betas[i % 10]
            f = rng.choice(divisors)
            alpha = q_associate(ctx, f, beta)
            if fq_order(ctx, alpha) != full // f:
                failures += 1
            total += 1
    _line(
        3,
        "composed-with-normal elements hit the exact order",
        failures == 0 and total == 100 * len(grid_fields()),
        f"{total} instances, {time.perf_counter() - t0:.0f}s",
    )


def test_criterion_04_order_polynomials():
    t0 = time.perf_counter()
    bad = []
    for q, p, e, n in grid_fields(PSI_LIMIT):
        ctx = build_field(p, e, n)
        scan = get_scan(ctx)
        tables = LogTables(ctx)
        divisors = all_divisors(ctx.xn_minus_1())
        psis = {}
        for f in divisors:
            psi = psi_poly(ctx, f, degree_cap=PSI_LIMIT)
            psis[f] = psi
            phi = phi_of_divisor(ctx, f)
            idx = np.nonzero(scan.order_code == scan.code_of_divisor(f))[0]
            if not psi.degree == phi == len(idx):
                bad.append((q, n, format_poly(f), "degree"))
            if f.is_one():
                if psi != FqPoly.x(ctx.fq):  # sole root is zero
                    bad.append((q, n, "1", "root"))
            elif not (tables.evaluate(psi, idx) == 0).all():
                bad.append((q, n, format_poly(f), "roots"))
        for f in divisors:
            prod = FqPoly.one(ctx.fq)
            for g in divisors:
                if not f % g:
                    prod = prod * psis[g]
            if prod != associate_poly(ctx, f):
                bad.append((q, n, format_poly(f), "product"))
        clear_scan(ctx)
    _line(
        4,
        "order polynomial degrees, roots and product identity",
        not bad,
        f"{len(grid_fields(PSI_LIMIT))} fields, {time.perf_counter() - t0:.0f}s" + (f"; bad={bad[:3]}" if bad else ""),
    )


def test_criterion_05_sieve_soundness():
    t0 = time.perf_counter()
    violations = []
    confirmed = 0
    for q, p, e, n in grid_fields():
        s = field_summary(q, p, e, n)
        for entry in s["verdicts"]:
            if not entry["verdict"]:
                continue
            confirmed += 1
            if entry["prim_count"] <= 0:
                violations.append((q, n, entry["k"], "no primitive k-normal"))
            for fname, nf in entry["nf"]:
                if entry["bound"] > 0 and not nf > entry["bound"]:
                    violations.append((q, n, entry["k"], fname))
    s57 = field_summary(5, 5, 1, 7)
    e571 = next(v for v in s57["verdicts"] if v["k"] == 1)
    ok = (
        not violations
        and e571["verdict"]
        and all(nf > 0 for _, nf in e571["nf"])
    )
    _line(
        5,
        "criterion verdicts are sound against the census",
        ok,
        f"{confirmed} confirmed (q,n,k), {time.perf_counter() - t0:.0f}s",
    )


def test_criterion_06_projection():
    t0 = time.perf_counter()
    c16 = build_field(2, 1, 4)
    c256 = build_field(2, 1, 8)
    c39 = build_field(3, 1, 9)
    checks = [
        projection_check(c16, 1, FqPoly.one(c16.fq)),
        projection_check(c16, 1, FqPoly(c16.fq, (1, 1))),
        projection_check(c256, 2, FqPoly.one(c256.fq)),
        projection_check(c256, 2, FqPoly(c256.fq, (1, 1))),
        projection_check(c256, 2, FqPoly(c256.fq, (1, 0, 1))),
        projection_check(c39, 1, FqPoly.one(c39.fq)),
        projection_check(c39, 1, FqPoly(c39.fq, (2, 1))),
    ]
    for ctx in (c16, c256, c39):
        clear_scan(ctx)
    elapsed = time.perf_counter() - t0
    _line(6, "trace projection equivalence by exhaustion", all(checks) and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_07_trace_lift():
    t0 = time.perf_counter()
    cases = [
        (build_field(2, 1, 4), 1, [FqPoly.one, lambda fq: FqPoly(fq, (1, 1))]),
        (
            build_field(2, 1, 8),
            2,
            [FqPoly.one, lambda fq: FqPoly(fq, (1, 1)), lambda fq: FqPoly(fq, (1, 0, 1))],
        ),
        (build_field(3, 1, 9), 1, [FqPoly.one, lambda fq: FqPoly(fq, (2, 1))]),
    ]
    ok = True
    for ctx, s, makers in cases:
        for mk in makers:
            f = mk(ctx.fq)
            alpha = lift_by_trace(ctx, s, f, seed=1)
            ok &= fq_order(ctx, alpha) == FqPoly.x_pow_minus_one(ctx.fq, ctx.n) // f
            ok &= is_primitive(ctx, alpha)
    _line(7, "lifted elements are primitive with exact order", ok, f"{time.perf_counter() - t0:.1f}s")


def test_criterion_08_bounds():
    t0 = time.perf_counter()
    violations = divisor_bound_scan(1_000_000)
    pow2_ok = all(
        power_of_two_bound_check(q, t) for q in (3, 5, 7, 9, 11) for t in (2, 3, 4)
    )
    hm = h_margin(420, 420)
    h_ok = (not hm.indeterminate) and hm.lo > 0.25
    _line(
        8,
        "divisor bound to 1e6, power-of-two bound grid, h(420,420) > 1/4",
        not violations and pow2_ok and h_ok,
        f"{time.perf_counter() - t0:.0f}s",
    )


def test_criterion_09_practical_numbers():
    t0 = time.perf_counter()
    ok = not is_fq_practical(5, 7)
    for n in range(1, 101):
        if is_phi_practical(n):
            for q in (2, 3, 4, 5, 7, 8, 9):
                if not is_fq_practical(q, n):
                    ok = False
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for n in range(1, 65):
            if practical_family_check(q, n) and not is_fq_practical(q, n):
                ok = False
    _line(9, "practical number implications", ok, f"{time.perf_counter() - t0:.0f}s")


def test_criterion_10_artin_schreier_family():
    t0 = time.perf_counter()
    ok = True
    rows = 0
    for p in (3, 5, 7, 11, 13):
        recs = artin_schreier_check(p)
        ok &= len(recs) == len(primitive_roots(p))
        for r in recs:
            ok &= r.status == "ok" and r.irreducible
            ok &= r.k_normality == p - 2
            ok &= r.primitive is True and r.order == p**p - 1
            rows += 1
    elapsed = time.perf_counter() - t0
    _line(10, "x^p - x - a roots primitive for p <= 13", ok and elapsed < 300, f"{rows} instances, {elapsed:.1f}s")


def test_criterion_11_survey_determinism(tmp_path):
    t0 = time.perf_counter()

    def run_into(path):
        for q, p, e in PRIME_POWERS:
            n_max = 1
            while q ** (n_max + 1) <= CENSUS_LIMIT:
                n_max += 1
            code = cli_main(
                ["survey", "--grid", f"q={q};n=1..{n_max};k=1..n-1", "--out", str(path)]
            )
            assert code == 0
        return hashlib.sha256(path.read_bytes()).hexdigest()

    h1 = run_into(tmp_path / "survey1.csv")
    h2 = run_into(tmp_path / "survey2.csv")
    rows = (tmp_path / "survey1.csv").read_text().count("\n")
    _line(
        11,
        "survey runs are byte-identical",
        h1 == h2,
        f"{rows} lines, {time.perf_counter() - t0:.0f}s",
    )
