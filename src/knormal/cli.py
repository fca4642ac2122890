"""Command line front end.

Every value printed is exact: integers, rationals as num/den, polynomials
in coefficient text form.  Reals appear only in the h-margin output,
always as both interval endpoints.

Exit codes: 0 success, 2 input error, 3 budget exceeded, 4 internal
consistency failure.  Errors are a single line on stderr of the form
``error: <kind>: <message>``.

The factorization cache path comes from the KNORMAL_FACTOR_CACHE
environment variable or the --cache option.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import (
    BudgetError,
    FactorCache,
    InternalCheckError,
    artin_schreier_check,
    brute_census,
    build_field,
    construct_k_normal,
    count_k_normals,
    factor_integer,
    find_normal,
    fq_order,
    is_fq_practical,
    is_phi_practical,
    is_primitive,
    lift_by_trace,
    multiplicative_order,
    normality_index,
    parse_poly,
    sieve_verdict,
)
from .ff import ENUMERATION_CAP, FieldContext
from .polyring import format_poly
from .sieve import SieveReport

CACHE_ENV = "KNORMAL_FACTOR_CACHE"


def _context(q: int, n: int) -> FieldContext:
    fi = factor_integer(q)
    if len(fi.factors) != 1:
        raise ValueError(f"q={q} is not a prime power")
    p, e = fi.factors[0]
    return build_field(p, e, n)


def _cache(args) -> FactorCache | None:
    path = args.cache or os.environ.get(CACHE_ENV)
    return FactorCache(path) if path else None


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


# -- subcommand bodies -------------------------------------------------------


def cmd_factor_xn(args) -> int:
    ctx = _context(args.q, args.n)
    fp = ctx.xn_minus_1()
    print(f"xn_minus_1 q={args.q} n={args.n}")
    for f, m in fp.factors:
        print(f"({format_poly(f)})^{m}")
    return 0


def cmd_count(args) -> int:
    ctx = _context(args.q, args.n)
    ks = [args.k] if args.k is not None else list(range(args.n + 1))
    census = None
    if ctx.order <= ENUMERATION_CAP:
        census = brute_census(ctx, threads=args.threads)
    if args.csv:
        print("k,N_k,census")
    else:
        print(f"count q={args.q} n={args.n}")
        print("k N_k census")
    total = 0
    for k in ks:
        nk = count_k_normals(ctx, k)
        total += nk
        c = str(census.counts[k]) if census is not None else "-"
        sep = "," if args.csv else " "
        print(sep.join((str(k), str(nk), c)))
    if args.k is None and not args.csv:
        print(f"total {total} (q^n = {ctx.order})")
    return 0


def cmd_order(args) -> int:
    ctx = _context(args.q, args.n)
    coeffs = _parse_int_list(args.element)
    a = ctx.element(coeffs)
    m = fq_order(ctx, a)
    print(f"order q={args.q} n={args.n} element={args.element}")
    print(f"m = {format_poly(m)}")
    print(f"k = {ctx.n - m.degree}")
    print(f"primitive = {is_primitive(ctx, a, cache=_cache(args))}")
    return 0


def cmd_construct(args) -> int:
    ctx = _context(args.q, args.n)
    f = parse_poly(ctx.fq, args.f)
    beta = find_normal(ctx, seed=args.seed)
    alpha = construct_k_normal(ctx, beta, f)
    print(f"construct q={args.q} n={args.n} f={format_poly(f)} seed={args.seed}")
    print(f"alpha = {alpha!r}")
    print(f"m = {format_poly(fq_order(ctx, alpha))}")
    print(f"k = {normality_index(ctx, alpha)}")
    return 0


def cmd_sieve(args) -> int:
    if (args.k is None) == (not args.all_k):
        raise ValueError("give exactly one of --k or --all-k")
    ctx = _context(args.q, args.n)
    ks = range(1, args.n) if args.all_k else [args.k]
    if args.csv:
        print(SieveReport.CSV_HEADER)
    cache = _cache(args)
    for k in ks:
        report = sieve_verdict(ctx, k, cache=cache)
        if args.csv:
            print(report.csv_row())
        else:
            sys.stdout.write(report.to_text())
    return 0


def cmd_practical(args) -> int:
    qs = _parse_int_list(args.q_list)
    header = "n,phi_practical," + ",".join(f"fq_practical_{q}" for q in qs)
    print(header)
    for n in range(1, args.n_max + 1):
        cells = [str(n), str(is_phi_practical(n))]
        cells += [str(is_fq_practical(q, n)) for q in qs]
        print(",".join(cells))
    return 0


def cmd_lift(args) -> int:
    fi = factor_integer(args.q)
    if len(fi.factors) != 1:
        raise ValueError(f"q={args.q} is not a prime power")
    p = fi.factors[0][0]
    if args.p != p:
        raise ValueError(f"--p {args.p} does not match the characteristic of q={args.q}")
    n = p * p * args.s
    ctx = _context(args.q, n)
    f = parse_poly(ctx.fq, args.f)
    alpha = lift_by_trace(ctx, args.s, f, seed=args.seed, cache=_cache(args))
    print(f"lift q={args.q} p={p} s={args.s} f={format_poly(f)} seed={args.seed}")
    print(f"alpha = {alpha!r}")
    print(f"m = {format_poly(fq_order(ctx, alpha))}")
    print(f"order = {multiplicative_order(ctx, alpha, cache=_cache(args))}")
    return 0


def cmd_conjecture(args) -> int:
    from .intfactor import small_primes

    print("p,a,irreducible,k_normality,primitive,order_factors")
    cache = _cache(args)
    for p in small_primes():
        if p < 3:
            continue
        if p > args.p_max:
            break
        for rec in artin_schreier_check(p, cache=cache):
            print(rec.row() + ("" if rec.status == "ok" else ",untested"))
    return 0


# -- survey ------------------------------------------------------------------


def parse_grid(spec: str) -> tuple[list[int], list[int], str]:
    """Parse ``q=A..B;n=C..D;k=E..F`` (F may be the literal n-1)."""
    fields: dict[str, str] = {}
    for part in spec.split(";"):
        if "=" not in part:
            raise ValueError(f"malformed grid segment {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in ("q", "n", "k") or key in fields:
            raise ValueError(f"grid needs each of q, n, k exactly once; got {key!r}")
        fields[key] = val.strip()
    if set(fields) != {"q", "n", "k"}:
        raise ValueError("grid needs q, n and k ranges")

    def span(text: str, what: str) -> list[int]:
        lo, sep, hi = text.partition("..")
        if not sep:
            lo = hi = text
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad {what} range {text!r}") from None
        if lo_i < 1 or hi_i < lo_i:
            raise ValueError(f"bad {what} range {text!r}")
        return list(range(lo_i, hi_i + 1))

    qs = [q for q in span(fields["q"], "q") if len(factor_integer(q).factors) == 1]
    ns = span(fields["n"], "n")
    return qs, ns, fields["k"]


def _k_values(kspec: str, n: int) -> list[int]:
    lo, sep, hi = kspec.partition("..")
    if not sep:
        lo = hi = kspec
    lo_i = int(lo)
    hi_i = n - 1 if hi.strip() == "n-1" else int(hi)
    return [k for k in range(lo_i, hi_i + 1) if 1 <= k <= n - 1]


def _survey_keys(path: str) -> set[tuple[int, int, int]]:
    keys = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("q,"):
                    continue
                parts = line.split(",")
                keys.add((int(parts[0]), int(parts[1]), int(parts[2])))
    except FileNotFoundError:
        pass
    return keys


def cmd_survey(args) -> int:
    qs, ns, kspec = parse_grid(args.grid)
    done = _survey_keys(args.out)
    todo = []
    for q in qs:
        for n in ns:
            for k in _k_values(kspec, n):
                if (q, n, k) not in done:
                    todo.append((q, n, k))
    cache = _cache(args)
    new_file = not os.path.exists(args.out) or os.path.getsize(args.out) == 0
    with open(args.out, "a", encoding="utf-8") as fh:
        if new_file:
            fh.write(SieveReport.CSV_HEADER + "\n")
            fh.flush()
        for q, n, k in todo:
            fh.write(sieve_verdict(_context(q, n), k, cache=cache).csv_row() + "\n")
            fh.flush()
    print(f"survey: {len(todo)} new rows, {len(done)} already present, out={args.out}")
    return 0


# -- argument wiring -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="knormal", description=__doc__)
    top.add_argument("--cache", default=None, help="factorization cache file path")
    top.add_argument("--threads", type=int, default=1, help="worker threads for scans")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("factor-xn", cmd_factor_xn, help="factor x^n - 1 over F_q")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add("count", cmd_count, help="k-normal counts, with census cross-check")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--csv", action="store_true")

    sp = add("order", cmd_order, help="order polynomial of one element")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--element", required=True, help="comma separated coordinates")

    sp = add("construct", cmd_construct, help="build a k-normal from a normal element")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--f", required=True, help="divisor of x^n - 1 (text or [list] form)")
    sp.add_argument("--seed", type=int, default=0)

    sp = add("sieve", cmd_sieve, help="existence criterion reports")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--all-k", action="store_true")
    sp.add_argument("--csv", action="store_true")

    practical = sub.add_parser("practical", help="practical number scans")
    psub = practical.add_subparsers(dest="practical_command", required=True)
    sp = psub.add_parser("scan")
    sp.set_defaults(fn=cmd_practical)
    sp.add_argument("--q-list", required=True, help="comma separated prime powers")
    sp.add_argument("--n-max", type=int, required=True)

    sp = add("lift", cmd_lift, help="primitive k-normal via trace lifting (n = p^2 s)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--f", required=True, help="divisor of x^s - 1")
    sp.add_argument("--seed", type=int, default=0)

    sp = add("conjecture", cmd_conjecture, help="x^p - x - a primitivity table")
    sp.add_argument("--p-max", type=int, required=True)

    sp = add("survey", cmd_survey, help="sweep a (q,n,k) grid into a CSV file")
    sp.add_argument("--grid", required=True, help="for example q=2..9;n=2..12;k=1..n-1")
    sp.add_argument("--out", required=True)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return 3
    except (InternalCheckError, AssertionError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
