"""Write the exact outputs of a checkout as one JSON file.

    python3 scripts/exact_outputs.py CHECKOUT OUT.json

The package and perfbench/workloads.py are imported from CHECKOUT, so
the same script can be run against two checkouts and the two files
compared with cmp.  The file holds, for the 36 survey cells, h1, the top
modulus, the x^n - 1 factor list and every sieve verdict, each field
built from nothing; the top moduli of the 20 search fields; the x^n - 1
factor list of every search, census and charpoly field; a sha256 of
each Lambda_k of the charpoly round at seed 1; and, for the 21 census
fields at seed 1, the census counts, sha256 digests of the scan's order
codes, order degrees and primitive mask, and the n_f figures of
brute_census(ctx, f) for the last irreducible factor f of x^n - 1.  For
the order tests it holds the coefficients of every alpha of the search
round at seed 1, the multiplicative orders of 50 seeded random elements
of each search field, find_primitive of each census field at seed 1, and
the Artin-Schreier records of conjecture.DEFAULT_PRIMES.
"""

import dataclasses
import hashlib
import json
import random
import sys

import numpy as np


def main(root: str, out_path: str) -> None:
    sys.path[:0] = [root + "/src", root + "/perfbench"]
    import knormal
    import workloads

    def fresh_field(q, n):
        p, e = workloads.split_prime_power(q)
        knormal.ff.build_field.cache_clear()
        return knormal.build_field(p, e, n)

    def factor_list(fp):
        return [[list(f.coeffs), m] for f, m in fp.factors]

    def array_sha(arr):
        return hashlib.sha256(np.asarray(arr, dtype=np.int64).tobytes()).hexdigest()

    out = {
        "survey": {}, "search": {}, "xn_minus_1": {}, "charpoly": {}, "census": {},
        "search_alpha": [], "search_orders": {}, "census_primitive": {}, "artin_schreier": [],
    }
    for q, n in workloads.Survey.GRID:
        ctx = fresh_field(q, n)
        out["survey"][f"{q},{n}"] = {
            "h1": list(ctx.fq.modulus) if ctx.e > 1 else None,
            "top": list(ctx.top_modulus.coeffs),
            "xn_minus_1": factor_list(ctx.xn_minus_1()),
            "verdicts": [repr(dataclasses.astuple(knormal.sieve_verdict(ctx, k))) for k in range(1, n)],
        }
    for q, n in workloads.Search.FIELDS:
        out["search"][f"{q},{n}"] = list(fresh_field(q, n).top_modulus.coeffs)
    charpoly_fields = tuple((q, n) for q, n, _ in workloads.Charpoly.CASES)
    for q, n in workloads.Search.FIELDS + workloads.Census.FIELDS + charpoly_fields:
        fp = knormal.factor_xm_minus_1(fresh_field(q, 1).fq, n)
        out["xn_minus_1"][f"{q},{n}"] = factor_list(fp)
    charpoly = workloads.Charpoly()
    charpoly.setup(1)
    for case in charpoly.round(1, 0):
        digest = hashlib.sha256(repr(charpoly.run(case).coeffs).encode()).hexdigest()
        out["charpoly"][",".join(map(str, case))] = digest
    census = workloads.Census()
    census.setup(1)
    for key in census.fields:
        ctx = census.ctx[key]
        rec = census.run(key)
        scan = knormal.normality.get_scan(ctx)
        f = ctx.xn_minus_1().factors[-1][0]
        nf = knormal.brute_census(ctx, f)
        out["census"][",".join(map(str, key))] = {
            "counts": list(rec.counts),
            "primitive_counts": list(rec.primitive_counts),
            "order_code": array_sha(scan.order_code),
            "order_degree": array_sha(scan.order_degree),
            "is_primitive_mask": array_sha(scan.is_primitive_mask),
            "f": list(f.coeffs),
            "nf_preimages": nf.nf_preimages,
            "nf_distinct_images": nf.nf_distinct_images,
        }
        knormal.clear_scan(ctx)
    search = workloads.Search()
    search.setup(1)
    for inp in search.round(1, 0):
        out["search_alpha"].append([repr(inp), list(search.run(inp).coeffs)])
    for key, ctx in search.ctx.items():
        rng = random.Random(f"orders:{key}")
        elements = (ctx.random_element(rng) for _ in range(50))
        out["search_orders"][",".join(map(str, key))] = [
            knormal.multiplicative_order(ctx, a) if a else 0 for a in elements
        ]
    for key, ctx in census.ctx.items():
        out["census_primitive"][",".join(map(str, key))] = list(knormal.find_primitive(ctx).coeffs)
    for p in knormal.conjecture.DEFAULT_PRIMES:
        out["artin_schreier"] += [repr(rec) for rec in knormal.conjecture.artin_schreier_check(p)]
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
