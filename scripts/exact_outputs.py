"""Write the exact outputs of a checkout as one JSON file.

    python3 scripts/exact_outputs.py CHECKOUT OUT.json

The package and perfbench/workloads.py are imported from CHECKOUT, so
the same script can be run against two checkouts and the two files
compared with cmp.  The file holds, for the 36 survey cells, h1, the top
modulus, the x^n - 1 factor list and every sieve verdict, each field
built from nothing; the top moduli of the 20 search fields; the x^n - 1
factor list of every search, census and charpoly field; and a sha256 of
each Lambda_k of the charpoly round at seed 1.
"""

import dataclasses
import hashlib
import json
import sys


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

    out = {"survey": {}, "search": {}, "xn_minus_1": {}, "charpoly": {}}
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
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
