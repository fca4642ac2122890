"""The benchmark at a tiny size: every workload's outputs pass its checks,
and every check rejects a deliberately wrong answer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's src/ first on the import path
import tracing
import workloads
import knormal

HERE = Path(__file__).resolve().parent


def one_round(workload, seed=3):
    workload.setup(seed)
    ops = run.measure(workload, seed, 0, rounds=1)
    good, failed, correct = run.judge(workload, ops)
    assert (failed, correct, len(good)) == (0, True, len(ops))
    return ops


def test_survey_rejects_wrong_reports():
    w = workloads.Survey(grid=[(2, 6), (3, 4), (4, 5)])
    op = one_round(w)[0]
    reports = list(op.out)
    rep = reports[0]
    for wrong in (
        {"verdict": not rep.verdict},
        {"inequality_holds": not rep.inequality_holds},
        {"k_feasible": not rep.k_feasible},
        {"w_int": 2 * rep.w_int},
        {"w_poly": 2 * rep.w_poly},
    ):
        bad = tuple([dataclasses.replace(rep, **wrong)] + reports[1:])
        assert not w.check(op.inp, bad), wrong
    assert not w.check(op.inp, tuple(reports[:-1]))


def test_census_rejects_wrong_counts():
    w = workloads.Census(fields=[(2, 6), (3, 4), (5, 3)])
    op = one_round(w)[0]
    rec = op.out
    counts = list(rec.counts)
    counts[0] -= 1
    counts[1] += 1  # same total, wrong split
    prim = list(rec.primitive_counts)
    prim_shifted = [0] + prim[1:]
    prim_shifted[1] += prim[0]  # same total, no primitive normal element
    prim_more = prim[:]
    prim_more[-2] += 1
    for wrong in (
        {"counts": tuple(counts)},
        {"primitive_counts": tuple(prim_more)},
        {"primitive_counts": tuple(prim_shifted)},
    ):
        assert not w.check(op.inp, dataclasses.replace(rec, **wrong)), wrong


@pytest.mark.parametrize("field", [(2, 8), (5, 4), (4, 4)])
def test_search_rejects_wrong_elements(field):
    q, n = field
    w = workloads.Search(fields=[field])
    (op,) = one_round(w)
    key, k, i, _ = op.inp
    ctx = w.ctx[key]
    f = w.divisors[key][k][i]
    candidates = (ctx.from_index(j) for j in range(1, ctx.order))
    normal = [b for b in candidates if knormal.is_normal(ctx, b)]
    # a k-normal element that is not primitive, and a primitive one of index 0
    weak = next(a for a in (knormal.construct_k_normal(ctx, b, f) for b in normal) if not knormal.is_primitive(ctx, a))
    unnormal = next(b for b in normal if knormal.is_primitive(ctx, b))
    assert knormal.normality_index(ctx, weak) == k
    assert not w.check(op.inp, weak)
    assert not w.check(op.inp, unnormal)


def test_charpoly_rejects_wrong_polynomials():
    w = workloads.Charpoly(cases=[(2, 8, 1), (3, 4, 1), (4, 3, 1), (5, 3, 1)])
    for op in one_round(w):
        lam = op.out
        x = knormal.FqPoly.x(lam.fq)
        assert not w.check(op.inp, lam * x)  # extra root 0: degree check
        assert not w.check(op.inp, lam + knormal.FqPoly.one(lam.fq))  # vanishing check
        if lam.fq.p > 2:
            assert not w.check(op.inp, lam.scale(2))  # monic check


def test_known_faults_fail_without_making_the_run_incorrect():
    w = workloads.Census(fields=[(2, 5)])
    w.setup(1)
    good_op = run.measure(w, 1, 0, rounds=1)[0]
    wrong = dataclasses.replace(good_op.out, counts=(0,) + good_op.out.counts[1:])
    bad_op = run.Op(good_op.inp, wrong, 0.1, None)
    raised = run.Op(good_op.inp, None, 0.1, "OverflowError: boom")
    assert run.judge(w, [good_op, bad_op, raised])[1:] == (2, False)
    w.known_faults = frozenset({(2, 5)})
    assert run.judge(w, [good_op, bad_op, raised])[1:] == (2, True)


def test_ops_per_s_is_the_median_over_rounds():
    times = [(0.1, 0), (0.1, 0), (0.2, 1), (0.2, 1), (1.0, 2), (1.0, 2)]
    ops = [run.Op(i, i, s, None, r) for i, (s, r) in enumerate(times)]
    assert run.round_throughput(ops, ops) == pytest.approx(5.0)  # rounds at 10, 5 and 1 per second
    good = ops[:3] + ops[4:]  # one failure in round 1: 1 correct op in 0.4 s
    assert run.round_throughput(ops, good) == pytest.approx(2.5)


def test_full_workloads_have_a_tail_of_ten():
    for cls in workloads.WORKLOADS.values():
        w = cls()
        w.setup(0)
        per_round = len(w.round(0, 0)) - len(w.known_faults)
        assert w.min_rounds * per_round * (1 - w.tail_pct / 100) >= 10, w.name


def test_tracer_counts_and_restores():
    originals = (knormal.build_field, knormal.ff.build_field, knormal.polyring.FqPoly.__mul__, knormal.basefield.FqField.mul)
    tracer = tracing.Tracer()
    w = workloads.Survey(grid=[(4, 5)])
    w.setup(0)
    for install in (tracer.install_spans, tracer.install_counters):
        install()
        try:
            run.measure(w, 0, 0, rounds=1)
        finally:
            tracer.uninstall()
    after = (knormal.build_field, knormal.ff.build_field, knormal.polyring.FqPoly.__mul__, knormal.basefield.FqField.mul)
    assert after == originals
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["sieve.sieve_verdict.calls"][0] == 4
    assert metrics["cyclotomic.factor_xm_minus_1.calls"][0] == 1
    assert metrics["basefield.ops.calls"][0] > 0
    assert metrics["ff.build_field.s"][0] > 0


def test_benchmark_json_names_match():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.METRICS) + ["trace.overhead_pct"]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
