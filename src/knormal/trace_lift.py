"""Order projection along the relative trace, and the lift construction.

For n = p^2 * s and f dividing x^s - 1, an element of F_{q^n} has order
(x^n - 1)/f exactly when its trace down to F_{q^(ps)} has order
(x^(ps) - 1)/f.  projection_check verifies that biconditional by
exhausting the top field.  lift_by_trace runs the equivalence in the
constructive direction: pick a subfield element beta of the projected
order, then search the trace fiber over beta for a primitive element; any
hit is a primitive k-normal with k = deg f.

The relative trace used everywhere is the p-term sum of q^(ps)-power
conjugates (n/(ps) = p of them).

Fiber sampling never rejects: with z0 a fixed element of nonzero trace
w0, every z maps to the kernel element z - (Tr(z)/w0) z0, because the
trace is linear over the subfield its values live in.
"""

from __future__ import annotations

import random

import numpy as np

from .cyclotomic import factor_xm_minus_1
from .errors import BudgetError, InternalCheckError
from .ff import (
    ENUMERATION_CAP,
    FFElement,
    FieldContext,
    is_primitive,
    trace_poly,
    trace_to_subfield,
)
from .intfactor import FactorCache
from .normality import fq_order, get_scan
from .polyring import FqPoly

LIFT_SAMPLE_BUDGET = 8192


def _check_shape(ctx: FieldContext, s: int) -> int:
    ps = ctx.p * s
    if ctx.n != ctx.p * ps:
        raise ValueError(f"need n = p^2*s, got n={ctx.n}, p={ctx.p}, s={s}")
    return ps


def _check_divides(f: FqPoly, m: int) -> FqPoly:
    target = FqPoly.x_pow_minus_one(f.fq, m)
    quot, rem = divmod(target, f)
    if rem:
        raise ValueError(f"{f!r} does not divide x^{m} - 1")
    return quot


def projection_check(ctx: FieldContext, s: int, f: FqPoly, threads: int = 1) -> bool:
    """Exhaustively verify the projection equivalence for one (q, s, f).

    True means: over every element of F_{q^n}, order = (x^n - 1)/f holds
    iff the trace image has order (x^(ps) - 1)/f inside F_{q^(ps)}.  A
    False is a reportable discrepancy, not an input error.
    """
    ps = _check_shape(ctx, s)
    _check_divides(f, s)
    top_target = _check_divides(f, ctx.n)
    sub_target = _check_divides(f, ps)
    sub_ann = factor_xm_minus_1(ctx.fq, ps)
    scan = get_scan(ctx, threads)
    want_top = scan.order_code == scan.code_of_divisor(top_target)

    tmat = scan.matrix_of_associate(trace_poly(ctx.fq, ctx.n, ps))
    betas, beta_of = np.unique(scan.image_indices(tmat, np.arange(scan.size)), return_inverse=True)
    beta_ok = np.array(
        [fq_order(ctx, ctx.from_index(int(b)), annihilator=sub_ann) == sub_target for b in betas]
    )
    return bool((want_top == beta_ok[beta_of]).all())


def lift_by_trace(
    ctx: FieldContext,
    s: int,
    f: FqPoly,
    seed: int = 0,
    cache: FactorCache | None = None,
    sample_budget: int = LIFT_SAMPLE_BUDGET,
) -> FFElement:
    """A primitive k-normal element of F_{q^n}, n = p^2*s, k = deg f.

    Finds beta in F_{q^(ps)} of order (x^(ps) - 1)/f by projecting random
    elements (exhaustive fallback inside the enumeration cap), then
    searches the fiber {a : Tr(a) = beta} for a primitive element.  The
    order postcondition is re-verified on the result; failing it is an
    internal error.  Exhausting the sampling budget without a primitive
    raises BudgetError, never a wrong element.
    """
    ps = _check_shape(ctx, s)
    _check_divides(f, s)
    top_target = _check_divides(f, ctx.n)
    sub_target = _check_divides(f, ps)
    sub_ann = factor_xm_minus_1(ctx.fq, ps)
    ctx.qn_minus_1(cache=cache)
    rng = random.Random(seed)

    beta = None
    for _ in range(sample_budget):
        z = ctx.random_element(rng)
        cand = trace_to_subfield(ctx, z, ps)
        if fq_order(ctx, cand, annihilator=sub_ann) == sub_target:
            beta = cand
            break
    if beta is None:
        if ctx.order <= ENUMERATION_CAP:
            for a in ctx.elements():
                cand = trace_to_subfield(ctx, a, ps)
                if fq_order(ctx, cand, annihilator=sub_ann) == sub_target:
                    beta = cand
                    break
        if beta is None:
            raise InternalCheckError("no subfield element of the projected order found")

    # one fixed element of nonzero trace gives a section and a kernel map
    z0 = None
    i = 1
    while z0 is None:
        cand = ctx.from_index(i)
        if not trace_to_subfield(ctx, cand, ps).is_zero():
            z0 = cand
        i += 1
    w0 = trace_to_subfield(ctx, z0, ps)
    w0_inv = w0.inverse()
    alpha0 = (beta * w0_inv) * z0

    def fiber_element(z: FFElement) -> FFElement:
        kernel = z - (trace_to_subfield(ctx, z, ps) * w0_inv) * z0
        return alpha0 + kernel

    for _ in range(sample_budget):
        alpha = fiber_element(ctx.random_element(rng))
        if is_primitive(ctx, alpha, cache=cache):
            return _verified(ctx, alpha, top_target, cache)
    if ctx.order <= ENUMERATION_CAP:
        fiber = sorted({ctx.index(fiber_element(z)) for z in ctx.elements()})
        for idx in fiber:
            alpha = ctx.from_index(idx)
            if is_primitive(ctx, alpha, cache=cache):
                return _verified(ctx, alpha, top_target, cache)
        raise BudgetError("fiber holds no primitive element")
    raise BudgetError("sampling budget exhausted before finding a primitive element")


def _verified(ctx, alpha, top_target, cache) -> FFElement:
    if fq_order(ctx, alpha) != top_target:
        raise InternalCheckError("lifted element has the wrong order")
    if not is_primitive(ctx, alpha, cache=cache):
        raise InternalCheckError("lifted element is not primitive")
    return alpha
