"""Exact whole-field scans, vectorized over element indices.

Everything in F_{q^n} is F_p-linear once elements are flattened to their
e*n base-p digits, and the flat digit vector of an element is exactly the
base-p digit vector of its enumeration index.  The maps this package scans
with (x -> x^(q^i), multiplication by a fixed element, any L_f) are all
F_p-linear, so applying one to every element at once is an integer matrix
product mod p on row chunks.  No floating point is involved anywhere.
Chunks take their integer width from ff.exact_dtype with the bound
e*n*(p-1)^2 of one row @ matrix product (see the ff module docstring).

A FieldScan computes, for every element of a field within the enumeration
cap:

  * the exact factor-exponent code of its F_q-order (one vanishing test
    per candidate exponent, each a matrix product), hence its normality;
  * its discrete log against a deterministically chosen generator, hence
    its multiplicative order and primitivity.

Scans process contiguous index ranges and merge by summation, so results
are independent of chunking and thread schedule.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import BudgetError, InternalCheckError
from .ff import ENUMERATION_CAP, FieldContext, exact_dtype, find_primitive
from .polyring import FqPoly

_CHUNK = 1 << 15


class FieldScan:
    """Per-element order codes, degrees and discrete logs for one field."""

    def __init__(self, ctx: FieldContext, threads: int = 1):
        if ctx.order > ENUMERATION_CAP:
            raise BudgetError(
                f"field of size {ctx.order} exceeds the enumeration cap {ENUMERATION_CAP}"
            )
        self.ctx = ctx
        self.p = ctx.p
        self.en = ctx.flat_dim
        self.size = ctx.order
        self.ppow = self.p ** np.arange(self.en, dtype=np.int64)  # index = digits @ ppow
        self.dtype = exact_dtype(self.en * (self.p - 1) ** 2)
        self._build_order_codes(threads)
        self._build_logs()

    def matrix_of_associate(self, f: FqPoly) -> np.ndarray:
        """Matrix of a -> L_f(a), in the chunk-product dtype."""
        return self.ctx.associate_matrix(f).astype(self.dtype)

    def digit_rows(self, indices: np.ndarray) -> np.ndarray:
        """Flat digit rows of the elements at the given indices."""
        return (indices[:, None] // self.ppow % self.p).astype(self.dtype)

    def image_indices(self, mat: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Indices of the images of the elements at `indices` under mat."""
        return (self.digit_rows(indices) @ mat % self.p).astype(np.int64) @ self.ppow

    # -- order codes ---------------------------------------------------------

    def _build_order_codes(self, threads: int) -> None:
        ctx = self.ctx
        fp = ctx.xn_minus_1()
        full = fp.product()
        tests = []  # (factor position, matrix of L_{(x^n-1)/P^(m-c)}) for c ascending
        for pos, (P, m) in enumerate(fp.factors):
            g = full
            for _ in range(m):
                g = g // P
            # g = full / P^m; walking c = 0..m-1 multiplies P back in
            for c in range(m):
                tests.append((pos, self.matrix_of_associate(g)))
                g = g * P
        self.factor_mults = tuple(m for _, m in fp.factors)
        strides = []
        s = 1
        for m in self.factor_mults:
            strides.append(s)
            s *= m + 1
        self.code_strides = tuple(strides)
        factor_degs = tuple(P.degree for P, _ in fp.factors)

        vanish_counts = np.zeros((len(fp.factors), self.size), dtype=exact_dtype(ctx.n))

        def run_chunk(lo: int) -> None:
            hi = min(lo + _CHUNK, self.size)
            rows = self.digit_rows(np.arange(lo, hi, dtype=np.int64))
            for pos, mat in tests:
                vanish = ((rows @ mat) % self.p == 0).all(axis=1)
                vanish_counts[pos, lo:hi] += vanish

        starts = range(0, self.size, _CHUNK)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(run_chunk, starts))
        else:
            for lo in starts:
                run_chunk(lo)

        # monotone vanishing: exponent of P in the order is mult - #vanishing c's
        code = np.zeros(self.size, dtype=exact_dtype(s - 1))
        degree = np.zeros(self.size, dtype=exact_dtype(ctx.n))
        for pos, m in enumerate(self.factor_mults):
            exp = m - vanish_counts[pos]
            code += exp.astype(code.dtype) * self.code_strides[pos]
            degree += exp * factor_degs[pos]
        self.order_code = code
        self.order_degree = degree

    def code_of_divisor(self, f: FqPoly) -> int:
        """Order code of a monic divisor of x^n - 1."""
        fp = self.ctx.xn_minus_1()
        code = 0
        rem = f
        for pos, (P, m) in enumerate(fp.factors):
            exp = 0
            while exp < m:
                quot, r = divmod(rem, P)
                if r:
                    break
                rem = quot
                exp += 1
            code += exp * self.code_strides[pos]
        if rem.degree != 0:
            raise ValueError(f"{f!r} does not divide x^n - 1")
        return code

    # -- discrete logs -------------------------------------------------------

    def _build_logs(self) -> None:
        ctx = self.ctx
        N = self.size - 1
        self.group_order = N
        log = np.full(self.size, -1, dtype=np.int32)
        exp = np.empty(N, dtype=np.int32)
        gamma = find_primitive(ctx)
        G = ctx.linear_matrix(lambda a: a * gamma).astype(self.dtype)
        B = max(1, math.isqrt(N - 1) + 1) if N > 1 else 1
        rows = np.empty((min(B, N), self.en), dtype=self.dtype)
        r = ctx.flat_digits(ctx.one()).astype(self.dtype)
        for j in range(rows.shape[0]):
            rows[j] = r
            r = r @ G % self.p
        H = np.eye(self.en, dtype=self.dtype)
        step, base = G, B
        while base:
            if base & 1:
                H = H @ step % self.p
            step = step @ step % self.p
            base >>= 1
        j0 = 0
        while j0 < N:
            take = min(B, N - j0)
            idx = rows[:take] @ self.ppow
            log[idx] = np.arange(j0, j0 + take)
            exp[j0 : j0 + take] = idx
            j0 += take
            if j0 < N:
                rows = rows @ H % self.p
        if int((log >= 0).sum()) != N:
            raise InternalCheckError("discrete log table incomplete; generator not primitive?")
        self.log = log
        self.exp = exp
        self.is_primitive_mask = (log >= 0) & (np.gcd(log, N if N else 1) == 1)

    # -- bulk polynomial evaluation -------------------------------------------

    def eval_poly_at(self, f: FqPoly, indices: np.ndarray) -> np.ndarray:
        """Value indices of f (coefficients in F_q) at nonzero element indices."""
        if (indices == 0).any():
            raise ValueError("evaluation points must be nonzero")
        N = self.group_order
        loga = self.log[indices].astype(np.int64)
        acc = np.zeros((len(indices), self.en), dtype=exact_dtype(len(f.coeffs) * (self.p - 1)))
        for i, c in enumerate(f.coeffs):
            if c == 0:
                continue
            # scalar c embeds at element index c, so log[c] is its log
            term_idx = self.exp[(int(self.log[c]) + i * loga) % N].astype(np.int64)
            acc += (term_idx[:, None] // self.ppow[None, :]) % self.p
        return (acc % self.p) @ self.ppow
