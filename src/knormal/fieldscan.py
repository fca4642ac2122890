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

  * the exact factor-exponent code of its F_q-order, hence its normality;
  * its discrete log against a deterministically chosen generator, hence
    its multiplicative order and primitivity.

The order code comes from vanishing tests.  For each factor P^m of
x^n - 1 and c = 0..m-1, test (P, m, c) asks whether L_g kills the element,
g = (x^n - 1)/P^(m-c); the exponent of P in the order is the number of
P-tests that do not vanish.  A row kills every column of L_g's matrix
exactly when it kills an F_p basis of those columns, so each test keeps
only its pivot columns.  As an F_q[x]-module F_{q^n} is F_q[x]/(x^n - 1)
(the normal basis theorem), so the image of L_g is g F_q[x]/(x^n - 1), of
dimension (m-c) deg P over F_q, and test (P, m, c) has rank e (m-c) deg P;
a pivot search that finds another count raises InternalCheckError.
All kept columns are stacked into one matrix of e * sum_P deg P * m(m+1)/2
columns (e*n when x^n - 1 is squarefree), so each chunk is one
row @ stacked product, reduced mod p in place, and one
logical_or.reduceat over the block offsets gives every test's verdict.
Every stacked column is a column of a test matrix, so the width bound
stays e*n*(p-1)^2.  A chunk has as many rows as keep its product at most
_CHUNK * e*n entries, the size of a full-rank test's product on _CHUNK
rows, so stacking adds no memory.

Scans process contiguous index ranges and write disjoint slices, so
results are independent of chunking and thread schedule.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import BudgetError, InternalCheckError
from .ff import ENUMERATION_CAP, FieldContext, exact_dtype, find_primitive
from .polyring import FqPoly

_CHUNK = 1 << 15


def _basis_columns(mat: np.ndarray, p: int) -> list[int]:
    """Indices of columns of mat that form an F_p basis of its column space:
    the pivot columns of its row echelon form mod p."""
    a = mat.astype(exact_dtype((p - 1) ** 2)) % p
    pivots = []
    r = 0
    for col in range(a.shape[1]):
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, col]), -1, p) % p
        a[r + 1 :] = (a[r + 1 :] - a[r + 1 :, col, None] * a[r]) % p
        pivots.append(col)
        r += 1
    return pivots


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
        full = FqPoly.x_pow_minus_one(ctx.fq, ctx.n)
        strides = []
        s = 1
        for _, m in fp.factors:
            strides.append(s)
            s *= m + 1
        self.code_strides = tuple(strides)

        # Test (P, m, c), c = 0..m-1, keeps the pivot columns of the matrix
        # of L_{(x^n-1)/P^(m-c)}; their count is the rank the module
        # structure fixes (see the module docstring).
        blocks, offsets, test_strides, test_degs = [], [], [], []
        width = 0
        for (P, m), stride in zip(fp.factors, strides):
            g = full
            for _ in range(m):
                g = g // P
            for c in range(m):
                mat = self.matrix_of_associate(g)
                cols = _basis_columns(mat, self.p)
                rank = ctx.e * (m - c) * P.degree
                if len(cols) != rank:
                    raise InternalCheckError(
                        f"test matrix of rank {len(cols)}, image dimension {rank}"
                    )
                blocks.append(mat[:, cols])
                offsets.append(width)
                width += rank
                test_strides.append(stride)
                test_degs.append(P.degree)
                g = g * P
        stacked = np.concatenate(blocks, axis=1)
        offsets = np.array(offsets)
        # test (P, m, c) vanishes iff P's exponent in the order is at most c,
        # so that exponent is the number of P-tests that do not vanish, and
        # the code and the degree are sums over the tests that do not vanish
        code = np.zeros(self.size, dtype=exact_dtype(s - 1))
        degree = np.zeros(self.size, dtype=exact_dtype(ctx.n))
        test_strides = np.array(test_strides, dtype=code.dtype)
        test_degs = np.array(test_degs, dtype=degree.dtype)
        chunk = max(1, _CHUNK * self.en // width)

        def run_chunk(lo: int) -> None:
            hi = min(lo + chunk, self.size)
            prod = self.digit_rows(np.arange(lo, hi, dtype=np.int64)) @ stacked
            np.remainder(prod, self.p, out=prod)
            alive = np.logical_or.reduceat(prod, offsets, axis=1)
            code[lo:hi] = alive @ test_strides
            degree[lo:hi] = alive @ test_degs

        starts = range(0, self.size, chunk)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(run_chunk, starts))
        else:
            for lo in starts:
                run_chunk(lo)
        self.order_code = code
        self.order_degree = degree

    def code_of_divisor(self, f: FqPoly) -> int:
        """Order code of a monic divisor of x^n - 1."""
        exps = self.ctx.xn_minus_1().exponents(f)
        return sum(e * s for e, s in zip(exps, self.code_strides))

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
