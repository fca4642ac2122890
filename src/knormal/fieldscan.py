"""Exact whole-field scans, vectorized over element indices.

The flat digit vector of an element (its e*n base-p digits) is the base-p
digit vector of its enumeration index, and every map scanned here
(multiplication by a fixed element, any L_f) is an F_p-linear matrix M.
Each is applied through two half-digit tables, the table trick of the
"method of four Russians" (Arlazarov, Dinic, Kronrod and Faradzev, 1970):
with k = floor(e*n/2) and i = a + p^k b, the image digits of index i are
lo[a] + hi[b] mod p, where lo = (digits of 0..p^k - 1) @ M[:k] and
hi = (digits of 0..p^(e*n-k) - 1) @ M[k:], both reduced mod p.  A table
entry is bound by e*n*(p-1)^2 and an image digit by 2(p-1) before its
reduction (widths from ff.exact_dtype); no floating point is involved.

A FieldScan computes, for every element of a field within the enumeration
cap, the exact factor-exponent code of its F_q-order (hence its
normality) and whether it is primitive.

The order code comes from vanishing tests.  For each factor P^m of
x^n - 1 and c = 0..m-1, test (P, m, c) asks whether L_g kills the element,
g = (x^n - 1)/P^(m-c); the exponent of P in the order is the number of
P-tests that do not vanish.  A row kills every column of L_g's matrix
exactly when it kills an F_p basis of those columns, so each test keeps
only its pivot columns.  As an F_q[x]-module F_{q^n} is F_q[x]/(x^n - 1)
(the normal basis theorem), so the image of L_g is g F_q[x]/(x^n - 1), of
dimension (m-c) deg P over F_q, and test (P, m, c) has rank e (m-c) deg P;
a pivot search that finds another count raises InternalCheckError.  The
kept columns of all tests are stacked into one matrix for the tables.
Test t vanishes on a + p^k b exactly when its block of lo[a] equals its
block of -hi[b] mod p; read as a base-p number, each block is one key
below p^rank <= q^n <= ENUMERATION_CAP.  So a chunk of consecutive high
digit values is one broadcast comparison of low keys with high keys.

The powers of a generator gamma come by doubling: the indices of
gamma^s .. gamma^(2s-1) are the images of those of gamma^0 .. gamma^(s-1)
under multiplication by gamma^s.  They must be q^n - 1 distinct nonzero
indices, else InternalCheckError.  gamma^j is primitive exactly when
gcd(j, q^n - 1) = 1, so the primitive mask is a sieve over the exponents.

Scans process contiguous index ranges and write disjoint slices, so
results are independent of chunking and thread schedule.
"""

from __future__ import annotations

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
    """Per-element order codes, degrees, generator powers and primitivity."""

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
        self._sum_dtype = exact_dtype(2 * (self.p - 1))
        self._red = (np.arange(2 * self.p - 1) % self.p).astype(self._sum_dtype)  # sum mod p
        self._index_dtype = exact_dtype(self.size - 1)
        k = self.en // 2
        self._half_digits = tuple(
            (np.arange(self.p**m)[:, None] // self.ppow[:m] % self.p).astype(self.dtype)
            for m in (k, self.en - k)
        )
        self._build_order_codes(threads)
        self._build_powers()

    def matrix_of_associate(self, f: FqPoly) -> np.ndarray:
        """Matrix of a -> L_f(a), in the table-product dtype."""
        return self.ctx.associate_matrix(f).astype(self.dtype)

    def _half_tables(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lo, hi with the image digits of index i under mat equal to
        (lo[i mod p^k] + hi[i div p^k]) mod p (see the module docstring)."""
        low, high = self._half_digits
        k = low.shape[1]
        return tuple(
            (digits @ rows % self.p).astype(self._sum_dtype)
            for digits, rows in ((low, mat[:k]), (high, mat[k:]))
        )

    def image_indices(self, mat: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Indices of the images of the elements at `indices` under mat."""
        lo, hi = self._half_tables(mat)
        out = np.empty(len(indices), dtype=self._index_dtype)
        for c in range(0, len(indices), _CHUNK):
            b, a = np.divmod(indices[c : c + _CHUNK], len(lo))
            rows = np.take(lo, a, axis=0) + np.take(hi, b, axis=0)
            out[c : c + _CHUNK] = np.take(self._red, rows) @ self.ppow
        return out

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
        blocks, offsets, colpow, test_strides, test_degs = [], [], [], [], []
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
                colpow.append(self.ppow[:rank])
                width += rank
                test_strides.append(stride)
                test_degs.append(P.degree)
                g = g * P
        lo, hi = self._half_tables(np.concatenate(blocks, axis=1))
        colpow = np.concatenate(colpow)

        def keys(table: np.ndarray) -> np.ndarray:
            # a key is below p^rank <= q^n, so it has the width of an index
            return np.add.reduceat(table * colpow, offsets, axis=1).astype(self._index_dtype)

        # test t vanishes on a + p^k b iff klo[a, t] == khi[b, t]
        klo, khi = keys(lo), keys((-hi) % self.p)
        # test (P, m, c) vanishes iff P's exponent in the order is at most c,
        # so that exponent is the number of P-tests that do not vanish, and
        # the code and the degree are sums over the tests that do not vanish
        code = np.zeros(self.size, dtype=exact_dtype(s - 1))
        degree = np.zeros(self.size, dtype=exact_dtype(ctx.n))
        test_strides = np.array(test_strides, dtype=code.dtype)
        test_degs = np.array(test_degs, dtype=degree.dtype)
        L, tests = klo.shape
        per = max(1, _CHUNK // L)  # high digit values per chunk

        def run_chunk(b0: int) -> None:
            b1 = min(b0 + per, len(khi))
            alive = (klo != khi[b0:b1, None]).reshape(-1, tests)
            code[b0 * L : b1 * L] = alive @ test_strides
            degree[b0 * L : b1 * L] = alive @ test_degs

        starts = range(0, len(khi), per)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(run_chunk, starts))
        else:
            for b0 in starts:
                run_chunk(b0)
        self.order_code = code
        self.order_degree = degree

    def code_of_divisor(self, f: FqPoly) -> int:
        """Order code of a monic divisor of x^n - 1."""
        exps = self.ctx.xn_minus_1().exponents(f)
        return sum(e * s for e, s in zip(exps, self.code_strides))

    # -- generator powers and primitivity -------------------------------------

    def _build_powers(self) -> None:
        ctx = self.ctx
        N = self.size - 1
        gamma = find_primitive(ctx)
        step = ctx.linear_matrix(lambda a: a * gamma).astype(self.dtype)
        exp = np.empty(N, dtype=self._index_dtype)  # exp[j] = index of gamma^j
        exp[0] = 1
        s = 1
        while s < N:  # step is the matrix of multiplication by gamma^s
            t = min(s, N - s)
            exp[s : s + t] = self.image_indices(step, exp[:t])
            s += t
            step = step @ step % self.p
        seen = np.zeros(self.size, dtype=bool)
        seen[exp] = True
        if seen[0] or int(seen.sum()) != N:
            raise InternalCheckError("generator powers miss a nonzero element; generator not primitive?")
        coprime = np.ones(N, dtype=bool)
        for r, _ in ctx.qn_minus_1().factors:
            coprime[::r] = False
        mask = np.zeros(self.size, dtype=bool)
        mask[exp[coprime]] = True
        self.exp = exp
        self.is_primitive_mask = mask
