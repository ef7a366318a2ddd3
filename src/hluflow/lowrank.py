"""Low-rank factor arithmetic and the dense kernels it leans on.

A rank-k block is stored as the factor pair (a, b) with value a @ b.T.
Additions go through the usual concatenate / thin-QR / small-SVD route and
discard singular values below a relative threshold, so every result carries
an explicit accuracy contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm


class SingularBlockError(ArithmeticError):
    """Raised when an unpivoted LU meets a pivot below the tolerance."""

    def __init__(self, message, block_path=""):
        super().__init__(message)
        self.block_path = block_path


@dataclass(frozen=True)
class TruncationControl:
    """Relative truncation tolerance plus an optional hard rank cap.

    Singular values sigma_i <= eps * sigma_1 are discarded; if ``kmax`` is
    set the rank never exceeds it regardless of the tolerance.
    """

    eps: float = 1e-8
    kmax: int | None = None

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.kmax is not None and self.kmax < 0:
            raise ValueError("kmax must be >= 0 if set")


class LowRank:
    """Factorized low-rank matrix a @ b.T with a: (m, k), b: (n, k)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = np.ascontiguousarray(a, dtype=float)
        b = np.ascontiguousarray(b, dtype=float)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
            raise ValueError("factors must be 2-d with matching column counts")
        self.a = a
        self.b = b

    @classmethod
    def zeros(cls, m, n):
        return cls(np.zeros((m, 0)), np.zeros((n, 0)))

    @property
    def k(self):
        return self.a.shape[1]

    @property
    def shape(self):
        return (self.a.shape[0], self.b.shape[0])

    def value(self):
        return self.a @ self.b.T

    def neg(self):
        return LowRank(-self.a, self.b)

    def copy(self):
        return LowRank(self.a.copy(), self.b.copy())

    def __repr__(self):
        m, n = self.shape
        return f"LowRank({m}x{n}, k={self.k})"


def _truncate_svd(u, s, vt, ctl: TruncationControl):
    if s.size == 0 or s[0] == 0.0:
        k = 0
    else:
        k = int(np.count_nonzero(s > ctl.eps * s[0]))
    if ctl.kmax is not None:
        k = min(k, ctl.kmax)
    return LowRank(u[:, :k] * s[:k], vt[:k, :].T)


def recompress(x: LowRank, ctl: TruncationControl) -> LowRank:
    """Reduce the rank of a factorized block to the truncation tolerance."""
    if x.k == 0:
        return x
    qa, ra = np.linalg.qr(x.a)
    qb, rb = np.linalg.qr(x.b)
    u, s, vt = np.linalg.svd(ra @ rb.T)
    core = _truncate_svd(u, s, vt, ctl)
    return LowRank(qa @ core.a, qb @ core.b)


def add_truncated(x1: LowRank, x2: LowRank, ctl: TruncationControl) -> LowRank:
    """Truncated sum of two low-rank blocks.

    The concatenated factors represent the exact sum with rank k1 + k2; the
    result keeps only singular values above eps * sigma_1 (and at most
    ``kmax``), so the error is bounded by eps times the spectral norm of the
    exact sum.  When the combined rank approaches the block size the sum is
    formed densely and recompressed instead.
    """
    if x1.shape != x2.shape:
        raise ValueError(f"shape mismatch: {x1.shape} vs {x2.shape}")
    if x2.k == 0:
        return x1
    if x1.k == 0:
        return x2
    m, n = x1.shape
    if x1.k + x2.k >= min(m, n) / 2:
        return compress_dense(x1.value() + x2.value(), ctl)
    a = np.hstack((x1.a, x2.a))
    b = np.hstack((x1.b, x2.b))
    return recompress(LowRank(a, b), ctl)


def compress_dense(d, ctl: TruncationControl) -> LowRank:
    """Convert a dense matrix into a truncated low-rank factorization."""
    d = np.asarray(d, dtype=float)
    u, s, vt = np.linalg.svd(d, full_matrices=False)
    return _truncate_svd(u, s, vt, ctl)


# -- dense kernels ----------------------------------------------------------

_LU_BASE = 48


def lu_nopivot(a, pivot_tol=None, block_path=""):
    """In-place unpivoted LU: a is overwritten with unit-lower L and U.

    The diagonal of L is implied.  Pivots with magnitude below ``pivot_tol``
    (default 1e-12 times the largest entry of the input) abort with
    SingularBlockError rather than producing garbage.  Blocked recursion
    keeps the bulk of the work in matrix-matrix products.
    """
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("LU requires a square block")
    if pivot_tol is None:
        amax = float(np.max(np.abs(a))) if n else 0.0
        pivot_tol = 1e-12 * amax

    def base(v):
        for j in range(v.shape[0] - 1):
            p = v[j, j]
            if abs(p) <= pivot_tol:
                raise SingularBlockError(
                    f"pivot {p:.3e} below tolerance {pivot_tol:.3e} in block {block_path or '<root>'}",
                    block_path,
                )
            v[j + 1 :, j] /= p
            v[j + 1 :, j + 1 :] -= np.outer(v[j + 1 :, j], v[j, j + 1 :])
        if v.shape[0] and abs(v[-1, -1]) <= pivot_tol:
            raise SingularBlockError(
                f"pivot {v[-1, -1]:.3e} below tolerance {pivot_tol:.3e} in block {block_path or '<root>'}",
                block_path,
            )

    def rec(v):
        m = v.shape[0]
        if m <= _LU_BASE:
            base(v)
            return
        h = m // 2
        a11 = v[:h, :h]
        a12 = v[:h, h:]
        a21 = v[h:, :h]
        a22 = v[h:, h:]
        rec(a11)
        trsm_lower_unit(a11, a12)
        trsm_upper_right(a11, a21)
        gemm_update(a22, a21, a12)
        rec(a22)

    rec(a)
    return a


def trsm_lower_unit(l, b):
    """b <- L^-1 b in place, L unit lower triangular (diagonal implied)."""
    b[:] = scipy.linalg.solve_triangular(
        l, b, lower=True, unit_diagonal=True, check_finite=False
    )
    return b


def trsm_upper_right(u, b):
    """b <- b U^-1 in place, U upper triangular."""
    b[:] = scipy.linalg.solve_triangular(
        u, b.T, lower=False, trans="T", check_finite=False
    ).T
    return b


def gemm_update(c, a, b):
    """c <- c - a @ b in place.

    When c is C- or Fortran-contiguous the update runs as one BLAS call on c
    (on the transposed views when c is C order, as c.T is Fortran order),
    avoiding the temporary product and an extra pass over c.
    """
    if a.dtype == b.dtype == c.dtype == np.float64:
        if c.flags.c_contiguous:
            dgemm(alpha=-1.0, a=b.T, b=a.T, beta=1.0, c=c.T, overwrite_c=True)
            return c
        if c.flags.f_contiguous:
            dgemm(alpha=-1.0, a=a, b=b, beta=1.0, c=c, overwrite_c=True)
            return c
    c -= a @ b
    return c
