"""Low-rank factor arithmetic and the dense kernels it leans on.

A rank-k block is stored as the factor pair (a, b) with value a @ b.T.
Additions go through the usual concatenate / thin-QR / small-SVD route and
discard singular values below a relative threshold, so every result carries
an explicit accuracy contract.
"""

from __future__ import annotations

import ctypes
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg


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
        if not 0 <= self.eps < float("inf"):
            raise ValueError("eps must be finite and >= 0")
        k = self.kmax
        if k is not None and (isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0):
            raise ValueError(f"kmax must be an integer >= 0 if set, got {k!r}")


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

    def copy(self):
        return LowRank(self.a.copy(), self.b.copy())

    def __repr__(self):
        m, n = self.shape
        return f"LowRank({m}x{n}, k={self.k})"


def _kept_rank(s, ctl: TruncationControl):
    """How many singular values (last axis) exceed eps * sigma_1, at most kmax."""
    k = np.count_nonzero(s > ctl.eps * s[..., :1], axis=-1)
    return k if ctl.kmax is None else np.minimum(k, ctl.kmax)


def _truncate_svd(u, s, vt, ctl: TruncationControl):
    k = int(_kept_rank(s, ctl))
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

    The concatenated factors represent the exact sum with rank k1 + k2;
    ``recompress`` keeps only singular values above eps * sigma_1 (and at most
    ``kmax``), so the error is bounded by eps times the spectral norm of the
    exact sum.  It is the arithmetic of the H-LU's flush, whatever the rank.
    """
    if x1.shape != x2.shape:
        raise ValueError(f"shape mismatch: {x1.shape} vs {x2.shape}")
    return recompress(LowRank(np.hstack((x1.a, x2.a)), np.hstack((x1.b, x2.b))), ctl)


def compress_dense(d, ctl: TruncationControl) -> LowRank:
    """Convert a dense matrix into a truncated low-rank factorization."""
    d = np.asarray(d, dtype=float)
    u, s, vt = np.linalg.svd(d, full_matrices=False)
    return _truncate_svd(u, s, vt, ctl)


# -- dense kernels ----------------------------------------------------------

_PIVOT_RTOL = 1e-12


def lu_nopivot(a, block_path=""):
    """In-place unpivoted LU: a is overwritten with unit-lower L and U.

    The diagonal of L is implied.  LAPACK's getrf factors a Fortran copy
    with the GIL released; where its partial pivoting swaps a row, or
    without the binding, the copy is eliminated row by row without
    pivoting instead.  A non-finite entry, or a pivot of magnitude at most
    _PIVOT_RTOL times the largest entry of the input, aborts with
    SingularBlockError naming the block (and the pivot's row within it),
    leaving a unchanged, rather than producing garbage.
    """
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("LU requires a square block")
    if not np.isfinite(a).all():
        raise SingularBlockError(f"non-finite entry in block {block_path or '<root>'}", block_path)
    pivot_tol = _PIVOT_RTOL * float(np.max(np.abs(a))) if n else 0.0
    f = np.array(a, dtype=float, order="F")
    piv = np.zeros(n, dtype=np.int64)
    if n and _dgetrf is not None:
        size, info = ctypes.c_int64(n), ctypes.c_int64()
        _dgetrf(size, size, f.ctypes.data, size, piv.ctypes.data, info)
    if not np.array_equal(piv, np.arange(1, n + 1)):  # pivoted, or no binding
        f[...] = a
        for j in range(n):
            if abs(f[j, j]) <= pivot_tol:
                break
            f[j + 1 :, j] /= f[j, j]
            f[j + 1 :, j + 1 :] -= np.outer(f[j + 1 :, j], f[j, j + 1 :])
    small = np.flatnonzero(np.abs(np.diagonal(f)) <= pivot_tol)
    if small.size:
        j = small[0]
        raise SingularBlockError(
            f"pivot {f[j, j]:.3e} below tolerance {pivot_tol:.3e} in row {j} of block "
            f"{block_path or '<root>'}",
            block_path,
        )
    a[...] = f
    return a


def _openblas():
    """(file name, cblas_dgemm, cblas_dtrsm, dgetrf, set_num_threads) of the ILP64
    OpenBLAS numpy has loaded; dgetrf is the Fortran interface, every integer an
    int64 passed by reference."""
    try:
        path = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
        lib = ctypes.CDLL(str(path))
        gemm, trsm, getrf = lib.scipy_cblas_dgemm64_, lib.scipy_cblas_dtrsm64_, lib.scipy_dgetrf_64_
        threads = lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return "scipy", None, None, None, None
    e, i, d, p = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    r = ctypes.POINTER(i)
    gemm.argtypes = [e, e, e, i, i, i, d, p, i, p, i, d, p, i]
    trsm.argtypes = [e, e, e, e, e, i, i, d, p, i, p, i]
    getrf.argtypes = [r, r, p, r, p, r]
    threads.argtypes = [e]
    gemm.restype = trsm.restype = getrf.restype = threads.restype = None
    return path.name, gemm, trsm, getrf, threads


# The OpenBLAS file the kernels call, GIL released per call, or "scipy" without it.
BLAS_LIBRARY, _dgemm, _dtrsm, _dgetrf, _set_threads = _openblas()
_ROW, _COL, _NO, _T, _UP, _LO, _NONUNIT, _UNIT, _LEFT, _RIGHT = 101, 102, 111, 112, 121, 122, 131, 132, 141, 142
# Alone and cache-hot (one BLAS thread, min of 5) the binding takes 26 / 47 / 119 us
# on a 64^3 / 96^3 / 128^3 product and numpy's c -= a @ b 12.5 / 40 / 133 us, but
# inside the factorization 2**20 or 2**21 was no faster than 2**18: paired in-process
# runs read bem3d seq 1-3% slower, other workloads and modes within 5% either way.
# Far smaller products go to numpy (64x64x3: 6.6 against 19 us).  trsm has no
# threshold: scipy's triangular solve copies b, so the binding is always cheaper.
_GEMM_MIN_WORK = 2**18


def pin_blas_threads():
    """One BLAS thread per call (parallelism belongs to the task runtime) unless the user
    set OPENBLAS_NUM_THREADS, which OpenBLAS read when numpy loaded it."""
    if _set_threads is not None and "OPENBLAS_NUM_THREADS" not in os.environ:
        _set_threads(1)


def _layout(x):
    """(row_major, ld) of a float64 matrix BLAS can address in place, else None."""
    (s0, s1), (m, n) = x.strides, x.shape
    if x.dtype == np.float64 and s1 == 8 and s0 % 8 == 0 and s0 // 8 >= max(1, n):
        return True, s0 // 8
    if x.dtype == np.float64 and s0 == 8 and s1 % 8 == 0 and s1 // 8 >= max(1, m):
        return False, s1 // 8
    return None


def _trsm(side, upper, diag, f, b):
    """b <- f^-1 b (left) or b f^-1 (right) by the binding; False: use scipy."""
    if _dtrsm is None or b.ndim != 2 or f.shape != (b.shape[0 if side == _LEFT else 1],) * 2:
        return False
    m, n = b.shape
    if not (m and n):
        return True
    lb, lf = _layout(b), _layout(f)
    if lb is None or lf is None:
        return False
    flip = lf[0] != lb[0]  # f passed transposed: its triangle turns over
    _dtrsm(_ROW if lb[0] else _COL, side, _UP if upper != flip else _LO, _T if flip else _NO,
           diag, m, n, 1.0, f.ctypes.data, lf[1], b.ctypes.data, lb[1])
    return True


def trsm_lower_unit(l, b):
    """b <- L^-1 b in place, L unit lower triangular (diagonal implied)."""
    if not _trsm(_LEFT, False, _UNIT, l, b):
        b[:] = scipy.linalg.solve_triangular(
            l, b, lower=True, unit_diagonal=True, check_finite=False
        )
    return b


def trsm_upper_right(u, b):
    """b <- b U^-1 in place, U upper triangular."""
    if not _trsm(_RIGHT, True, _NONUNIT, u, b):
        b[:] = scipy.linalg.solve_triangular(
            u, b.T, lower=False, trans="T", check_finite=False
        ).T
    return b


def gemm_update(c, a, b):
    """c <- c - a @ b in place.

    A product of _GEMM_MIN_WORK or more multiply-adds on operands BLAS can
    address runs through the binding, any other as numpy's ``c -= a @ b``.
    """
    (m, n), k = c.shape, a.shape[-1]
    if _dgemm is not None and m * n * k >= _GEMM_MIN_WORK and a.shape == (m, k) and b.shape == (k, n):
        lc, la, lb = _layout(c), _layout(a), _layout(b)
        if lc and la and lb:
            _dgemm(_ROW if lc[0] else _COL, _T if la[0] != lc[0] else _NO, _T if lb[0] != lc[0] else _NO,
                   m, n, k, -1.0, a.ctypes.data, la[1], b.ctypes.data, lb[1], 1.0, c.ctypes.data, lc[1])
            return c
    c -= a @ b
    return c
