from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import hluflow.lowrank as lowrank
from hluflow.lowrank import (
    LowRank,
    SingularBlockError,
    TruncationControl,
    add_truncated,
    compress_dense,
    gemm_update,
    lu_nopivot,
    recompress,
    trsm_lower_unit,
    trsm_upper_right,
)
from test_hlu import unpivoted_lu_oracle


# gemm_update targets: base shape, view of the base, the view's (C-contiguous,
# F-contiguous) flags and the inner dimension k of the product; a 6x5 target in
# C order, F order and as a window, and the 64x64x3 update that a rank-3
# product makes to a 64-point leaf
GEMM_TARGETS = [
    ((6, 5), lambda m: m, (True, False), 4),
    ((5, 6), lambda m: m.T, (False, True), 4),
    ((8, 7), lambda m: m[1:7, 1:6], (False, False), 4),
    ((64, 64), lambda m: m, (True, False), 3),
]


# Operand layouts the H-LU hands the dense kernels: name -> (base order, base
# shape for an r x c operand, view of the base).  "F" is a transposed C array,
# like the b factor of a low-rank block; "strided" has no unit stride, so BLAS
# cannot address it: gemm_update takes numpy's path, the trsm kernels scipy's.
LAYOUTS = {
    "C": ("C", lambda r, c: (r, c), lambda x, r, c: x),
    "F": ("C", lambda r, c: (c, r), lambda x, r, c: x.T),
    "C-rows": ("C", lambda r, c: (r + 3, c), lambda x, r, c: x[1 : r + 1]),
    "C-cols": ("C", lambda r, c: (r, c + 3), lambda x, r, c: x[:, 2 : c + 2]),
    "F-rows": ("F", lambda r, c: (r + 3, c), lambda x, r, c: x[1 : r + 1]),
    "F-cols": ("F", lambda r, c: (r, c + 3), lambda x, r, c: x[:, 2 : c + 2]),
    "strided": ("C", lambda r, c: (r, 2 * c), lambda x, r, c: x[:, ::2]),
}


def operand(rng, layout, r, c):
    """(base, view) of a random r x c operand stored in ``layout``."""
    order, shape, view = LAYOUTS[layout]
    base = np.asarray(rng.standard_normal(shape(r, c)), order=order)
    return base, view(base, r, c)


def check_in_place(kernel, layout, target_shape, operands, oracle, rng):
    """Run kernel(*operands, target) on a target window in ``layout``: the
    window matches the oracle at 1e-12, the call returns the window itself
    and nothing outside the window changes."""
    base, target = operand(rng, layout, *target_shape)
    before = base.copy()
    inside = np.zeros(base.shape, dtype=bool)
    LAYOUTS[layout][2](inside, *target_shape)[...] = True
    want = oracle(target.copy())
    assert kernel(*operands, target) is target
    assert np.array_equal(base[~inside], before[~inside])
    assert target.shape == want.shape
    assert np.linalg.norm(target - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


@pytest.fixture
def symbols_missing(monkeypatch):
    """Load the binding as on a host whose library lacks the symbols."""
    monkeypatch.setattr(lowrank.ctypes, "CDLL", lambda path: object())
    loaded = lowrank._openblas()
    assert loaded == ("scipy", None, None, None, None)
    for name, value in zip(("BLAS_LIBRARY", "_dgemm", "_dtrsm", "_dgetrf", "_set_threads"), loaded):
        monkeypatch.setattr(lowrank, name, value)


@pytest.fixture
def binding_calls(monkeypatch):
    """Counts of the calls into the binding's dgemm, dtrsm and dgetrf handles."""
    if lowrank._dgemm is None:
        pytest.skip("numpy ships no ILP64 OpenBLAS here")
    calls = {"_dgemm": 0, "_dtrsm": 0, "_dgetrf": 0}
    for name in calls:

        def counted(*args, name=name, fn=getattr(lowrank, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(lowrank, name, counted)
    return calls


def pivoting_block(rng):
    """A 64x64 block whose unpivoted LU exists but whose small leading pivot
    partial pivoting would swap away."""
    a = rng.standard_normal((64, 64)) + 64 * np.eye(64)
    a[0, 0] = 0.5
    assert not np.array_equal(scipy.linalg.lu_factor(a)[1], np.arange(64))
    return a


def check_lu_oracle(a):
    """lu_nopivot of a copy of a matches the unpivoted flat oracle at 1e-12."""
    f = a.copy()
    lu_nopivot(f)
    oracle = unpivoted_lu_oracle(a)
    assert np.linalg.norm(f - oracle) <= 1e-12 * np.linalg.norm(oracle)


def random_lowrank(rng, m, n, k):
    return LowRank(rng.standard_normal((m, k)), rng.standard_normal((n, k)))


def spectral(a):
    return np.linalg.svd(a, compute_uv=False)[0] if a.size else 0.0


class TestAddTruncated:
    def test_add_zero(self, rng):
        # a rank-0 operand is truncated like any other, so the contract holds
        x = random_lowrank(rng, 8, 7, 3)
        z = LowRank.zeros(8, 7)
        got = add_truncated(x, z, TruncationControl(1e-12))
        assert got.k <= 3
        assert spectral(got.value() - x.value()) <= 1e-12 * spectral(x.value())

    @pytest.mark.parametrize("zero_first", [True, False], ids=["zero+x", "x+zero"])
    def test_kmax_binds_with_rank_zero_operand(self, rng, zero_first):
        x = random_lowrank(rng, 40, 30, 5)
        z = LowRank.zeros(40, 30)
        pair = (z, x) if zero_first else (x, z)
        assert add_truncated(*pair, TruncationControl(1e-8, kmax=2)).k == 2

    def test_parallel_outer_products(self, rng):
        a = rng.standard_normal((8, 1))
        b = rng.standard_normal((5, 1))
        x = LowRank(a, b)
        got = add_truncated(x, LowRank(a.copy(), b.copy()), TruncationControl(1e-10))
        assert got.k == 1
        assert np.linalg.norm(got.value() - 2 * a @ b.T) <= 1e-13 * np.linalg.norm(a @ b.T)

    def test_random_truncation_contract(self, rng):
        ctl = TruncationControl(1e-8)
        x1 = random_lowrank(rng, 40, 30, 3)
        x2 = random_lowrank(rng, 40, 30, 4)
        got = add_truncated(x1, x2, ctl)
        exact = x1.value() + x2.value()
        assert got.k <= 7
        assert spectral(got.value() - exact) <= 1e-8 * spectral(exact)

    def test_kmax_binds(self, rng):
        ctl = TruncationControl(0.0, kmax=2)
        x1 = random_lowrank(rng, 10, 10, 3)
        x2 = random_lowrank(rng, 10, 10, 3)
        assert add_truncated(x1, x2, ctl).k <= 2

    def test_half_block_sum_recompressed(self, rng, monkeypatch):
        # combined rank 6 >= min(8, 8) / 2, the H-LU's half-block bound: the sum is
        # recompressed from its factors like any other, never formed densely
        import hluflow.lowrank as lowrank_module

        def dense_svd(d, ctl):
            raise AssertionError("the sum was compressed densely")

        monkeypatch.setattr(lowrank_module, "compress_dense", dense_svd)
        ctl = TruncationControl(1e-10)
        x1 = random_lowrank(rng, 8, 8, 3)
        x2 = random_lowrank(rng, 8, 8, 3)
        got = add_truncated(x1, x2, ctl)
        exact = x1.value() + x2.value()
        assert spectral(got.value() - exact) <= 1e-9 * spectral(exact)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            add_truncated(
                random_lowrank(rng, 4, 4, 1),
                random_lowrank(rng, 5, 4, 1),
                TruncationControl(),
            )


class TestCompressDense:
    def test_zero(self):
        assert compress_dense(np.zeros((5, 4)), TruncationControl(1e-8)).k == 0

    def test_rank_one(self, rng):
        d = np.outer(rng.standard_normal(6), rng.standard_normal(5))
        got = compress_dense(d, TruncationControl(1e-10))
        assert got.k == 1
        assert np.linalg.norm(got.value() - d) <= 1e-13 * np.linalg.norm(d)

    def test_smooth_kernel_compresses(self):
        i = np.arange(64.0)
        d = 1.0 / (1.0 + np.abs(i[:, None] - i[None, :]))
        got = compress_dense(d, TruncationControl(1e-6))
        assert spectral(got.value() - d) <= 1e-6 * spectral(d)

    def test_fast_decay_truncates(self, rng):
        # matrix with prescribed exponentially decaying spectrum
        q1, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        q2, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        s = 3.0 ** -np.arange(32.0)
        d = (q1 * s) @ q2.T
        got = compress_dense(d, TruncationControl(1e-6))
        assert got.k == 13  # 3^-(k-1) > 1e-6 up to k = 13
        assert spectral(got.value() - d) <= 1e-6 * spectral(d)

    def test_recompress_never_increases_rank(self, rng):
        x = random_lowrank(rng, 12, 10, 6)
        y = recompress(x, TruncationControl(1e-12))
        assert y.k <= x.k
        assert np.linalg.norm(y.value() - x.value()) <= 1e-11 * np.linalg.norm(x.value())


class TestDenseKernels:
    def test_lu_identity(self):
        a = np.eye(5)
        lu_nopivot(a)
        assert np.array_equal(a, np.eye(5))

    def test_lu_2x2_by_hand(self):
        # partial pivoting would swap the rows (|4| > |2|): getrf's result is
        # dropped and the row-by-row elimination gives the unpivoted factors
        a = np.array([[2.0, 1.0], [4.0, 5.0]])
        lu_nopivot(a)
        assert np.array_equal(a, np.array([[2.0, 1.0], [2.0, 3.0]]))

    def test_lu_reconstruction_oracle(self, rng):
        n = 128
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        orig = a.copy()
        lu_nopivot(a)
        l = np.tril(a, -1) + np.eye(n)
        u = np.triu(a)
        assert np.linalg.norm(l @ u - orig) <= 1e-12 * np.linalg.norm(orig)

    def test_lu_determinism(self, rng):
        a = rng.standard_normal((96, 96)) + 96 * np.eye(96)
        b = a.copy()
        lu_nopivot(a)
        lu_nopivot(b)
        assert np.array_equal(a, b)

    def test_lu_singular_block_raises(self):
        a = np.zeros((3, 3))
        with pytest.raises(SingularBlockError):
            lu_nopivot(a, block_path="[0:3)x[0:3)")
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # second pivot exactly zero
        with pytest.raises(SingularBlockError) as err:
            lu_nopivot(a, block_path="diag")
        assert err.value.block_path == "diag"
        assert "in row 1 of block diag" in str(err.value)

    def test_lu_singular_pivot_names_its_row(self):
        # column 80 is zero, so getrf keeps every row in place and the zero
        # pivot is read off the diagonal of its result: the row is the block's
        a = np.eye(100)
        a[80, 80] = 0.0
        with pytest.raises(SingularBlockError, match=r"in row 80 of block lu\[0:100\)"):
            lu_nopivot(a, block_path="lu[0:100)x[0:100)")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_lu_rejects_non_finite_entry(self, value):
        a = 4 * np.eye(4)
        a[0, 2] = value
        before = a.copy()
        with pytest.raises(SingularBlockError, match=r"^non-finite entry in block diag$"):
            lu_nopivot(a, block_path="diag")
        assert np.array_equal(a, before, equal_nan=True)

    def test_lu_fallback_where_getrf_would_pivot(self, rng):
        check_lu_oracle(pivoting_block(rng))

    @pytest.mark.parametrize("pivots", [False, True], ids=["getrf", "fallback"])
    def test_lu_zero_pivot_row_on_both_paths(self, rng, pivots):
        # identity outside rows 0-1; row 40 gets a zero pivot after the
        # leading rows have been eliminated, on either path
        a = np.eye(64)
        if pivots:
            a[:2, :2] = [[0.5, 1.0], [1.0, 3.0]]
            assert not np.array_equal(scipy.linalg.lu_factor(a)[1], np.arange(64))
        a[40, 40] = 0.0
        before = a.copy()
        with pytest.raises(SingularBlockError, match=r"in row 40 of block lu\[0:64\)"):
            lu_nopivot(a, block_path="lu[0:64)x[0:64)")
        assert np.array_equal(a, before)

    def test_trsm_lower(self, rng):
        n = 16
        l = np.tril(rng.standard_normal((n, n)), -1) + np.eye(n)
        b = rng.standard_normal((n, 7))
        want = np.linalg.solve(l, b)
        got = trsm_lower_unit(l, b.copy())
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_trsm_upper_right(self, rng):
        n = 16
        u = np.triu(rng.standard_normal((n, n))) + 4 * np.eye(n)
        b = rng.standard_normal((7, n))
        want = b @ np.linalg.inv(u)
        got = trsm_upper_right(u, b.copy())
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_gemm_update(self, rng):
        # every product here is below _GEMM_MIN_WORK, so each target runs
        # numpy's c -= a @ b and matches it bit for bit
        for shape, view, flags, k in GEMM_TARGETS:
            base = rng.standard_normal(shape)
            m, n = view(base).shape
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            want = base.copy()
            view(want)[...] -= a @ b
            c = view(base)
            assert (c.flags.c_contiguous, c.flags.f_contiguous) == flags
            assert gemm_update(c, a, b) is c
            assert np.array_equal(base, want)


# (m, n, k) of a gemm: at least 2**18 multiply-adds unless empty, so every
# non-empty case goes through the binding when the library is there
GEMM_SHAPES = {
    "square": (70, 80, 60),
    "one-row": (1, 512, 512),
    "one-col": (512, 1, 512),
    "inner-one": (512, 512, 1),
    "empty-m": (0, 80, 60),
    "empty-n": (70, 0, 60),
    "empty-k": (70, 80, 0),
}
# (m, n) of the right-hand side b of a trsm; the factor is m x m on the left
TRSM_SHAPES = {"square": (40, 30), "one-row": (1, 30), "one-col": (40, 1), "empty-m": (0, 30), "empty-n": (40, 0)}


def check_gemm(rng, target, shape):
    m, n, k = GEMM_SHAPES[shape]
    for la in LAYOUTS:
        for lb in LAYOUTS:
            _, a = operand(rng, la, m, k)
            _, b = operand(rng, lb, k, n)
            check_in_place(
                lambda a, b, c: gemm_update(c, a, b), target, (m, n), (a, b), lambda c: c - a @ b, rng
            )


def check_trsm_lower_unit(rng, target, shape):
    m, n = TRSM_SHAPES[shape]
    for lf in LAYOUTS:
        # the upper triangle and the diagonal hold values the kernel must not read
        _, l = operand(rng, lf, m, m)
        l /= 2 * max(m, 1)
        unit = np.tril(l, -1) + np.eye(m)
        check_in_place(trsm_lower_unit, target, (m, n), (l,), lambda b: np.linalg.solve(unit, b), rng)


def check_trsm_upper_right(rng, target, shape):
    n, m = TRSM_SHAPES[shape]
    for lf in LAYOUTS:
        # the lower triangle holds values the kernel must not read
        _, u = operand(rng, lf, n, n)
        u /= 2 * max(n, 1)
        u += 2 * np.eye(n)
        upper = np.triu(u)
        check_in_place(
            trsm_upper_right, target, (m, n), (u,), lambda b: np.linalg.solve(upper.T, b.T).T, rng
        )


class TestBlasLayouts:
    """Every kernel on every target and operand layout, against numpy."""

    @pytest.mark.parametrize("shape", GEMM_SHAPES)
    @pytest.mark.parametrize("target", LAYOUTS)
    def test_gemm_update(self, rng, target, shape):
        check_gemm(rng, target, shape)

    @pytest.mark.parametrize("shape", TRSM_SHAPES)
    @pytest.mark.parametrize("target", LAYOUTS)
    def test_trsm_lower_unit(self, rng, target, shape):
        check_trsm_lower_unit(rng, target, shape)

    @pytest.mark.parametrize("shape", TRSM_SHAPES)
    @pytest.mark.parametrize("target", LAYOUTS)
    def test_trsm_upper_right(self, rng, target, shape):
        check_trsm_upper_right(rng, target, shape)

    @pytest.mark.parametrize("target", LAYOUTS)
    def test_symbols_missing_falls_back_to_scipy(self, rng, target, symbols_missing):
        assert lowrank.BLAS_LIBRARY == "scipy"
        check_gemm(rng, target, "square")
        check_trsm_lower_unit(rng, target, "square")
        check_trsm_upper_right(rng, target, "square")


class TestBlasDispatch:
    def test_lu_is_one_getrf_call(self, rng, binding_calls):
        a = rng.standard_normal((64, 64)) + 64 * np.eye(64)
        lu_nopivot(a)
        assert binding_calls == {"_dgemm": 0, "_dtrsm": 0, "_dgetrf": 1}

    def test_symbols_missing_lu_meets_oracle(self, rng, symbols_missing):
        check_lu_oracle(rng.standard_normal((64, 64)) + 64 * np.eye(64))
        check_lu_oracle(pivoting_block(rng))

    def test_library_named(self):
        bundled = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
        if bundled:
            assert lowrank.BLAS_LIBRARY in [p.name for p in bundled]
            assert lowrank._dgemm is not None and lowrank._dtrsm is not None
        else:
            assert lowrank.BLAS_LIBRARY == "scipy"

    def test_large_gemm_and_every_trsm_use_binding(self, rng, binding_calls):
        c = rng.standard_normal((64, 64))
        gemm_update(c, rng.standard_normal((64, 64)), rng.standard_normal((64, 64)))
        assert binding_calls == {"_dgemm": 1, "_dtrsm": 0, "_dgetrf": 0}
        l = np.eye(16) + np.tril(rng.standard_normal((16, 16)), -1) / 32
        u = np.eye(16) + np.triu(rng.standard_normal((16, 16))) / 32
        for b in (rng.standard_normal((16, 3)), rng.standard_normal((3, 16)).T):
            trsm_lower_unit(l, b)
            trsm_lower_unit(l.T.copy().T, b)
            trsm_upper_right(u, b.T)
            trsm_upper_right(u.T.copy().T, b.T)
        assert binding_calls == {"_dgemm": 1, "_dtrsm": 8, "_dgetrf": 0}
        # an empty right-hand side returns at once, even as an addressable window
        x = rng.standard_normal((16, 16))
        assert trsm_lower_unit(l, x[:, 3:3]).shape == (16, 0)
        assert trsm_upper_right(u, x[3:3, :]).shape == (0, 16)
        assert binding_calls == {"_dgemm": 1, "_dtrsm": 8, "_dgetrf": 0}

    def test_small_or_strided_gemm_takes_numpy_path(self, rng, binding_calls):
        a, b = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        c = rng.standard_normal((16, 16))
        want = c - a @ b
        gemm_update(c, a, b)
        assert np.array_equal(c, want)
        x = rng.standard_normal((64, 128))
        a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        want = x[:, ::2] - a @ b
        gemm_update(x[:, ::2], a, b)
        assert np.allclose(x[:, ::2], want, rtol=1e-12, atol=1e-12)
        trsm_lower_unit(np.eye(64), x[:, ::2])
        trsm_upper_right(np.eye(64), x[:, ::2])
        v = rng.standard_normal(64)
        assert np.array_equal(trsm_lower_unit(np.eye(64), v.copy()), v)
        assert np.array_equal(trsm_upper_right(np.eye(64), v.copy()), v)
        # overlapping rows (row stride 8 bytes, 64 columns) have no leading dimension
        a = np.lib.stride_tricks.sliding_window_view(rng.standard_normal(127), 64)
        c = rng.standard_normal((64, 64))
        want = c - a @ b
        gemm_update(c, a, b)
        assert np.allclose(c, want, rtol=1e-12, atol=1e-12)
        assert binding_calls == {"_dgemm": 0, "_dtrsm": 0, "_dgetrf": 0}


def test_truncation_control_validation():
    with pytest.raises(ValueError):
        TruncationControl(-1.0)
    with pytest.raises(ValueError):
        TruncationControl(1e-8, kmax=-1)


@pytest.mark.parametrize("kmax", [2.5, True], ids=["float", "bool"])
def test_truncation_control_rejects_non_integer_kmax(kmax):
    # a float cap would fail as a slice index at the first truncation, and True
    # would silently cap every rank at 1
    with pytest.raises(ValueError, match="kmax must be an integer"):
        TruncationControl(1e-8, kmax=kmax)


def test_truncation_control_accepts_numpy_integer_kmax():
    assert TruncationControl(1e-8, kmax=np.int64(3)).kmax == 3


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_truncation_control_rejects_non_finite_eps(eps):
    # a NaN or infinite tolerance would make every truncation keep rank 0
    with pytest.raises(ValueError, match="eps must be finite"):
        TruncationControl(eps)
