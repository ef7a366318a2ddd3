import numpy as np
import pytest

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


# gemm_update targets of shape 6x5: base shape, view of the base, and the
# view's (C-contiguous, F-contiguous) flags; C order, F order, a window
GEMM_TARGETS = [
    ((6, 5), lambda m: m, (True, False)),
    ((5, 6), lambda m: m.T, (False, True)),
    ((8, 7), lambda m: m[1:7, 1:6], (False, False)),
]


def random_lowrank(rng, m, n, k):
    return LowRank(rng.standard_normal((m, k)), rng.standard_normal((n, k)))


def spectral(a):
    return np.linalg.svd(a, compute_uv=False)[0] if a.size else 0.0


class TestAddTruncated:
    def test_add_zero(self, rng):
        x = random_lowrank(rng, 8, 7, 3)
        z = LowRank.zeros(8, 7)
        got = add_truncated(x, z, TruncationControl(1e-12))
        assert np.array_equal(got.value(), x.value())

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

    def test_dense_fallback_path(self, rng):
        # combined rank 6 >= min(8, 8) / 2 forces the dense route
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
        # the C- and F-order targets take the in-place dgemm, the
        # non-contiguous window the temporary-product fallback
        for shape, view, flags in GEMM_TARGETS:
            base = rng.standard_normal(shape)
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((4, 5))
            want = base.copy()
            view(want)[...] -= a @ b
            c = view(base)
            assert (c.flags.c_contiguous, c.flags.f_contiguous) == flags
            assert gemm_update(c, a, b) is c
            assert np.array_equal(base, want)


def test_truncation_control_validation():
    with pytest.raises(ValueError):
        TruncationControl(-1.0)
    with pytest.raises(ValueError):
        TruncationControl(1e-8, kmax=-1)
