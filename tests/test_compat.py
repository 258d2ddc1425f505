import random

import numpy as np
import pytest

from qgroth.cartan import build_cartan
from qgroth.compat import build_lambda, check_compatible, mutate_lambda
from qgroth.qcluster import initial_seed
from qgroth.quiver import QuiverError, build_slice, e_matrix, mutate_matrix
from qgroth.verify import COMPAT_SWEEP_TYPES, D4_LAMBDA_GOLDEN


def exact_mutation(b, lam, exch_rows, k):
    """B and E_k^T Lambda E_k in Python ints (object arrays), by the dense
    formulas: the reference for the int64 mutations."""
    rk = exch_rows[k]
    col, row = b[:, k], b[rk, :]
    b1 = b + (abs(col[:, None]) * row[None, :] + col[:, None] * abs(row[None, :])) // 2
    b1[:, k] = -col
    b1[rk, :] = -row
    e = np.identity(b.shape[0], dtype=object)
    e[:, rk] = [max(0, -x) for x in col]
    e[rk, rk] = -1
    return b1, e.T @ lam @ e


class TestBuildLambda:
    def test_d4_printed_matrix(self):
        c = build_cartan("D", 4)
        slc = build_slice(c, window=(-5, 2))
        assert np.array_equal(build_lambda(c, slc), D4_LAMBDA_GOLDEN)

    def test_diagonal_zero_and_skew(self):
        c = build_cartan("A", 3)
        slc = build_slice(c, N=1)
        lam = build_lambda(c, slc)
        assert np.array_equal(lam, -lam.T)
        assert not lam.diagonal().any()

    def test_a1_n1(self):
        # under the (level desc, node asc) ordering; the same matrix read in
        # ascending level order is [[0,-1,0],[1,0,-1],[0,1,0]]
        c = build_cartan("A", 1)
        slc = build_slice(c, N=1)
        lam = build_lambda(c, slc)
        assert lam.tolist() == [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
        assert lam[::-1, ::-1].tolist() == [[0, -1, 0], [1, 0, -1], [0, 1, 0]]


class TestCheckCompatible:
    def test_d4_diagonal(self):
        c = build_cartan("D", 4)
        slc = build_slice(c, window=(-5, 2))
        rep = check_compatible(slc.b_matrix, build_lambda(c, slc), slc.exch_rows)
        assert rep.ok and rep.diag == (-2,) * 8

    def test_a1_hand_product(self):
        c = build_cartan("A", 1)
        slc = build_slice(c, N=1)
        rep = check_compatible(slc.b_matrix, build_lambda(c, slc), slc.exch_rows)
        assert rep.ok and rep.diag == (-2,)

    def test_perturbation_names_entry(self):
        c = build_cartan("A", 2)
        slc = build_slice(c, N=1)
        lam = build_lambda(c, slc).copy()
        lam[0, 3] += 1
        lam[3, 0] -= 1
        rep = check_compatible(slc.b_matrix, lam, slc.exch_rows)
        assert not rep.ok
        assert rep.violations
        assert "FAIL" in str(rep)

    def test_no_exchangeable_vertex_is_vacuously_compatible(self):
        # a 4-level window freezes every level: B has no columns
        c = build_cartan("A", 2)
        slc = build_slice(c, window=(0, 3))
        assert not slc.exchangeable
        rep = check_compatible(slc.b_matrix, build_lambda(c, slc), slc.exch_rows)
        assert rep.ok and rep.diag == () and str(rep) == "PASS diagonal=[]"
        assert initial_seed(slc).vars.keys() == set(slc.vertices)

    def test_shape_mismatch(self):
        c = build_cartan("A", 1)
        slc = build_slice(c, N=1)
        with pytest.raises(QuiverError):
            check_compatible(slc.b_matrix, np.zeros((2, 2), dtype=int), slc.exch_rows)

    def test_product_that_may_wrap_is_refused(self):
        # scaled by 2^62 + 1, the diagonal -2 becomes -2^63 - 2, which int64
        # would wrap to 2^63 - 2
        c = build_cartan("A", 1)
        slc = build_slice(c, N=1)
        lam = build_lambda(c, slc)
        assert str(check_compatible(slc.b_matrix, lam, slc.exch_rows)) == "PASS diagonal=[-2]"
        with pytest.raises(QuiverError, match=r"B\^T Lambda may overflow int64"):
            check_compatible(slc.b_matrix, lam * (2**62 + 1), slc.exch_rows)

    @pytest.mark.parametrize("label,rank", COMPAT_SWEEP_TYPES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep(self, label, rank, n):
        c = build_cartan(label, rank)
        slc = build_slice(c, N=n)
        rep = check_compatible(slc.b_matrix, build_lambda(c, slc), slc.exch_rows)
        assert rep.ok and set(rep.diag) == {-2}


class TestMutateLambda:
    def test_involution(self):
        rng = random.Random(11)
        for _ in range(20):
            label, rank = rng.choice(COMPAT_SWEEP_TYPES)
            c = build_cartan(label, rank)
            slc = build_slice(c, N=1)
            lam = build_lambda(c, slc)
            k = rng.randrange(slc.b_matrix.shape[1])
            b1 = mutate_matrix(slc.b_matrix, slc.exch_rows, k)
            lam1 = mutate_lambda(lam, slc.b_matrix, slc.exch_rows, k)
            lam2 = mutate_lambda(lam1, b1, slc.exch_rows, k)
            assert np.array_equal(lam2, lam)

    def test_a1_compat_preserved(self):
        c = build_cartan("A", 1)
        slc = build_slice(c, N=1)
        lam = build_lambda(c, slc)
        b1 = mutate_matrix(slc.b_matrix, slc.exch_rows, 0)
        lam1 = mutate_lambda(lam, slc.b_matrix, slc.exch_rows, 0)
        rep = check_compatible(b1, lam1, slc.exch_rows)
        assert rep.ok and rep.diag == (-2,)

    def test_d4_after_one_mutation(self):
        c = build_cartan("D", 4)
        slc = build_slice(c, window=(-5, 2))
        lam = build_lambda(c, slc)
        k = slc.column_of((2, -1))
        b1 = mutate_matrix(slc.b_matrix, slc.exch_rows, k)
        lam1 = mutate_lambda(lam, slc.b_matrix, slc.exch_rows, k)
        rep = check_compatible(b1, lam1, slc.exch_rows)
        assert rep.ok and set(rep.diag) == {-2}

    def test_random_paths_preserve_compatibility(self):
        rng = random.Random(13)
        for _ in range(100):
            label, rank = rng.choice(COMPAT_SWEEP_TYPES)
            c = build_cartan(label, rank)
            slc = build_slice(c, N=1)
            b, lam = slc.b_matrix, build_lambda(c, slc)
            for _ in range(rng.randint(1, 12)):
                k = rng.randrange(b.shape[1])
                b, lam = (
                    mutate_matrix(b, slc.exch_rows, k),
                    mutate_lambda(lam, b, slc.exch_rows, k),
                )
            assert check_compatible(b, lam, slc.exch_rows).ok

    def test_matches_dense_product(self):
        # E^T L E rewritten on one row and column, for the true skew form and
        # for arbitrary (non-skew) integer matrices, after a few random steps
        rng = random.Random(17)
        nrng = np.random.default_rng(17)
        for _ in range(60):
            label, rank = rng.choice(COMPAT_SWEEP_TYPES)
            c = build_cartan(label, rank)
            slc = build_slice(c, N=rng.randint(1, 2))
            b, lam = slc.b_matrix, build_lambda(c, slc)
            for _ in range(rng.randint(0, 4)):
                k = rng.randrange(b.shape[1])
                b, lam = (
                    mutate_matrix(b, slc.exch_rows, k),
                    mutate_lambda(lam, b, slc.exch_rows, k),
                )
            k = rng.randrange(b.shape[1])
            ek = e_matrix(b, slc.exch_rows, k)
            m = nrng.integers(-50, 51, size=lam.shape)
            for mat in (lam, m):
                assert np.array_equal(
                    mutate_lambda(mat, b, slc.exch_rows, k), ek.T @ mat @ ek
                )


class TestOverflowGuard:
    def test_long_paths_exact_or_raise(self):
        # D4 N=2 random paths grow past int64 within 120 steps; every step
        # must equal the exact result, or raise before any exact entry
        # leaves int64
        c = build_cartan("D", 4)
        slc = build_slice(c, N=2)
        raised = []
        for seed in range(3):
            rng = random.Random(seed)
            b, lam = slc.b_matrix, build_lambda(c, slc)
            xb, xlam = b.astype(object), lam.astype(object)
            for step in range(120):
                k = rng.randrange(b.shape[1])
                xb, xlam = exact_mutation(xb, xlam, slc.exch_rows, k)
                fits = all(abs(x) < 2**63 for x in (*xb.flat, *xlam.flat))
                try:
                    b, lam = (
                        mutate_matrix(b, slc.exch_rows, k),
                        mutate_lambda(lam, b, slc.exch_rows, k),
                    )
                except QuiverError as err:
                    assert f"column {k}" in str(err)
                    raised.append(seed)
                    break
                assert fits, f"seed {seed} step {step}: wrapped without an error"
                assert np.array_equal(b, xb) and np.array_equal(lam, xlam)
        assert raised


def test_overflow_guard_passes_steps_int64_computes_exactly():
    # seed 0 of the D4 N=2 walk above: max|Lambda| |c|_1^2 passes 2^63 at
    # step 64, though the new row, column and corner all still fit
    c = build_cartan("D", 4)
    slc = build_slice(c, N=2)
    rng = random.Random(0)
    b, lam = slc.b_matrix, build_lambda(c, slc)
    xb, xlam = b.astype(object), lam.astype(object)
    for _ in range(65):
        k = rng.randrange(b.shape[1])
        xb, xlam = exact_mutation(xb, xlam, slc.exch_rows, k)
        b, lam = (
            mutate_matrix(b, slc.exch_rows, k),
            mutate_lambda(lam, b, slc.exch_rows, k),
        )
        assert np.array_equal(b, xb) and np.array_equal(lam, xlam)


@pytest.mark.parametrize("label,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_large_b_entry_off_the_pivot_mutates_exactly(label, rank):
    # an int64-max entry outside the pivot's block, row and column: the
    # bound from the entries the step reads passes, and the result is exact
    c = build_cartan(label, rank)
    slc = build_slice(c, N=2)
    lam = build_lambda(c, slc).astype(object)
    for k in range(slc.b_matrix.shape[1]):
        b, rk = slc.b_matrix.copy(), slc.exch_rows[k]
        rows = [r for r in range(b.shape[0]) if not b[r, k] and r != rk]
        cols = [j for j in range(b.shape[1]) if not b[rk, j] and j != k]
        b[rows[-1], cols[0]] = 2**63 - 1
        want, _ = exact_mutation(b.astype(object), lam, slc.exch_rows, k)
        assert np.array_equal(mutate_matrix(b, slc.exch_rows, k), want)


@pytest.mark.parametrize("label,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_large_lambda_entry_off_the_pivot_mutates_exactly(label, rank):
    # 2^62 in Lambda off the rows and columns of c's support: max|Lambda|
    # |c|_1 would pass 2^63, the entries the step reads stay small
    c = build_cartan(label, rank)
    slc = build_slice(c, N=2)
    b = slc.b_matrix
    for k in range(b.shape[1]):
        rk = slc.exch_rows[k]
        far = [r for r in range(b.shape[0]) if b[r, k] >= 0 and r != rk]
        lam = build_lambda(c, slc)
        lam[far[0], far[-1]], lam[far[-1], far[0]] = 2**62, -(2**62)
        _, want = exact_mutation(b.astype(object), lam.astype(object), slc.exch_rows, k)
        assert np.array_equal(mutate_lambda(lam, b, slc.exch_rows, k), want)


def test_lambda_entry_of_minus_two_to_the_63_is_refused():
    # A2 N=1, k=0: row 0 is in the support of c, so its entry -2^63 in
    # column 1 enters the new row; np.abs(-2^63) is -2^63, which once let it
    # past the bound and the row wrapped
    c = build_cartan("A", 2)
    slc = build_slice(c, N=1)
    lam = build_lambda(c, slc)
    lam[0, 1] = -(2**63)
    with pytest.raises(QuiverError, match="column 0"):
        mutate_lambda(lam, slc.b_matrix, slc.exch_rows, 0)
