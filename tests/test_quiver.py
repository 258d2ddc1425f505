import random

import numpy as np
import pytest

from qgroth.cartan import build_cartan
from qgroth.compat import build_lambda, mutate_lambda
from qgroth.quiver import (
    QuiverError,
    b_entry,
    build_slice,
    e_matrix,
    f_matrix,
    mutate_matrix,
)
from qgroth.verify import D4_B_GOLDEN


class TestBuildSlice:
    def test_a1_gamma1(self):
        c = build_cartan("A", 1)
        slc = build_slice(c, N=1)
        assert slc.vertices == ((1, 2), (1, 0), (1, -2))
        assert slc.exchangeable == ((1, 0),)
        # the two arrows (1,-2) -> (1,0) -> (1,2) read off column (1,0)
        assert slc.b_matrix[:, 0].tolist() == [-1, 0, 1]

    def test_gamma_n_window(self):
        c = build_cartan("A", 2)
        slc = build_slice(c, N=2)
        levels = {r for _, r in slc.vertices}
        assert min(levels) == -5 and max(levels) == 4
        ex_levels = {r for _, r in slc.exchangeable}
        assert min(ex_levels) == -3 and max(ex_levels) == 2

    def test_d4_printed_matrix(self):
        c = build_cartan("D", 4)
        slc = build_slice(c, window=(-5, 2))
        assert len(slc.vertices) == 16 and len(slc.exchangeable) == 8
        assert np.array_equal(slc.b_matrix, D4_B_GOLDEN)

    def test_d4_reading_order(self):
        c = build_cartan("D", 4)
        slc = build_slice(c, window=(-5, 2))
        assert slc.vertices[:4] == ((1, 2), (3, 2), (4, 2), (2, 1))
        assert slc.vertices[-4:] == ((1, -4), (3, -4), (4, -4), (2, -5))

    def test_principal_part_skew(self):
        for label, rank in [("A", 3), ("D", 4), ("E", 6)]:
            c = build_cartan(label, rank)
            slc = build_slice(c, N=1)
            p = slc.principal_part()
            assert np.array_equal(p, -p.T)

    def test_a3_interior_degree_balance(self):
        # interior exchangeable vertices have indegree equal to outdegree
        c = build_cartan("A", 3)
        slc = build_slice(c, N=2)
        idx = slc.index
        for v in slc.exchangeable:
            (i, r) = v
            if not (slc.r_min + 3 <= r <= slc.r_max - 3):
                continue
            col = [b_entry(c, u, v) for u in slc.vertices]
            assert sum(1 for x in col if x > 0) == sum(1 for x in col if x < 0)
            assert idx[v] in slc.exch_rows

    @pytest.mark.parametrize(
        "label,rank",
        [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("D", 6),
         ("E", 6), ("E", 7), ("E", 8)],
    )
    def test_matches_all_pairs_b_entry(self, label, rank):
        c = build_cartan(label, rank)
        rng = random.Random(rank)
        lows = [rng.randint(-9, 3) for _ in range(3)]
        slices = [build_slice(c, N=1), build_slice(c, N=2)]
        slices += [build_slice(c, window=(lo, lo + rng.randint(3, 10))) for lo in lows]
        for slc in slices:
            want = [[b_entry(c, v, w) for w in slc.exchangeable] for v in slc.vertices]
            assert slc.b_matrix.tolist() == want

    def test_bad_windows(self):
        c = build_cartan("A", 1)
        with pytest.raises(QuiverError):
            build_slice(c, N=0)
        with pytest.raises(QuiverError):
            build_slice(c, window=(0, 2))
        with pytest.raises(QuiverError):
            build_slice(c)
        with pytest.raises(QuiverError):
            build_slice(c, N=1, window=(-3, 2))


class TestMutation:
    def test_a1_arrows_reverse(self):
        c = build_cartan("A", 1)
        slc = build_slice(c, N=1)
        b2 = mutate_matrix(slc.b_matrix, slc.exch_rows, 0)
        assert b2[:, 0].tolist() == [1, 0, -1]

    def test_involution(self):
        for label, rank in [("A", 2), ("D", 4)]:
            c = build_cartan(label, rank)
            slc = build_slice(c, N=1)
            for k in range(slc.b_matrix.shape[1]):
                b2 = mutate_matrix(
                    mutate_matrix(slc.b_matrix, slc.exch_rows, k), slc.exch_rows, k
                )
                assert np.array_equal(b2, slc.b_matrix)

    def test_out_of_range_rejected(self):
        c = build_cartan("A", 1)
        slc = build_slice(c, N=1)
        with pytest.raises(QuiverError):
            mutate_matrix(slc.b_matrix, slc.exch_rows, 5)

    def test_exch_rows_length_mismatch_rejected(self):
        c = build_cartan("A", 2)
        slc = build_slice(c, N=1)
        short = slc.exch_rows[:-1]
        with pytest.raises(QuiverError, match="exch_rows length must match"):
            mutate_matrix(slc.b_matrix, short, 0)
        with pytest.raises(QuiverError, match="exch_rows length must match"):
            mutate_lambda(build_lambda(c, slc), slc.b_matrix, short, 0)

    def test_frozen_vertex_rejected(self):
        c = build_cartan("A", 1)
        slc = build_slice(c, N=1)
        with pytest.raises(QuiverError):
            slc.column_of((1, 2))

    def test_ef_factorization_random(self):
        rng = random.Random(7)
        cases = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]
        for _ in range(200):
            label, rank = rng.choice(cases)
            c = build_cartan(label, rank)
            slc = build_slice(c, N=rng.randint(1, 2))
            b = slc.b_matrix
            # walk a couple of random steps first so b is not always initial
            for _ in range(rng.randint(0, 3)):
                b = mutate_matrix(b, slc.exch_rows, rng.randrange(b.shape[1]))
            k = rng.randrange(b.shape[1])
            ek = e_matrix(b, slc.exch_rows, k)
            fk = f_matrix(b, slc.exch_rows, k)
            assert np.array_equal(ek @ b @ fk, mutate_matrix(b, slc.exch_rows, k))

    def test_e_matrix_trivial_column(self):
        c = build_cartan("A", 1)
        slc = build_slice(c, window=(-3, 4))  # (1,0) and (1,2) exchangeable
        b = slc.b_matrix.copy()
        b[:, 0] = 0
        ek = e_matrix(b, slc.exch_rows, 0)
        want = np.eye(b.shape[0], dtype=np.int64)
        want[slc.exch_rows[0], slc.exch_rows[0]] = -1
        assert np.array_equal(ek, want)

    def test_d4_e_entries(self):
        c = build_cartan("D", 4)
        slc = build_slice(c, window=(-5, 2))
        k = slc.column_of((1, 0))
        ek = e_matrix(slc.b_matrix, slc.exch_rows, k)
        rk = slc.exch_rows[k]
        for row in range(16):
            want = -1 if row == rk else max(0, -int(slc.b_matrix[row, k]))
            if row != rk and row == rk:
                continue
            if row == rk:
                assert ek[row, rk] == -1
            else:
                assert ek[row, rk] == want
