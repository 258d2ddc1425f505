import dataclasses
import random

import numpy as np
import pytest

from qgroth.cartan import (
    CartanError,
    build_cartan,
    ctilde,
    f_form,
    n_form,
    skew_form,
)
from qgroth.compat import build_lambda
from qgroth.quiver import build_slice

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8),
]


def series(c, i, j, degree):
    return [ctilde(c, i, j, m) for m in range(degree + 1)]


class TestBuildCartan:
    def test_equal_builds_are_read_only(self):
        # equal Cartan data are interchangeable, so none may be changed
        c = build_cartan("D", 4)
        with pytest.raises(ValueError, match="read-only"):
            c.cartan[0, 1] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.rank = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.cartan = np.eye(4, dtype=np.int64)
        assert c.rank == 4 and c.cartan[0, 1] == -1 and c == build_cartan("D", 4)

    def test_rank_one(self):
        c = build_cartan("A", 1)
        assert c.cartan.tolist() == [[2]]
        assert c.dual_coxeter == 2

    def test_a3_offdiagonal(self):
        c = build_cartan("A", 3)
        m = c.cartan
        assert m[0][1] == m[1][2] == -1
        assert m[0][2] == 0
        assert (m == m.T).all()

    def test_d4_dual_coxeter(self):
        assert build_cartan("D", 4).dual_coxeter == 6

    @pytest.mark.parametrize(
        "label,rank,h", [("A", 4, 5), ("D", 5, 8), ("E", 6, 12), ("E", 7, 18), ("E", 8, 30)]
    )
    def test_dual_coxeter_table(self, label, rank, h):
        assert build_cartan(label, rank).dual_coxeter == h

    @pytest.mark.parametrize(
        "label,rank", [("B", 2), ("A", 0), ("D", 3), ("E", 9), ("E", 5)]
    )
    def test_invalid_rejected(self, label, rank):
        with pytest.raises(CartanError):
            build_cartan(label, rank)

    def test_d4_branch_node(self):
        c = build_cartan("D", 4)
        assert c.neighbors(2) == (1, 3, 4)

    def test_e6_adjacency(self):
        c = build_cartan("E", 6)
        assert c.neighbors(4) == (2, 3, 5)
        assert c.neighbors(2) == (4,)
        assert c.neighbors(1) == (3,)


class TestCtilde:
    def test_a1_series(self):
        c = build_cartan("A", 1)
        want = [0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1]
        assert series(c, 1, 1, 11) == want

    def test_degree_zero(self):
        for label, rank in ALL_TYPES[:4]:
            c = build_cartan(label, rank)
            assert ctilde(c, 1, 1, 0) == 0

    def test_a2_series(self):
        c = build_cartan("A", 2)
        assert ctilde(c, 1, 2, 2) == 1
        assert ctilde(c, 1, 2, 4) == -1
        assert ctilde(c, 1, 1, 5) == -1
        want_ii = [0, 1, 0, 0, 0, -1, 0, 1, 0, 0, 0, -1, 0, 1, 0]
        want_ij = [0, 0, 1, 0, -1, 0, 0, 0, 1, 0, -1, 0, 0, 0, 1]
        assert series(c, 1, 1, 14) == want_ii
        assert series(c, 2, 2, 14) == want_ii
        assert series(c, 1, 2, 14) == want_ij

    def test_negative_degree_rejected(self):
        with pytest.raises(CartanError):
            ctilde(build_cartan("A", 1), 1, 1, -1)

    @pytest.mark.parametrize("label,rank", ALL_TYPES)
    def test_recurrence(self, label, rank):
        c = build_cartan(label, rank)
        for i in c.nodes:
            for j in c.nodes:
                for m in range(1, 41):
                    total = sum(ctilde(c, i, k, m) for k in c.neighbors(j))
                    assert (
                        ctilde(c, i, j, m - 1) + ctilde(c, i, j, m + 1) == total
                    ), (i, j, m)

    @pytest.mark.parametrize("label,rank", ALL_TYPES)
    def test_symmetry(self, label, rank):
        c = build_cartan(label, rank)
        for i in c.nodes:
            for j in c.nodes:
                for m in range(0, 25):
                    assert ctilde(c, i, j, m) == ctilde(c, j, i, m)


class TestNForm:
    def test_a1_values(self):
        c = build_cartan("A", 1)
        assert n_form(c, 1, 1, 2) == -2
        assert n_form(c, 1, 1, 4) == 2

    def test_zero_gap(self):
        for label, rank in ALL_TYPES:
            c = build_cartan(label, rank)
            assert n_form(c, 1, 1, 0) == 0

    def test_a2_value(self):
        assert n_form(build_cartan("A", 2), 1, 2, 1) == 1

    def test_antisymmetry(self):
        c = build_cartan("D", 4)
        for i in c.nodes:
            for j in c.nodes:
                for m in range(1, 20):
                    assert n_form(c, i, j, -m) == -n_form(c, i, j, m)


class TestFForm:
    def test_a1_closed_form(self):
        # rank-1 vertices only occur at even gaps; odd gaps vanish
        c = build_cartan("A", 1)
        for m in range(0, 20):
            assert f_form(c, 1, 1, 2 * m) == ((-1) ** m - 1) // 2
            assert f_form(c, 1, 1, 2 * m + 1) == 0

    def test_zero_gap(self):
        for label, rank in ALL_TYPES:
            c = build_cartan(label, rank)
            assert f_form(c, 1, 1, 0) == 0

    def test_d4_value(self):
        assert f_form(build_cartan("D", 4), 1, 2, 3) == -1

    def test_half_gap_convention(self):
        # the rank-1 even-gap values follow the alternating pattern of the
        # level form: f(m) at even vertex gaps 2m
        c = build_cartan("A", 1)
        for m in range(0, 10):
            assert f_form(c, 1, 1, 2 * m) == ((-1) ** m - 1) // 2

    @pytest.mark.parametrize("label,rank", ALL_TYPES)
    def test_telescoping(self, label, rank):
        c = build_cartan(label, rank)
        for i in c.nodes:
            for j in c.nodes:
                for m in range(1, 41):
                    lhs = (
                        2 * f_form(c, i, j, m)
                        - f_form(c, i, j, m + 2)
                        - f_form(c, i, j, m - 2)
                    )
                    assert lhs == n_form(c, i, j, m), (i, j, m)

    def test_antisymmetry(self):
        c = build_cartan("E", 6)
        for i in c.nodes:
            for j in c.nodes:
                for m in range(1, 15):
                    assert f_form(c, i, j, -m) == -f_form(c, i, j, m)

    @pytest.mark.parametrize("label,rank", ALL_TYPES)
    def test_definition(self, label, rank):
        # f(m) = -(ctilde(m-1) + ctilde(m-3) + ...), down to degree 0 or 1
        c = build_cartan(label, rank)
        for i in c.nodes:
            for j in c.nodes:
                for m in range(0, 41):
                    want = -sum(ctilde(c, i, j, d) for d in range(m - 1, -1, -2))
                    assert f_form(c, i, j, m) == want, (i, j, m)


SKEW_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8),
]


class TestSkewForm:
    @pytest.mark.parametrize("label,rank", SKEW_TYPES)
    def test_matches_f_form_on_random_vertex_lists(self, label, rank):
        c = build_cartan(label, rank)
        rng = random.Random(f"{label}{rank}")
        for _ in range(20):
            # unsorted, levels repeating, gaps up to 40 in either direction
            levels = rng.sample(range(-20, 21), rng.randint(1, 6))
            verts = [
                (rng.choice(c.nodes), rng.choice(levels))
                for _ in range(rng.randint(0, 12))
            ]
            lam = skew_form(c, verts)
            assert len(lam) == len(verts)
            for a, (i, r) in enumerate(verts):
                assert len(lam[a]) == len(verts)
                for b, (j, s) in enumerate(verts):
                    assert lam[a][b] == f_form(c, i, j, s - r), (verts, a, b)

    @pytest.mark.parametrize("label,rank", SKEW_TYPES)
    def test_build_lambda_is_skew_form(self, label, rank):
        c = build_cartan(label, rank)
        lo = random.Random(f"{label}{rank}").randint(-6, 6)
        slc = build_slice(c, window=(lo, lo + 9))
        lam = build_lambda(c, slc)
        assert lam.dtype == np.int64
        assert lam.tolist() == skew_form(c, slc.vertices)

    @pytest.mark.parametrize("label,rank", ALL_TYPES)
    def test_out_of_range_nodes_rejected(self, label, rank):
        c = build_cartan(label, rank)
        for bad in (0, rank + 1):
            for m in (0, 1, 4):
                for fn in (ctilde, n_form, f_form):
                    with pytest.raises(CartanError):
                        fn(c, bad, 1, m)
                    with pytest.raises(CartanError):
                        fn(c, 1, bad, m)
            with pytest.raises(CartanError):
                skew_form(c, [(bad, 0)])
            with pytest.raises(CartanError):
                skew_form(c, [(1, 0), (bad, 3)])

    @pytest.mark.parametrize("label,rank", ALL_TYPES)
    def test_out_of_range_nodes_rejected_at_negative_gaps(self, label, rank):
        c = build_cartan(label, rank)
        for bad in (0, rank + 1):
            for m in (-1, -4):
                for fn in (n_form, f_form):
                    with pytest.raises(CartanError):
                        fn(c, bad, 1, m)
                    with pytest.raises(CartanError):
                        fn(c, 1, bad, m)


class TestLattice:
    def test_node_classes_a3(self):
        c = build_cartan("A", 3)
        assert [c.node_class(i) for i in c.nodes] == [0, 1, 0]

    def test_node_classes_d4(self):
        c = build_cartan("D", 4)
        assert [c.node_class(i) for i in c.nodes] == [0, 1, 0, 0]

    def test_in_ihat(self):
        c = build_cartan("A", 2)
        assert c.in_ihat(1, 0) and c.in_ihat(2, 1)
        assert not c.in_ihat(1, 1) and not c.in_ihat(2, 0)
