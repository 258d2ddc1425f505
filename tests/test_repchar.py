import pytest

from qgroth import repchar
from qgroth.cartan import CartanError, build_cartan
from qgroth.qcluster import initial_seed, mutate_along
from qgroth.quiver import build_slice
from qgroth.qtorus import TorusElement, embed_Y, evaluate_t1
from qgroth.repchar import (
    RepCharError,
    baxter_check,
    classical_fm_qchar,
    drinfeld_double_check,
    fm_qchar_embedded,
    fundamental_qt_character,
    mutation_sequence,
    thinness_flatten_check,
)
from qgroth.verify import A2_SEQUENCE_GOLDEN, D4_SEQUENCE_GOLDEN, type_a_origins


@pytest.fixture(scope="module")
def a1():
    return build_cartan("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_cartan("A", 2)


class TestMutationSequence:
    def test_a2_printed(self, a2):
        assert list(mutation_sequence(a2, 1, 0).sequence) == A2_SEQUENCE_GOLDEN

    def test_d4_printed(self):
        c = build_cartan("D", 4)
        spec = mutation_sequence(c, 1, 0)
        assert list(spec.sequence) == D4_SEQUENCE_GOLDEN
        assert spec.column_order == (1, 3, 4, 2)

    def test_a1_single_vertex(self, a1):
        for r in (-4, -2, 0, 2):
            assert mutation_sequence(a1, 1, r).sequence == ((1, r + 2),)

    def test_off_lattice_rejected(self, a2):
        with pytest.raises(RepCharError):
            mutation_sequence(a2, 1, 1)

    def test_window_bound(self, a2):
        spec = mutation_sequence(a2, 2, 1)
        h2 = 2 * spec.h_prime
        assert all(1 + 1 <= r <= 1 + h2 for _, r in spec.sequence)


class TestFundamentalCharacter:
    def test_a1_example(self, a1):
        char = fundamental_qt_character(a1, 1, -2)
        want = embed_Y(a1, {(1, -2): 1}) + embed_Y(a1, {(1, 0): -1})
        assert char == want
        assert mutation_sequence(a1, 1, -2).read_vertex == (1, 0)

    def test_a2_example(self, a2):
        char = fundamental_qt_character(a2, 1, 0)
        want = (
            embed_Y(a2, {(1, 0): 1})
            + embed_Y(a2, {(1, 2): -1, (2, 1): 1})
            + embed_Y(a2, {(2, 3): -1})
        )
        assert char == want
        # t-free coefficients
        assert all(coeff == {0: 1} for coeff in char.terms.values())

    def test_window_independence(self, a2):
        base = fundamental_qt_character(a2, 1, 0)
        spec = mutation_sequence(a2, 1, 0)
        wide = mutate_along(initial_seed(build_slice(a2, window=(-5, 10))), spec.sequence)
        assert wide.vars[spec.read_vertex] == base

    def test_bar_invariant(self, a2):
        char = fundamental_qt_character(a2, 2, 1)
        assert char.bar() == char

    @pytest.mark.slow
    def test_d4_matches_oracle(self):
        c = build_cartan("D", 4)
        char = fundamental_qt_character(c, 1, 0)
        assert evaluate_t1(char) == fm_qchar_embedded(c, 1, 0)
        assert len(char.terms) == 8

    @pytest.mark.slow
    @pytest.mark.parametrize("i", [3, 4])
    def test_d4_spin_nodes_match_oracle(self, i):
        c = build_cartan("D", 4)
        char = fundamental_qt_character(c, i, 0)
        assert evaluate_t1(char) == fm_qchar_embedded(c, i, 0)
        assert len(char.terms) == 8

    # the minuscule nodes of D5, 10 and 16 monomials
    @pytest.mark.parametrize("i, r, terms", [(1, 0, 10), (4, 1, 16), (5, 1, 16)])
    def test_d5_minuscule_nodes_match_oracle(self, i, r, terms):
        c = build_cartan("D", 5)
        char = fundamental_qt_character(c, i, r)
        assert evaluate_t1(char) == fm_qchar_embedded(c, i, r)
        assert len(char.terms) == terms

    @pytest.mark.slow
    def test_d6_matches_oracle(self):
        c = build_cartan("D", 6)
        char = fundamental_qt_character(c, 1, 0)
        assert evaluate_t1(char) == fm_qchar_embedded(c, 1, 0)
        assert len(char.terms) == 12


def shifted_terms(value, by):
    """value's terms with every level moved up by `by`, coefficients kept.
    A common shift keeps the reading order, so the keys stay canonical."""
    return {tuple(((i, r + by), e) for (i, r), e in k): c for k, c in value.terms.items()}


SHIFT_CASES = [("A", n, i) for n in (1, 2, 3) for i in range(1, n + 1)] + [
    ("D", 4, i) for i in (1, 2, 3, 4)
]


@pytest.mark.parametrize("kind, rank, i", SHIFT_CASES)
def test_spectral_shift_covariance(kind, rank, i):
    # the character at (i, r + 2) is the one at (i, r), translated by 2
    c = build_cartan(kind, rank)
    r = next(r for r in (0, 1) if c.in_ihat(i, r))
    base = fundamental_qt_character(c, i, r)
    moved = fundamental_qt_character(c, i, r + 2)
    assert dict(moved.terms) == shifted_terms(base, 2)
    if (kind, i) == ("D", 2):
        # a coefficient t + t^-1 (v-exponents 2 and -2) is translated as it is
        assert {2: 1, -2: 1} in base.terms.values()


class TestClassicalOracle:
    def test_a1(self, a1):
        chi = classical_fm_qchar(a1, 1, -2)
        assert set(chi) == {(((1, -2), 1),), (((1, 0), -1),)}
        assert all(m == 1 for m in chi.values())

    def test_a2_three_monomials(self, a2):
        chi = classical_fm_qchar(a2, 1, 0)
        assert set(chi) == {
            (((1, 0), 1),),
            (((1, 2), -1), ((2, 1), 1)),
            (((2, 3), -1),),
        }

    def test_type_a_multiplicity_one(self):
        for rank in (1, 2, 3, 4):
            c = build_cartan("A", rank)
            for i, r in type_a_origins(c):
                chi = classical_fm_qchar(c, i, r)
                assert all(m == 1 for m in chi.values())

    def test_a3_dimensions(self):
        c = build_cartan("A", 3)
        dims = {1: 4, 2: 6, 3: 4}
        for i, d in dims.items():
            r = 0 if c.in_ihat(i, 0) else 1
            assert len(classical_fm_qchar(c, i, r)) == d

    def test_off_lattice_rejected(self, a2):
        with pytest.raises(RepCharError):
            classical_fm_qchar(a2, 2, 0)

    def test_budget(self, a2, monkeypatch):
        monkeypatch.setattr(repchar, "FM_BUDGET", 1)
        with pytest.raises(RepCharError):
            classical_fm_qchar(a2, 1, 0)

    def test_cap_names_origin_not_node(self):
        # A_n nodes are all minuscule; A15 node 7 has C(16,7) = 11440 monomials
        with pytest.raises(RepCharError, match=r"origin \(7,0\) has more than 10000"):
            classical_fm_qchar(build_cartan("A", 15), 7, 0)

    @pytest.mark.parametrize(
        "label,rank,i,dim",
        [
            ("D", 4, 1, 8), ("D", 4, 3, 8), ("D", 4, 4, 8),
            ("D", 5, 1, 10), ("D", 5, 5, 16),
            ("E", 6, 1, 27), ("E", 6, 6, 27), ("E", 7, 7, 56),
        ],
    )
    def test_minuscule_dimensions(self, label, rank, i, dim):
        c = build_cartan(label, rank)
        r = 0 if c.in_ihat(i, 0) else 1
        chi = classical_fm_qchar(c, i, r)
        assert len(chi) == dim
        assert all(m == 1 for m in chi.values())

    @pytest.mark.parametrize(
        "label,rank,i",
        [("A", n, i) for n in range(1, 6) for i in range(1, n + 1)]
        + [("D", 4, 1), ("D", 4, 3), ("D", 4, 4), ("D", 5, 1), ("D", 5, 4), ("D", 5, 5),
           ("E", 6, 1), ("E", 6, 6)],
    )
    def test_embedded_equals_summed_elements(self, label, rank, i):
        # the reference sums one TorusElement per monomial, as the oracle did
        # before it summed the t=1 images into one dict
        c = build_cartan(label, rank)
        r = 0 if c.in_ihat(i, 0) else 1
        total = TorusElement.zero(c)
        for mono in classical_fm_qchar(c, i, r):
            total = total + embed_Y(c, dict(mono))
        assert fm_qchar_embedded(c, i, r) == evaluate_t1(total)

    @pytest.mark.parametrize("label,rank,i", [("D", 4, 2), ("E", 8, 1)])
    def test_non_minuscule_rejected(self, label, rank, i):
        # the D4 node-2 module has a monomial of multiplicity 2 (dimension
        # 29, 28 monomials); saturation would report 28 with multiplicity 1
        c = build_cartan(label, rank)
        r = 0 if c.in_ihat(i, 0) else 1
        with pytest.raises(RepCharError, match="minuscule"):
            classical_fm_qchar(c, i, r)

    @pytest.mark.parametrize("label,rank,i", [("A", 2, 9), ("A", 2, 0), ("E", 8, 9)])
    def test_node_out_of_range_rejected(self, label, rank, i):
        c = build_cartan(label, rank)
        with pytest.raises(CartanError, match=f"^node {i} out of range for {label}{rank}$"):
            classical_fm_qchar(c, i, 0)


class TestBaxter:
    @pytest.mark.parametrize("r", [-1, 0, 1])
    def test_pass(self, r):
        v = baxter_check(r)
        assert v.ok
        c = v.lhs.cartan
        want = TorusElement.monomial(c, {(1, 2 * r - 2): 1}, {-1: 1}) + (
            TorusElement.monomial(c, {(1, 2 * r + 2): 1}, {1: 1})
        )
        assert v.lhs == want

    def test_sign_flip_fails(self):
        v = baxter_check(0)
        c = v.lhs.cartan
        flipped = TorusElement.monomial(c, {(1, -2): 1}, {1: 1}) + (
            TorusElement.monomial(c, {(1, 2): 1}, {-1: 1})
        )
        assert v.lhs != flipped


class TestDrinfeldDouble:
    def test_all_pass(self):
        checks = drinfeld_double_check(q_sign=-1)
        assert len(checks) == 7
        assert all(ok for _, ok, _ in checks)

    def test_wrong_sign_fails_commutator_only(self):
        checks = drinfeld_double_check(q_sign=1)
        failed = [name for name, ok, _ in checks if not ok]
        assert failed == ["[E,F] = (q - q^-1)(K - K')"]

    def test_bad_sign_rejected(self):
        with pytest.raises(RepCharError):
            drinfeld_double_check(q_sign=2)


class TestThinness:
    @pytest.mark.parametrize("rank,i,r", [(1, 1, -2), (2, 1, 0), (3, 2, 1), (3, 1, 0)])
    def test_pass(self, rank, i, r):
        c = build_cartan("A", rank)
        name, ok, detail = thinness_flatten_check(c, i, r)
        assert ok, detail

    def test_non_a_rejected(self):
        with pytest.raises(RepCharError):
            thinness_flatten_check(build_cartan("D", 4), 1, 0)


class TestLadderProperty:
    def test_every_monomial_reachable_by_ladders(self, a2):
        # each non-leading t=1 monomial differs from the highest one by
        # inverse ladder steps, i.e. the oracle's saturation rediscovers it
        chi = classical_fm_qchar(a2, 1, 0)
        char = fundamental_qt_character(a2, 1, 0)
        embedded = {
            k for k in evaluate_t1(char)
        }
        via_oracle = set()
        for mono in chi:
            via_oracle.update(evaluate_t1(embed_Y(a2, dict(mono))).keys())
        assert embedded == via_oracle
