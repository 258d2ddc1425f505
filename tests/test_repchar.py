import functools

import pytest

from qgroth import qcluster, repchar
from qgroth.cartan import CartanError, build_cartan
from qgroth.qcluster import initial_seed, mutate_along
from qgroth.quiver import build_slice
from qgroth.qtorus import (
    TorusElement,
    TorusError,
    embed_Y,
    embed_Y_key,
    evaluate_t1,
    exact_left_divide,
    lambda_of,
    make_key,
)
from qgroth.repchar import (
    RepCharError,
    baxter_check,
    classical_fm_qchar,
    drinfeld_double_check,
    fm_qchar_embedded,
    fundamental_qt_character,
    fundamental_qt_characters,
    mutation_sequence,
    thinness_flatten_check,
)
from qgroth.verify import A2_SEQUENCE_GOLDEN, D4_SEQUENCE_GOLDEN


@pytest.fixture(scope="module")
def a1():
    return build_cartan("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_cartan("A", 2)


@functools.cache
def character(kind, rank, i, r):
    """The one-node character at (i, r), computed once for every test that
    reads it."""
    return fundamental_qt_character(build_cartan(kind, rank), i, r)


@pytest.fixture(scope="module")
def d5_r1():
    """D5's class {2,4,5} at r = 1 from one run, which the D5 tests at r = 1
    read: about half the time of three one-node runs."""
    return fundamental_qt_characters(build_cartan("D", 5), 1, [2, 4, 5])


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
        char = character("D", 4, 1, 0)
        assert evaluate_t1(char) == fm_qchar_embedded(c, 1, 0)
        assert len(char.terms) == 8

    @pytest.mark.slow
    @pytest.mark.parametrize("i", [3, 4])
    def test_d4_spin_nodes_match_oracle(self, i):
        c = build_cartan("D", 4)
        char = character("D", 4, i, 0)
        assert evaluate_t1(char) == fm_qchar_embedded(c, i, 0)
        assert len(char.terms) == 8

    # the minuscule nodes of D5, 10 and 16 monomials
    @pytest.mark.parametrize("i, r, terms", [(1, 0, 10), (4, 1, 16), (5, 1, 16)])
    def test_d5_minuscule_nodes_match_oracle(self, d5_r1, i, r, terms):
        c = build_cartan("D", 5)
        char = d5_r1[i] if r == 1 else fundamental_qt_character(c, i, r)
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
    r = next(r for r in (0, 1) if build_cartan(kind, rank).in_ihat(i, r))
    base = character(kind, rank, i, r)
    moved = character(kind, rank, i, r + 2)
    assert dict(moved.terms) == shifted_terms(base, 2)
    if (kind, i) == ("D", 2):
        # a coefficient t + t^-1 (v-exponents 2 and -2) is translated as it is
        assert {2: 1, -2: 1} in base.terms.values()


# (type, rank, sigma as the images of nodes 1..rank, origin, image): sigma is
# a diagram automorphism, and the image lies at (sigma(i), r + delta)
AUTOMORPHISM_CASES = [
    ("D", 4, (3, 2, 1, 4), (1, 0), (3, 0)),
    # the 28-monomial character with a coefficient t + t^-1
    ("D", 4, (3, 2, 1, 4), (2, 1), (2, 1)),
    ("D", 4, (4, 2, 3, 1), (1, 0), (4, 0)),
    ("D", 4, (1, 2, 4, 3), (3, 0), (4, 0)),
    ("D", 5, (1, 2, 3, 5, 4), (4, 1), (5, 1)),
    ("A", 3, (3, 2, 1), (1, 0), (3, 0)),
    ("A", 4, (4, 3, 2, 1), (1, 0), (4, 1)),
    ("A", 4, (4, 3, 2, 1), (2, 1), (3, 2)),
    ("A", 4, (4, 3, 2, 1), (2, 1), (3, 0)),
    ("A", 5, (5, 4, 3, 2, 1), (2, 1), (4, 1)),
]


@pytest.mark.parametrize("kind, rank, sigma, origin, image", AUTOMORPHISM_CASES)
def test_diagram_automorphism_covariance(d5_r1, kind, rank, sigma, origin, image):
    # relabelling nodes by sigma and levels by delta maps the character at
    # (i, r) onto the one at (sigma(i), r + delta), t-power by t-power
    (i, r), delta = origin, image[1] - origin[1]
    assert image[0] == sigma[i - 1]

    def chi(j, s):
        return d5_r1[j] if (kind, rank, s) == ("D", 5, 1) else character(kind, rank, j, s)

    base = chi(i, r)
    moved = {
        make_key({(sigma[j - 1], s + delta): e for (j, s), e in k}): coeff
        for k, coeff in base.terms.items()
    }
    assert TorusElement(build_cartan(kind, rank), moved) == chi(*image)
    if (kind, rank, origin) == ("D", 4, (2, 1)):
        assert len(base.terms) == 28 and {2: 1, -2: 1} in base.terms.values()


# (type, rank, class, level): each bipartite class of each type (A1 has one),
# each at two levels
CLASS_CASES = [
    (kind, rank, k, r)
    for kind, rank in [("A", n) for n in (1, 2, 3, 4, 5)] + [("D", 4)]
    for k in ((0,) if rank == 1 else (0, 1))
    for r in (k, k + 2)
]


class TestClassRun:
    @pytest.mark.parametrize("kind, rank, k, r", CLASS_CASES)
    def test_equals_the_one_node_runs(self, kind, rank, k, r):
        c = build_cartan(kind, rank)
        nodes = [i for i in c.nodes if c.node_class(i) == k]
        chars = fundamental_qt_characters(c, r, nodes)
        assert list(chars) == nodes
        for i in nodes:
            assert chars[i] == character(kind, rank, i, r), i

    def test_d5_class_equals_the_one_node_runs(self, d5_r1):
        assert list(d5_r1) == [2, 4, 5]
        for i in (2, 4, 5):
            assert d5_r1[i] == character("D", 5, i, 1), i
        # chi(2,1) has 45 monomials, one of them with coefficient t + t^-1
        coeffs = list(d5_r1[2].terms.values())
        assert len(coeffs) == 45
        assert [co for co in coeffs if co != {0: 1}] == [{2: 1, -2: 1}]

    def test_one_node_is_the_class_function(self, monkeypatch):
        c, calls = build_cartan("D", 4), []
        real = repchar.fundamental_qt_characters
        monkeypatch.setattr(
            repchar, "fundamental_qt_characters",
            lambda *args: calls.append(args) or real(*args),
        )
        assert fundamental_qt_character(c, 3, 0) == real(c, 0, [3])[3]
        assert calls == [(c, 0, [3])]

    def test_a_repeated_node_is_read_once(self):
        c = build_cartan("D", 4)
        chars = fundamental_qt_characters(c, 0, [4, 1, 4])
        assert list(chars) == [4, 1]
        assert chars == fundamental_qt_characters(c, 0, [4, 1])

    def test_no_nodes_run_nothing(self, a2, monkeypatch):
        calls = []
        monkeypatch.setattr(qcluster, "mutate", lambda seed, k: calls.append(k))
        assert fundamental_qt_characters(a2, 0, []) == {}
        assert calls == []

    @pytest.mark.parametrize(
        "kind, rank, r, nodes, error, message",
        [
            # two classes: node 2 of D4 is off the lattice at an even level
            ("D", 4, 0, [1, 3, 2], RepCharError, r"^origin \(2,0\) lies off"),
            ("D", 4, 1, [2, 1], RepCharError, r"^origin \(1,1\) lies off"),
            ("D", 4, 0, [1, 9], CartanError, r"^node 9 out of range for D4$"),
            ("D", 4, 0, [9], CartanError, r"^node 9 out of range for D4$"),
            ("A", 2, 1, [1], RepCharError, r"^origin \(1,1\) lies off"),
        ],
    )
    def test_refused_before_any_step(self, monkeypatch, kind, rank, r, nodes, error, message):
        calls = []
        monkeypatch.setattr(qcluster, "mutate", lambda seed, k: calls.append(k))
        with pytest.raises(error, match=message):
            fundamental_qt_characters(build_cartan(kind, rank), r, nodes)
        assert calls == []


class TestTwoBuilds:
    """Cartan data are values, so characters computed on two builds of one
    Dynkin type meet in every operation; other types never do."""

    def test_d5_chi_2_1_from_two_builds_is_equal(self, d5_r1):
        one = character("D", 5, 2, 1)
        assert one.cartan is not d5_r1[2].cartan
        assert one == d5_r1[2] and d5_r1[2] == one
        assert hash(one) == hash(d5_r1[2])

    def test_d4_values_from_two_builds_meet(self):
        c, d = build_cartan("D", 4), build_cartan("D", 4)
        x, y = fundamental_qt_character(c, 1, 0), fundamental_qt_character(d, 1, 4)
        y_c = fundamental_qt_character(c, 1, 4)
        # a non-resonant pair, so x * y = v^p y * x with p = 2 Lambda(Y_{1,0}, Y_{1,4}),
        # checked on one build
        p = 2 * lambda_of(c, embed_Y_key(c, {(1, 0): 1}), embed_Y_key(c, {(1, 4): 1}))
        assert p == 2 and x * y_c == (y_c * x).scaled({p: 1})
        assert x * y == (y_c * x).scaled({2: 1}) and y * x == y_c * x
        assert exact_left_divide(x * y, x) == y_c and exact_left_divide(y * x, y) == x
        assert x + y == x + y_c and (y - y_c) == TorusElement.zero(c)
        # a D5 value still meets neither
        z = fundamental_qt_character(build_cartan("D", 5), 1, 0)
        assert x != z and z != x
        with pytest.raises(TorusError):
            x * z


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
            # crit_7's origins: every node at each level of -2 .. 1 on its lattice
            for r in (-2, -1, 0, 1):
                for i in [i for i in c.nodes if c.in_ihat(i, r)]:
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
