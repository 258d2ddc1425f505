import json
import random
from functools import cmp_to_key
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgroth import compat, qtorus, repchar
from qgroth.cartan import CartanError, build_cartan, skew_form
from qgroth.cli import _json_chunks
from qgroth.qcluster import initial_seed
from qgroth.quiver import build_slice
from qgroth.qtorus import (
    NonExactDivision,
    TermBudgetError,
    TorusElement,
    TorusError,
    a_monomial,
    embed_Y,
    evaluate_t1,
    exact_left_divide,
    frame_variables,
    lambda_of,
    make_key,
    tc_exact_div,
    vertex_sort_key,
)

monomial = TorusElement.monomial


@pytest.fixture(scope="module")
def a1():
    return build_cartan("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_cartan("A", 2)


@pytest.fixture(scope="module")
def d4():
    return build_cartan("D", 4)


class TestLambdaOf:
    def test_a1_adjacent_levels(self, a1):
        assert lambda_of(a1, {(1, 0): 1}, {(1, 2): 1}) == -1

    def test_skew(self, d4):
        e = {(1, 2): 1, (2, -1): 2}
        assert lambda_of(d4, e, e) == 0
        f = {(3, 0): 1}
        assert lambda_of(d4, e, f) == -lambda_of(d4, f, e)

    def test_d4_printed_entry(self, d4):
        assert lambda_of(d4, {(1, 2): 1}, {(2, -1): 1}) == 1


class TestProduct:
    def test_sl2_commutation(self, a1):
        z0 = monomial(a1, {(1, 0): 1})
        z2 = monomial(a1, {(1, 2): 1})
        # z0 * z2 = t^{-1/2} comm(z0 z2), so z0 z2 = t^{-1} z2 z0
        assert z0 * z2 == monomial(a1, {(1, 0): 1, (1, 2): 1}, {-1: 1})
        assert z0 * z2 == (z2 * z0).scaled({-2: 1})

    def test_inverse_cancels(self, a2):
        e = {(1, 0): 2, (2, 1): -1}
        ne = {k: -v for k, v in e.items()}
        assert monomial(a2, e) * monomial(a2, ne) == TorusElement.one(a2)

    def test_d4_product_prefactor(self, d4):
        got = monomial(d4, {(1, 2): 1}) * monomial(d4, {(2, -1): 1})
        assert got == monomial(d4, {(1, 2): 1, (2, -1): 1}, {1: 1})

    def test_unit(self, a2):
        one = TorusElement.one(a2)
        x = monomial(a2, {(1, 0): 1}, {3: 2}) + monomial(a2, {(2, 1): -1})
        assert x * one == x and one * x == x

    def test_associativity_random(self, a2):
        rng = random.Random(3)
        verts = [(i, r) for i in a2.nodes for r in range(-5, 6) if a2.in_ihat(i, r)]

        def rand_el():
            out = TorusElement.zero(a2)
            for _ in range(rng.randint(1, 5)):
                exp = {v: rng.randint(-2, 2) for v in rng.sample(verts, 2)}
                out = out + monomial(a2, exp, {rng.randint(-2, 2): rng.randint(-3, 3)})
            return out

        for _ in range(200):
            x, y, z = rand_el(), rand_el(), rand_el()
            assert (x * y) * z == x * (y * z)

    def test_cross_cartan_rejected(self, a1, a2):
        with pytest.raises(TorusError):
            monomial(a1, {(1, 0): 1}) * monomial(a2, {(1, 0): 1})
        # nor the untwisted (t=1) ring, so classical values cannot leak
        # into quantum arithmetic
        x = TorusElement.monomial(None, {(1, 0): 1})
        y = monomial(a1, {(1, 0): 1})
        for op in (mul, add, exact_left_divide):
            for p, q in ((x, y), (y, x)):
                with pytest.raises(TorusError):
                    op(p, q)
        assert x != y and y != x


class TestTermBudget:
    # ten terms in each factor and none in common, so the product has 100
    # distinct terms and the sum 20
    @pytest.fixture
    def factors(self, a2):
        a = sum((monomial(a2, {(1, 0): x}) for x in range(10)), TorusElement.zero(a2))
        b = sum((monomial(a2, {(2, 1): y}) for y in range(1, 11)), TorusElement.zero(a2))
        return a, b

    def test_product_stops_part_way(self, factors, monkeypatch):
        a, b = factors
        monkeypatch.setattr(qtorus, "TERM_BUDGET", 25)
        with pytest.raises(TermBudgetError) as info:
            a * b
        err = info.value
        # counted after each term of a: three rows of ten, not all 100 terms
        assert err.terms == 30 and err.budget == 25
        assert str(err) == "a star product has 30 terms, more than the term budget of 25"

    def test_product_at_the_budget_passes(self, factors, monkeypatch):
        a, b = factors
        monkeypatch.setattr(qtorus, "TERM_BUDGET", 100)
        assert len((a * b).dense) == 100

    def test_sum_over_budget(self, factors, monkeypatch):
        a, b = factors
        monkeypatch.setattr(qtorus, "TERM_BUDGET", 19)
        with pytest.raises(TermBudgetError) as info:
            a + b
        assert (info.value.terms, info.value.budget) == (20, 19)
        assert str(info.value) == "a sum has 20 terms, more than the term budget of 19"
        # a difference is a sum too
        with pytest.raises(TermBudgetError):
            a - b

    def test_division_remainder_over_budget(self, monkeypatch):
        # untwisted, on 8 vertices: prod(1 + z_j) * prod(1 - z_j) divided by
        # prod(1 + z_j), 256 terms each; the remainder peaks at 882 terms
        one = TorusElement.one(None)
        p = m = one
        for j in range(8):
            z = monomial(None, {(j, 0): 1})
            p, m = p * (one + z), m * (one - z)
        num = p * m
        monkeypatch.setattr(qtorus, "TERM_BUDGET", 500)
        with pytest.raises(TermBudgetError) as info:
            exact_left_divide(num, p)
        assert str(info.value) == (
            "a division remainder has 510 terms, more than the term budget of 500"
        )
        monkeypatch.setattr(qtorus, "TERM_BUDGET", 882)
        assert exact_left_divide(num, p) == m


class TestBar:
    def test_scalar(self, a1):
        m = monomial(a1, {(1, 0): 1}, {1: 1})
        assert m.bar() == monomial(a1, {(1, 0): 1}, {-1: 1})

    def test_involution(self, a2):
        x = monomial(a2, {(1, 0): 1}, {2: 3}) + monomial(a2, {(2, 1): -2}, {-1: 1})
        assert x.bar().bar() == x

    def test_fixes_comm_monomials(self, d4):
        m = monomial(d4, {(1, 0): 1, (2, -1): -2, (3, 2): 1})
        assert m.bar() == m

    def test_anti_automorphism(self, a2):
        rng = random.Random(5)
        verts = [(i, r) for i in a2.nodes for r in range(-5, 6) if a2.in_ihat(i, r)]
        for _ in range(100):
            exps = [
                {v: rng.randint(-2, 2) for v in rng.sample(verts, 2)} for _ in range(2)
            ]
            x = monomial(a2, exps[0], {rng.randint(-2, 2): 1})
            y = monomial(a2, exps[1], {rng.randint(-2, 2): 1})
            assert (x * y).bar() == y.bar() * x.bar()


class TestEmbedY:
    def test_single_y(self, a1):
        assert embed_Y(a1, {(1, -2): 1}) == monomial(a1, {(1, -2): 1, (1, 0): -1})

    def test_empty(self, a2):
        assert embed_Y(a2, {}) == TorusElement.one(a2)

    def test_off_lattice_rejected(self, a2):
        with pytest.raises(TorusError):
            embed_Y(a2, {(1, 1): 1})

    def test_commutation_matches_n_form(self, a1):
        from qgroth.cartan import n_form

        y1 = embed_Y(a1, {(1, 0): 1})   # Y at shift 1
        y3 = embed_Y(a1, {(1, 2): 1})   # Y at shift 3
        # the embedded images t-commute with exponent n_form at the key gap
        gap = n_form(a1, 1, 1, 2)
        assert gap == -2
        assert y1 * y3 == (y3 * y1).scaled({2 * gap: 1})

    def test_multiplicative(self, a2):
        # multiplicative up to the v-power the star product inserts
        ya = {(1, 0): 1, (2, 1): -1}
        yb = {(1, 2): 2}
        combined = dict(ya)
        for k, v in yb.items():
            combined[k] = combined.get(k, 0) + v
        ea, eb = embed_Y(a2, ya), embed_Y(a2, yb)
        shift = lambda_of(a2, next(iter(ea.terms)), next(iter(eb.terms)))
        assert ea * eb == embed_Y(a2, combined).scaled({shift: 1})


class TestAMonomial:
    def test_a1_ladder(self, a1):
        # the ladder entering the rank-1 fundamental character
        assert a_monomial(a1, 1, 1) == {(1, -2): 1, (1, 0): 1}

    def test_a2_ladder(self, a2):
        assert a_monomial(a2, 1, 1) == {(1, -2): 1, (1, 0): 1, (2, -1): -1}

    def test_keys_on_lattice(self, d4):
        out = a_monomial(d4, 2, 2)
        for (i, r) in out:
            assert d4.in_ihat(i, r)

    def test_bad_parity_rejected(self, a2):
        with pytest.raises(TorusError):
            a_monomial(a2, 1, 0)

    def test_sl2_character_ladder(self, a1):
        # Y(1,-2) * A^{-1} = Y(1,0)^{-1}
        lower = {(1, -2): 1}
        for k, v in a_monomial(a1, 1, 1).items():
            lower[k] = lower.get(k, 0) - v
        assert {k: v for k, v in lower.items() if v} == {(1, 0): -1}


class TestEvaluateT1:
    def test_drops_t(self, a1):
        x = monomial(a1, {(1, 0): 1}, {3: 2})
        assert evaluate_t1(x) == {make_key({(1, 0): 1}): 2}

    def test_unit(self, a2):
        assert evaluate_t1(TorusElement.one(a2)) == {(): 1}

    def test_ring_morphism(self, a2):
        rng = random.Random(9)
        verts = [(i, r) for i in a2.nodes for r in range(-5, 6) if a2.in_ihat(i, r)]
        for _ in range(50):
            x = monomial(a2, {rng.choice(verts): rng.randint(-2, 2)}, {1: 2}) + (
                monomial(a2, {rng.choice(verts): 1})
            )
            y = monomial(a2, {rng.choice(verts): rng.randint(-2, 2)}, {-1: 1})
            assert evaluate_t1(x * y) == ref_cp_mul(evaluate_t1(x), evaluate_t1(y))

    def test_baxter_classical_image(self, a1):
        rhs = monomial(a1, {(1, -2): 1, (1, 0): -1}, {-1: 1}) + monomial(
            a1, {(1, 2): 1, (1, 0): -1}, {1: 1}
        )
        assert evaluate_t1(rhs) == {
            make_key({(1, -2): 1, (1, 0): -1}): 1,
            make_key({(1, 2): 1, (1, 0): -1}): 1,
        }


class TestExactDivision:
    def test_round_trip_random(self, a2):
        rng = random.Random(17)
        verts = [(i, r) for i in a2.nodes for r in range(-5, 6) if a2.in_ihat(i, r)]

        def rand_el(terms):
            out = TorusElement.zero(a2)
            for _ in range(terms):
                exp = {v: rng.randint(-2, 2) for v in rng.sample(verts, 2)}
                out = out + monomial(a2, exp, {rng.randint(-2, 2): rng.randint(1, 3)})
            return out

        for _ in range(100):
            d = rand_el(rng.randint(1, 3))
            x = rand_el(rng.randint(1, 4))
            if not d:
                continue
            assert exact_left_divide(d * x, d) == x

    def test_monomial_divisor(self, a1):
        x = monomial(a1, {(1, 0): 1}) + monomial(a1, {(1, 2): -1}, {2: 1})
        d = monomial(a1, {(1, -2): 1}, {1: 1})
        assert d * exact_left_divide(x, d) == x

    def test_non_exact_raises_with_remainder(self, a1):
        a = monomial(a1, {(1, 0): 1}) + monomial(a1, {(1, 2): 1})
        d = monomial(a1, {(1, 0): 1}) + monomial(a1, {(1, -2): 1})
        with pytest.raises(NonExactDivision) as info:
            exact_left_divide(a, d)
        assert info.value.remainder

    @pytest.mark.parametrize(
        "a_exps, d_exps",
        [
            # in (1,0) the box is [0 - (-1), 0 - 1], and the first
            # candidate z[1,2]z[1,0]^-1 lies below it
            ([{(1, 2): -1}, {(1, 2): 1}], [{(1, 0): -1}, {(1, 0): 1}]),
            # in (1,-2) the box is [0 - (-1), 1 - 1], and the first
            # candidate z[1,-2] lies above it
            (
                [{(1, 0): 1}, {(1, 2): -1, (1, -2): 1}],
                [{(1, 2): -1, (1, -2): 1}, {(1, 0): 1, (1, -2): -1}],
            ),
        ],
        ids=["below", "above"],
    )
    def test_first_candidate_outside_box(self, a1, a_exps, d_exps):
        a = monomial(a1, a_exps[0]) + monomial(a1, a_exps[1])
        d = monomial(a1, d_exps[0]) + monomial(a1, d_exps[1])
        with pytest.raises(NonExactDivision) as info:
            exact_left_divide(a, d)
        err = info.value
        assert err.reason == NonExactDivision.OUTSIDE_BOX
        assert (err.num_terms, err.den_terms) == (2, 2)
        assert err.remainder == a

    def test_non_exact_coefficient(self, a1):
        a = monomial(a1, {(1, 0): 1, (1, 2): 1}, 3)
        d = monomial(a1, {(1, 0): 1}, 2)
        with pytest.raises(NonExactDivision) as info:
            exact_left_divide(a, d)
        assert info.value.reason == NonExactDivision.NON_EXACT_COEFFICIENT
        assert (info.value.num_terms, info.value.den_terms) == (1, 1)

    def test_divide_by_zero(self, a1):
        with pytest.raises(TorusError):
            exact_left_divide(TorusElement.one(a1), TorusElement.zero(a1))


class TestTCoeffDivision:
    def test_exact(self):
        assert tc_exact_div({2: 1, 0: 2, -2: 1}, {1: 1, -1: 1}) == {1: 1, -1: 1}

    def test_not_exact(self):
        with pytest.raises(TorusError):
            tc_exact_div({0: 1}, {1: 1, 0: 1})

    def test_integer_obstruction(self):
        with pytest.raises(TorusError):
            tc_exact_div({0: 3}, {0: 2})


class TestRendering:
    def test_text(self, a1):
        x = monomial(a1, {(1, 2): 1, (1, 0): -1}) + monomial(a1, {(1, -2): 1}, {-1: 2})
        assert x.to_text() == "z[1,2]z[1,0]^-1 + 2*t^{-1/2}*z[1,-2]"

    def test_json_deterministic(self, a2):
        x = monomial(a2, {(1, 0): 1, (2, 1): -2}, {1: 1}) + monomial(a2, {(1, 2): 1})
        text = "".join(_json_chunks({"terms": x}))
        assert text == "".join(_json_chunks({"terms": x}))
        assert all("t_num" in term for term in json.loads(text)["terms"])

    def test_zero(self, a1):
        assert TorusElement.zero(a1).to_text() == "0"
        assert TorusElement.zero(a1).to_text(2) == "0"

    def test_text_limit(self, a1):
        x = TorusElement.zero(a1)
        for r in range(-4, 6, 2):
            x = x + monomial(a1, {(1, r): 1}, {r: 1})
        whole = x.to_text()
        assert whole.count(" + ") == 4
        assert x.to_text(2) == " + ".join(whole.split(" + ")[:2]) + " … and 3 more terms"
        assert x.to_text(5) == x.to_text(9) == whole

    def test_printing_builds_no_terms_view(self, a1):
        x = monomial(a1, {(1, 2): 1, (1, 0): -1}) + monomial(a1, {(1, -2): 1}, {-1: 2})
        y = x * x
        y.to_text(), y.to_text(1), list(y.sorted_terms())
        "".join(_json_chunks({"terms": y}))
        assert y._terms is None

    def test_engine_reads_build_no_terms_view(self, a1, monkeypatch):
        x = monomial(a1, {(1, 2): 1, (1, 0): -1}) + monomial(a1, {(1, -2): 1}, {-1: 2})
        y = x * x
        # at t=1, (a + 2b)^2 = a^2 + 4ab + 4b^2
        assert evaluate_t1(y) == {
            make_key({(1, 2): 2, (1, 0): -2}): 1,
            make_key({(1, 2): 1, (1, 0): -1, (1, -2): 1}): 4,
            make_key({(1, -2): 2}): 4,
        }
        values, character = [], repchar.fundamental_qt_character

        def spy(*args):
            value = character(*args)
            values.append(value)
            return value

        monkeypatch.setattr(repchar, "fundamental_qt_character", spy)
        assert repchar.thinness_flatten_check(build_cartan("A", 3), 2, 1)[1]
        assert values and all(el._terms is None for el in [y, *values])


class TestConstructor:
    def test_keys_of_one_monomial_add_up(self, d4):
        k1 = (((1, 0), 1), ((2, -1), 2))
        k2 = (((2, -1), 2), ((1, 0), 1))
        c1, c2 = {0: 1}, {0: 1, 3: 0}
        x = TorusElement(d4, {k1: c1, k2: c2})
        want = monomial(d4, {(1, 0): 1, (2, -1): 2}, 2)
        assert x.terms == want.terms == {make_key({(1, 0): 1, (2, -1): 2}): {0: 2}}
        assert x == want and hash(x) == hash(want)
        assert (c1, c2) == ({0: 1}, {0: 1, 3: 0})
        # the element holds no reference to the caller's dicts
        c1[0] = c2[0] = 5
        assert x.terms == want.terms
        assert not TorusElement(d4, {k1: {1: 1}, k2: {1: -1}})

    def test_zero_exponent_vanishes(self, d4):
        one = TorusElement.one(d4)
        x = TorusElement(d4, {(((1, 0), 0),): {0: 1}})
        assert x.terms == one.terms == {(): {0: 1}}
        assert x == one and hash(x) == hash(one)
        y = TorusElement(d4, {(((1, 0), 0), ((2, 1), -1)): {1: 3}})
        want = monomial(d4, {(2, 1): -1}, {1: 3})
        assert y.terms == want.terms and y == want and hash(y) == hash(want)


class TestZeroCoefficients:
    def test_dropped_on_construction(self, a2):
        x = monomial(a2, {(1, 0): 1}, {1: 2})
        z = monomial(a2, {(2, 1): 1}, {3: 0})
        assert not z and z.to_text() == "0" and z == TorusElement.zero(a2)
        assert z.frame.verts == ()  # a zero term brings no vertex
        assert x + z == x and z + x == x
        mixed = monomial(a2, {(1, 2): 1}, {0: 0, 2: 5})
        assert mixed.terms == {make_key({(1, 2): 1}): {2: 5}}
        assert not TorusElement(a2, {make_key({(1, 0): 1}): {0: 0, 1: 0}})

    def test_zero_divisor_raises_torus_error(self, a2):
        x = monomial(a2, {(1, 0): 1})
        with pytest.raises(TorusError):
            exact_left_divide(x, monomial(a2, {(2, 1): 1}, {3: 0}))

    def test_scaled_by_zero(self, a2):
        x = monomial(a2, {(1, 0): 1}, {1: 2})
        assert not x.scaled({5: 0}) and not x.scaled(0)
        assert x.scaled({5: 0, 1: 3}) == monomial(a2, {(1, 0): 1}, {2: 6})


# ------------------------------------------------ references for the dense core

def ref_key_sum(ke, kf):
    exp = dict(ke)
    for u, e in kf:
        exp[u] = exp.get(u, 0) + e
    return make_key(exp)


def ref_star(a, b):
    """The pairwise star product: one lambda_of per pair of terms."""
    out = {}
    for ke, ce in a.terms.items():
        for kf, cf in b.terms.items():
            shift = lambda_of(a.cartan, ke, kf)
            acc = out.setdefault(ref_key_sum(ke, kf), {})
            for p, x in ce.items():
                for q, y in cf.items():
                    acc[p + q + shift] = acc.get(p + q + shift, 0) + x * y
    out = {k: {p: n for p, n in c.items() if n} for k, c in out.items()}
    return {k: c for k, c in out.items() if c}


def untwisted(p):
    """The untwisted (t=1) element with the integer terms of p."""
    return TorusElement(None, {k: {0: n} for k, n in p.items()})


def ref_cp_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ref_key_sum(ka, kb)
            out[k] = out.get(k, 0) + va * vb
    return {k: n for k, n in out.items() if n}


def keys_in_order(x):
    return [k for k, _ in x.sorted_terms()]


def ref_key_cmp(a, b):
    """Lex comparison along the reading order; a missing vertex counts as 0."""
    ea, eb = dict(a), dict(b)
    for u in sorted(ea.keys() | eb.keys(), key=vertex_sort_key):
        x, y = ea.get(u, 0), eb.get(u, 0)
        if x != y:
            return 1 if x > y else -1
    return 0


REF_CARTANS = {
    label: (c, [(i, r) for i in c.nodes for r in range(-4, 5) if c.in_ihat(i, r)])
    for label, c in (("A3", build_cartan("A", 3)), ("D4", build_cartan("D", 4)))
}


@st.composite
def mixed_elements(draw, label, max_terms=5, coeff_terms=1):
    """Elements with coefficients of both signs, so products can cancel;
    each monomial's coefficient has up to coeff_terms powers of v."""
    c, verts = REF_CARTANS[label]
    out = TorusElement.zero(c)
    for _ in range(draw(st.integers(1, max_terms))):
        support = draw(st.lists(st.sampled_from(verts), min_size=1, max_size=4, unique=True))
        exp = {v: draw(st.integers(-2, 2)) for v in support}
        coeff = {
            draw(st.integers(-2, 2)): draw(st.integers(-3, 3))
            for _ in range(draw(st.integers(1, coeff_terms)))
        }
        out = out + monomial(c, exp, coeff)
    return out


REF_SETTINGS = settings(max_examples=80, deadline=None, database=None)


class TestDenseCoreAgainstReferences:
    @REF_SETTINGS
    @given(data=st.data(), label=st.sampled_from(sorted(REF_CARTANS)))
    def test_star_product(self, data, label):
        a = data.draw(mixed_elements(label))
        b = data.draw(mixed_elements(label))
        assert (a * b).terms == ref_star(a, b)

    @REF_SETTINGS
    @given(data=st.data(), label=st.sampled_from(sorted(REF_CARTANS)))
    def test_classical_product(self, data, label):
        a = evaluate_t1(data.draw(mixed_elements(label)))
        b = evaluate_t1(data.draw(mixed_elements(label)))
        assert evaluate_t1(untwisted(a) * untwisted(b)) == ref_cp_mul(a, b)

    @REF_SETTINGS
    @given(data=st.data(), label=st.sampled_from(sorted(REF_CARTANS)))
    def test_term_order(self, data, label):
        x = data.draw(mixed_elements(label, max_terms=8))
        if not x:
            return
        want = sorted(x.terms, key=cmp_to_key(ref_key_cmp), reverse=True)
        assert keys_in_order(x) == want
        assert [k for k, _ in x.sorted_terms(3)] == want[:3]
        assert all(c == x.terms[k] for k, c in x.sorted_terms())
        assert (x.lead_key(), x.trail_key()) == (want[0], want[-1])

    def test_term_order_disjoint_supports(self, d4):
        # z[2,3] leads: it is the only key with a nonzero exponent at level 3,
        # the top level present; z[1,2]^-1 trails behind the empty key
        exps = [{(1, 2): -1}, {(2, 3): 1}, {(3, 0): -2, (4, 0): 1}, {}, {(1, 2): 1, (3, 0): -1}]
        x = TorusElement.zero(d4)
        for e in exps:
            x = x + monomial(d4, e)
        keys = [make_key(e) for e in exps]
        want = sorted(keys, key=cmp_to_key(ref_key_cmp), reverse=True)
        assert want[0] == make_key({(2, 3): 1}) and want[-1] == make_key({(1, 2): -1})
        assert keys_in_order(x) == want
        assert (x.lead_key(), x.trail_key()) == (want[0], want[-1])


# ------------------------------------------- elements kept dense in a seed frame

SEED_FRAMES = {
    label: initial_seed(build_slice(c, window=(-6, 6)))
    for label, (c, _verts) in REF_CARTANS.items()
}


def in_seed_frame(x, label):
    """x re-homed into the frame of a seed's variables: multiplied by the
    unit that left-dividing one of them by itself gives in that frame."""
    z = next(iter(SEED_FRAMES[label].vars.values()))
    out = exact_left_divide(z, z) * x
    assert out.frame is z.frame
    return out


def assert_frame_whole(frame):
    """The frame holds its vertices in reading order and the skew form on
    them whole, however it was built."""
    assert list(frame.verts) == sorted(frame.verts, key=vertex_sort_key)
    assert frame.lam == skew_form(frame.cartan, frame.verts)


class TestSeedFrame:
    @REF_SETTINGS
    @given(data=st.data(), label=st.sampled_from(sorted(REF_CARTANS)))
    def test_ring_operations_agree_across_frames(self, data, label):
        x = data.draw(mixed_elements(label))
        y = data.draw(mixed_elements(label))
        xs, ys = in_seed_frame(x, label), in_seed_frame(y, label)
        assert xs == x and hash(xs) == hash(x) and xs.terms == x.terms
        for left, right in ((x, y), (y, x)):
            homed = (in_seed_frame(left, label), in_seed_frame(right, label))
            for a, b in ((left, right), homed):
                assert (a * b).terms == ref_star(left, right)
        assert (xs * y).terms == (x * ys).terms == ref_star(x, y)
        assert (xs + ys).terms == (xs + y).terms == (x + y).terms
        assert xs.bar() == x.bar() and xs.bar().frame is xs.frame
        assert keys_in_order(xs) == keys_in_order(x)
        if x:
            assert exact_left_divide(xs * ys, xs) == exact_left_divide(x * y, x) == y
            assert exact_left_divide(xs * ys, xs).frame is xs.frame

    @REF_SETTINGS
    @given(data=st.data(), label=st.sampled_from(sorted(REF_CARTANS)))
    def test_division_outcome_agrees_across_frames(self, data, label):
        a = data.draw(mixed_elements(label))
        d = data.draw(mixed_elements(label))
        if not d:
            return
        # random pairs are nearly always non-exact; compare the whole outcome
        outcomes = []
        for num, den in ((a, d), (in_seed_frame(a, label), in_seed_frame(d, label))):
            try:
                outcomes.append(exact_left_divide(num, den))
            except NonExactDivision as err:
                outcomes.append((err.reason, err.remainder, err.num_terms, err.den_terms))
        assert outcomes[0] == outcomes[1]

    def test_operand_outside_the_seed_frame(self):
        # z[1,10] lies outside the slice, so the product meets in a frame on
        # the union of both frames' vertices, with its skew form read whole
        d4 = REF_CARTANS["D4"][0]
        x = in_seed_frame(monomial(d4, {(2, -1): 2, (3, 4): -1}, {1: 3}), "D4")
        w = monomial(d4, {(1, 10): 1, (2, -1): -1})
        for a, b in ((x, w), (w, x)):
            assert (a * b).terms == ref_star(a, b)
            assert exact_left_divide(a * b, a) == b
            assert_frame_whole((a * b).frame)
            assert set((a * b).frame.verts) == set(x.frame.verts) | set(w.frame.verts)


class TestFrames:
    def test_key_born_element(self, d4):
        x = monomial(d4, {(2, -1): 2, (3, 4): -1, (1, 0): 1}) + monomial(d4, {(4, 2): 1})
        assert_frame_whole(x.frame)
        assert set(x.frame.verts) == {(2, -1), (3, 4), (1, 0), (4, 2)}

    def test_seed_variable(self):
        seed = SEED_FRAMES["D4"]
        z = seed.vars[seed.slice.vertices[0]]
        assert_frame_whole(z.frame)
        assert z.frame.verts == tuple(seed.slice.vertices)

    def test_equal_vertex_sets_meet_unmoved(self, d4):
        # distinct frames on one vertex set meet as they are, with no new
        # frame and no moved copy
        x = monomial(d4, {(1, 0): 1, (2, -1): -1}, {1: 2})
        y = monomial(d4, {(2, -1): 2, (1, 0): 1})
        assert x.frame is not y.frame and x.frame.verts == y.frame.verts
        a, b = x._join(y)
        assert a is x and b is y
        assert (x * y).frame is x.frame and (y + x).frame is y.frame

    def test_untwisted_frame_has_no_skew_form(self):
        assert TorusElement.monomial(None, {(1, 0): 1, (1, 2): -1}).frame.lam is None

    @pytest.mark.parametrize("label", sorted(REF_CARTANS))
    def test_frame_variables_sort_their_vertices(self, label):
        c = REF_CARTANS[label][0]
        verts = SEED_FRAMES[label].slice.vertices
        forward = frame_variables(c, verts)
        backward = frame_variables(c, verts[::-1])
        assert backward == forward
        for z in (*forward.values(), *backward.values()):
            assert_frame_whole(z.frame)

    def test_frame_variables_take_a_skew_form_in_reading_order(self, d4):
        verts = [(2, 1), (1, 0), (3, 0), (4, 0)]
        lam = skew_form(d4, verts)
        z = frame_variables(d4, verts, lam)[(2, 1)]
        assert z.frame.verts == tuple(verts) and z.frame.lam is lam
        with pytest.raises(TorusError, match="reading order"):
            frame_variables(d4, verts[::-1], skew_form(d4, verts[::-1]))


# ------------------------------------------ the skew form, read when needed

@pytest.fixture
def skew_form_calls(monkeypatch):
    """The vertices of each skew form read by qtorus or compat, in order."""
    calls = []

    def counted(c, verts):
        calls.append(tuple(verts))
        return skew_form(c, verts)

    for module in (qtorus, compat):
        monkeypatch.setattr(module, "skew_form", counted)
    return calls


class TestLazySkewForm:
    def test_key_born_arithmetic_reads_none(self, d4, skew_form_calls):
        x = monomial(d4, {(2, -1): 2, (3, 4): -1}, {1: 3}) + monomial(d4, {(1, 0): 1})
        y = monomial(d4, {(1, 0): -1, (4, 2): 1}, {-1: 2})
        total, diff = x + y, x - y
        assert total != diff and x == x + TorusElement.zero(d4)
        assert x.bar().bar() == x
        assert total.to_text() and diff.to_text(1)
        moved = x._moved(total.frame)  # into a frame on more vertices
        assert moved.frame is total.frame and moved == x
        assert skew_form_calls == []

    def test_a_product_reads_its_frame_once(self, d4, skew_form_calls):
        x = monomial(d4, {(2, -1): 2, (3, 4): -1}, {1: 3})
        y = monomial(d4, {(1, 0): -1, (4, 2): 1}, {-1: 2})
        xy = x * y  # x and y meet in a new frame on their union
        assert skew_form_calls == [xy.frame.verts]
        square = xy * xy
        assert square.frame is xy.frame and exact_left_divide(square, xy) == xy
        assert len(skew_form_calls) == 1
        assert_frame_whole(xy.frame)

    def test_untwisted_frames_read_none(self, skew_form_calls):
        u = monomial(None, {(1, 0): 1, (1, 2): -1}) + monomial(None, {(1, 4): 1})
        assert (u * u).frame.lam is None and u.frame.lam is None
        assert skew_form_calls == []

    def test_a_node_off_the_cartan_data_is_refused_when_built(self, skew_form_calls):
        a3 = build_cartan("A", 3)
        with pytest.raises(CartanError, match="node 9 out of range"):
            monomial(a3, {(9, 0): 1})
        with pytest.raises(CartanError, match="node 4 out of range"):
            TorusElement(a3, {(((1, 0), 1), ((4, 1), -1)): {0: 1}})
        assert skew_form_calls == []

    def test_a_seed_reads_one_skew_form(self, skew_form_calls):
        slc = build_slice(build_cartan("A", 3), N=1)
        seed = initial_seed(slc)
        assert skew_form_calls == [tuple(slc.vertices)]
        x, y = (seed.vars[v] for v in slc.vertices[:2])
        assert (x * y).frame is x.frame and exact_left_divide(x * y, x) == y
        assert len(skew_form_calls) == 1
        assert_frame_whole(x.frame)


# ------------------------------------------------------ the coefficient layer

def laurent(min_size=1):
    """A Laurent polynomial in v: a dict v-exponent -> nonzero integer."""
    nonzero = st.integers(-3, 3).filter(bool)
    return st.dictionaries(st.integers(-4, 4), nonzero, min_size=min_size, max_size=4)


def ref_tc_add(a, b, sign=1):
    out = dict(a)
    for p, n in b.items():
        out[p] = out.get(p, 0) + sign * n
    return {p: n for p, n in out.items() if n}


def ref_tc_mul(a, b):
    out = {}
    for p, x in a.items():
        for q, y in b.items():
            out[p + q] = out.get(p + q, 0) + x * y
    return {p: n for p, n in out.items() if n}


def ref_terms_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = ref_tc_add(out.get(k, {}), c, sign)
    return {k: c for k, c in out.items() if c}


def snapshot(*elements):
    return [{k: dict(c) for k, c in x.dense.items()} for x in elements]


class TestCoefficientLayer:
    @REF_SETTINGS
    @given(data=st.data(), label=st.sampled_from(sorted(REF_CARTANS)), s=laurent(0))
    def test_ring_operations_against_dicts(self, data, label, s):
        a = data.draw(mixed_elements(label, coeff_terms=3))
        b = data.draw(mixed_elements(label, coeff_terms=3))
        assert (a + b).terms == ref_terms_add(a.terms, b.terms)
        assert (a - b).terms == ref_terms_add(a.terms, b.terms, -1)
        assert (-a).terms == ref_terms_add({}, a.terms, -1)
        scaled = {k: ref_tc_mul(c, s) for k, c in a.terms.items()}
        assert a.scaled(s).terms == {k: c for k, c in scaled.items() if c}
        assert a.bar().terms == {k: {-p: n for p, n in c.items()} for k, c in a.terms.items()}

    @REF_SETTINGS
    @given(q=laurent(), d=laurent())
    def test_exact_division(self, q, d):
        num = ref_tc_mul(q, d)
        before = dict(num)
        assert tc_exact_div(num, d) == q
        assert num == before

    @REF_SETTINGS
    @given(data=st.data(), label=st.sampled_from(sorted(REF_CARTANS)), s=laurent())
    def test_operands_unchanged(self, data, label, s):
        a = data.draw(mixed_elements(label, coeff_terms=3))
        b = data.draw(mixed_elements(label, coeff_terms=3))
        ab = b * a
        homed = in_seed_frame(a, label)
        operands = (a, b, ab, homed)
        before = snapshot(*operands)
        for x, y in ((a, b), (b, a), (homed, b), (b, homed)):
            # only the operands are checked, so the results are dropped
            x + y, x - y, x * y, -x, x.scaled(s), x.bar()
        if b:
            assert exact_left_divide(ab, b) == a
            try:
                exact_left_divide(a, b)
            except NonExactDivision:
                pass
        assert snapshot(*operands) == before

    @REF_SETTINGS
    @given(data=st.data(), label=st.sampled_from(sorted(REF_CARTANS)), s=laurent())
    def test_shared_coefficients_stay_unchanged(self, data, label, s):
        x = in_seed_frame(data.draw(mixed_elements(label, coeff_terms=3)), label)
        y = in_seed_frame(data.draw(mixed_elements(label, coeff_terms=3)), label)
        w = data.draw(mixed_elements(label, coeff_terms=3))
        total, prod = x + y, x * w
        # an exponent only one operand has keeps that operand's coefficient dict
        for k, c in total.dense.items():
            if k not in y.dense:
                assert c is x.dense[k]
            elif k not in x.dense:
                assert c is y.dense[k]
        # equal coefficients of a product are one dict
        by_items = {}
        for c in prod.dense.values():
            assert by_items.setdefault(tuple(c.items()), c) is c
        operands = (x, y, w, total, prod)
        before = snapshot(*operands)
        for a, b in ((total, x), (y, total), (total, w), (w, total), (total, total),
                     (prod, total), (total, prod), (prod, prod)):
            a + b, a - b, a * b, a == b
            if b:
                try:
                    exact_left_divide(a, b)
                except NonExactDivision:
                    pass
        for a in (total, prod):
            -a, a.scaled(s), a.bar(), hash(a), a.to_text()
            "".join(_json_chunks({"terms": a}))
            evaluate_t1(a)
        assert snapshot(*operands) == before
