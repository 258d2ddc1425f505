import dataclasses
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgroth import qcluster
from qgroth.cartan import build_cartan
from qgroth.compat import check_compatible
from qgroth.qcluster import (
    MutationError,
    TermBudgetExceeded,
    _exchange_sum,
    _frame_monomial,
    classical_mutate_along,
    cp_exact_div,
    initial_seed,
    mutate,
    mutate_along,
)
from qgroth.quiver import QuiverError, build_slice
from qgroth.repchar import default_window, mutation_sequence
from qgroth.qtorus import (
    NonExactDivision,
    TorusElement,
    evaluate_t1,
    exact_left_divide,
    make_key,
)
from qgroth.verify import SL3_GOLDEN, SL3_PATH


def untwisted(p):
    """The untwisted (t=1) element with the integer terms of p."""
    return TorusElement(None, {k: {0: n} for k, n in p.items()})


def cmono(exp, coeff=1):
    return TorusElement.monomial(None, exp, coeff)


@pytest.fixture(scope="module")
def a1():
    return build_cartan("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_cartan("A", 2)


class TestInitialSeed:
    def test_vars_are_monomials(self, a1):
        seed = initial_seed(a1, build_slice(a1, N=1))
        for v, el in seed.vars.items():
            assert el == TorusElement.monomial(a1, {v: 1})

    def test_compatible_at_construction(self, a2):
        seed = initial_seed(a2, build_slice(a2, N=1))
        rep = check_compatible(
            seed.b_current, seed.lambda_current, seed.slice.exch_rows
        )
        assert rep.ok

    def test_d4_window(self):
        c = build_cartan("D", 4)
        seed = initial_seed(c, build_slice(c, window=(-5, 2)))
        assert len(seed.vars) == 16

    def test_commutation_invariant(self, a1):
        initial_seed(a1, build_slice(a1, N=1)).check_commutation()


class TestQuantumMutate:
    def test_sl2_variable(self, a1):
        seed = mutate(initial_seed(a1, build_slice(a1, N=1)), (1, 0))
        want = TorusElement.monomial(a1, {(1, -2): 1, (1, 0): -1}) + (
            TorusElement.monomial(a1, {(1, 2): 1, (1, 0): -1})
        )
        assert seed.vars[(1, 0)] == want

    def test_involution(self, a2):
        slc = build_slice(a2, window=(-1, 6))
        seed0 = initial_seed(a2, slc)
        seed2 = mutate(mutate(seed0, (1, 2)), (1, 2))
        assert seed2.vars == seed0.vars
        assert np.array_equal(seed2.b_current, seed0.b_current)
        assert np.array_equal(seed2.lambda_current, seed0.lambda_current)

    def test_frozen_rejected(self, a1):
        seed = initial_seed(a1, build_slice(a1, N=1))
        with pytest.raises(QuiverError):
            mutate(seed, (1, 2))

    def test_bar_invariance_along_sl3(self, a2):
        seed = initial_seed(a2, build_slice(a2, window=(-1, 6)))
        for k in SL3_PATH:
            seed = mutate(seed, k)
            assert seed.vars[k].bar() == seed.vars[k]

    def test_commutation_tracked(self, a2):
        seed = mutate_along(
            initial_seed(a2, build_slice(a2, window=(-1, 6))), SL3_PATH[:3]
        )
        seed.check_commutation()

    def test_t1_specialization_matches_classical(self, a2):
        slc = build_slice(a2, window=(-1, 6))
        quantum = mutate_along(initial_seed(a2, slc), SL3_PATH)
        classical = classical_mutate_along(a2, slc, SL3_PATH)
        for v in slc.vertices:
            assert evaluate_t1(quantum.vars[v]) == classical[v]

    def test_positivity_and_parity(self, a2):
        seed = mutate_along(initial_seed(a2, build_slice(a2, window=(-1, 6))), SL3_PATH)
        for el in seed.vars.values():
            for coeff in el.terms.values():
                assert all(n > 0 for n in coeff.values())
                assert len({k % 2 for k in coeff}) == 1

    def test_history(self, a2):
        seed = mutate_along(initial_seed(a2, build_slice(a2, window=(-1, 6))), SL3_PATH)
        assert seed.history == tuple(SL3_PATH)

    def test_empty_path_identity(self, a1):
        seed0 = initial_seed(a1, build_slice(a1, N=1))
        assert mutate_along(seed0, []).vars == seed0.vars


class TestClassicalEngine:
    def test_sl2_baxter_exchange(self, a1):
        slc = build_slice(a1, N=1)
        got = classical_mutate_along(a1, slc, [(1, 0)])[(1, 0)]
        assert got == {
            make_key({(1, -2): 1, (1, 0): -1}): 1,
            make_key({(1, 2): 1, (1, 0): -1}): 1,
        }

    def test_sl3_printed_variables(self, a2):
        slc = build_slice(a2, window=(-1, 6))
        for (step, vertex), monos in SL3_GOLDEN.items():
            got = classical_mutate_along(a2, slc, SL3_PATH[:step])[vertex]
            assert got == {make_key(m): 1 for m in monos}, (step, vertex)

    def test_involution(self, a2):
        slc = build_slice(a2, window=(-1, 6))
        base = classical_mutate_along(a2, slc, [])
        assert classical_mutate_along(a2, slc, [(1, 2), (1, 2)]) == base

    def test_cp_division(self):
        a = cmono({(1, 0): 1}, 2)
        b = cmono({(1, 2): 1}) + cmono({(1, -2): 1}, 3)
        assert cp_exact_div(a * b, a) == b
        with pytest.raises(MutationError):
            cp_exact_div(cmono({(1, 0): 1}) + cmono({(1, 2): 1}),
                         cmono({(1, 0): 1}) + cmono({(1, -2): 1}))


class TestMutationFailures:
    def test_quantum_failure_names_vertex_path_and_sizes(self, a2):
        seed = mutate(initial_seed(a2, build_slice(a2, window=(-1, 6))), SL3_PATH[0])
        k = SL3_PATH[1]
        # doubling the old variable makes the exchange division non-exact
        vars_ = {**seed.vars, k: seed.vars[k].scaled(2)}
        broken = dataclasses.replace(seed, vars=vars_)
        with pytest.raises(MutationError) as info:
            mutate(broken, k)
        err = info.value
        assert err.vertex == k
        assert err.path == (SL3_PATH[0],)
        cause = err.__cause__
        assert isinstance(cause, NonExactDivision)
        assert cause.reason == NonExactDivision.NON_EXACT_COEFFICIENT
        assert cause.den_terms == len(seed.vars[k].terms)
        assert cause.num_terms >= 2
        assert cause.remainder

    def test_classical_failure_names_vertex_and_path(self, a2, monkeypatch):
        real = qcluster.cp_exact_div
        calls = []

        def doubled_divisor_after_first(a, d):
            calls.append(None)
            if len(calls) > 1:
                d = d.scaled(2)
            return real(a, d)

        monkeypatch.setattr(qcluster, "cp_exact_div", doubled_divisor_after_first)
        slc = build_slice(a2, window=(-1, 6))
        with pytest.raises(MutationError) as info:
            classical_mutate_along(a2, slc, SL3_PATH)
        assert info.value.vertex == SL3_PATH[1]
        assert info.value.path == (SL3_PATH[0],)


    def test_long_remainder_message_is_short(self):
        # D4 (1,0): step 19 divides a 5040-term sum by a 36-term variable
        c = build_cartan("D", 4)
        path = mutation_sequence(c, 1, 0).sequence
        slc = build_slice(c, window=default_window(c, 1, 0))
        seed = mutate_along(initial_seed(c, slc), path[:19])
        k = path[19]
        num = _exchange_sum(seed, k, slc.column_of(k))
        with pytest.raises(NonExactDivision) as info:
            exact_left_divide(num, seed.vars[k].scaled(2))
        err = info.value
        assert (err.num_terms, err.den_terms) == (5040, 36)
        message = str(err)
        assert len(message) < 2000
        assert err.reason in message
        assert "5040-term numerator" in message and "36-term divisor" in message
        rest = len(err.remainder.dense) - NonExactDivision.SHOWN_TERMS
        assert rest > 0 and message.endswith(f" … and {rest} more terms")


class TestTermBudget:
    # along D4 (1,0), a budget of 2 first breaks on the 3-term exchange sum at
    # step 1, and one of 200 on a 1774-term partial product at step 19
    CASES = [(2, 1, "the exchange sum"), (200, 19, "an exchange product")]

    @pytest.fixture(scope="class")
    def d4_path(self):
        c = build_cartan("D", 4)
        return c, build_slice(c, window=default_window(c, 1, 0)), mutation_sequence(c, 1, 0).sequence

    @pytest.mark.parametrize("budget, step, what", CASES)
    @pytest.mark.parametrize("engine", ["quantum", "classical"])
    def test_budget_names_vertex_path_and_sizes(self, d4_path, monkeypatch, engine, budget, step, what):
        c, slc, path = d4_path
        monkeypatch.setattr(qcluster, "TERM_BUDGET", budget)
        with pytest.raises(TermBudgetExceeded) as info:
            if engine == "quantum":
                mutate_along(initial_seed(c, slc), path)
            else:
                classical_mutate_along(c, slc, path)
        err = info.value
        assert isinstance(err, MutationError)
        assert err.vertex == path[step] and err.path == path[:step]
        assert err.terms > err.budget == budget
        message = str(err)
        assert f"mutation at {path[step]} after path {list(path[:step])}: " in message
        assert f"{what} has {err.terms} terms, more than the term budget of {budget}" in message

    def test_default_budget_holds_the_largest_known_sum(self):
        # D5 (2,1) divides a 1 201 258-term exchange sum
        assert qcluster.TERM_BUDGET > 1_201_258


def ref_frame_monomial(seed, exps, shift):
    """The exchange monomial as the ordered product, then scaled by its
    v-power: the order of work before the power moved onto the first factor."""
    rows = sorted(exps)
    lam = seed.lambda_current
    for a_idx, u in enumerate(rows):
        for w in rows[a_idx + 1 :]:
            shift -= exps[u] * exps[w] * int(lam[u, w])
    verts = seed.slice.vertices
    factors = [seed.vars[verts[u]] for u in rows for _ in range(exps[u])]
    if not factors:
        return TorusElement.monomial(seed.cartan, {}, {shift: 1})
    return reduce(mul, factors).scaled({shift: 1})


FRAME_MONOMIAL_SEEDS = {
    "A3": mutate_along(
        initial_seed(build_cartan("A", 3), build_slice(build_cartan("A", 3), window=(-1, 8))),
        [(1, 6), (1, 4), (2, 5), (3, 6)],
    ),
    "D4": mutate_along(
        initial_seed(build_cartan("D", 4), build_slice(build_cartan("D", 4), window=(-1, 8))),
        [(1, 6), (1, 4), (1, 2), (2, 5)],
    ),
}


@settings(max_examples=60, deadline=None, database=None)
@given(
    data=st.data(),
    label=st.sampled_from(sorted(FRAME_MONOMIAL_SEEDS)),
    shift=st.integers(-6, 6),
)
def test_frame_monomial_scales_the_first_factor(data, label, shift):
    seed = FRAME_MONOMIAL_SEEDS[label]
    rows = range(len(seed.slice.vertices))
    exps = data.draw(st.dictionaries(st.sampled_from(rows), st.integers(1, 2), max_size=4))
    k = seed.slice.exchangeable[0]
    got = _frame_monomial(seed, k, exps, shift)
    assert got == ref_frame_monomial(seed, exps, shift)


CORE_CARTANS = {
    label: (c, [(i, r) for i in c.nodes for r in range(-4, 5) if c.in_ihat(i, r)])
    for label, c in (("A3", build_cartan("A", 3)), ("D4", build_cartan("D", 4)))
}


@st.composite
def torus_elements(draw, label, max_terms):
    """Elements with positive coefficients, so their t=1 images never vanish."""
    c, verts = CORE_CARTANS[label]
    out = TorusElement.zero(c)
    for _ in range(draw(st.integers(1, max_terms))):
        support = draw(st.lists(st.sampled_from(verts), min_size=1, max_size=3, unique=True))
        exp = {v: draw(st.integers(-2, 2)) for v in support}
        coeff = {draw(st.integers(-3, 3)): draw(st.integers(1, 3))}
        out = out + TorusElement.monomial(c, exp, coeff)
    return out


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), label=st.sampled_from(sorted(CORE_CARTANS)))
def test_engines_agree_through_shared_core(data, label):
    d = data.draw(torus_elements(label, 3))
    x = data.draw(torus_elements(label, 4))
    quantum = exact_left_divide(d * x, d)
    assert quantum == x
    classical = cp_exact_div(untwisted(evaluate_t1(d * x)), untwisted(evaluate_t1(d)))
    assert evaluate_t1(classical) == evaluate_t1(quantum)
