import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgroth import qcluster
from qgroth.cartan import build_cartan
from qgroth.compat import check_compatible
from qgroth.qcluster import (
    MutationError,
    classical_mutate_along,
    cp_exact_div,
    initial_seed,
    mutate,
    mutate_along,
)
from qgroth.quiver import QuiverError, build_slice
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
