import dataclasses
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgroth import qcluster, qtorus
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
    read_along,
)
from qgroth.quiver import QuiverError, build_slice, mutate_matrix
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
        seed = initial_seed(build_slice(a1, N=1))
        for v, el in seed.vars.items():
            assert el == TorusElement.monomial(a1, {v: 1})
            assert el.cartan is seed.cartan

    def test_compatible_at_construction(self, a2):
        seed = initial_seed(build_slice(a2, N=1))
        rep = check_compatible(
            seed.b_current, seed.lambda_current, seed.slice.exch_rows
        )
        assert rep.ok

    def test_d4_window(self):
        c = build_cartan("D", 4)
        seed = initial_seed(build_slice(c, window=(-5, 2)))
        assert len(seed.vars) == 16

    def test_commutation_invariant(self, a1):
        initial_seed(build_slice(a1, N=1)).check_commutation()

    def test_commutation_drift_detected(self, a1):
        seed = initial_seed(build_slice(a1, N=1))
        z = seed.vars[(1, 0)]
        drifted = dataclasses.replace(seed, vars={**seed.vars, (1, 0): z + z * z})
        with pytest.raises(MutationError, match="commutation drift between"):
            drifted.check_commutation()

    def test_incompatible_pair_rejected(self, a2):
        slc = build_slice(a2, N=1)
        b = slc.b_matrix.copy()
        b[0, 0] += 1
        with pytest.raises(MutationError, match="initial pair not compatible"):
            initial_seed(dataclasses.replace(slc, b_matrix=b))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_cartan("A", 2),
            lambda: build_slice(build_cartan("A", 2), N=1),
            lambda: initial_seed(build_slice(build_cartan("A", 2), N=1)),
        ],
        ids=["cartan", "slice", "seed"],
    )
    def test_equality_is_identity(self, make):
        # numpy fields make field-wise equality ambiguous, so equal-looking
        # instances compare unequal and hash by identity
        x, y = make(), make()
        assert x == x and x != y
        assert len({x, x, y}) == 2


class TestQuantumMutate:
    def test_sl2_variable(self, a1):
        seed = mutate(initial_seed(build_slice(a1, N=1)), (1, 0))
        want = TorusElement.monomial(a1, {(1, -2): 1, (1, 0): -1}) + (
            TorusElement.monomial(a1, {(1, 2): 1, (1, 0): -1})
        )
        assert seed.vars[(1, 0)] == want

    def test_involution(self, a2):
        slc = build_slice(a2, window=(-1, 6))
        seed0 = initial_seed(slc)
        seed2 = mutate(mutate(seed0, (1, 2)), (1, 2))
        assert seed2.vars == seed0.vars
        assert np.array_equal(seed2.b_current, seed0.b_current)
        assert np.array_equal(seed2.lambda_current, seed0.lambda_current)

    def test_frozen_rejected(self, a1):
        seed = initial_seed(build_slice(a1, N=1))
        with pytest.raises(QuiverError):
            mutate(seed, (1, 2))

    def test_bar_invariance_along_sl3(self, a2):
        seed = initial_seed(build_slice(a2, window=(-1, 6)))
        for k in SL3_PATH:
            seed = mutate(seed, k)
            assert seed.vars[k].bar() == seed.vars[k]

    def test_commutation_tracked(self, a2):
        seed = mutate_along(
            initial_seed(build_slice(a2, window=(-1, 6))), SL3_PATH[:3]
        )
        seed.check_commutation()

    def test_t1_specialization_matches_classical(self, a2):
        slc = build_slice(a2, window=(-1, 6))
        quantum = mutate_along(initial_seed(slc), SL3_PATH)
        classical = classical_mutate_along(slc, SL3_PATH)
        for v in slc.vertices:
            assert evaluate_t1(quantum.vars[v]) == evaluate_t1(classical[v])

    def test_positivity_and_parity(self, a2):
        seed = mutate_along(initial_seed(build_slice(a2, window=(-1, 6))), SL3_PATH)
        for el in seed.vars.values():
            for coeff in el.terms.values():
                assert all(n > 0 for n in coeff.values())
                assert len({k % 2 for k in coeff}) == 1

    def test_history(self, a2):
        seed = mutate_along(initial_seed(build_slice(a2, window=(-1, 6))), SL3_PATH)
        assert seed.history == tuple(SL3_PATH)

    def test_empty_path_identity(self, a1):
        seed0 = initial_seed(build_slice(a1, N=1))
        assert mutate_along(seed0, []).vars == seed0.vars


class TestClassicalEngine:
    def test_sl2_baxter_exchange(self, a1):
        slc = build_slice(a1, N=1)
        got = classical_mutate_along(slc, [(1, 0)])[(1, 0)]
        assert evaluate_t1(got) == {
            make_key({(1, -2): 1, (1, 0): -1}): 1,
            make_key({(1, 2): 1, (1, 0): -1}): 1,
        }

    def test_sl3_printed_variables(self, a2):
        slc = build_slice(a2, window=(-1, 6))
        for (step, vertex), monos in SL3_GOLDEN.items():
            got = classical_mutate_along(slc, SL3_PATH[:step])[vertex]
            assert evaluate_t1(got) == {make_key(m): 1 for m in monos}, (step, vertex)

    def test_involution(self, a2):
        slc = build_slice(a2, window=(-1, 6))
        base = classical_mutate_along(slc, [])
        assert classical_mutate_along(slc, [(1, 2), (1, 2)]) == base

    def test_cp_division(self):
        a = cmono({(1, 0): 1}, 2)
        b = cmono({(1, 2): 1}) + cmono({(1, -2): 1}, 3)
        assert cp_exact_div(a * b, a) == b
        # the engine locates a failure; the division itself leaves it a torus error
        with pytest.raises(NonExactDivision):
            cp_exact_div(cmono({(1, 0): 1}) + cmono({(1, 2): 1}),
                         cmono({(1, 0): 1}) + cmono({(1, -2): 1}))


def _sequence_case(label, rank, i):
    c = build_cartan(label, rank)
    r = next(r for r in (0, 1) if c.in_ihat(i, r))
    spec = mutation_sequence(c, i, r)
    return build_slice(c, window=default_window(c, i, r)), spec


CLOSURE_CASES = [("A", n, i) for n in (1, 2, 3, 4) for i in range(1, n + 1)] + [
    ("D", 4, i) for i in (1, 2, 3, 4)
]


def _recorded_mutates(monkeypatch) -> list:
    """The vertices of the qcluster.mutate calls made from now on, in order."""
    calls = []
    real = qcluster.mutate
    monkeypatch.setattr(qcluster, "mutate", lambda seed, k: calls.append(k) or real(seed, k))
    return calls


class TestReadClosure:
    @pytest.mark.parametrize("label, rank, i", CLOSURE_CASES)
    def test_read_runs_agree_with_the_full_run(self, label, rank, i):
        slc, spec = _sequence_case(label, rank, i)
        seed0 = initial_seed(slc)
        full = mutate_along(seed0, spec.sequence)
        classical = classical_mutate_along(slc, spec.sequence)
        for v in set(spec.sequence):
            assert read_along(seed0, spec.sequence, [v]) == {v: full.vars[v]}, v
            assert classical_mutate_along(slc, spec.sequence, read=[v]) == {v: classical[v]}, v

    def test_skipped_vertex_is_dropped(self):
        # a read run returns exactly the vertices it reads, in their order, so
        # not the vertex of a step it skips; (2,7) is never written and (2,3)
        # is skipped when only the sequence's own vertex is read
        slc, spec = _sequence_case("D", 4, 1)
        seed0 = initial_seed(slc)
        full = mutate_along(seed0, spec.sequence)
        classical = classical_mutate_along(slc, spec.sequence)
        for read in ([spec.read_vertex], [(2, 7), (2, 3), spec.read_vertex]):
            quantum = read_along(seed0, spec.sequence, read)
            assert list(quantum) == read
            assert quantum == {v: full.vars[v] for v in read}
            t1 = classical_mutate_along(slc, spec.sequence, read=read)
            assert list(t1) == read
            assert t1 == {v: classical[v] for v in read}
        assert quantum[(2, 7)] == seed0.vars[(2, 7)]
        assert t1[(2, 7)] == classical_mutate_along(slc, [])[(2, 7)]

    def test_a_step_reads_its_own_vertex(self, a2):
        # the second mutation at k divides by the first one's variable
        slc = build_slice(a2, window=(-1, 6))
        seed0 = initial_seed(slc)
        k = SL3_PATH[0]
        assert read_along(seed0, [k, k], [k]) == {k: seed0.vars[k]}
        assert (classical_mutate_along(slc, [k, k], read=[k])[k]
                == classical_mutate_along(slc, [])[k])

    def test_reading_nothing_runs_no_exchange(self, a2, monkeypatch):
        slc = build_slice(a2, window=(-1, 6))
        seed0 = initial_seed(slc)
        calls = _recorded_mutates(monkeypatch)
        assert read_along(seed0, SL3_PATH, []) == {}
        assert classical_mutate_along(slc, SL3_PATH, read=[]) == {}
        assert calls == []

    @pytest.mark.parametrize("engine", ["quantum", "classical"])
    def test_a_read_vertex_outside_the_slice_is_refused_first(self, a2, monkeypatch, engine):
        # refused before any step runs, even with a later step that is invalid
        slc = build_slice(a2, window=(-1, 6))
        calls = _recorded_mutates(monkeypatch)
        divisions = []
        monkeypatch.setattr(qcluster, "cp_exact_div", lambda a, d: divisions.append(d))
        path = (*SL3_PATH, (1, 0))  # (1,0) is frozen in this window
        read = [SL3_PATH[0], (9, 9), (8, 8)]
        with pytest.raises(QuiverError, match=r"^vertex \(9, 9\) is not in this slice$"):
            if engine == "quantum":
                read_along(initial_seed(slc), path, read)
            else:
                classical_mutate_along(slc, path, read=read)
        assert calls == [] and divisions == []

    @pytest.mark.parametrize(
        "label, rank, i, runs, steps",
        [("D", 4, 1, 15, 21), ("D", 5, 1, 28, 46)],
    )
    def test_steps_run(self, label, rank, i, runs, steps):
        slc, spec = _sequence_case(label, rank, i)
        run = [r for *_, r in qcluster._steps(slc, slc.b_matrix, spec.sequence,
                                              [spec.read_vertex])]
        assert (sum(run), len(run)) == (runs, steps)

    @pytest.mark.parametrize("label, rank, i", CLOSURE_CASES + [("D", 5, 1)])
    def test_reading_every_vertex_runs_every_step(self, label, rank, i):
        # each step reads its own vertex, so every writer of it runs
        slc, spec = _sequence_case(label, rank, i)
        steps = qcluster._steps(slc, slc.b_matrix, spec.sequence, None)
        assert [r for *_, r in steps] == [True] * len(spec.sequence)

    def test_reading_every_vertex_runs_every_step_of_random_paths(self, a2):
        slc = build_slice(a2, window=(-1, 6))
        rng = np.random.default_rng(22)
        for _ in range(200):
            picks = rng.integers(len(slc.exchangeable), size=rng.integers(1, 16))
            path = tuple(slc.exchangeable[j] for j in picks)
            assert all(r for *_, r in qcluster._steps(slc, slc.b_matrix, path, None)), path

    def test_plan_columns_follow_b(self):
        slc, spec = _sequence_case("D", 4, 1)
        b = slc.b_matrix
        steps = qcluster._steps(slc, b, spec.sequence, [spec.read_vertex])
        for k, (v, col, bcol, _) in zip(spec.sequence, steps):
            assert (v, col) == (k, slc.column_of(k))
            assert np.array_equal(bcol, b[:, col])
            b = mutate_matrix(b, slc.exch_rows, col)

    @pytest.mark.parametrize("label, rank, i", [("A", 3, 2), ("D", 4, 1)])
    def test_full_run_is_one_mutate_per_step(self, label, rank, i):
        slc, spec = _sequence_case(label, rank, i)
        seed0 = initial_seed(slc)
        full = mutate_along(seed0, spec.sequence)
        ref = reduce(mutate, spec.sequence, seed0)
        assert full.vars == ref.vars
        assert np.array_equal(full.b_current, ref.b_current)
        assert np.array_equal(full.lambda_current, ref.lambda_current)
        assert full.history == ref.history == spec.sequence

    def test_read_run_from_a_mutated_seed(self):
        # the plan starts from the seed's current B~, not the slice's
        slc, spec = _sequence_case("D", 4, 1)
        p = spec.sequence
        seed0 = initial_seed(slc)
        mid = mutate_along(seed0, p[:7])
        full = mutate_along(seed0, p)
        for v in set(p[7:]):
            assert read_along(mid, p[7:], [v]) == {v: full.vars[v]}, v

    def test_each_step_that_runs_goes_through_mutate(self, monkeypatch):
        # a trace that wraps qcluster.mutate sees every exchange that runs
        slc, spec = _sequence_case("D", 4, 1)
        calls = _recorded_mutates(monkeypatch)
        read_along(initial_seed(slc), spec.sequence, [spec.read_vertex])
        steps = qcluster._steps(slc, slc.b_matrix, spec.sequence, [spec.read_vertex])
        assert calls == [k for k, *_, r in steps if r]
        assert len(calls) == 15


class TestMutationFailures:
    def test_quantum_failure_names_vertex_path_and_sizes(self, a2):
        seed = mutate(initial_seed(build_slice(a2, window=(-1, 6))), SL3_PATH[0])
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
            classical_mutate_along(slc, SL3_PATH)
        assert info.value.vertex == SL3_PATH[1]
        assert info.value.path == (SL3_PATH[0],)
        message = str(info.value)
        assert message.startswith(
            "classical mutation at (1, 2) after path [(1, 4)]: non-exact division "
            "(non-exact coefficient) of a 3-term numerator by a 1-term divisor, remainder "
        )
        assert message.count("classical") == 1

    def test_non_bar_invariant_variable_rejected(self, a2):
        seed = initial_seed(build_slice(a2, window=(-1, 6)))
        k = SL3_PATH[0]
        # the old variable times t^{1/2}: the division is exact, its quotient
        # is t^{-1/2} times a bar-invariant variable
        broken = dataclasses.replace(seed, vars={**seed.vars, k: seed.vars[k].scaled({1: 1})})
        with pytest.raises(MutationError, match="is not bar-invariant") as info:
            mutate(broken, k)
        assert info.value.vertex == k and info.value.path == ()


    def test_long_remainder_message_is_short(self):
        # D4 (1,0): step 19 divides a 5040-term sum by a 36-term variable
        c = build_cartan("D", 4)
        path = mutation_sequence(c, 1, 0).sequence
        slc = build_slice(c, window=default_window(c, 1, 0))
        seed = mutate_along(initial_seed(slc), path[:19])
        k = path[19]
        num = _exchange_sum(seed, slc.column_of(k))
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
    # step 1, and one of 200 on a 1774-term partial exchange product at step
    # 19, which stops part-way, at 242 terms; the ids name what breaks, the
    # messages say which torus operation did
    CASES = [
        pytest.param(2, 1, "a sum", 3, id="2-1-the exchange sum"),
        pytest.param(200, 19, "a star product", 242, id="200-19-an exchange product"),
    ]

    @pytest.fixture(scope="class")
    def d4_path(self):
        c = build_cartan("D", 4)
        return build_slice(c, window=default_window(c, 1, 0)), mutation_sequence(c, 1, 0).sequence

    @pytest.mark.parametrize("budget, step, what, terms", CASES)
    @pytest.mark.parametrize("engine", ["quantum", "classical"])
    def test_budget_names_vertex_path_and_sizes(
        self, d4_path, monkeypatch, engine, budget, step, what, terms
    ):
        slc, path = d4_path
        monkeypatch.setattr(qtorus, "TERM_BUDGET", budget)
        with pytest.raises(TermBudgetExceeded) as info:
            if engine == "quantum":
                mutate_along(initial_seed(slc), path)
            else:
                classical_mutate_along(slc, path)
        err = info.value
        assert isinstance(err, MutationError)
        assert err.vertex == path[step] and err.path == path[:step]
        assert (err.terms, err.budget) == (terms, budget)
        message = str(err)
        assert f"mutation at {path[step]} after path {list(path[:step])}: " in message
        assert f"{what} has {terms} terms, more than the term budget of {budget}" in message

    def test_default_budget_holds_the_largest_known_sum(self):
        # a full run of D5 (2,1)'s sequence divides a 1 201 258-term exchange sum
        assert qtorus.TERM_BUDGET > 1_201_258


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
        initial_seed(build_slice(build_cartan("A", 3), window=(-1, 8))),
        [(1, 6), (1, 4), (2, 5), (3, 6)],
    ),
    "D4": mutate_along(
        initial_seed(build_slice(build_cartan("D", 4), window=(-1, 8))),
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
    got = _frame_monomial(seed, exps, shift)
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
