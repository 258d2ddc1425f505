"""Acceptance battery: the ten end-to-end checks behind `qgroth verify-all`.

Each check returns (name, ok, detail).  A criterion body returns its PASS
detail and fails through _require at its first failed check; the criterion
decorator names it, builds the verdict and registers the check: in
ALL_CRITERIA, in definition order, and with quick=True also in
QUICK_CRITERIA, the set behind `verify-all --quick`.  Golden data (printed
matrices, series, cluster variables) lives here so the CLI and the test
suite share a single source of truth.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .cartan import build_cartan, ctilde, f_form, n_form
from .compat import build_lambda, check_compatible, mutate_lambda
from .quiver import build_slice, e_matrix, f_matrix, mutate_matrix
from .qcluster import (
    classical_mutate_along,
    initial_seed,
    mutate,
    mutate_along,
    read_along,
)
from .qtorus import (
    TorusElement,
    embed_Y,
    evaluate_t1,
    exact_left_divide,
    make_key,
)
from .repchar import (
    Verdict,
    baxter_check,
    drinfeld_double_check,
    fm_qchar_embedded,
    fundamental_qt_characters,
    mutation_sequence,
)


# --------------------------------------------------------------- golden data

# 16x8 exchange matrix of the D4 window [-5, 2], reading order
D4_B_GOLDEN = np.array(
    [
        [-1, 0, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 0, 0],
        [1, 1, 1, -1, 0, 0, 0, 0],
        [0, 0, 0, 1, -1, 0, 0, 0],
        [0, 0, 0, 1, 0, -1, 0, 0],
        [0, 0, 0, 1, 0, 0, -1, 0],
        [-1, -1, -1, 0, 1, 1, 1, -1],
        [1, 0, 0, -1, 0, 0, 0, 1],
        [0, 1, 0, -1, 0, 0, 0, 1],
        [0, 0, 1, -1, 0, 0, 0, 1],
        [0, 0, 0, 1, -1, -1, -1, 0],
        [0, 0, 0, 0, 1, 0, 0, -1],
        [0, 0, 0, 0, 0, 1, 0, -1],
        [0, 0, 0, 0, 0, 0, 1, -1],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=np.int64,
)

# 16x16 skew form of the same window
D4_LAMBDA_GOLDEN = np.array(
    [
        [0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 2, 2, 1, 1, 2],
        [0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 2, 1, 2, 1, 2],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 1, 1, 2, 2],
        [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 3, 2, 2, 2, 4],
        [-1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 2],
        [0, -1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 2],
        [0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2],
        [-1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 3],
        [-1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1],
        [-1, -1, -1, -1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1],
        [-1, -1, -1, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1, 1],
        [-2, -2, -2, -3, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 1],
        [-2, -1, -1, -2, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0],
        [-1, -2, -1, -2, -1, -1, -1, -1, 0, -1, 0, 0, 0, 0, 0, 0],
        [-1, -1, -2, -2, -1, -1, -1, -1, 0, 0, -1, 0, 0, 0, 0, 0],
        [-2, -2, -2, -4, -2, -2, -2, -3, -1, -1, -1, -1, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)

D4_SEQUENCE_GOLDEN = [
    (1, 6), (1, 4), (1, 2), (3, 6), (3, 4), (3, 2),
    (4, 6), (4, 4), (4, 2), (2, 5), (2, 3), (2, 1),
    (1, 6), (1, 4), (3, 6), (3, 4), (4, 6), (4, 4),
    (2, 5), (2, 3), (1, 6),
]

A2_SEQUENCE_GOLDEN = [(1, 4), (1, 2), (2, 3), (2, 1), (1, 4)]

SL3_PATH = A2_SEQUENCE_GOLDEN

# the four printed classical cluster variables along SL3_PATH
SL3_GOLDEN = {
    # (step after which to read, vertex): z-exponent monomials
    (1, (1, 4)): [
        {(1, 2): 1, (1, 4): -1, (2, 5): 1},
        {(1, 4): -1, (1, 6): 1, (2, 3): 1},
    ],
    (2, (1, 2)): [
        {(1, 0): 1, (1, 4): -1, (2, 5): 1},
        {(1, 0): 1, (1, 2): -1, (1, 4): -1, (1, 6): 1, (2, 3): 1},
        # third factor derived from the mutated quiver; consistent with the
        # later steps of the same mutation path
        {(1, 2): -1, (1, 6): 1, (2, 1): 1},
    ],
    (3, (2, 3)): [
        {(2, 1): 1, (2, 3): -1},
        {(1, 2): 1, (1, 4): -1, (2, 5): 1, (2, 3): -1},
        {(1, 4): -1, (1, 6): 1},
    ],
    (5, (1, 4)): [
        {(1, 0): 1, (1, 2): -1},
        {(1, 2): -1, (1, 4): 1, (2, 1): 1, (2, 3): -1},
        {(2, 3): -1, (2, 5): 1},
    ],
}

COMPAT_SWEEP_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("D", 4), ("D", 5), ("E", 6),
]


class CriterionFailed(Exception):
    """A criterion's check failed; the message is the verdict's detail."""


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise CriterionFailed(detail)


ALL_CRITERIA: list = []
QUICK_CRITERIA: list = []


def criterion(name: str, quick: bool = False):
    """Turn a criterion body, which returns its PASS detail and fails through
    _require, into a check that returns the verdict (name, ok, detail), and
    register it in ALL_CRITERIA and, if quick, in QUICK_CRITERIA."""

    def wrap(body):
        @functools.wraps(body)
        def check() -> Verdict:
            try:
                return (name, True, body())
            except CriterionFailed as exc:
                return (name, False, str(exc))

        ALL_CRITERIA.append(check)
        if quick:
            QUICK_CRITERIA.append(check)
        return check

    return wrap


# ------------------------------------------------------------- the criteria

@criterion("cartan series", quick=True)
def crit_1_cartan_series() -> str:
    a1 = build_cartan("A", 1)
    want_a1 = {1: 1, 3: -1, 5: 1, 7: -1, 9: 1, 11: -1}
    for m in range(12):
        _require(ctilde(a1, 1, 1, m) == want_a1.get(m, 0), f"A1 degree {m}")
    a2 = build_cartan("A", 2)
    want_ii = {1: 1, 5: -1, 7: 1, 11: -1, 13: 1}
    want_ij = {2: 1, 4: -1, 8: 1, 10: -1, 14: 1}
    for m in range(15):
        for i in (1, 2):
            _require(ctilde(a2, i, i, m) == want_ii.get(m, 0), f"A2 C[{i}{i}] degree {m}")
        _require(ctilde(a2, 1, 2, m) == want_ij.get(m, 0), f"A2 C[12] degree {m}")
        _require(ctilde(a2, 2, 1, m) == want_ij.get(m, 0), f"A2 C[21] degree {m}")
    return "A1 through degree 11, A2 through 14"


@criterion("D4 golden matrices", quick=True)
def crit_2_d4_golden() -> str:
    c = build_cartan("D", 4)
    slc = build_slice(c, window=(-5, 2))
    lam = build_lambda(c, slc)
    _require(np.array_equal(slc.b_matrix, D4_B_GOLDEN), "exchange matrix mismatch")
    _require(np.array_equal(lam, D4_LAMBDA_GOLDEN), "skew form mismatch")
    want = np.zeros((8, 16), dtype=np.int64)
    for k, rk in enumerate(slc.exch_rows):
        want[k, rk] = -2
    _require(np.array_equal(slc.b_matrix.T @ lam, want), "B^T Lambda mismatch")
    return "16x8 B, 16x16 Lambda, B^T L = -2 Id"


@criterion("compatibility sweep")
def crit_3_compat_sweep() -> str:
    rng = random.Random(20230823)
    n1_pairs = {}  # (label, rank) -> the N=1 slice and its Lambda
    for label, rank in COMPAT_SWEEP_TYPES:
        c = build_cartan(label, rank)
        for n in (1, 2, 3):
            slc = build_slice(c, N=n)
            lam = build_lambda(c, slc)
            rep = check_compatible(slc.b_matrix, lam, slc.exch_rows)
            _require(rep.ok and set(rep.diag) == {-2}, f"{label}{rank} N={n}: {rep}")
            if n == 1:
                n1_pairs[label, rank] = slc, lam
    # random mutation sequences preserve compatibility
    for trial in range(100):
        slc, lam = n1_pairs[rng.choice(COMPAT_SWEEP_TYPES)]
        b = slc.b_matrix
        for _ in range(rng.randint(1, 12)):
            k = rng.randrange(b.shape[1])
            b, lam = (
                mutate_matrix(b, slc.exch_rows, k),
                mutate_lambda(lam, b, slc.exch_rows, k),
            )
        rep = check_compatible(b, lam, slc.exch_rows)
        _require(rep.ok, f"random trial {trial}: {rep}")
    return "8 types x N=1..3 diagonal -2; 100 random paths"


@criterion("sl3 classical mutation")
def crit_4_sl3_classical() -> str:
    c = build_cartan("A", 2)
    slc = build_slice(c, window=(-1, 6))
    seed = initial_seed(slc)
    # the classical engine, and the quantum one at t=1, step by step
    for (step, vertex), monos in sorted(SL3_GOLDEN.items()):
        want = {make_key(m): 1 for m in monos}
        got = classical_mutate_along(slc, SL3_PATH[:step], read=[vertex])[vertex]
        _require(evaluate_t1(got) == want, f"step {step} vertex {vertex}")
        quantum = read_along(seed, SL3_PATH[:step], [vertex])[vertex]
        _require(
            evaluate_t1(quantum) == want,
            f"quantum t=1 mismatch at step {step} vertex {vertex}",
        )
    return "4 printed variables, classical and t=1"


@criterion("sl2 quantum mutation", quick=True)
def crit_5_sl2_quantum() -> str:
    c = build_cartan("A", 1)
    seed = mutate(initial_seed(build_slice(c, N=1)), (1, 0))
    var = seed.vars[(1, 0)]
    want = TorusElement.monomial(c, {(1, -2): 1, (1, 0): -1}) + (
        TorusElement.monomial(c, {(1, 2): 1, (1, 0): -1})
    )
    _require(var == want, f"got {var.to_text()}")
    _require(var.bar() == var, "not bar-invariant")
    via_y = embed_Y(c, {(1, -2): 1}) + embed_Y(c, {(1, 0): -1})
    _require(var == via_y, "Y-embedding mismatch")
    return var.to_text()


@criterion("mutation sequences", quick=True)
def crit_6_sequences() -> str:
    a2 = mutation_sequence(build_cartan("A", 2), 1, 0)
    _require(list(a2.sequence) == A2_SEQUENCE_GOLDEN, f"A2: {a2.sequence}")
    d4 = mutation_sequence(build_cartan("D", 4), 1, 0)
    _require(list(d4.sequence) == D4_SEQUENCE_GOLDEN, f"D4: {d4.sequence}")
    return "A2 (5 vertices), D4 (21 vertices)"


@criterion("type A theorem")
def crit_7_type_a_theorem() -> str:
    for rank in (1, 2, 3, 4):
        c = build_cartan("A", rank)
        for r in (-2, -1, 0, 1):  # the nodes on the lattice at r: one class, one run
            nodes = [i for i in c.nodes if c.in_ihat(i, r)]
            for i, chi in fundamental_qt_characters(c, r, nodes).items():
                where = f"A{rank} ({i},{r})"
                _require(all(coef == {0: 1} for _, coef in chi.sorted_terms()), f"{where} not thin")
                _require(chi.bar() == chi, f"{where} not bar-invariant")
                _require(evaluate_t1(chi) == fm_qchar_embedded(c, i, r), f"{where} oracle mismatch")
    return "A1..A4, all nodes, two levels each"


@criterion("quantized Baxter", quick=True)
def crit_8_baxter() -> str:
    c = build_cartan("A", 1)
    for r in (-1, 0, 1):
        v = baxter_check(r)
        _require(v.ok, str(v))
    # t=1 image at r=0 is the classical exchange at (1,0)
    classical = classical_mutate_along(build_slice(c, N=1), [(1, 0)])[(1, 0)]
    want = {
        make_key({(1, -2): 1, (1, 0): -1}): 1,
        make_key({(1, 2): 1, (1, 0): -1}): 1,
    }
    _require(evaluate_t1(classical) == want, "classical image mismatch")
    return "r in {-1,0,1} plus classical image"


@criterion("Drinfeld double", quick=True)
def crit_9_drinfeld() -> str:
    bad = [name for name, ok, _ in drinfeld_double_check(q_sign=-1) if not ok]
    _require(not bad, f"failed: {bad}")
    failures = [name for name, ok, _ in drinfeld_double_check(q_sign=1) if not ok]
    _require(
        failures == ["[E,F] = (q - q^-1)(K - K')"],
        f"q=+t^(1/2) falsification wrong: {failures}",
    )
    return "7 relations; sign falsification fails"


def _random_element(rng, c, verts) -> TorusElement:
    """The sum of 1 to 5 random monomials, built in one frame."""
    terms: dict = {}
    for _ in range(rng.randint(1, 5)):
        exp = {v: rng.randint(-2, 2) for v in rng.sample(verts, rng.randint(1, 3))}
        p, n = rng.randint(-3, 3), rng.randint(-4, 4)
        coeff = terms.setdefault(make_key(exp), {})
        coeff[p] = coeff.get(p, 0) + n
    return TorusElement(c, terms)


@criterion("property suites")
def crit_10_properties() -> str:
    rng = random.Random(20230823)
    cartans = {t: build_cartan(*t) for t in COMPAT_SWEEP_TYPES}
    # telescoping identity for all gaps <= 40
    for (label, rank), c in cartans.items():
        for i in c.nodes:
            for j in c.nodes:
                for m in range(1, 41):
                    lhs = 2 * f_form(c, i, j, m) - f_form(c, i, j, m + 2) - f_form(
                        c, i, j, m - 2
                    )
                    _require(
                        lhs == n_form(c, i, j, m),
                        f"telescoping fails {label}{rank} ({i},{j},{m})",
                    )
    c = cartans["A", 3]
    verts = [(i, r) for i in c.nodes for r in range(-6, 7) if c.in_ihat(i, r)]
    one = TorusElement.one(c)
    for trial in range(200):
        a = _random_element(rng, c, verts)
        b = _random_element(rng, c, verts)
        d = _random_element(rng, c, verts)
        ab = a * b
        _require(ab * d == a * (b * d), f"associativity trial {trial}")
        _require(a * one == a and one * a == a, f"unit trial {trial}")
        _require(ab.bar() == b.bar() * a.bar(), f"bar trial {trial}")
        if d:
            try:
                quotient = exact_left_divide(d * a, d)
            except Exception as exc:  # noqa: BLE001 - report, never mask
                raise CriterionFailed(f"division trial {trial}: {exc}") from exc
            _require(quotient == a, f"division round-trip {trial}")
    # matrix mutation involution and E/F factorization on random slices
    slices = {}  # ((label, rank), N) -> slice
    for trial in range(200):
        key = rng.choice(COMPAT_SWEEP_TYPES), rng.randint(1, 2)
        if key not in slices:
            slices[key] = build_slice(cartans[key[0]], N=key[1])
        slc = slices[key]
        k = rng.randrange(slc.b_matrix.shape[1])
        b1 = mutate_matrix(slc.b_matrix, slc.exch_rows, k)
        _require(
            np.array_equal(mutate_matrix(b1, slc.exch_rows, k), slc.b_matrix),
            f"involution trial {trial}",
        )
        ek = e_matrix(slc.b_matrix, slc.exch_rows, k)
        fk = f_matrix(slc.b_matrix, slc.exch_rows, k)
        _require(np.array_equal(ek @ slc.b_matrix @ fk, b1), f"EBF trial {trial}")
    # quantum mutation involution plus positivity/parity of coefficients
    slc2 = build_slice(cartans["A", 2], window=(-1, 6))
    seed0 = initial_seed(slc2)
    back = mutate_along(seed0, SL3_PATH[:4] + SL3_PATH[:4][::-1])
    _require(back.vars == seed0.vars, "quantum involution")
    final = mutate_along(seed0, SL3_PATH)
    for v, el in final.vars.items():
        for _, coeff in el.sorted_terms():
            _require(all(n > 0 for n in coeff.values()), f"positivity at {v}")
            _require(len({k % 2 for k in coeff}) <= 1, f"t-parity at {v}")
    return "200 random cases per law, seed fixed"


def run_all(quick: bool = False) -> list[Verdict]:
    return [fn() for fn in (QUICK_CRITERIA if quick else ALL_CRITERIA)]
