"""End-to-end acceptance battery.

Each test runs one of the ten acceptance criteria and prints a single
PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s` to see them.
The failure-path tests break one name a criterion reads and pin the verdict
of its first failed check.
"""

import collections
import random
import re

import pytest

from qgroth import compat, qcluster, qtorus, repchar, verify
from qgroth.cartan import build_cartan
from qgroth.qtorus import TorusElement


@pytest.mark.parametrize(
    "criterion", verify.ALL_CRITERIA, ids=lambda fn: fn.__name__
)
def test_acceptance(criterion):
    name, ok, detail = criterion()
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_registry_is_the_criteria_in_definition_order():
    names = [name for name in vars(verify) if re.fullmatch(r"crit_\d+_\w+", name)]
    names.sort(key=lambda name: int(name.split("_")[1]))
    assert [fn.__name__ for fn in verify.ALL_CRITERIA] == names and len(names) == 10
    # perfbench rebinds each entry and the module attribute of its name
    for fn in verify.ALL_CRITERIA + verify.QUICK_CRITERIA:
        assert getattr(verify, fn.__name__) is fn
    assert [fn.__name__.split("_")[1] for fn in verify.QUICK_CRITERIA] == [
        "1", "2", "5", "6", "8", "9"
    ]


# (criterion, name it reads from qgroth.verify, replacement built from the
# real one, verdict name, detail)
FAILURES = [
    ("crit_1_cartan_series", "ctilde", lambda real: lambda *args: 0,
     "cartan series", "A1 degree 1"),
    ("crit_2_d4_golden", "build_lambda", lambda real: lambda c, slc: 2 * real(c, slc),
     "D4 golden matrices", "skew form mismatch"),
    ("crit_3_compat_sweep", "build_lambda", lambda real: lambda c, slc: 2 * real(c, slc),
     "compatibility sweep", "A1 N=1: PASS diagonal=[-4]"),
    ("crit_4_sl3_classical", "classical_mutate_along",
     lambda real: lambda slc, path, read=None: {v: TorusElement(None, {}) for v in slc.vertices},
     "sl3 classical mutation", "step 1 vertex (1, 4)"),
    # the classical value is untwisted; break only the quantum one's image
    ("crit_4_sl3_classical", "evaluate_t1",
     lambda real: lambda el: {} if el.cartan is not None else real(el),
     "sl3 classical mutation", "quantum t=1 mismatch at step 1 vertex (1, 4)"),
    ("crit_5_sl2_quantum", "embed_Y", lambda real: lambda c, exps: real(c, exps).scaled({1: 1}),
     "sl2 quantum mutation", "Y-embedding mismatch"),
    ("crit_6_sequences", "mutation_sequence", lambda real: lambda c, i, r: real(c, i, r + 2),
     "mutation sequences", "A2: ((1, 6), (1, 4), (2, 5), (2, 3), (1, 6))"),
    ("crit_7_type_a_theorem", "fm_qchar_embedded", lambda real: lambda c, i, r: {},
     "type A theorem", "A1 (1,-2) oracle mismatch"),
    ("crit_8_baxter", "classical_mutate_along",
     lambda real: lambda slc, path: real(slc, list(path) * 2),
     "quantized Baxter", "classical image mismatch"),
    ("crit_9_drinfeld", "drinfeld_double_check", lambda real: lambda q_sign: real(q_sign=1),
     "Drinfeld double", "failed: [\"[E,F] = (q - q^-1)(K - K')\"]"),
    ("crit_9_drinfeld", "drinfeld_double_check", lambda real: lambda q_sign: real(q_sign=-1),
     "Drinfeld double", "q=+t^(1/2) falsification wrong: []"),
    ("crit_10_properties", "n_form", lambda real: lambda c, i, j, m: real(c, i, j, m) + 1,
     "property suites", "telescoping fails A1 (1,1,1)"),
    # a wrong quotient fails the round trip, outside the division's own except
    ("crit_10_properties", "exact_left_divide", lambda real: lambda num, d: d,
     "property suites", "division round-trip 0"),
]


def test_failure_cases_cover_every_criterion():
    assert {case[0] for case in FAILURES} == {fn.__name__ for fn in verify.ALL_CRITERIA}


@pytest.mark.parametrize(
    "criterion, attr, fake, name, detail",
    FAILURES,
    ids=[f"{case[0]}-{case[1]}" for case in FAILURES],
)
def test_failure_names_first_failed_check(monkeypatch, criterion, attr, fake, name, detail):
    monkeypatch.setattr(verify, attr, fake(getattr(verify, attr)))
    assert getattr(verify, criterion)() == (name, False, detail)


def test_division_error_is_reported_not_raised(monkeypatch):
    real = verify.exact_left_divide
    # a doubled divisor makes every round-trip division non-exact
    monkeypatch.setattr(verify, "exact_left_divide", lambda num, d: real(num, d.scaled(2)))
    name, ok, detail = verify.crit_10_properties()
    assert (name, ok) == ("property suites", False)
    assert detail.startswith("division trial 0: non-exact division")


def test_errors_other_than_a_failed_check_propagate(monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("not a verdict")

    monkeypatch.setattr(verify, "ctilde", broken)
    with pytest.raises(ZeroDivisionError, match="not a verdict"):
        verify.crit_1_cartan_series()


# ------------------------------------------------- work done once per battery

def ref_random_element(rng, c, verts):
    """crit_10's random element as a sum of its monomials, one at a time."""
    out = TorusElement.zero(c)
    for _ in range(rng.randint(1, 5)):
        exp = {v: rng.randint(-2, 2) for v in rng.sample(verts, rng.randint(1, 3))}
        coeff = {rng.randint(-3, 3): rng.randint(-4, 4)}
        out = out + TorusElement.monomial(c, exp, coeff)
    return out


def test_random_element_is_the_sum_of_its_monomials():
    c = build_cartan("A", 3)
    verts = [(i, r) for i in c.nodes for r in range(-6, 7) if c.in_ihat(i, r)]
    rng, ref = random.Random(20230823), random.Random(20230823)
    for draw in range(600):
        got, want = verify._random_element(rng, c, verts), ref_random_element(ref, c, verts)
        assert got == want and got.terms == want.terms, f"draw {draw}"
        assert rng.getstate() == ref.getstate(), f"draw {draw}"


@pytest.fixture
def builds(monkeypatch):
    """Counts of the slices, Cartan data, frames and skew forms built, and of
    the exchanges run."""
    counts = collections.Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("build_slice", "build_cartan"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    # the characters' slices, and every exchange that runs
    monkeypatch.setattr(repchar, "build_slice", counted("build_slice", repchar.build_slice))
    monkeypatch.setattr(qcluster, "mutate", counted("mutate", qcluster.mutate))
    for module in (qtorus, compat):
        monkeypatch.setattr(module, "skew_form", counted("skew_form", module.skew_form))
    monkeypatch.setattr(qtorus._Frame, "__init__", counted("frame", qtorus._Frame.__init__))
    return counts


@pytest.mark.parametrize(
    "criterion, want",
    [
        # 8 types x N=1..3; the random paths start from the N=1 slices
        ("crit_3_compat_sweep", {"build_slice": 24, "build_cartan": 8}),
        # 16 (type, N) slices for the matrix trials, and the A2 window
        ("crit_10_properties", {"build_slice": 17, "build_cartan": 8}),
        # one path per (rank, level, class), 14 in all, not one per character (20)
        ("crit_7_type_a_theorem", {"build_slice": 14, "build_cartan": 4, "mutate": 114}),
    ],
)
def test_criterion_builds_each_fixture_once(builds, criterion, want):
    assert getattr(verify, criterion)()[1]
    assert {name: builds[name] for name in want} == want


def test_battery_frames_and_skew_forms(builds):
    assert all(ok for _, ok, _ in verify.run_all())
    assert builds["frame"] <= 1700 and builds["skew_form"] <= 1350
