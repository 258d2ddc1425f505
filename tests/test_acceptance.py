"""End-to-end acceptance battery.

Each test runs one of the ten acceptance criteria and prints a single
PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s` to see them.
The failure-path tests break one name a criterion reads and pin the verdict
of its first failed check.
"""

import pytest

from qgroth import verify


@pytest.mark.parametrize(
    "criterion", verify.ALL_CRITERIA, ids=lambda fn: fn.__name__
)
def test_acceptance(criterion):
    name, ok, detail = criterion()
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


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
     lambda real: lambda slc, path: {v: {} for v in slc.vertices},
     "sl3 classical mutation", "step 1 vertex (1, 4)"),
    ("crit_4_sl3_classical", "evaluate_t1", lambda real: lambda el: {},
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
