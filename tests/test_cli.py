import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgroth
from qgroth import cli, qcluster, qtorus, repchar
from qgroth.cartan import build_cartan
from qgroth.cli import _emit, _emit_value, main
from qgroth.qcluster import initial_seed, mutate_along
from qgroth.qtorus import TorusElement, exact_left_divide, tc_text
from qgroth.quiver import build_slice
from qgroth.repchar import mutation_sequence


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFundChar:
    def test_a1_text(self, capsys):
        code, out, _ = run(
            capsys, ["fund-char", "--type", "A", "--rank", "1", "--i", "1", "--r", "-2"]
        )
        assert code == 0
        assert out.strip() == "z[1,2]z[1,0]^-1 + z[1,0]^-1z[1,-2]"

    def test_a1_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["fund-char", "--type", "A", "--rank", "1", "--i", "1", "--r", "-2", "--json"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert obj["origin"] == [1, -2] and obj["read_at"] == [1, 0]
        assert len(obj["terms"]) == 2

    def test_t1_flag(self, capsys):
        code, out, _ = run(
            capsys,
            ["fund-char", "--type", "A", "--rank", "1", "--i", "1", "--r", "-2", "--t1"],
        )
        assert code == 0
        assert "t^" not in out

    def test_off_lattice_usage_error(self, capsys):
        code, _, err = run(
            capsys, ["fund-char", "--type", "A", "--rank", "2", "--i", "2", "--r", "0"]
        )
        assert code == 2
        assert "error" in err

    def test_window_is_not_an_option(self, capsys):
        # the sequence fixes its slice; fund-char takes no window
        with pytest.raises(SystemExit) as info:
            main(["fund-char", "--type", "A", "--rank", "2", "--i", "1", "--r", "0",
                  "--window", "-5:10"])
        assert info.value.code == 2
        assert "unrecognized arguments: --window=-5:10" in capsys.readouterr().err


class TestCompat:
    def test_d4_window(self, capsys):
        code, out, _ = run(
            capsys, ["compat", "--type", "D", "--rank", "4", "--window", "-5:2"]
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == (
            "PASS diagonal=[-2, -2, -2, -2, -2, -2, -2, -2]"
        )

    def test_a2_n1(self, capsys):
        code, out, _ = run(capsys, ["compat", "--type", "A", "--rank", "2", "--N", "1"])
        assert code == 0
        assert "PASS" in out


class TestSequence:
    def test_d4(self, capsys):
        code, out, _ = run(
            capsys, ["sequence", "--type", "D", "--rank", "4", "--i", "1", "--r", "0"]
        )
        assert code == 0
        assert out.strip() == (
            "(1,6) (1,4) (1,2) (3,6) (3,4) (3,2) (4,6) (4,4) (4,2) "
            "(2,5) (2,3) (2,1) (1,6) (1,4) (3,6) (3,4) (4,6) (4,4) "
            "(2,5) (2,3) (1,6)"
        )

    def test_a1(self, capsys):
        code, out, _ = run(
            capsys, ["sequence", "--type", "A", "--rank", "1", "--i", "1", "--r", "0"]
        )
        assert code == 0
        assert out.strip() == "(1,2)"


class TestMutate:
    def test_sl2_quantum(self, capsys):
        code, out, _ = run(
            capsys,
            ["mutate", "--type", "A", "--rank", "1", "--N", "1", "--path", "(1,0)"],
        )
        assert code == 0
        assert out.strip() == "z[1,2]z[1,0]^-1 + z[1,0]^-1z[1,-2]"

    def test_sl2_t1_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["mutate", "--type", "A", "--rank", "1", "--N", "1", "--path", "(1,0)",
             "--t1", "--json"],
        )
        assert code == 0
        assert json.loads(out) == {
            "schema": 1,
            "vertex": [1, 0],
            "t1": True,
            "terms": [
                {"c": 1, "exp": [[1, 0, -1], [1, -2, 1]]},
                {"c": 1, "exp": [[1, 2, 1], [1, 0, -1]]},
            ],
        }

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--N", "1", "--path", "(1,x)"], "cannot parse vertex '(1,x)'"),
            (["--N", "1", "--path", "(1,2)", "--vertex", "(1)"], "cannot parse vertex '(1)'"),
            (["--window", "0-5", "--path", "(1,2)"], "cannot parse window '0-5'"),
        ],
        ids=["path", "vertex", "window"],
    )
    def test_malformed_argument_usage_error(self, capsys, extra, message):
        code, out, err = run(capsys, ["mutate", "--type", "A", "--rank", "2", *extra])
        assert code == 2
        assert not out
        assert message in err

    @pytest.mark.parametrize("engine", [[], ["--t1"]], ids=["quantum", "t1"])
    def test_failed_division_exits_1(self, capsys, monkeypatch, engine):
        # a doubled divisor makes the exchange division non-exact
        real = qcluster.exact_left_divide
        monkeypatch.setattr(qcluster, "exact_left_divide", lambda a, d: real(a, d.scaled(2)))
        argv = ["mutate", "--type", "A", "--rank", "1", "--N", "1", "--path", "(1,0)", *engine]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert not out
        assert err.startswith("computation failed: ") and "non-exact division" in err

    def test_frozen_vertex_fails(self, capsys):
        code, _, err = run(
            capsys,
            ["mutate", "--type", "A", "--rank", "1", "--N", "1", "--path", "(1,2)"],
        )
        assert code == 2
        assert err

    def test_empty_path_needs_vertex(self, capsys):
        code, _, err = run(
            capsys, ["mutate", "--type", "A", "--rank", "1", "--N", "1", "--path", ""]
        )
        assert code == 2

    @pytest.mark.parametrize("engine", [[], ["--t1"]], ids=["quantum", "t1"])
    def test_vertex_the_path_never_writes_is_its_initial_variable(self, capsys, engine):
        argv = ["mutate", "--type", "A", "--rank", "2", "--window", "-1:6",
                "--path", "(1,4);(1,2)", "--vertex", "(2,3)", *engine]
        code, out, _ = run(capsys, argv)
        assert (code, out.strip()) == (0, "z[2,3]")

    @pytest.mark.parametrize("engine", [[], ["--t1"]], ids=["quantum", "t1"])
    def test_unknown_vertex_usage_error(self, capsys, engine):
        argv = ["mutate", "--type", "A", "--rank", "2", "--window", "-1:6",
                "--path", "(1,2)", "--vertex", "(9,9)", *engine]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert not out
        assert "(9, 9)" in err

    @pytest.mark.parametrize("engine", [[], ["--t1"]], ids=["quantum", "t1"])
    @pytest.mark.parametrize("path", ["", "(1,2);(1,0)"], ids=["empty", "later-step-frozen"])
    def test_unknown_vertex_message(self, capsys, engine, path):
        # the read vertex is refused before any step of the path is looked at
        argv = ["mutate", "--type", "A", "--rank", "2", "--window", "-1:6",
                "--path", path, "--vertex", "(9,9)", *engine]
        assert run(capsys, argv) == (2, "", "error: vertex (9, 9) is not in this slice\n")


class TestOracle:
    def test_a2(self, capsys):
        code, out, _ = run(
            capsys, ["oracle", "--type", "A", "--rank", "2", "--i", "1", "--r", "0"]
        )
        assert code == 0
        assert out.strip() == "Y[2,3]^-1 + Y[1,2]^-1Y[2,1] + Y[1,0]"

    def test_non_minuscule_node_is_a_domain_error(self, capsys):
        code, out, err = run(
            capsys, ["oracle", "--type", "D", "--rank", "4", "--i", "2", "--r", "1"]
        )
        assert code == 2
        assert not out
        assert "minuscule" in err

    @pytest.mark.parametrize("kind, rank, i", [("A", 2, 9), ("A", 2, 0), ("E", 8, 9)])
    def test_node_out_of_range(self, capsys, kind, rank, i):
        argv = ["oracle", "--type", kind, "--rank", str(rank), "--i", str(i), "--r", "0"]
        assert run(capsys, argv) == (2, "", f"error: node {i} out of range for {kind}{rank}\n")


class TestBaxterAndDrinfeld:
    def test_baxter(self, capsys):
        code, out, _ = run(capsys, ["baxter", "--r", "0"])
        assert code == 0
        assert out.startswith("PASS baxter r=0")

    def test_drinfeld_pass(self, capsys):
        code, out, _ = run(capsys, ["drinfeld"])
        assert code == 0
        assert out.count("PASS") == 7

    def test_drinfeld_wrong_sign(self, capsys):
        code, out, _ = run(capsys, ["drinfeld", "--q-sign", "1"])
        assert code == 1
        assert out.count("FAIL") == 1
        assert "[E,F]" in out


class TestThinCheck:
    def test_a2(self, capsys):
        code, out, _ = run(
            capsys, ["thin-check", "--type", "A", "--rank", "2", "--i", "1", "--r", "0"]
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_type_d_rejected(self, capsys):
        code, _, err = run(
            capsys, ["thin-check", "--type", "D", "--rank", "4", "--i", "1", "--r", "0"]
        )
        assert code == 2

    def test_nontrivial_coefficients_exit_1(self, capsys, monkeypatch):
        real = repchar.fundamental_qt_character

        def times_t(c, i, r):
            return real(c, i, r).scaled({2: 1})

        monkeypatch.setattr(repchar, "fundamental_qt_character", times_t)
        n = len(real(build_cartan("A", 3), 2, 1).terms)
        code, out, _ = run(
            capsys, ["thin-check", "--type", "A", "--rank", "3", "--i", "2", "--r", "1"]
        )
        assert code == 1
        assert out == f"FAIL thin A3 (2,1): {n} monomials with nontrivial coefficients\n"


class TestCartanQuiver:
    def test_cartan_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["cartan", "--type", "A", "--rank", "2", "--degree", "6", "--i", "1",
             "--j", "2", "--json"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["h_dual"] == 3
        assert obj["series"][0]["coeffs"] == [0, 0, 1, 0, -1, 0, 0]

    def test_invalid_type(self, capsys):
        code, _, err = run(capsys, ["cartan", "--type", "D", "--rank", "3"])
        assert code == 2

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--i", "1"], "both --i and --j"),
            (["--j", "2"], "both --i and --j"),
            (["--degree", "-3"], "degree must be >= 0"),
        ],
        ids=["i-without-j", "j-without-i", "negative-degree"],
    )
    def test_cartan_bad_arguments_usage_error(self, capsys, extra, message):
        code, out, err = run(capsys, ["cartan", "--type", "A", "--rank", "2", *extra])
        assert code == 2
        assert not out
        assert message in err

    @pytest.mark.parametrize(
        "command, extra",
        [("quiver", []), ("compat", []), ("mutate", ["--path", "(1,2)"])],
    )
    def test_n_and_window_together_usage_error(self, capsys, command, extra):
        argv = [command, "--type", "A", "--rank", "2", "--N", "1", "--window", "0:5", *extra]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert not out
        assert "exactly one of N or window" in err

    def test_quiver_a1(self, capsys):
        code, out, _ = run(capsys, ["quiver", "--type", "A", "--rank", "1", "--N", "1"])
        assert code == 0
        assert "vertices (rows): (1,2) (1,0) (1,-2)" in out


class TestJsonDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compat", "--type", "A", "--rank", "3", "--N", "1", "--json"],
            ["fund-char", "--type", "A", "--rank", "2", "--i", "1", "--r", "0", "--json"],
            ["drinfeld", "--json"],
        ],
    )
    def test_repeat_runs_identical(self, capsys, argv):
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        assert json.loads(out1)["schema"] == 1


VERIFY_ALL_TEXT = """\
PASS cartan series: A1 through degree 11, A2 through 14
PASS D4 golden matrices: 16x8 B, 16x16 Lambda, B^T L = -2 Id
PASS compatibility sweep: 8 types x N=1..3 diagonal -2; 100 random paths
PASS sl3 classical mutation: 4 printed variables, classical and t=1
PASS sl2 quantum mutation: z[1,2]z[1,0]^-1 + z[1,0]^-1z[1,-2]
PASS mutation sequences: A2 (5 vertices), D4 (21 vertices)
PASS type A theorem: A1..A4, all nodes, two levels each
PASS quantized Baxter: r in {-1,0,1} plus classical image
PASS Drinfeld double: 7 relations; sign falsification fails
PASS property suites: 200 random cases per law, seed fixed
ALL PASS
"""

# sha256 of the whole --json output, one line
VERIFY_ALL_JSON_SHA256 = "b4501972c5fc61db1973f2d8e14e1f5dea40411fb645c954e1b0496ec4a28c17"


class TestVerifyAll:
    def test_quick(self, capsys):
        code, out, _ = run(capsys, ["verify-all", "--quick"])
        assert code == 0
        assert out.strip().splitlines()[-1] == "ALL PASS"

    def test_full_text(self, capsys):
        assert run(capsys, ["verify-all"]) == (0, VERIFY_ALL_TEXT, "")

    def test_full_json(self, capsys):
        code, out, err = run(capsys, ["verify-all", "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["ok"]
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256


# the D4 (1,0) sequence
D4_PATH = ("(1,6);(1,4);(1,2);(3,6);(3,4);(3,2);(4,6);(4,4);(4,2);(2,5);(2,3);(2,1);"
           "(1,6);(1,4);(3,6);(3,4);(4,6);(4,4);(2,5);(2,3);(1,6)")
# the first 26 steps of the D5 (1,0) sequence, the benchmark's frontier op
D5_26_PATH = ("(1,8);(1,6);(1,4);(1,2);(3,8);(3,6);(3,4);(3,2);(2,7);(2,5);(2,3);(2,1);"
              "(4,7);(4,5);(4,3);(4,1);(5,7);(5,5);(5,3);(5,1);(1,8);(1,6);(1,4);(3,8);"
              "(3,6);(3,4)")
# sha256 of the whole stdout of each command: the printed bytes are part of
# the interface, so any change to them fails here
OUTPUT_SHA256 = {
    "fund-char --type D --rank 4 --i 1 --r 0 --json":
        "1abc89c511bd52fb508898ad15132f6e4b441f5466c2c5ac8cb1a968b7842f52",
    "fund-char --type D --rank 4 --i 2 --r 1 --json":
        "4af83cc2f0dc9f7b4e400641c910dda5c981025bf3a319d4ee98e934db45ee70",
    "fund-char --type D --rank 5 --i 1 --r 0 --json":
        "3ebe99249211aa7042d583af6b1b421086cd68c5ecb0c6f330511feac354ed69",
    "fund-char --type A --rank 4 --i 2 --r 1 --json":
        "6bbcd494cf5eb5ce2d72bf1a9859c16ad6643a76f7836068fd8d60a895c6e699",
    "fund-char --type D --rank 4 --i 1 --r 0 --json --t1":
        "7d81e74c8659f98c04f0651d737ed0a96aec85d11fbcb33197370d2b4672ba41",
    "fund-char --type A --rank 3 --i 2 --r 1":
        "7c79ec7eed7c271a444da9e31561ac3fe2c74f6eff9018da284108967c45a876",
    "thin-check --type A --rank 3 --i 2 --r 1":
        "55cbd4c8fd58a6902c5627c15bc43c6cdced6de806b470d2dc55ed4eb8449d25",
    "baxter --r 0 --json":
        "db1504ff47ac3d6d7037b91ed662270addabd4820d7d87f96f927e5b58a3f938",
    # the classical engine's t=1 value, and the quantum one's: the same bytes
    f"mutate --type D --rank 4 --window -1:8 --path {D4_PATH} --t1 --json":
        "5d6eb5a8482de7b702d6d74b999ea21eeb861b58784e6b3c0eda3a6705a3d9e7",
    f"mutate --type D --rank 4 --window -1:8 --path {D4_PATH} --t1":
        "565ec8bbbc23cc2f773e216ed6ab327fc09bc7160620a9d58f9f7a096e1740aa",
    "fund-char --type D --rank 4 --i 1 --r 0 --t1":
        "565ec8bbbc23cc2f773e216ed6ab327fc09bc7160620a9d58f9f7a096e1740aa",
    "mutate --type A --rank 2 --window -1:6 --path (1,4);(1,2);(2,3);(2,1);(1,4) --t1 --json":
        "019a4467a75182e45da59d5d6c43d88d326c1c140e43b3d99e834c4c576e9ec7",
    # read runs: the last vertex of the path, another one it writes, and one
    # it never writes
    f"mutate --type D --rank 5 --window -1:10 --path {D5_26_PATH} --json":
        "764f8b410ad4e1c5d57407c2fb8838fceb4f20f846c5cc2fafdfc7792777014e",
    f"mutate --type D --rank 4 --window -1:8 --path {D4_PATH} --json":
        "c66a0944858708a7ebc4d7d001b727979be9998241c10ef1c094aef9cbf4472d",
    f"mutate --type D --rank 4 --window -1:8 --path {D4_PATH} --vertex (2,5) --json":
        "269c23d2191b6084b361bd94d9e21966947e28f2d576dd8a9f9651baa639c17f",
    f"mutate --type D --rank 4 --window -1:8 --path {D4_PATH} --vertex (2,5) --t1 --json":
        "edd498b5bbd5cac4d46a3419cf351cbfa996d2363edfdb44504f2cfd2a987649",
    'mutate --type A --rank 2 --N 1 --path "" --vertex (1,0) --json':
        "2231b73b6e5783853905da045349365770cbda1148d48020fe71d5bac09eb679",
}


@pytest.mark.parametrize("command", OUTPUT_SHA256)
def test_output_bytes_pinned(capsys, command):
    code, out, err = run(capsys, shlex.split(command))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[command]


ALL_NODES = [
    (kind, rank, i) for kind, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]
    for i in range(1, rank + 1)
]


@pytest.mark.parametrize("kind, rank, i", ALL_NODES)
def test_fund_char_heads_name_the_sequence(capsys, kind, rank, i):
    # origin is the level asked for; read_at is the last vertex of its sequence
    c = build_cartan(kind, rank)
    r = next(r for r in (0, 1) if c.in_ihat(i, r))
    argv = ["fund-char", "--type", kind, "--rank", str(rank), "--i", str(i),
            "--r", str(r), "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["origin"] == [i, r]
    assert obj["read_at"] == list(mutation_sequence(c, i, r).read_vertex)


class TestClosedStdout:
    """A reader that closes stdout early ends the command with 141, which is
    128 + SIGPIPE, and nothing on stderr: not 1, the code of a FAILed check."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "command",
        [
            "verify-all --quick",
            "fund-char --type D --rank 5 --i 2 --r 1 --json",
            "oracle --type E --rank 7 --i 7 --r 1",
        ],
    )
    def test_exit_141_and_empty_stderr(self, command, buffered):
        env = dict(os.environ, PYTHONPATH=str(Path(qgroth.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the command writes anything
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qgroth.cli", *command.split()],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestTermBudget:
    @pytest.mark.parametrize("engine", [[], ["--t1"]], ids=["quantum", "t1"])
    def test_budget_is_a_domain_error(self, capsys, monkeypatch, engine):
        monkeypatch.setattr(qtorus, "TERM_BUDGET", 3)
        argv = ["mutate", "--type", "D", "--rank", "4", "--window", "-1:8",
                "--path", "(1,6);(1,4);(1,2)", "--json", *engine]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert not out
        assert "term budget of 3" in err

    @pytest.mark.parametrize("engine", [[], ["--t1"]], ids=["quantum", "t1"])
    def test_out_of_memory_is_a_domain_error(self, capsys, monkeypatch, engine):
        # a star product can outgrow memory before the budget check sees it
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(qtorus, "_star", exhausted)
        argv = ["fund-char", "--type", "D", "--rank", "4", "--i", "1", "--r", "0", *engine]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert not out
        assert err == f"error: out of memory within the term budget of {qtorus.TERM_BUDGET} terms\n"

    def test_out_of_memory_without_torus_arithmetic_names_no_budget(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "build_slice", exhausted)
        argv = ["quiver", "--type", "E", "--rank", "8", "--N", "3", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "error: out of memory\n")


# ------------------------------------------- printed values against a reference
#
# ref_to_text and ref_to_json_obj are the value renderers from before printing
# went term by term: they read the ExpKey terms view and build the whole JSON
# object, which json.dumps(..., sort_keys=True) then prints.

def ref_sorted_keys(x):
    """The keys of x.terms, in ascending order of their negated exponent
    vectors over the union of their vertices in reading order (level
    descending, node ascending)."""
    verts = sorted({u for k in x.terms for u, _ in k}, key=lambda u: (-u[1], u[0]))
    return sorted(x.terms, key=lambda k: [-dict(k).get(u, 0) for u in verts])


def ref_to_text(x):
    if not x:
        return "0"
    parts = []
    for k in ref_sorted_keys(x):
        factors = "".join(f"z[{i},{r}]" + (f"^{e}" if e != 1 else "") for (i, r), e in k)
        coeff = x.terms[k]
        if coeff == {0: 1} and factors:
            parts.append(factors)
        elif factors:
            parts.append(f"{tc_text(coeff)}*{factors}")
        else:
            parts.append(tc_text(coeff))
    return " + ".join(parts)


def ref_to_json_obj(x):
    terms = []
    for k in ref_sorted_keys(x):
        for vpow in sorted(x.terms[k], reverse=True):
            terms.append(
                {"t_num": vpow, "c": x.terms[k][vpow], "exp": [[i, r, e] for (i, r), e in k]}
            )
    return {"terms": terms}


VALUE_SEEDS = {
    label: initial_seed(build_slice(c, window=(-6, 6)))
    for label, c in (("A3", build_cartan("A", 3)), ("D4", build_cartan("D", 4)))
}


@st.composite
def printed_values(draw, label):
    """Sums of monomials on the seed's vertices, the constant monomial
    included, with coefficients of both signs and up to three powers of v;
    either key-born or moved into the seed's frame."""
    seed = VALUE_SEEDS[label]
    out = TorusElement.zero(seed.cartan)
    for _ in range(draw(st.integers(0, 6))):
        support = draw(st.lists(st.sampled_from(seed.slice.vertices), max_size=4, unique=True))
        exp = {v: draw(st.integers(-3, 3)) for v in support}
        coeff = draw(st.dictionaries(st.integers(-4, 4), st.integers(-12, 12), max_size=3))
        out = out + TorusElement.monomial(seed.cartan, exp, coeff)
    if draw(st.booleans()):
        z = next(iter(seed.vars.values()))
        out = exact_left_divide(z, z) * out
        assert out._frame is z._frame
    return out


def printed(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fn(*args)
    return out.getvalue()


def assert_value_printed_as_reference(x):
    head = {"vertex": [1, 2]}
    as_json = printed(_emit_value, argparse.Namespace(json=True, t1=False), head, x)
    want = {"schema": 1, **head, "t1": False, **ref_to_json_obj(x)}
    assert as_json == json.dumps(want, sort_keys=True) + "\n"
    as_text = printed(_emit_value, argparse.Namespace(json=False, t1=False), head, x)
    assert as_text == ref_to_text(x) + "\n"


class TestValueOutput:
    @settings(max_examples=80, deadline=None, database=None)
    @given(data=st.data(), label=st.sampled_from(sorted(VALUE_SEEDS)))
    def test_random_values(self, data, label):
        assert_value_printed_as_reference(data.draw(printed_values(label)))

    def test_special_values(self):
        c = VALUE_SEEDS["D4"].cartan
        seed = mutate_along(VALUE_SEEDS["D4"], [(1, 4), (1, 2)])
        for x in (
            TorusElement.zero(c),
            TorusElement.one(c),
            TorusElement.monomial(c, {}, {3: -2, -1: 5}),
            TorusElement.monomial(c, {(2, 1): -1}, -7),
            seed.vars[(1, 2)],
            seed.vars[(1, 2)] * seed.vars[(1, 4)] - TorusElement.one(c),
        ):
            assert_value_printed_as_reference(x)

    def test_two_values_in_one_object(self):
        # baxter's shape: two term arrays under keys that sort around others
        c = VALUE_SEEDS["A3"].cartan
        lhs = TorusElement.monomial(c, {(1, 2): 1}, {1: 1, -1: -3})
        rhs = TorusElement.zero(c)
        obj = {"r": 0, "ok": False, "lhs": lhs, "rhs": rhs}
        want = {"schema": 1, "r": 0, "ok": False,
                "lhs": ref_to_json_obj(lhs)["terms"], "rhs": ref_to_json_obj(rhs)["terms"]}
        got = printed(_emit, argparse.Namespace(json=True), obj, "")
        assert got == json.dumps(want, sort_keys=True) + "\n"


class TestParser:
    def test_built_once_at_the_first_call(self, capsys):
        cli.build_parser.cache_clear()
        argv = ["sequence", "--type", "A", "--rank", "2", "--i", "1", "--r", "0"]
        assert run(capsys, argv) == run(capsys, argv)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
