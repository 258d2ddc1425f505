import json

import pytest

from qgroth.cli import main


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
    def test_unknown_vertex_usage_error(self, capsys, engine):
        argv = ["mutate", "--type", "A", "--rank", "2", "--window", "-1:6",
                "--path", "(1,2)", "--vertex", "(9,9)", *engine]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert not out
        assert "(9, 9)" in err


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


class TestVerifyAll:
    def test_quick(self, capsys):
        code, out, _ = run(capsys, ["verify-all", "--quick"])
        assert code == 0
        assert out.strip().splitlines()[-1] == "ALL PASS"
