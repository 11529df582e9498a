import json
from pathlib import Path

import pytest

from clusterforge.cli import main, parse_params, parse_sequence
from clusterforge.errors import ParseError
from clusterforge.laurent import decimal_int, parse_monomial

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_sequence_forms():
    assert parse_sequence("1,2,1") == (1, 2, 1)
    assert parse_sequence("") == ()
    assert parse_sequence("1..4") == (1, 2, 3, 4)
    assert parse_sequence("1..3x2") == (1, 2, 3, 1, 2, 3)
    with pytest.raises(ParseError):
        parse_sequence("1..")
    with pytest.raises(ParseError):
        parse_sequence("a,b")


def test_parse_params():
    assert parse_params("v=7,r=2,t=3") == {"v": 7, "r": 2, "t": 3}
    with pytest.raises(ParseError):
        parse_params("r")


# `int` reads each of these as a number: '1_0' as 10, a full-width or an
# Arabic-Indic digit as that digit, '+1' as 1
NOT_DECIMAL = ("1_0", "\uff11", "\u0663", "+1")


def test_decimal_int_reads_ascii_decimal_only():
    assert [decimal_int(t) for t in ("0", "12", "-3", " 4 ", "007")] == [0, 12, -3, 4, 7]
    for text in (*NOT_DECIMAL, "", "-", "--1", "1 0", "0x1", "1.0", "1\u00a0", "\t1"):
        with pytest.raises(ValueError):
            decimal_int(text)


@pytest.mark.parametrize("token", NOT_DECIMAL)
def test_parsers_reject_integers_that_are_not_ascii_decimal(token):
    for parse in (parse_sequence, lambda t: parse_sequence(f"1..{t}"),
                  lambda t: parse_sequence(f"{t}..3"), lambda t: parse_params(f"r={t}"),
                  lambda t: parse_monomial(f"y{t}", 2), lambda t: parse_monomial(f"y1^{t}", 2)):
        with pytest.raises(ParseError):
            parse(token)


@pytest.mark.parametrize("argv", [
    ["fpoly", "--family", "gr", "--params", "v=11,r=2,t=3", "--seq", "1_0"],
    ["fpoly", "--family", "kr", "--params", "r=1_0", "--seq", "1"],
    ["fpoly", "--family", "kr", "--params", "r=\uff12", "--seq", "1"],
    ["fpoly", "--family", "kr", "--params", "r=2", "--seq", "1", "--coeff", "y1^1_0"],
    ["family", "--family", "kr", "--params", "r=2", "--n", "1_0"],
    ["family", "--family", "kr", "--params", "r=2", "--n", "\uff11"],
    ["stabilize", "--family", "kr", "--params", "r=2", "--period", "1,2", "--count", "1_0"],
    ["stabilize", "--family", "kr", "--params", "r=2", "--period", "1,2", "--cutoff", "+3"],
    ["limit", "--family", "kr", "--params", "r=2", "--cutoff", "1_0"],
    ["cmatrix", "--family", "kr", "--params", "r=2", "--seq", "1,2", "--between", "1_0", "2"],
])
def test_cli_integer_that_is_not_ascii_decimal_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")


# no-break and ideographic spaces: str.strip() removed them, ASCII trimming keeps them
UNICODE_SPACES = ("\u00a0", "\u3000")


@pytest.mark.parametrize("space", UNICODE_SPACES)
def test_parsers_trim_ascii_spaces_only(space):
    assert parse_sequence(" 1,2 ") == (1, 2)
    assert parse_params(" r = 2") == {"r": 2}
    assert parse_monomial(" y1^3 * y2 ", 2) == (3, 1)
    for text in (f"1,2,1{space}", f"{space}1..3"):
        with pytest.raises(ParseError):
            parse_sequence(text)
    for text in (f"y1^3*y2{space}", f"{space}y1"):
        with pytest.raises(ParseError):
            parse_monomial(text, 2)
    # the name keeps its space, and no family takes a parameter of that name
    assert parse_params(f"{space}r=2") == {f"{space}r": 2}


@pytest.mark.parametrize("space", UNICODE_SPACES)
@pytest.mark.parametrize("argv", [
    ["--seq", "1,2,1{}"],
    ["--seq", "{}1,2,1"],
    ["--seq", "1,2,1", "--coeff", "y1^3*y2{}"],
])
def test_cli_unicode_space_around_an_input_is_a_usage_error(capsys, space, argv):
    argv = [arg.format(space) for arg in argv]
    code, out, err = run(capsys, "fpoly", "--family", "kr", "--params", "r=2", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error:")


@pytest.mark.parametrize("space", UNICODE_SPACES)
def test_cli_unicode_space_in_a_parameter_name_is_no_parameter(capsys, space):
    code, out, err = run(capsys, "fpoly", "--family", "kr", "--params", f"{space}r=2",
                         "--seq", "1,2,1")
    assert (code, out) == (2, "")
    assert err == f"error: BadParameters: family 'kr' takes no parameter {space + 'r'!r}\n"


@pytest.mark.parametrize("argv", [
    ["fpoly", "--family", "kr", "--params", "r=2", "--seq", "3..1"],
    ["fpoly", "--family", "kr", "--params", "r=2", "--seq", "1..2x0"],
    ["fpoly", "--family", "kr", "--params", "r=2", "--quiver", "GOLDEN/b21.json", "--seq", "1"],
    ["fpoly", "--quiver", "GOLDEN/no-such-quiver.json", "--seq", "1"],
])
def test_cli_input_errors_are_one_usage_error_line(capsys, argv):
    argv = [arg.replace("GOLDEN", str(GOLDEN)) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and err.count("\n") == 1


@pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff\xfe"], ids=["deep", "not-utf8"])
def test_unreadable_quiver_file_is_one_usage_error_line(tmp_path, capsys, content):
    # JSON nested past the recursion limit, and bytes that are not UTF-8
    path = tmp_path / "q.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "mutate", "--quiver", str(path), "--seq", "1")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: cannot read quiver file: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-dir", "a-dir"])
def test_family_out_that_cannot_be_written_is_one_usage_error_line(tmp_path, capsys, target):
    code, out, err = run(capsys, "family", "--family", "kr", "--params", "r=2",
                         "--out", str(tmp_path / target), "--n", "2")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: cannot write --out file: ") and err.count("\n") == 1


def test_cli_reads_integers_with_spaces_around_them(capsys):
    code, out, _ = run(capsys, "fpoly", "--family", "kr", "--params", "r= 2",
                       "--seq", "1, 2, 1", "--coeff", "y1^3 * y2")
    assert (code, out) == (0, "2\n")


def test_fpoly_family_formula(capsys):
    code, out, _ = run(capsys, "fpoly", "--family", "kr", "--params", "r=2",
                       "--seq", "1,2,1", "--method", "formula")
    assert code == 0
    assert out.strip() == ("1 + 3*y1 + 3*y1^2 + y1^3 + 2*y1^2*y2 + "
                           "2*y1^3*y2 + y1^3*y2^2")


def test_fpoly_empty_sequence(capsys):
    code, out, _ = run(capsys, "fpoly", "--family", "kr", "--params", "r=2",
                       "--seq", "")
    assert code == 0
    assert out.strip() == "1"


def test_fpoly_methods_agree(capsys):
    outputs = set()
    for method in ("recurrence", "formula", "product"):
        code, out, _ = run(capsys, "fpoly", "--family", "gr", "--params",
                           "v=4,r=2,t=1", "--seq", "1..4", "--method", method)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_fpoly_coeff_flag(capsys):
    code, out, _ = run(capsys, "fpoly", "--family", "kr", "--params", "r=2",
                       "--seq", "1,2,1", "--coeff", "y1^3*y2")
    assert code == 0
    assert out.strip() == "2"


@pytest.mark.parametrize("method", ["recurrence", "product"])
@pytest.mark.parametrize("coeff", ["y1^", "y3"])
def test_fpoly_coeff_is_parsed_before_f_n_is_computed(capsys, monkeypatch, method, coeff):
    # a malformed monomial, and a variable past the quiver's two, fail at once
    import clusterforge.cli as cli_module

    def unreachable(*args):
        raise AssertionError("F_n computed before --coeff was parsed")

    monkeypatch.setattr(cli_module, "fpoly_recurrence", unreachable)
    monkeypatch.setattr(cli_module, "fpoly_product_form", unreachable)
    code, out, err = run(capsys, "fpoly", "--family", "kr", "--params", "r=2",
                         "--seq", "1,2,1", "--method", method, "--coeff", coeff)
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_fpoly_json_round_trip(capsys):
    code, text_out, _ = run(capsys, "fpoly", "--family", "kr", "--params", "r=2",
                            "--seq", "1,2,1")
    code2, json_out, _ = run(capsys, "fpoly", "--family", "kr", "--params", "r=2",
                             "--seq", "1,2,1", "--format", "json")
    assert code == code2 == 0
    terms = json.loads(json_out)["terms"]
    from clusterforge import LaurentPolynomial

    rebuilt = LaurentPolynomial(
        2, {tuple(t["exponents"]): int(t["coeff"]) for t in terms}
    )
    assert rebuilt.to_text() == text_out.strip()


def test_quiver_file_input(tmp_path, capsys):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"b": [[0, 2], [-2, 0]]}))
    code, out, _ = run(capsys, "fpoly", "--quiver", str(path), "--seq", "1,2,1")
    assert code == 0
    assert "y1^3*y2^2" in out


def test_quiver_file_with_symmetrizer(tmp_path, capsys):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"b": [[0, 1], [-2, 0]], "d": [2, 1]}))
    code, out, _ = run(capsys, "verify", "--quiver", str(path), "--seq", "1,2,1,2")
    assert code == 0


def test_cmatrix_output(capsys):
    code, out, _ = run(capsys, "cmatrix", "--family", "kr", "--params", "r=2",
                       "--seq", "1,2,1")
    assert code == 0
    assert "step 1: vertex 1 green r = y1" in out
    assert "step 3: vertex 1 green r = y1^3*y2^2" in out


@pytest.mark.parametrize("extra", [[], ["--between", "1", "3"]])
def test_cmatrix_json_is_one_object_per_line(capsys, extra):
    code, out, _ = run(capsys, "cmatrix", "--family", "kr", "--params", "r=2",
                       "--seq", "1,2,1", "--format", "json", *extra)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    if not extra:
        assert lines[2:] == [
            {"step": 1, "vertex": 1, "color": "green", "r": [1, 0]},
            {"step": 2, "vertex": 2, "color": "green", "r": [2, 1]},
            {"step": 3, "vertex": 1, "color": "green", "r": [3, 2]},
        ]


def test_cmatrix_between(capsys):
    code, out, _ = run(capsys, "cmatrix", "--family", "kr", "--params", "r=2",
                       "--seq", "1,2,1", "--between", "1", "3")
    assert code == 0
    assert "C_1,3" in out and "D_1,3" in out


@pytest.mark.parametrize("between", [("5", "1"), ("-1", "0")])
def test_cmatrix_between_out_of_range_is_a_usage_error(capsys, between):
    # a step out of 0..len(seq) exits 1, as a vertex out of range does
    code, out, err = run(capsys, "cmatrix", "--family", "kr", "--params", "r=2",
                         "--seq", "1,2,1", "--between", *between)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"usage error: --between step {between[0]} out of range 0..3"]


def test_cmatrix_between_on_a_quiver_with_no_vertices(tmp_path, capsys):
    # used to die with an uncaught IndexError in the matrix product
    path = tmp_path / "empty.json"
    path.write_text('{"b": []}')
    args = ("cmatrix", "--quiver", str(path), "--seq", "", "--between", "0", "0")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "C_0,0 =" in out and "D_0,0 =" in out
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [{"C_0,0": []}, {"D_0,0": []}]


def test_family_emit_and_fpoly(tmp_path, capsys):
    out_file = tmp_path / "g723.json"
    code, out, _ = run(capsys, "family", "--family", "gr", "--params",
                       "v=7,r=2,t=3", "--out", str(out_file), "--n", "3")
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["b"][0][2] == 1 and data["b"][0][5] == 1


def test_family_without_n_prints_only_the_quiver(tmp_path, capsys):
    kr2 = ["family", "--family", "kr", "--params", "r=2"]
    assert run(capsys, *kr2) == (0, '{"b": [[0, 2], [-2, 0]], "d": [1, 1]}\n', "")
    out_file = tmp_path / "kr2.json"
    assert run(capsys, *kr2, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text() == '{"b": [[0, 2], [-2, 0]], "d": [1, 1]}\n'


@pytest.mark.parametrize("argv", [
    ["mutate", "--seq", "1"], ["fpoly", "--seq", "1"], ["cmatrix", "--seq", "1"],
    ["family"], ["stabilize", "--period", "1"], ["limit", "--cutoff", "4"],
    ["verify", "--seq", "1"],
])
def test_unknown_family_is_a_usage_error(capsys, argv):
    # every --family option takes its choices from the one family table
    code, out, err = run(capsys, *argv, "--family", "xx")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and "'xx'" in err


def test_mutate_output(capsys):
    code, out, _ = run(capsys, "mutate", "--family", "kr", "--params", "r=2",
                       "--seq", "1")
    assert code == 0
    assert "V1 = 1 + y1" in out


def test_stabilize_table(capsys):
    code, out, _ = run(capsys, "stabilize", "--family", "a1r", "--params", "r=2",
                       "--period", "1,2,3", "--count", "4", "--cutoff", "3")
    assert code == 0
    assert "stabilized at" in out


def test_limit_subcommand(capsys):
    code, out, _ = run(capsys, "limit", "--family", "a1r", "--params", "r=1",
                       "--cutoff", "6")
    assert code == 0
    assert out.strip() == "1 + y2 + 2*y1*y2^2 + 3*y1^2*y2^3"
    code, out, _ = run(capsys, "limit", "--family", "dp1", "--cutoff", "4")
    assert code == 0
    assert "y4" in out


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--family", "gr", "--params",
                       "v=7,2=2,t=3".replace("2=2", "r=2"), "--seq", "1..7")
    assert code == 0
    assert "FAIL" not in out


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "fpoly", "--seq", "1")
    assert code == 1  # no quiver source
    for seq in ("5", "0,1"):
        code, _, err = run(capsys, "fpoly", "--family", "kr", "--params", "r=2",
                           "--seq", seq)
        assert code == 1  # vertex out of range -> usage error
        assert "out of range 1..2" in err
    code, _, err = run(capsys, "fpoly", "--family", "kr", "--params", "r=1",
                       "--seq", "1")
    assert code == 2  # BadParameters -> computation error
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = run(capsys, "fpoly", "--quiver", str(bad), "--seq", "1")
    assert code == 1
    # a JSON top level that is not an object is a usage error, not a traceback
    for text in ("5", "null", "true", "[[0, 1], [-1, 0]]", '"b"'):
        bad.write_text(text)
        code, out, err = run(capsys, "mutate", "--quiver", str(bad), "--seq", "1")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ")


def test_family_parameters_are_checked(capsys):
    # a parameter the family does not take, or a missing one, is BadParameters
    for argv in (["fpoly", "--family", "kr", "--params", "r=2,x=9", "--seq", "1"],
                 ["family", "--family", "a1r", "--params", "r=2,v=3"],
                 ["limit", "--family", "dp1", "--params", "r=7", "--cutoff", "4"],
                 ["limit", "--family", "gr", "--params", "v=7,r=2", "--cutoff", "4"],
                 ["limit", "--family", "kr", "--cutoff", "4"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "BadParameters" in err
    # a repeated key is a usage error, never the last value silently
    for argv in (["fpoly", "--family", "kr", "--params", "r=2,r=3", "--seq", "1"],
                 ["family", "--family", "kr", "--params", "r=3, r=2"],
                 ["limit", "--family", "kr", "--params", "r=2,r=3", "--cutoff", "4"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "given twice" in err


def test_verify_a2_fundamentals_pass(tmp_path, capsys):
    # r_2 = (1, 1) is r_1 + r_3, so it is not fundamental among r_1..r_3
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"b": [[0, 1], [-1, 0]]}))
    code, out, _ = run(capsys, "verify", "--quiver", str(path), "--seq", "1,2,1")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("data", [
    {"b": [[0, 2.5], [-2.5, 0]]},
    {"b": [[0, True], [-1, 0]]},
    {"b": [[0, "2"], [-2, 0]]},
    {"b": [[0, 1], [-2, 0]], "d": [2.0, 1]},
])
def test_non_integer_quiver_entries_rejected(tmp_path, capsys, data):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "fpoly", "--quiver", str(path), "--seq", "1,2")
    assert code == 1
    assert out == ""
    assert "is not an integer" in err


def test_verify_reports_failures(capsys, monkeypatch):
    import clusterforge.cli as cli_module

    monkeypatch.setattr(cli_module, "run_verification",
                        lambda q, seq: {"made-up check": False})
    code, out, _ = run(capsys, "verify", "--family", "kr", "--params", "r=2",
                       "--seq", "1,2")
    assert code == 3
    assert "FAIL" in out


def test_stabilize_json(capsys):
    code, out, _ = run(capsys, "stabilize", "--family", "a1r", "--params",
                       "r=2", "--period", "1,2,3", "--count", "3",
                       "--cutoff", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"] == [3, 6, 9]
    assert all("history" in m and "stabilized_at" in m
               for m in payload["monomials"])


def test_output_deterministic(capsys):
    first = run(capsys, "fpoly", "--family", "gr", "--params", "v=4,r=2,t=1",
                "--seq", "1..4x2", "--format", "json")
    second = run(capsys, "fpoly", "--family", "gr", "--params", "v=4,r=2,t=1",
                 "--seq", "1..4x2", "--format", "json")
    assert first == second


def test_one_parser_serves_many_calls(capsys):
    # the parser is built once per process; no call's options leak into the next
    from clusterforge.cli import build_parser

    kr3 = ["--family", "kr", "--params", "r=3"]
    assert build_parser() is build_parser()
    code, out, err = run(capsys, "fpoly", *kr3, "--seq", "1,2", "--method", "bogus")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and "bogus" in err
    code, out, err = run(capsys, "fpoly", "--family", "kr", "--params", "r=1", "--seq", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: BadParameters: ")
    kr3.extend(["--method", "formula"])
    code, out, _ = run(capsys, "fpoly", *kr3, "--seq", "1,2,1,2", "--format", "json")
    assert (code, out) == (0, (GOLDEN / "fpoly-formula-kr3-n4-json.out").read_text())
    code, out, _ = run(capsys, "fpoly", *kr3, "--seq", "1,2,1,2,1", "--coeff", "y1^10*y2^3")
    assert (code, out) == (0, (GOLDEN / "fpoly-coeff-formula-kr3.out").read_text())
    code, out, _ = run(capsys, "fpoly", *kr3, "--seq", "1,2,1,2,1")
    assert (code, out) == (0, (GOLDEN / "fpoly-formula-kr3-n5.out").read_text())


@pytest.mark.parametrize("method", ["recurrence", "formula", "product"])
def test_zero_vertex_quiver_file(tmp_path, capsys, method):
    # a quiver with no vertices has F_0 = 1 by every method
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"b": []}))
    assert run(capsys, "fpoly", "--quiver", str(path), "--method", method) == (0, "1\n", "")


@pytest.mark.parametrize("argv", [
    ["family", "--family", "kr", "--params", "r=2", "--quiver", "x.json"],
    ["family", "--params", "r=2"],
    ["verify", "--family", "kr", "--params", "r=2", "--seq", "1,2", "--format", "json"],
    ["fpoly", "--quiver", str(GOLDEN / "b21.json"), "--params", "r=7", "--seq", "1,2"],
    ["fpoly", "--family", "kr", "--params", "r=2", "--seq", "1,2,1", "--coeff", "y1^3*y2",
     "--format", "json"],
    ["family", "--family", "kr", "--params", "r=2", "--format", "json"],
])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    # each subcommand declares only what it reads; nothing is silently dropped
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ")
