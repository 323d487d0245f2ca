import json
import pathlib
import shlex
import subprocess
import sys

import pytest

from polarnewton.cli import main

from _oracles import deriv

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name,argv", [
    ("cf_19_7", ["--format", "json", "cf", "--q", "19", "--p", "7"]),
    ("locus_g1_7_19", ["--format", "json", "locus", "g1", "--p", "7", "--q", "19"]),
    ("topology_g1_7_19", ["--format", "json", "topology", "g1", "--p", "7", "--q", "19"]),
    ("locus_g1_5_12", ["--format", "json", "locus", "g1", "--p", "5", "--q", "12"]),
    ("locus_g2_5_12_1", ["--format", "json", "locus", "g2", "--p", "5", "--q", "12", "--d", "1"]),
    ("topology_g2_5_12_1", ["--format", "json", "topology", "g2", "--p", "5", "--q", "12", "--d", "1"]),
    ("polar_pinned_member",
     ["--format", "json", "polar", "--expr", "y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y"]),
    ("verify_g2_5_12_1",
     ["--format", "json", "verify", "g2", "--p", "5", "--q", "12", "--d", "1", "--trials", "3", "--seed", "42"]),
    ("puiseux_pinned_member",
     ["--format", "json", "puiseux", "--expr", "y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y"]),
    ("puiseux_pinned_member_min_order_8",
     ["--format", "json", "puiseux", "--expr", "y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y",
      "--min-order", "8"]),
    ("puiseux_cusp_pair_min_order_8",
     ["--format", "json", "puiseux", "--expr", "(y^2 - x^3)*(y^2 - x^3 - x^4)", "--min-order", "8"]),
    ("nondeg_symbolic_member",
     ["--format", "json", "nondeg", "--expr", "y^5 - x^12 + a[5,3]*x^5*y^3 + x^8*y^2"]),
    ("family_g1_7_19", ["--format", "json", "family", "g1", "--p", "7", "--q", "19"]),
    ("family_g2_5_12_1", ["--format", "json", "family", "g2", "--p", "5", "--q", "12", "--d", "1"]),
    ("family_g2_2_3_1_e1_3",
     ["--format", "json", "family", "g2", "--p", "2", "--q", "3", "--d", "1", "--e1", "3"]),
    ("family_g2_3_5_1_bound_20",
     ["--format", "json", "family", "g2", "--p", "3", "--q", "5", "--d", "1", "--bound", "20"]),
])
def test_golden_pinned_examples(capsys, name, argv):
    code, out, _err = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_envelope_shape(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "cf", "--q", "12", "--p", "5")
    payload = json.loads(out)
    assert list(payload) == ["tool_version", "command", "inputs", "result", "warnings"]
    assert payload["command"] == "cf"


def test_classify_text_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--semigroup", "6,9,19")
    assert code == 0
    assert "nondegenerate_general_polar: False" in out
    assert "e1=3" in out


def test_classify_yes_cases(capsys):
    for gens in ("4,9", "4,6,13"):
        code, out, _ = run_cli(capsys, "classify", "--semigroup", gens)
        assert code == 0
        assert "nondegenerate_general_polar: True" in out


@pytest.mark.parametrize("text", ["4,a", "4,,6", ""])
def test_classify_non_integer_semigroup_is_a_usage_error(capsys, text):
    # these used to exit 1 with only "invalid literal for int() with base 10"
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--semigroup", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --semigroup: not a comma-separated list of integers" in err
    assert "invalid literal" not in err


def test_classify_bad_semigroup_is_a_computation_error(capsys):
    code, out, err = run_cli(capsys, "classify", "--semigroup", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_nondeg_reports_sides(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "nondeg", "--expr", "y^2 - x^3")
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "nondegenerate"
    assert payload["result"]["sides"][0]["squarefree"] is True


def test_polygon_reads_input_file(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("y^2 - x^3")
    code, out, _ = run_cli(capsys, "--format", "json", "polygon", "--input", str(path))
    payload = json.loads(out)
    assert payload["result"]["vertices"] == [[0, 2], [3, 0]]


def test_puiseux_json_payload(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "puiseux", "--expr", "y^2 - x^3")
    payload = json.loads(out)
    (branch,) = payload["result"]["branches"]
    assert branch["ramification"] == 2
    assert branch["char_exponents"] == [2, 3]
    assert branch["semigroup"] == [2, 3]


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf", "tiny"])
def test_puiseux_rejects_a_tolerance_that_is_not_positive_and_finite(capsys, tol):
    # a negative tolerance found every coefficient apart and gave intersection
    # 6 instead of 8 here; nan left every pair unresolved
    with pytest.raises(SystemExit) as exc:
        main(["puiseux", "--expr", "(y^2 - x^3)*(y^2 - x^3 - x^4)", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_puiseux_tolerance_keeps_the_intersection(capsys):
    for tol in ("1e-8", "1e-6"):
        code, out, _ = run_cli(capsys, "--format", "json", "puiseux",
                               "--expr", "(y^2 - x^3)*(y^2 - x^3 - x^4)", "--tol", tol)
        assert code == 0
        assert [p["value"] for p in json.loads(out)["result"]["intersections"]] == [8]


def test_puiseux_unresolved_intersection_is_a_warning(capsys):
    # a tolerance this wide counts every computed coefficient as equal, so
    # no term separates the two cusps and their contact is left unresolved
    argv = ["puiseux", "--expr", "(y^2 - x^3)*(y^2 - x^3 - x^4)", "--tol", "1e9"]
    warning = "intersection of branches 0 and 1 needs more terms; rerun with --min-order"
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["intersections"] == [{"pair": [0, 1], "value": None}]
    assert payload["warnings"] == [warning]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == f"warning: {warning}"


@pytest.mark.parametrize("option,value", [("--depth", "-3"), ("--min-order", "-1"), ("--depth", "two")])
def test_puiseux_rejects_negative_or_non_integer_orders(capsys, option, value):
    # without the check a negative --depth runs as --depth 0
    with pytest.raises(SystemExit) as exc:
        main(["puiseux", "--expr", "y^2 - x^3", option, value])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def test_puiseux_accepts_zero_orders(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "puiseux", "--expr", "y^2 - x^3",
                           "--depth", "0", "--min-order", "0")
    assert code == 0
    assert json.loads(out)["result"]["branches"][0]["char_exponents"] == [2, 3]


def test_family_bound_below_pq_is_a_computation_error(capsys):
    # without the check bound 0 prints "generic: 0" and exits 0
    code, out, err = run_cli(capsys, "family", "g1", "--p", "7", "--q", "19", "--bound", "0")
    assert code == 1
    assert out == ""
    assert "weight bound 0" in err


def test_verify_subcommand_runs(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "g1",
                           "--p", "2", "--q", "3", "--trials", "2", "--seed", "1")
    payload = json.loads(out)
    assert payload["result"]["summary"]["polygon_match"] == 2
    assert code == 0


def test_verify_mismatch_exits_3_after_the_report(monkeypatch, capsys):
    import polarnewton.verify as verify

    monkeypatch.setattr(verify, "_topology_matches", lambda polygon, topology: False)
    code, out, err = run_cli(capsys, "--format", "json", "verify", "g1",
                             "--p", "2", "--q", "3", "--trials", "2", "--seed", "1")
    assert code == 3
    assert err == ""
    summary = json.loads(out)["result"]["summary"]
    assert summary["topology_match"] == 0
    assert summary["polygon_match"] == summary["all_sides_squarefree"] == summary["trials"] == 2


def _readme_command_lines():
    """The `polarnewton` lines of README's "Command line" block."""
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("polarnewton ")]


@pytest.mark.parametrize("line", [line for line in _readme_command_lines() if "--input" not in line])
def test_readme_command_lines_exit_0(capsys, line):
    code, _out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0, err


def test_readme_example_prints_its_comments():
    """README's "Example" block: each expression followed by a `# ...` line
    has that line as its repr."""
    block = README.read_text().split("## Example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.strip()]
    namespace: dict = {}
    checked = 0
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("#"):
            continue
        if after.startswith("# "):
            assert repr(eval(line, namespace)) == after[2:], line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 4


def test_computation_error_exit_code(capsys):
    code, _out, err = run_cli(capsys, "polygon", "--expr", "y^2 -")
    assert code == 1
    assert "error" in err


def test_missing_input_file_exit_code(tmp_path, capsys):
    code, _out, err = run_cli(capsys, "polygon", "--input", str(tmp_path / "absent.txt"))
    assert code == 1
    assert err.startswith("error: ")


def test_expr_and_input_together_are_a_usage_error(tmp_path, capsys):
    # --input used to be ignored silently whenever --expr was given
    path = tmp_path / "curve.txt"
    path.write_text("y^3 - x^4")
    with pytest.raises(SystemExit) as exc:
        main(["polygon", "--expr", "y^2 - x^3", "--input", str(path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["polar", "polygon", "nondeg", "puiseux"])
def test_series_command_without_input_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "one of the arguments --input --expr is required" in capsys.readouterr().err


@pytest.mark.parametrize("expr,message", [
    ("", "empty expression"),
    # past the parser's nesting limit: a ParseError, not a RecursionError
    ("(" * 3000 + "x" + ")" * 3000, "expression nested too deeply"),
], ids=["empty", "nested"])
def test_unparsable_expression_is_a_computation_error(capsys, expr, message):
    code, out, err = run_cli(capsys, "polygon", "--expr", expr)
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr,message", [
    ("x^2 + x^2*y", "no branch other than x = 0 passes through the origin"),
    ("x^2", "series has no y-dependence"),
    ("1 + y", "series does not vanish at the origin"),
], ids=["only-the-x-axis", "no-y", "not-at-origin"])
def test_puiseux_names_why_a_series_has_no_branch(capsys, expr, message):
    # x^2*(1 + y) vanishes at the origin; only its x-axis component does
    code, out, err = run_cli(capsys, "puiseux", "--expr", expr)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_nesting_limit_reports_one_position_in_process_and_subprocess(capsys):
    expr = "(" * 101 + "x" + ")" * 101
    code, out, err = run_cli(capsys, "polygon", "--expr", expr)
    proc = subprocess.run([sys.executable, "-m", "polarnewton.cli", "polygon", "--expr", expr],
                          capture_output=True, text=True)
    assert (code, out) == (proc.returncode, proc.stdout) == (1, "")
    assert err == proc.stderr == "error: expression nested too deeply (at position 100)\n"


def test_verify_error_exit_code(capsys):
    code, _out, err = run_cli(capsys, "verify", "g1", "--p", "2", "--q", "3", "--trials", "0")
    assert code == 1
    assert "trials" in err


@pytest.mark.parametrize("fault", [TypeError, AssertionError, KeyError])
def test_programming_error_propagates(monkeypatch, capsys, fault):
    import polarnewton.cli as cli

    def broken(_series):
        raise fault("injected")

    monkeypatch.setattr(cli, "newton_polygon", broken)
    with pytest.raises(fault, match="injected"):
        main(["polygon", "--expr", "y^2 - x^3"])
    assert capsys.readouterr().err == ""


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "polarnewton.cli", "polygon", "--nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


PENCIL_MEMBER = "y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y"


@pytest.mark.parametrize("alone,both", [
    (["--a", "2"], ["--a", "2", "--b", "0"]),
    (["--b", "1"], ["--a", "0", "--b", "1"]),
], ids=["a-alone", "b-alone"])
def test_polar_reads_a_missing_pencil_coordinate_as_zero(capsys, alone, both):
    got = run_cli(capsys, "polar", "--expr", PENCIL_MEMBER, *alone)
    assert got == run_cli(capsys, "polar", "--expr", PENCIL_MEMBER, *both)
    assert got[0] == 0


def test_polar_at_a_rational_pencil_point_prints_its_text(capsys):
    code, out, err = run_cli(capsys, "polar", "--expr", PENCIL_MEMBER, "--a", "3", "--b=-2/5")
    assert (code, err) == (0, "")
    assert out == ("polar: -36*x^11 - 9/50*x^10 + 27/2*x^9*y - 4/5*x^8*y + 24*x^7*y^2"
                   " - 6/5*x^5*y^2 + 15*x^4*y^3 - 2*y^4\n")


@pytest.mark.parametrize("point", [["--a", "0", "--b", "0"], ["--a", "0"], ["--b", "0"]],
                         ids=["both", "a-alone", "b-alone"])
def test_polar_rejects_the_zero_pencil_point(capsys, point):
    code, out, err = run_cli(capsys, "polar", "--expr", PENCIL_MEMBER, *point)
    assert (code, out, err) == (1, "", "error: (a, b) must not be (0, 0)\n")
    assert "Traceback" not in err


def test_round_trip_of_expression_payload(capsys):
    from polarnewton.algebra import Y
    from polarnewton.curves import parse_series

    expr = "y^7 - x^19 + a[11,3]*x^11*y^3"
    code, out, _ = run_cli(capsys, "--format", "json", "polar", "--expr", expr, "--a", "0", "--b", "1")
    payload = json.loads(out)
    rendered = payload["result"]["polar"]
    assert parse_series(rendered).poly == deriv(parse_series(expr).poly, Y)
