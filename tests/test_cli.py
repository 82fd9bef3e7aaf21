"""Command-line front-end: schemas, exit codes, determinism."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symgroupoid.cli import main
from symgroupoid import surfaces
from symgroupoid.teich import build_surface


def test_geodesic_example(capsys):
    rc = main(["geodesic", "--surface", "genus2_x7", "--label", "G_B"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "monomials (with multiplicity): 3" in out


def test_geodesic_unknown_surface(tmp_path, capsys):
    # every command that takes --surface rejects an unknown name with one line
    pt = tmp_path / "p.json"
    pt.write_text(json.dumps({"w:a": "1"}))
    for argv in (
        ["geodesic", "--surface", "genus7_wat", "--label", "x"],
        ["casimirs", "--surface", "nope"],
        ["evaluate", "--point", str(pt), "--surface", "nope", "--label", "G"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: unknown surface") and err.count("\n") == 1, argv


def test_casimirs_contains_x7_monomial(capsys):
    rc = main(["casimirs", "--surface", "genus2_x7"])
    out = capsys.readouterr().out
    assert rc == 0
    # e^2 a b c d f g at the squared-generator level
    assert "w:e^4" in out and "w:a^2" in out and "w:g^2" in out


@pytest.mark.parametrize(
    "argv",
    [["casimirs"], ["casimirs", "--quiver", "SEED", "--surface", "genus2_x7"]],
)
def test_casimirs_needs_exactly_one_source(tmp_path, capsys, argv):
    # --surface used to be ignored silently next to --quiver
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(build_surface("genus2_k33").seed.to_json()))
    assert main([str(seed) if a == "SEED" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_casimirs_of_square_quiver_12(tmp_path, capsys):
    from symgroupoid.quiver import Seed
    from symgroupoid.squares import square_quiver

    seed = tmp_path / "square12.json"
    seed.write_text(json.dumps(Seed.initial(square_quiver(12)).to_json()))
    assert main(["casimirs", "--quiver", str(seed)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("corank 13; kernel basis:")
    assert out.count("\n") == 14


def test_casimirs_makes_one_elimination(tmp_path, capsys, monkeypatch):
    # the header's corank is the length of the kernel basis: the command used
    # to run the Bareiss pass a second time through corank(quiver)
    from symgroupoid import intlinalg
    from symgroupoid.quiver import Seed, corank
    from symgroupoid.squares import square_quiver

    calls = []
    echelon = intlinalg._bareiss_echelon
    monkeypatch.setattr(intlinalg, "_bareiss_echelon", lambda m: calls.append(m) or echelon(m))
    seed = tmp_path / "square12.json"
    seed.write_text(json.dumps(Seed.initial(square_quiver(12)).to_json()))
    runs = [(["casimirs", "--quiver", str(seed)], square_quiver(12))]
    runs += [(["casimirs", "--surface", name], build_surface(name).quiver) for name in surfaces.MODEL_NAMES]
    for argv, quiver in runs:
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, argv
        header = capsys.readouterr().out.splitlines()[0]
        assert header == f"corank {corank(quiver)}; kernel basis:", argv


def test_mutate_echo_and_seq(tmp_path, capsys):
    model = build_surface("genus2_x7")
    qfile = tmp_path / "x7.json"
    qfile.write_text(json.dumps(model.seed.to_json()))
    outfile = tmp_path / "echo.json"
    rc = main(["mutate", "--quiver", str(qfile), "--seq", "", "--json", str(outfile)])
    assert rc == 0
    assert json.loads(outfile.read_text()) == model.seed.to_json()
    rc = main(["mutate", "--quiver", str(qfile), "--seq", "a,a"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == model.seed.to_json()


def test_mutate_bad_vertex(tmp_path):
    model = build_surface("genus2_k33")
    qfile = tmp_path / "k.json"
    qfile.write_text(json.dumps(model.seed.to_json()))
    assert main(["mutate", "--quiver", str(qfile), "--seq", "zz"]) == 2


def test_evaluate_surface_label(tmp_path, capsys):
    pt = tmp_path / "p.json"
    pt.write_text(json.dumps({f"w:{v}": "1" for v in "abcdefg"}))
    rc = main(["evaluate", "--point", str(pt), "--surface", "genus2_x7", "--label", "G_{2,3}"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "7"


def test_evaluate_missing_generator(tmp_path):
    pt = tmp_path / "p.json"
    pt.write_text(json.dumps({"w:a": "1"}))
    assert main(["evaluate", "--point", str(pt), "--surface", "genus2_x7", "--label", "G_B"]) == 2


def test_verify_casimirs_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "casimirs", "-n", "4", "--rng", "42", "--json", str(out1)]) == 0
    assert main(["verify", "casimirs", "-n", "4", "--rng", "42", "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["summary"]["fail"] == 0
    assert all("claim" in c for c in report["checks"])


def test_verify_all_twice_in_one_process_matches_the_golden_report(tmp_path):
    # seeds, quivers and cluster values keep what they derive; the second run
    # starts from those kept values and must write the same bytes
    golden = (Path(__file__).parent / "golden" / "verify_all_rng42.json").read_bytes()
    for run in ("first", "second"):
        out = tmp_path / f"{run}.json"
        assert main(["verify", "all", "--rng", "42", "--json", str(out)]) == 0
        assert out.read_bytes() == golden, run


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_at_other_seeds_matches_the_golden_claims(tmp_path, seed):
    # the report holds each check's id, claim and status and the seed, so
    # every seed gives the golden report with its own rng_seed fields
    golden = (Path(__file__).parent / "golden" / "verify_all_rng42.json").read_bytes()
    field = b'"rng_seed": 42'
    assert golden.count(field) == 1 + len(json.loads(golden)["suites"])
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--rng", str(seed), "--json", str(out)]) == 0
    assert out.read_bytes() == golden.replace(field, b'"rng_seed": %d' % seed)


def test_evaluate_serialized_function(tmp_path, capsys):
    model = build_surface("genus2_x7")
    from symgroupoid.teich import catalog_value

    fn = catalog_value(model, "G_{1,2}")
    ff = tmp_path / "fn.json"
    ff.write_text(json.dumps(fn.to_json()))
    pt = tmp_path / "p.json"
    pt.write_text(json.dumps({"w:a": "1", "w:d": "1"}))
    rc = main(["evaluate", "--point", str(pt), "--fn", str(ff)])
    assert rc == 0
    # the two-letter telescopic word has three monomials
    assert capsys.readouterr().out.strip() == "3"


def test_network_dump(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["geodesic", "--network", "4", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4
    assert main(["geodesic", "--network", "7"]) == 2
    # size 0 is a given size, not a missing option
    capsys.readouterr()
    assert main(["geodesic", "--network", "0"]) == 2
    assert "unsupported size 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mutate", "--quiver", "SEED", "--seq", "a"],
        ["geodesic", "--network", "4"],
    ],
)
def test_json_file_matches_stdout(tmp_path, capsys, argv):
    # one writer: --json FILE gets the same bytes as stdout without it
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(build_surface("genus2_x7").seed.to_json()))
    argv = [str(seed) if a == "SEED" else a for a in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main(argv + ["--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout


def test_evaluate_fn_that_is_a_seed(tmp_path, capsys):
    pt = tmp_path / "p.json"
    pt.write_text(json.dumps({"w:a": "1"}))
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(build_surface("genus2_k33").seed.to_json()))
    assert main(["evaluate", "--fn", str(seed), "--point", str(pt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "not a seed" in err


def test_verify_unknown_suite():
    assert main(["verify", "nonsense"]) == 2


def test_verify_sl2_exit_zero(tmp_path):
    out = tmp_path / "sl2.json"
    assert main(["verify", "sl2", "--rng", "7", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["rng_seed"] == 7


def test_bad_usage_is_one_line_and_exit_2(capsys):
    # argparse used to print a usage block before its error line
    for argv in (
        ["verify", "genus3", "--bogus"],
        ["verify", "genus3", "--rng", "x"],
        ["verify", "genus3", "--trials", "5"],
        ["verify", "sl2", "--tolerance", "1e-9"],
        ["verify"],
        ["frobnicate"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: symgroupoid verify")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_verify_rejects_tolerance_not_finite_positive(capsys, tolerance):
    # nan and -1 used to fail sl2_reconstruction, and inf passed having tested
    # nothing; --tolerance is now no option at all, so every value is rejected
    assert main(["verify", "sl2", "--tolerance", tolerance]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unrecognized arguments: --tolerance {tolerance}\n"


def test_verify_rejects_size_below_one(capsys):
    # sizes below one used to run and report failed checks ("corank -1"), exit 1
    for size in ("0", "-3"):
        assert main(["verify", "casimirs", "-n", size]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: -n/--size") and err.count("\n") == 1


def test_verify_rejects_size_for_a_suite_without_sizes(capsys):
    # -n used to be ignored by every suite but casimirs, with exit 0
    for suite in ("sl2", "genus4"):
        assert main(["verify", suite, "-n", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: -n/--size") and err.count("\n") == 1


def test_mutate_malformed_json(tmp_path, capsys):
    qfile = tmp_path / "bad.json"
    qfile.write_text("{not json")
    assert main(["mutate", "--quiver", str(qfile)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_evaluate_malformed_point(tmp_path, capsys):
    pt = tmp_path / "p.json"
    pt.write_text('{"w:a": ')
    assert main(["evaluate", "--point", str(pt), "--surface", "genus2_x7", "--label", "G_B"]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_evaluate_malformed_fn(tmp_path, capsys):
    pt = tmp_path / "p.json"
    pt.write_text(json.dumps({"w:a": "1"}))
    ff = tmp_path / "fn.json"
    ff.write_text("[1, 2")
    assert main(["evaluate", "--point", str(pt), "--fn", str(ff)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_evaluate_zero_denominator_point(tmp_path, capsys):
    # Infinity used to end in an OverflowError traceback; 0.1 was read as its
    # binary value and true as 1
    pt = tmp_path / "p.json"
    for value in ('"1/0"', "Infinity", "0.1", "true"):
        pt.write_text("{" + ", ".join(f'"w:{v}": {value}' for v in "abcdefg") + "}")
        assert main(["evaluate", "--point", str(pt), "--surface", "genus2_x7", "--label", "G_B"]) == 2, value
        err = capsys.readouterr().err
        assert "exact rationals" in err and err.count("\n") == 1, value


def test_evaluate_at_a_pole_on_a_zero_coordinate(tmp_path, capsys):
    # 1/x is stored as x^-1 over 1, so at x = 0 the evaluation pass meets a
    # zero coordinate under a negative exponent; that is a singular point
    # naming the denominator x, never a ZeroDivisionError traceback
    pt = tmp_path / "p.json"
    pt.write_text(json.dumps({"x": "0"}))
    ff = tmp_path / "fn.json"
    one = [{"coeff": "1", "exps": {}}]
    for fn in (
        {"num": one, "den": [{"coeff": "1", "exps": {"x": 1}}]},
        {"num": [{"coeff": "1", "exps": {"x": -1}}], "den": one},
    ):
        ff.write_text(json.dumps(fn))
        assert main(["evaluate", "--point", str(pt), "--fn", str(ff)]) == 1, fn
        assert capsys.readouterr().err == "singular point: denominator 1 * x vanishes\n", fn
    # a catalog value, a Laurent polynomial, at a zero coordinate of its chart
    pt.write_text(json.dumps({f"w:{v}": "0" if v == "f" else "1" for v in "abcdefg"}))
    assert main(["evaluate", "--point", str(pt), "--surface", "genus2_x7", "--label", "G_B"]) == 1
    assert capsys.readouterr().err == "singular point: denominator 1 * w:f * w:g vanishes\n"


def test_evaluate_point_not_an_object(tmp_path, capsys):
    pt = tmp_path / "p.json"
    pt.write_text(json.dumps(["w:a"]))
    assert main(["evaluate", "--point", str(pt), "--surface", "genus2_x7", "--label", "G_B"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_evaluate_fn_without_term_lists(tmp_path, capsys):
    pt = tmp_path / "p.json"
    pt.write_text(json.dumps({"w:a": "1"}))
    ff = tmp_path / "fn.json"
    one = [{"coeff": "1", "exps": {}}]
    for bad in (
        {"nums": []},
        ["num", "den"],
        {"num": [{"coeff": "1"}], "den": []},
        # exponent 1.5 was read as 1 and coefficient 0.5 as a float
        {"num": [{"coeff": "1", "exps": {"w:a": 1.5}}], "den": one},
        {"num": [{"coeff": 0.5, "exps": {"w:a": 1}}], "den": one},
    ):
        ff.write_text(json.dumps(bad))
        assert main(["evaluate", "--point", str(pt), "--fn", str(ff)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "casimirs", "-n", "2", "--json", "DIR"],
        ["evaluate", "--point", "DIR", "--surface", "genus2_x7", "--label", "G_B"],
        ["evaluate", "--point", "POINT", "--fn", "DIR"],
        ["mutate", "--quiver", "DIR"],
        ["mutate", "--quiver", "SEED", "--json", "DIR"],
        ["casimirs", "--quiver", "DIR"],
        ["geodesic", "--network", "4", "--json", "DIR"],
        ["geodesic", "--surface", "genus2_x7", "--label", "G_B", "--json", "DIR"],
    ],
)
def test_directory_path_exits_two(tmp_path, capsys, argv):
    # reading or writing a directory used to print an IsADirectoryError traceback
    point = tmp_path / "p.json"
    point.write_text(json.dumps({"w:a": "1"}))
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(build_surface("genus2_k33").seed.to_json()))
    paths = {"DIR": str(tmp_path), "POINT": str(point), "SEED": str(seed)}
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_mutate_rejects_swap_of_three_labels(tmp_path, capsys):
    qfile = tmp_path / "k.json"
    qfile.write_text(json.dumps(build_surface("genus2_k33").seed.to_json()))
    assert main(["mutate", "--quiver", str(qfile), "--seq", "a~b~c"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seq") and err.count("\n") == 1


def test_mutate_zero_seed_value_exits_two(tmp_path, capsys):
    # a zero value used to end in a ZeroDivisionError traceback (exit 1)
    data = build_surface("genus2_k33").seed.to_json()
    vertex = next(iter(data["values"]))
    data["values"][vertex] = {"num": [], "den": [{"coeff": "1/1", "exps": {}}]}
    qfile = tmp_path / "zero.json"
    qfile.write_text(json.dumps(data))
    assert main(["mutate", "--quiver", str(qfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_mutate_seed_values_that_do_not_match_the_vertices_exit_two(tmp_path, capsys):
    # a missing vertex was named only as the KeyError 'b', a non-object
    # "values" as "'int' object is not subscriptable", and a value for a name
    # that is not a vertex was dropped without a word
    one = {"num": [{"coeff": "1", "exps": {}}], "den": [{"coeff": "1", "exps": {}}]}
    qfile = tmp_path / "q.json"
    for values, message in (
        ({"a": one}, "vertices without values: ['b']"),
        (5, "values must be an object"),
        ([one, one], "values must be an object"),
        ({"a": one, "b": one, "c": one}, "values for names that are not vertices: ['c']"),
    ):
        qfile.write_text(json.dumps({"vertices": ["a", "b"], "doubled_exchange": [["a", "b", 2]], "values": values}))
        assert main(["mutate", "--quiver", str(qfile), "--seq", "a"]) == 2, values
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err, err


def test_verify_checks_json_path_before_running(tmp_path, capsys):
    # a directory for --json used to be found only after every suite had run
    assert main(["verify", "casimirs", "-n", "2", "--json", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_mutate_inexact_quiver_exits_two(tmp_path, capsys):
    # a weight of 2.5 was read as 2, and a coefficient "1/0" ended in a
    # ZeroDivisionError traceback
    one = {"num": [{"coeff": "1", "exps": {}}], "den": [{"coeff": "1", "exps": {}}]}
    qfile = tmp_path / "q.json"
    for arrows, coeff in (([["a", "b", 2.5]], "1"), ([["a", "b", True]], "1"), ([["a", "b", 2]], "1/0")):
        value = {"num": [{"coeff": coeff, "exps": {}}], "den": one["den"]}
        qfile.write_text(
            json.dumps({"vertices": ["a", "b"], "doubled_exchange": arrows, "values": {"a": value, "b": one}})
        )
        assert main(["mutate", "--quiver", str(qfile), "--seq", "a"]) == 2, arrows
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, arrows


def test_mutate_misread_quiver_exits_two(tmp_path, capsys):
    # the string "xy" was read as the arrow x -> y, a frozen "xy" froze both x
    # and y, vertices "xy" named x and y, and the self-loop x -> x was dropped;
    # a vertex named 3 ended in a TypeError traceback
    qfile = tmp_path / "q.json"
    for bad in (
        {"doubled_exchange": ["xy"]},
        {"doubled_exchange": [], "vertices": "xy"},
        {"doubled_exchange": [], "vertices": ["x", 3]},
        {"doubled_exchange": [], "frozen": "xy"},
        {"doubled_exchange": [["x", "x", 2]]},
    ):
        qfile.write_text(json.dumps({"vertices": ["x", "y"], **bad}))
        assert main(["mutate", "--quiver", str(qfile)]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, bad


@pytest.fixture
def default_int_digits():
    """The interpreter's default cap on int <-> str conversion for the test,
    and the cap it had after it: ``main`` lifts it for the whole process."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        pytest.skip("this Python does not cap int <-> str conversion")
    saved = get()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(saved)


def test_evaluate_writes_a_big_exact_value_in_full(tmp_path, capsys, default_int_digits):
    # 1 + w^10000 at 3/2 has 4771 digits; printing it ended in "ValueError:
    # Exceeds the limit (4300 digits)", a traceback and exit 1
    ff, pt = tmp_path / "fn.json", tmp_path / "p.json"
    one = {"coeff": "1/1", "exps": {}}
    ff.write_text(json.dumps({"num": [one, {"coeff": "1/1", "exps": {"w:x": 10000}}], "den": [one]}))
    pt.write_text(json.dumps({"w:x": "3/2"}))
    assert main(["evaluate", "--point", str(pt), "--fn", str(ff)]) == 0
    value = 1 + Fraction(3, 2) ** 10000
    assert capsys.readouterr().out == f"{value.numerator}/{value.denominator}\n"


def test_big_integer_literals_are_read_in_full(tmp_path, capsys, default_int_digits):
    # a 5000-digit integer literal ended json.load in a ValueError traceback,
    # for a point and for a quiver alike
    big = "7" * 5000
    ff, pt, qfile = tmp_path / "fn.json", tmp_path / "p.json", tmp_path / "q.json"
    ff.write_text(json.dumps({"num": [{"coeff": "1/1", "exps": {"w:x": 1}}], "den": [{"coeff": "1/1", "exps": {}}]}))
    pt.write_text('{"w:x": ' + big + "}")
    assert main(["evaluate", "--point", str(pt), "--fn", str(ff)]) == 0
    assert capsys.readouterr().out == big + "\n"
    qfile.write_text('{"vertices": ["a", "b"], "doubled_exchange": [["a", "b", ' + big + "]]}")
    assert main(["mutate", "--quiver", str(qfile)]) == 0
    assert json.loads(capsys.readouterr().out)["doubled_exchange"] == [["a", "b", int(big)]]
