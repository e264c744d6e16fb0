import argparse
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from arithmeticoid import cli
from arithmeticoid.cli import (
    CliError,
    main,
    parse_complex,
    parse_element,
    parse_matrix,
    parse_range,
)
from arithmeticoid.cohomology import (
    adelic_class_to_json,
    kummer_class,
    make_adelic_class,
)
from arithmeticoid.ffcurve import LocalPointArch
from arithmeticoid.numfield import NumberField, places_over
from arithmeticoid.szpiro import Cor312Report

Q = NumberField(None)
QI = NumberField(1)
Q3 = NumberField(3)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# input grammar

def test_parse_element_forms():
    assert parse_element(Q, "7").a == 7
    assert parse_element(Q, "-3/5").a == pytest.approx(-0.6)
    x = parse_element(QI, "2+i")
    assert (x.a, x.b) == (2, 1)
    x = parse_element(QI, "-w")
    assert (x.a, x.b) == (0, -1)
    x = parse_element(QI, "1/2-3/4w")
    assert (x.a * 4, x.b * 4) == (2, -3)
    x = parse_element(Q3, "3*w")
    assert (x.a, x.b) == (0, 3)
    x = parse_element(QI, "2,3")
    assert (x.a, x.b) == (2, 3)


def test_parse_element_rejections():
    with pytest.raises(CliError):
        parse_element(Q, "abc")
    with pytest.raises(CliError):
        parse_element(Q, "i")
    with pytest.raises(CliError):
        parse_element(Q3, "2+i")  # the letter i is reserved for d = 1
    with pytest.raises(CliError):
        parse_element(Q, "")


def test_parse_matrix_types():
    m = parse_matrix("1,1;0,1")
    assert m == ((1, 1), (0, 1))
    assert all(isinstance(c, int) for r in m for c in r)
    m = parse_matrix("0.5,0;0,2.0")
    assert all(isinstance(c, float) for r in m for c in r)
    with pytest.raises(CliError):
        parse_matrix("1,2,3;4,5,6")
    with pytest.raises(CliError):
        parse_matrix("1,2")


def test_parse_range_and_complex():
    assert list(parse_range("3")) == [0, 1, 2]
    assert list(parse_range("-2:2")) == [-2, -1, 0, 1]
    assert parse_complex("0.3+0.9j") == pytest.approx(0.3 + 0.9j)
    assert parse_complex("0.25,0.5") == pytest.approx(0.25 + 0.5j)
    with pytest.raises(CliError):
        parse_complex("morp")


# ---------------------------------------------------------------------------
# worked examples

def test_height_of_five(capsys):
    code, doc = run_json(capsys, "height", "--field", "Q", "--z", "5")
    assert code == 0
    assert doc["total"] == pytest.approx(math.log(5), abs=1e-12)
    assert doc["finite_coefficients"] == {}
    assert doc["archimedean"]["log_abs"] == pytest.approx(math.log(5))


def test_height_of_one_fifth(capsys):
    code, doc = run_json(capsys, "height", "--field", "Q", "--z", "1/5")
    assert code == 0
    assert doc["total"] == pytest.approx(math.log(5), abs=1e-12)
    assert doc["finite_coefficients"] == {"5": "1"}
    assert doc["archimedean"]["value"] == 0


def test_product_formula_gaussian_example(capsys):
    code, doc = run_json(capsys, "product-formula",
                         "--field", "Q(sqrt(-1))", "--x", "2+i")
    assert code == 0
    assert doc["exact"] is True
    assert doc["residual"] < 1e-12


def test_cor312_example(capsys):
    code, doc = run_json(capsys, "szpiro", "cor312", "--seed", "7",
                         "--ell", "5", "--punctures", "3")
    assert code == 0
    assert doc["passed"] is True
    assert doc["lhs"] >= doc["mid"] - doc["tolerance"]
    assert doc["mid"] >= doc["rhs"] - doc["tolerance"]
    assert doc["seed"] == 7


def test_orbit_scan_gaussian_and_eisenstein(capsys):
    code, doc = run_json(capsys, "orbit", "--field", "Q(sqrt(-1))", "--bound", "5")
    assert code == 0
    assert doc["count"] == 4
    assert doc["matches_torsion"] is True
    code, doc = run_json(capsys, "orbit", "--field", "Q(sqrt(-3))", "--bound", "5")
    assert code == 0
    assert doc["count"] == 6


def test_places_listing(capsys):
    code, doc = run_json(capsys, "places", "--field", "Q(sqrt(-1))", "--bound", "7")
    assert code == 0
    by_prime = {}
    for rec in doc["places"]:
        by_prime.setdefault(rec["prime"], []).append(rec)
    assert by_prime[None][0]["f"] == 2
    assert by_prime[2][0]["e"] == 2
    assert len(by_prime[5]) == 2


def test_degree_of_principal_ideloid_vanishes(capsys):
    code, doc = run_json(capsys, "degree", "--field", "Q", "--x", "12/5")
    assert code == 0
    assert abs(doc["total"]) < 1e-9
    assert doc["principal_vanishes"] is True


def test_stabilized_height_dominates(capsys):
    code, doc = run_json(capsys, "stabilized-height", "--field", "Q",
                         "--z", "5", "--prime-bound", "7")
    assert code == 0
    assert doc["stabilized_height"] >= doc["base_height"]
    assert doc["dominates_base"] is True
    assert doc["witness"] is not None


def test_distance_to_frobenius_twist(capsys):
    code, doc = run_json(capsys, "distance", "--field", "Q", "--frobenius", "1")
    assert code == 0
    assert doc["distance"] > 0
    code, doc = run_json(capsys, "distance", "--field", "Q")
    assert code == 0
    assert doc["distance"] == 0


def test_every_archimedean_point_holds_a_fraction(capsys, monkeypatch):
    """build_carrier reads --arch-scale as a rational, and the points the
    library derives from it (standard points, the L*-action) stay exact."""
    made = []
    post_init = LocalPointArch.__post_init__

    def recorded(self):
        post_init(self)
        made.append(self)

    monkeypatch.setattr(LocalPointArch, "__post_init__", recorded)
    cfg = cli.resolve_config(argparse.Namespace())
    y = cli.build_carrier(cfg, argparse.Namespace(arch_scale="0.1", deform=None, frobenius=0))
    assert y.component(cli.archimedean_place(Q)).s == Fraction(1, 10)
    for argv in (["height", "--z", "5/3"], ["distance", "--frobenius", "1"],
                 ["period-map", "--x", "12"],
                 ["stabilized-height", "--z", "5", "--scale", "1/3", "--max-factors", "1"]):
        for field, scale in (("Q", "0.1"), ("Q(sqrt(-3))", "7/3")):
            assert main([*argv, "--field", field, "--arch-scale", scale]) == 0, argv
            capsys.readouterr()
    assert len(made) > 10
    assert all(type(pt.s) is Fraction for pt in made)


def test_period_map_hyperplane(capsys):
    code, doc = run_json(capsys, "period-map", "--field", "Q",
                         "--deform", "5:3/2", "--x", "10")
    assert code == 0
    assert doc["all_ones"] is False
    assert doc["overrides"] == [{"place": "v5", "alpha": "2/3"}]
    assert doc["hyperplane"]["exact"] is True
    code, doc = run_json(capsys, "period-map", "--field", "Q")
    assert doc["all_ones"] is True


def test_frobenioid_modes_and_pullback(capsys):
    code, doc = run_json(capsys, "frobenioid", "--field", "Q", "--x", "12",
                         "--mode", "perfection", "--pullback", "1")
    assert code == 0
    assert doc["effective"] is True
    assert doc["monoid_element"] == [
        {"place": "v2", "exponent": "1"},
        {"place": "v3", "exponent": "1/3"},
    ]
    code, doc = run_json(capsys, "frobenioid", "--field", "Q", "--x", "12/5")
    assert code == 0
    assert doc["effective"] is False
    assert doc["monoid_element"] is None


def test_frobenioid_integer_pullback_rejected(capsys):
    code = main(["frobenioid", "--field", "Q", "--x", "12", "--pullback", "2"])
    capsys.readouterr()
    assert code == 1


def test_mutate_flags_inverted_parameters(capsys):
    code, doc = run_json(capsys, "mutate", "--param", "q1:-2.0",
                         "--param", "q2:-0.5", "--independent", "1")
    assert code == 0
    assert doc["fresh_parameters_required"] is True
    assert [e["admissible"] for e in doc["entries"]] == [False, True]


def test_kummer_class_split_conjugates(capsys):
    code, a = run_json(capsys, "cohomology", "kummer", "--field", "Q(sqrt(-1))",
                       "--x", "2+i", "--place", "5", "--level", "3")
    code2, b = run_json(capsys, "cohomology", "kummer", "--field", "Q(sqrt(-1))",
                        "--x", "2+i", "--place", "5'", "--level", "3")
    assert code == code2 == 0
    assert a["order_part"] == 0 and a["is_unit_class"] is True
    assert b["order_part"] == 1 and b["is_unit_class"] is False


def test_tate_class_membership(capsys):
    code, doc = run_json(capsys, "cohomology", "tate-class", "--field", "Q",
                         "--entry", "7:16807", "--arch", "0.0018,0")
    assert code == 0
    assert doc["bloch_kato_member"] is False
    code, doc = run_json(capsys, "cohomology", "tate-class", "--field", "Q",
                         "--arch", "0.5,0")
    assert code == 0
    assert doc["bloch_kato_member"] is True


def test_collate_merges_equal_classes(capsys, tmp_path):
    v7 = places_over(Q, 7)[0]
    x = Q.element(3 * 7 ** 2)
    cls = make_adelic_class(Q, {v7: kummer_class(x, v7, 3)})
    doc = adelic_class_to_json(cls)
    payload = {
        "classes": {"a": doc, "b": doc},
        "transforms": {
            "a": [],
            "b": [{"label": "b", "place": v7.to_json(),
                   "unit_scale": 1, "frobenius_shift": 0}],
        },
    }
    path = tmp_path / "collate.json"
    path.write_text(json.dumps(payload))
    code, out = run_json(capsys, "cohomology", "collate", "--input", str(path))
    assert code == 0
    assert out["input_count"] == 2
    assert out["collated_count"] == 1


def test_tilt_eval_unit_action(capsys):
    code, doc = run_json(capsys, "tilt", "eval", "--p", "3", "--u", "2",
                         "--exponent", "1/2")
    assert code == 0
    assert doc["valuation_preserved"] is True
    assert doc["terms"][0] == {"exponent": "1/2", "coeff": [2] + [0] * 11}


def test_tilt_eval_zero_input_has_no_valuation(capsys):
    argv = ["tilt", "eval", "--p", "3", "--u", "2", "--exponent", "1", "--coeff", "3"]
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["input_valuation"] is None and doc["output_valuation"] is None
    _, out = run(capsys, *argv)
    assert "input_valuation = -\n" in out and "None" not in out


def test_tilt_artin_hasse_isometry(capsys):
    code, doc = run_json(capsys, "tilt", "artin-hasse", "--p", "5",
                         "--degree", "12", "--exponent", "2/3")
    assert code == 0
    assert doc["p_integral"] is True
    assert doc["evaluation"]["isometry"] is True
    assert doc["coefficients"][0] == 1


def test_tilt_witt_check(capsys):
    code, doc = run_json(capsys, "tilt", "witt-check", "--p", "2",
                         "--count", "25", "--seed", "11")
    assert code == 0
    assert doc["all_match_ghost_oracle"] is True
    assert doc["failures"] == []
    assert doc["seed"] == 11


def test_szpiro_height_rotation(capsys):
    code, doc = run_json(capsys, "szpiro", "height", "--matrix", "0,-1;1,0")
    assert code == 0
    assert doc["height"] == pytest.approx(math.pi / 4, abs=1e-6)


def test_szpiro_subadd(capsys):
    code, doc = run_json(capsys, "szpiro", "subadd", "--count", "40",
                         "--seed", "3", "--grid", "256")
    assert code == 0
    assert doc["subadditive"] is True
    assert doc["min_slack"] >= 0


def test_szpiro_theta(capsys):
    code, doc = run_json(capsys, "szpiro", "theta", "--tau", "0.3+0.9j",
                         "--ell", "5")
    assert code == 0
    assert doc["scaling_ok"] is True
    mods = [t["modulus"] for t in doc["theta_values"]]
    assert mods == sorted(mods, reverse=True)


def test_szpiro_lattice_csv_quotes_labels(capsys):
    code, out = run(capsys, "szpiro", "lattice", "--n", "1", "--m", "0:2",
                    "--ell", "5", "--seed", "4", "--grid", "128",
                    "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# seed = 4"
    data = [l for l in lines if l.startswith('"theta_')]
    assert data and all(l.startswith('"theta_0,') for l in data)


# ---------------------------------------------------------------------------
# modes, determinism, configuration

def test_all_modes_show_the_same_numbers(capsys):
    _, json_out = run(capsys, "height", "--field", "Q", "--z", "1/5",
                      "--format", "json")
    _, table_out = run(capsys, "height", "--field", "Q", "--z", "1/5",
                       "--format", "table")
    _, csv_out = run(capsys, "height", "--field", "Q", "--z", "1/5",
                     "--format", "csv")
    total = f"{math.log(5):.17g}"
    assert f'"total": {total}' in json_out
    assert f"total = {total}" in table_out
    assert f"# total = {total}" in csv_out
    # the v5 row carries the whole height of 1/5
    assert any(line.startswith("v5,") and line.split(",")[-1] == total
               for line in csv_out.splitlines())


def test_byte_identical_reruns(capsys):
    _, a = run(capsys, "szpiro", "cor312", "--seed", "7", "--punctures", "3",
               "--format", "json")
    _, b = run(capsys, "szpiro", "cor312", "--seed", "7", "--punctures", "3",
               "--format", "json")
    assert a == b
    _, c = run(capsys, "tilt", "witt-check", "--p", "3", "--count", "10",
               "--seed", "2", "--format", "csv")
    _, d = run(capsys, "tilt", "witt-check", "--p", "3", "--count", "10",
               "--seed", "2", "--format", "csv")
    assert c == d


def test_seed_appears_in_headers(capsys):
    _, out = run(capsys, "szpiro", "subadd", "--count", "5", "--seed", "99",
                 "--grid", "64", "--format", "csv")
    assert out.splitlines()[0] == "# seed = 99"
    _, out = run(capsys, "szpiro", "subadd", "--count", "5", "--seed", "99",
                 "--grid", "64", "--format", "table")
    assert out.splitlines()[0] == "seed = 99"


def test_config_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 128}))
    _, doc = run_json(capsys, "szpiro", "height", "--matrix", "0,-1;1,0",
                      "--config", str(cfg))
    assert doc["grid"] == 128
    monkeypatch.setenv("ARITHMETICOID_GRID", "256")
    _, doc = run_json(capsys, "szpiro", "height", "--matrix", "0,-1;1,0",
                      "--config", str(cfg))
    assert doc["grid"] == 256
    _, doc = run_json(capsys, "szpiro", "height", "--matrix", "0,-1;1,0",
                      "--config", str(cfg), "--grid", "512")
    assert doc["grid"] == 512


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 128, "unknown_knob": 3}))
    code = main(["szpiro", "height", "--matrix", "0,-1;1,0",
                 "--config", str(cfg)])
    capsys.readouterr()
    assert code == 1


def test_out_of_range_knob_rejected(capsys, monkeypatch):
    monkeypatch.setenv("ARITHMETICOID_GRID", "7")
    code = main(["szpiro", "height", "--matrix", "0,-1;1,0"])
    capsys.readouterr()
    assert code == 1


def test_validation_exit_codes(capsys, monkeypatch, tmp_path):
    assert main(["product-formula", "--field", "Q", "--x", "abc"]) == 1
    capsys.readouterr()
    assert main(["height", "--field", "Q(sqrt(-4))", "--z", "5"]) == 1
    capsys.readouterr()
    assert main(["cohomology", "kummer", "--field", "Q", "--x", "5",
                 "--place", "5'"]) == 1
    capsys.readouterr()
    cases = [
        (["distance", "--deform", "4:3/2"], "'4'"),
        (["distance", "--deform", "1:2"], "'1'"),
        (["distance", "--field", "Q(sqrt(-1))", "--deform", "25':2"], "\"25'\""),
        (["cohomology", "kummer", "--x", "3", "--place", "9"], "'9'"),
        (["cohomology", "tate-class", "--entry", "0:3", "--arch", "0.1"], "'0'"),
        (["places", "--bound", "100001"], "--bound"),
        (["places", "--bound", "100000000"], "--bound"),
        (["tilt", "witt-check", "--p", "11"], "p = 11"),
        (["szpiro", "height", "--matrix", "0,-1;1,0", "--hahn-cap", "1/0"], "hahn_cap"),
        (["szpiro", "cor312", "--seed", "391208478", "--genus", "2", "--punctures", "5",
          "--ell", "11"], "391208478"),
        (["tilt", "eval", "--p", "3", "--u", "2", "--exponent", "1e10000000"], "'1e10000000'"),
        (["distance", "--deform", "5:1e99999"], "'1e99999'"),
    ]
    for tilt in (["eval", "--u", "2", "--exponent", "1"], ["artin-hasse"], ["witt-check"]):
        for p in ("0", "1", "4", "-3"):
            cases.append((["tilt", *tilt, "--p", p], f"p = {p}"))
    params_file = ["mutate", "--independent", "0", "--params-file"]
    one_slot = {**adelic_class_to_json(make_adelic_class(Q)), "archimedean": [1]}
    collate_input = ["cohomology", "collate", "--input"]
    for name, payload, argv, detail in [
        ("names.json", [{"nm": 1}], params_file, ""),
        ("object.json", {"a": 1}, params_file, ""),
        ("collate.json", {"classes": [1]}, collate_input, ""),
        ("one_slot.json", {"classes": {"a": one_slot}}, collate_input,
         ": archimedean slot must be a [re, im] pair"),
    ]:
        (tmp_path / name).write_text(json.dumps(payload))
        cases.append(([*argv, str(tmp_path / name)], name + detail))
    digits = "7" * 5000
    cases += [  # one value just past each bound of the flag table
        (["height", "--z", "5", "--frobenius", "101"], "--frobenius"),
        (["distance", "--frobenius=-101"], "--frobenius"),
        (["stabilized-height", "--z", "5", "--max-factors", "4"], "--max-factors"),
        (["stabilized-height", "--z", "5", "--prime-bound", "61"], "--prime-bound"),
        (["orbit", "--bound", "101"], "--bound"),
        (["orbit", "--denominator-bound", "0"], "--denominator-bound"),
        (["frobenioid", "--x", "12", "--pullback", "65"], "--pullback"),
        (["mutate", "--independent=-1", "--param", "q1:-2.0"], "--independent"),
        (["cohomology", "kummer", "--x", "3", "--place", "5", "--level", "33"], "--level"),
        (["cohomology", "tate-class", "--arch", "0.1", "--level", "33"], "--level"),
        (["tilt", "eval", "--p", "1001", "--u", "2", "--exponent", "1"], "--p"),
        (["tilt", "eval", "--p", "3", "--u", "2", "--exponent", "1", "--coeff", "1000001"],
         "--coeff"),
        (["tilt", "artin-hasse", "--p", "2", "--degree", "2001"], "--degree"),
        (["tilt", "witt-check", "--p", "2", "--count", "5001"], "--count"),
        (["szpiro", "height", "--matrix", "0,-1;1,0", "--winding", "1000001"], "--winding"),
        (["szpiro", "subadd", "--count", "5001"], "--count"),
        (["szpiro", "theta", "--tau", "0.3+0.9j", "--ell", "1001"], "--ell"),
        (["szpiro", "cor312", "--genus", "101"], "--genus"),
        (["szpiro", "cor312", "--punctures", "101"], "--punctures"),
        (["szpiro", "lattice", "--n", "0:65"], "'0:65'"),
        (["szpiro", "lattice", "--m=-65:0"], "'-65:0'"),
    ]
    cases += [  # internal exception text and non-finite floats
        (["height", "--z", digits], "cannot parse element"),
        (["height", "--z", "5", "--frobenius", "10000", "--deform", "3:1/2"], "--frobenius"),
        (["cohomology", "tate-class", "--arch", "0.1", "--level", "1000000"], "--level"),
        (["szpiro", "lattice", "--n", "abc"], "'abc'"),
        (["distance", "--arch-scale", "inf"], "--arch-scale"),
        (["distance", "--arch-scale", "nan"], "--arch-scale"),
        (["distance", "--arch-scale", "0"], "--arch-scale"),
        (["distance", "--arch-scale", "1e999"], "--arch-scale"),
        (["stabilized-height", "--z", "5", "--scale", str(2 ** 1400)], "--scale: "),
        (["stabilized-height", "--z", "5", "--scale", str(2 ** 1400)], "422-digit"),
        (["stabilized-height", "--z", "5", "--max-factors", "1", "--arch-scale", "1e307"],
         "leaves the float range"),
        (["degree", "--x", "5", "--arch-log", "nan"], "--arch-log"),
        (["szpiro", "theta", "--tau", "1e400j"], "'1e400j'"),
        (["cohomology", "tate-class", "--arch", "nan"], "'nan'"),
        (["height", "--z", "1/0"], "'1/0'"),
        (["height", "--z", "1e9999999,1"], "'1e9999999,1'"),
        (["szpiro", "height", "--matrix", f"{digits},0;0,1"], "must have finite entries"),
        (["szpiro", "height", "--matrix", "nan,0;0,1"], "must have finite entries"),
        (["cohomology", "kummer", "--x", "3", "--place", digits], "cannot parse place token"),
        (["frobenioid", "--x", "65537", "--mode", "real", "--pullback", "64"], "--pullback"),
    ]
    cases += [  # a factorization past its budget, and joint corners past their work caps
        (["height", "--z", str(10 ** 120 + 7)], f"cannot factor {10 ** 120 + 7}"),
        (["orbit", "--field", "Q(sqrt(-3))", "--bound", "100", "--denominator-bound", "100"],
         "--bound 100 and --denominator-bound 100"),
        (["szpiro", "subadd", "--count", "5000", "--grid", "65536"],
         "--count 5000 and grid 65536"),
        (["szpiro", "lattice", "--n=-64:64", "--m=-64:64", "--ell", "997"],
         "--n -64:64, --m -64:64, --ell 997"),
    ]
    for knob, value in [("grid", 100.7), ("seed", 1.5), ("grid", True)]:
        path = tmp_path / f"{knob}_{value}.json"
        path.write_text(json.dumps({knob: value}))
        cases.append((["szpiro", "height", "--matrix", "0,-1;1,0", "--config", str(path)],
                      f"{knob} must be an integer, got {value}"))

    def exits_1_naming(argv, token):
        t0 = time.perf_counter()
        assert main(argv) == 1, argv
        assert time.perf_counter() - t0 < 1.0, argv
        err = capsys.readouterr().err
        assert token in err and "Traceback" not in err, (argv, err)
        assert "invalid literal" not in err and "Exceeds the limit" not in err, (argv, err)

    for argv, token in cases:
        exits_1_naming(argv, token)
    monkeypatch.setenv("ARITHMETICOID_GRID", "abc")
    exits_1_naming(["szpiro", "height", "--matrix", "0,-1;1,0"], "grid")


def test_flag_table_bounds_every_int_flag_and_checks_every_float_flag():
    for words, _, _, flags in cli.COMMANDS:
        assert {f.type for f in flags} <= {None, int, float}, words
        for flag in [*cli.KNOB_FLAGS, *flags]:
            if flag.type is int:
                assert flag.bounds and flag.bounds != (None, None), (words, flag.name)
        for flag in (f for f in flags if f.type is float):
            for bad in (math.inf, -math.inf, math.nan):
                args = argparse.Namespace(flags=flags, **{
                    f.name[2:].replace("-", "_"): bad if f is flag else None for f in flags})
                with pytest.raises(CliError, match=f"{flag.name} must be finite"):
                    cli.check_flags(args)


@pytest.mark.parametrize("prime", ["10000019", "1000000007"])
def test_height_at_a_large_prime_lists_its_place(prime):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "arithmeticoid", "height", "--z", prime],
        capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - t0 < 5.0
    assert proc.returncode == 0
    assert f"v{prime} " in proc.stdout


def test_usage_exit_codes():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["cohomology"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_property_failure_exit_code(capsys, monkeypatch):
    failed = Cor312Report(seed=7, lhs=0.0, mid=1.0, rhs=2.0,
                          tolerance=1e-9, passed=False)
    monkeypatch.setattr(cli.sz, "corollary312_check",
                        lambda *a, **k: failed)
    code = main(["szpiro", "cor312", "--seed", "7", "--punctures", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "passed = false" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "arithmeticoid", "height", "--field", "Q",
         "--z", "5", "--format", "json"],
        capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout)
    assert doc["total"] == pytest.approx(math.log(5))
