"""Command-line interface: verbs, JSON output, exit codes."""

import json
import math
import os

import pytest

from feyngkz import cli, gkz, groebner, pipeline
from feyngkz.fixtures import fixtures


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixture_listing(capsys):
    code, out, _ = _run(capsys, "fixtures", "--json")
    assert code == 0
    names = json.loads(out)["fixtures"]
    assert "one-mass-bubble" in names and "box" in names


@pytest.mark.parametrize("argv, builds", [
    (["verify", "--fixture", "2f1-double"], ["2f1-double"]),
    (["fixtures", "--name", "box", "--json"], ["box"]),
    (["fixtures"], [])], ids=["verify", "fixtures-name", "fixtures"])
def test_a_fixture_verb_builds_only_the_named_fixture(capsys, monkeypatch,
                                                      argv, builds):
    """--fixture and --name build one ProblemSpec from its document, and
    the plain listing builds none."""
    built = []
    real = pipeline.ProblemSpec.from_dict
    monkeypatch.setattr(pipeline.ProblemSpec, "from_dict", classmethod(
        lambda cls, data: built.append(data["name"]) or real(data)))
    assert _run(capsys, *argv)[0] == 0
    assert built == builds


def test_an_unknown_fixture_is_its_verbs_usage_error(capsys):
    for verb in ("verify", "symanzik"):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([verb, "--fixture", "no-such"])
        assert exit_info.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: feyngkz {verb} ")
        assert err.rstrip().endswith("error: unknown fixture 'no-such'")


def test_symanzik_verb(capsys):
    code, out, _ = _run(capsys, "symanzik", "--fixture", "massless-bubble")
    assert code == 0
    assert "U: z1 + z2" in out


def test_gkz_verb_json(capsys):
    code, out, _ = _run(capsys, "gkz", "--fixture", "2f1-double", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["amatrix"] == [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert sorted(data["standard_pairs"]) == ["(1, {1,2,4})", "(1, {1,3,4})"]


def test_series_verb(capsys):
    code, out, _ = _run(capsys, "series", "--fixture", "box", "--json")
    assert code == 0
    forms = json.loads(out)["forms"]
    assert [f["kind"] for f in forms] == ["3F2", "3F2", "3F2"]


def test_verify_verb_success(capsys):
    code, out, _ = _run(capsys, "verify", "--fixture", "2f1-double",
                        "--tolerance", "1e-6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["relative_deviation"] < 1e-6
    assert data["oracle"]["margin"] > 0


def test_verify_fails_when_oracle_misses_target(capsys, monkeypatch):
    real = pipeline.quadrature

    def missed(spec):
        result = real(spec)
        result.target_met = False
        return result

    monkeypatch.setattr(pipeline, "quadrature", missed)
    code, out, _ = _run(capsys, "verify", "--fixture", "2f1-double", "--json")
    assert code == cli.EXIT_VERIFY_FAILED
    data = json.loads(out)
    assert data["verified"] is False
    assert data["oracle"]["target_met"] is False
    assert data["oracle"]["dims"] == 1
    assert data["relative_deviation"] < 1e-6


def test_verify_divergent_argument_exit_code(capsys):
    # the default weight orientation puts the bubble argument outside |x| < 1
    code, _, err = _run(capsys, "verify", "--fixture", "one-mass-bubble")
    assert code in (cli.EXIT_DIVERGENT, cli.EXIT_NONCONVERGENT)
    assert "error:" in err


def test_solve_evaluates_and_checks_the_stated_point(capsys):
    code, out, _ = _run(capsys, "solve", "--fixture", "2f1-double", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["constants"] == [
        "Gamma(beta - a1)*Gamma(a1 - a2)*Gamma(a2)/(Gamma(beta))",
        "Gamma(beta - a2)*Gamma(-a1 + a2)*Gamma(a1)/(Gamma(beta))"]
    assert data["oracle"]["target_met"] is True
    assert data["relative_deviation"] < fixtures()["2f1-double"].tolerance
    assert data["series_value"] == pytest.approx(data["oracle"]["value"],
                                                 rel=1e-10)


def test_solve_without_a_polynomial_gives_constants_and_no_value(
        tmp_path, capsys):
    """An A-matrix spec is the integral of its Cayley polynomial: solve
    gives its constants, its value and the oracle's; without coefficients
    it has no value, and says which key is missing."""
    code, out, _ = _run(capsys, "solve", "--fixture", "2f1-single", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["constants"]) == 2
    assert data["oracle"]["target_met"] is True
    assert data["relative_deviation"] < fixtures()["2f1-single"].tolerance
    doc = fixtures()["2f1-single"].to_dict()
    del doc["coefficients"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "solve", "--spec", str(path))
    assert code == cli.EXIT_ENGINE and out == ""
    assert err.startswith("error: ") and "'coefficients'" in err


def test_solve_of_a_divergent_integral_exit_code(capsys):
    code, out, err = _run(capsys, "solve", "--fixture", "box")
    assert code == cli.EXIT_NONCONVERGENT
    assert err.startswith("error: alpha lies outside") and out == ""


def test_order_option_sets_the_series_order(capsys):
    values = {}
    for order in ("3", "40"):
        code, out, _ = _run(capsys, "solve", "--fixture", "2f1-double",
                            "--order", order, "--json")
        assert code == 0
        values[order] = json.loads(out)["series_value"]
    spec = fixtures()["2f1-double"]
    report = pipeline.run(spec)
    assert values["3"] == report.bundle.evaluate(
        spec.assignment(), spec.coefficients, 3)
    assert abs(values["3"] - values["40"]) > 1e-3 * abs(values["40"])


def test_plain_text_output_puts_list_items_on_their_own_lines(capsys):
    code, out, _ = _run(capsys, "gkz", "--fixture", "2f1-double")
    assert code == 0
    assert ("amatrix:\n  [1, 1, 1, 1]\n  [0, 1, 0, 1]\n  [0, 0, 1, 1]\n"
            "codim: 1\nweight:\n  0\n  1\n  1\n  1\n") in out


def test_weight_override(capsys):
    code, out, _ = _run(capsys, "gkz", "--fixture", "2f1-double",
                        "--weight", "1,0,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == [1, 0, 0, 0]
    # flipping the weight flips the initial monomial
    assert data["initial_ideal"] == [[1, 0, 0, 1]]


def test_exit_codes_keep_their_numbers():
    assert (cli.EXIT_ENGINE, cli.EXIT_USAGE, cli.EXIT_NONCONVERGENT,
            cli.EXIT_DIVERGENT, cli.EXIT_VERIFY_FAILED) == (1, 2, 5, 6, 7)


@pytest.mark.parametrize("verb", ["gkz", "verify"])
def test_weight_of_the_wrong_length_is_rejected(capsys, verb):
    code, out, err = _run(capsys, verb, "--fixture", "2f1-double",
                          "--weight", "1,0")
    assert code == cli.EXIT_ENGINE
    assert err.startswith("error: weight [1, 0] needs one entry per column")
    assert "Traceback" not in err + out


def test_weight_length_counts_the_deformation_column(capsys):
    # g = z1 + z2 + s*z1*z2 has 3 monomials; deformation adds a fourth column
    code, _, err = _run(capsys, "gkz", "--fixture", "massless-bubble",
                        "--weight", "1,0,0")
    assert code == cli.EXIT_ENGINE and "weight [1, 0, 0]" in err
    code, out, _ = _run(capsys, "gkz", "--fixture", "massless-bubble",
                        "--weight", "1,0,0,0", "--json")
    assert code == 0
    assert json.loads(out)["weight"] == [1, 0, 0, 0]


@pytest.mark.parametrize("weight", ["1,a", "0,1.5,1,1"])
def test_non_integer_weight_option_is_a_usage_error(capsys, weight):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--fixture", "2f1-double", "--weight", weight])
    assert exit_info.value.code == cli.EXIT_USAGE
    assert "argument --weight: invalid weight value" in capsys.readouterr().err


def test_non_integral_spec_weight_is_rejected(tmp_path, capsys):
    code, out, _ = _run(capsys, "fixtures", "--name", "2f1-double", "--json")
    spec = json.loads(out)
    spec["weight"] = [0, 1.5, 1, 1]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "gkz", "--spec", str(path))
    assert code == cli.EXIT_ENGINE
    assert err.startswith("error: weight [0, 1.5, 1, 1] is not integral")
    assert "Traceback" not in err + out


def test_empty_spec_weight_is_rejected(tmp_path, capsys):
    """An explicit empty weight is an error, not a request for the default."""
    spec = fixtures()["2f1-double"].to_dict()
    spec["weight"] = []
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "gkz", "--spec", str(path))
    assert code == cli.EXIT_ENGINE and out == ""
    assert err == "error: weight [] needs one entry per column of A\n"


@pytest.mark.parametrize("deformation", ["off", "Auto"])
def test_unknown_deformation_is_a_typed_error(tmp_path, capsys, deformation):
    spec = fixtures()["massless-bubble"].to_dict()
    spec["deformation"] = deformation
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "verify", "--spec", str(path))
    assert code == cli.EXIT_ENGINE and out == ""
    assert err == (f"error: deformation {deformation!r} is not 'auto' or "
                   "'none'\n")


def test_misspelt_spec_key_is_one_error_line(capsys):
    """tests/misspelt_spec.json, which CI also runs: exit 1, one line."""
    path = os.path.join(os.path.dirname(__file__), "misspelt_spec.json")
    code, out, err = _run(capsys, "verify", "--spec", path)
    assert code == cli.EXIT_ENGINE == 1 and out == ""
    assert err == "error: unknown spec keys 'weigth', 'tolerence'\n"


def test_alpha_of_the_wrong_length_is_one_error_line(capsys):
    """tests/long_alpha_spec.json, which CI also runs: three exponents for
    g's two variables exit 1, where the third was never read."""
    path = os.path.join(os.path.dirname(__file__), "long_alpha_spec.json")
    code, out, err = _run(capsys, "verify", "--spec", path)
    assert code == cli.EXIT_ENGINE == 1 and out == ""
    assert err == "error: alpha needs 2 entries, got [0.3, 0.7, 0.9]\n"


def test_alpha_that_is_not_finite_is_one_error_line(capsys):
    """tests/nan_alpha_spec.json, which CI also runs: "alpha": [NaN, 0.7]
    exits 1 before any Gamma constant reads the nan."""
    path = os.path.join(os.path.dirname(__file__), "nan_alpha_spec.json")
    code, out, err = _run(capsys, "verify", "--spec", path)
    assert code == cli.EXIT_ENGINE == 1 and out == ""
    assert err == "error: parameter 'a1' is nan, not finite\n"


@pytest.mark.parametrize("name, want", [
    ("massless_bubble", 2.993128730868232),
    ("triangle_1scale", 17.987577309481527),
    ("cantaloupe_2", 18.762885769548834)])
def test_an_undeformed_codim0_spec_verifies(capsys, name, want):
    """tests/<name>_undeformed_spec.json, which CI also runs: the fixture
    with "deformation": "none" and no weight has a rank-0 lattice, one
    term and no region to leave, and its Gamma-product value meets the
    oracle's closed form."""
    path = os.path.join(os.path.dirname(__file__),
                        f"{name}_undeformed_spec.json")
    code, out, err = _run(capsys, "verify", "--spec", path, "--json")
    report = json.loads(out)
    assert code == 0 and err == "" and report["verified"] is True
    assert report["relative_deviation"] <= 1e-12
    assert report["oracle"]["target_met"] and report["oracle"]["dims"] == 0
    assert report["series_value"] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("name, code, message", [
    ("doubled_rows_amatrix", 0, ""),
    ("massless_bubble_outside", cli.EXIT_NONCONVERGENT,
     "error: the Beta integral B(-0.9, 1.4) over z1 diverges\n")])
def test_spec_files_exit_as_ci_expects(capsys, name, code, message):
    """tests/<name>_spec.json, which CI also runs: an A with no row of ones
    verifies, and the undeformed massless bubble at alpha = (0.5, 0.5),
    outside its convergence polytope, is refused by the oracle."""
    path = os.path.join(os.path.dirname(__file__), f"{name}_spec.json")
    got, _, err = _run(capsys, "verify", "--spec", path)
    assert (got, err) == (code, message)


def test_even_powers_spec_verifies(capsys):
    """tests/even_powers_spec.json, which CI also runs: c1 + c2 z^2 + c3 z^4,
    whose exponents span a sublattice of index 2, verifies (it was twice
    the integral while the index stayed out of the constants)."""
    path = os.path.join(os.path.dirname(__file__), "even_powers_spec.json")
    code, out, err = _run(capsys, "verify", "--spec", path)
    assert (code, err) == (0, "") and "verified: True" in out.splitlines()


def test_verify_reports_the_series_error(capsys):
    """As CI checks: verify --json on 2f1-double carries series_error, the
    last shell's tail, below tolerance * |series_value|; the text output
    has its line after the value's."""
    code, out, _ = _run(capsys, "verify", "--fixture", "2f1-double", "--json")
    report = json.loads(out)
    assert code == 0
    assert 0 < report["series_error"] < (report["tolerance"]
                                         * abs(report["series_value"]))
    lines = _run(capsys, "verify", "--fixture", "2f1-double")[1].splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["series_value",
                                                          "series_error"]


@pytest.mark.parametrize("c2, code", [(1.6, cli.EXIT_DIVERGENT),
                                      (2, cli.EXIT_DIVERGENT), (3, 0)])
def test_quadratic_verifies_only_inside_its_radius(tmp_path, capsys, c2,
                                                   code):
    """tests/quadratic_spec.json (c2 = 1.6, exit 6), which CI also runs, and
    c2 = 2 and 3: the radius of x = c1 c3 / c2^2 is 1/4, not 1."""
    spec = _spec_file("quadratic_spec.json")
    spec["coefficients"][1] = c2
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert _run(capsys, "verify", "--spec", str(path))[0] == code


@pytest.mark.parametrize("coefficients", [
    [1, 3, 3, 1], [1, 1, 1, 1], [1, 5, 3, 1], [1, 4, 6, 1], [1, 10, 10, 1]])
def test_cubic_verifies_only_inside_its_rank2_region(tmp_path, capsys,
                                                     coefficients):
    """tests/cubic_outside_spec.json (c = (1,3,3,1)), which CI also runs,
    and three more points where some raw rank-2 series has a Horn margin
    < 0: their sums were 5.4e8 against the oracle's 1.299 and up to 1e124
    off, and solve and verify now exit 6 at each; at (1,10,10,1) every
    margin is >= 0.82 and the sum meets the oracle to ~1.8e-15."""
    spec = _spec_file("cubic_outside_spec.json")
    spec["coefficients"] = coefficients
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    inside = coefficients == [1, 10, 10, 1]
    for verb in ("solve", "verify"):
        code, out, err = _run(capsys, verb, "--spec", str(path), "--json")
        if inside:
            assert code == 0
            assert json.loads(out)["relative_deviation"] < 1e-13
        else:
            assert code == cli.EXIT_DIVERGENT and out == ""
            assert err.startswith("error: margin ")


@pytest.mark.parametrize("weight", ["0,0,0,0", "1,1,1,1"])
def test_verify_at_a_tied_weight(capsys, weight):
    """Every lattice vector ties w.v = 0: in_w and the series' side both
    come from grevlex, so the series converges and verifies."""
    code, out, _ = _run(capsys, "verify", "--fixture", "2f1-double",
                        "--weight", weight, "--json")
    assert code == 0
    assert json.loads(out)["series_value"] == 3.160307889336243


def test_consecutive_calls_share_no_options(capsys, monkeypatch):
    """The parser is built once per process; each call's options are its
    own, and a usage error names its own verb."""
    weights = []

    def recorded(spec, **kwargs):
        weights.append(tuple(spec.weight))
        return run(spec, **kwargs)

    run = pipeline.run
    monkeypatch.setattr(pipeline, "run", recorded)
    code, out, _ = _run(capsys, "verify", "--fixture", "2f1-double",
                        "--weight", "0,0,0,0", "--json")
    assert code == 0 and json.loads(out)["verified"] is True
    code, out, _ = _run(capsys, "verify", "--fixture", "2f1-double")
    assert code == 0 and out.startswith("series_value: ")
    assert weights == [(0, 0, 0, 0), tuple(fixtures()["2f1-double"].weight)]
    for verb in ("verify", "gkz"):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([verb, "--fixture", "2f1-double", "--order", "-1"])
        assert exit_info.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage: feyngkz {verb} ")
    assert cli.build_parser() is cli.build_parser()


def test_spec_without_input_is_a_typed_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "x"}))
    code, out, err = _run(capsys, "gkz", "--spec", str(path))
    assert code == cli.EXIT_ENGINE
    assert err.startswith("error: spec 'x' has no polynomial, graph or A matrix")
    assert "Traceback" not in err + out


def test_spec_file_round_trip(tmp_path, capsys):
    spec = {
        "name": "gauss-from-file",
        "polynomial": [
            {"exponents": [0, 0]}, {"exponents": [1, 0]},
            {"exponents": [0, 1]}, {"exponents": [1, 1]}],
        "weight": [0, 1, 1, 1],
        "deformation": "none",
        "alpha": [0.3, 0.7],
        "d": 3.8,
        "coefficients": [1.0, 1.0, 1.0, 2.0],
        "order": 40,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = _run(capsys, "verify", "--spec", str(path), "--json")
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_non_positive_coefficient_exit_code(tmp_path, capsys):
    code, out, _ = _run(capsys, "fixtures", "--name", "2f1-double", "--json")
    spec = json.loads(out)
    spec["coefficients"] = [1.0, -0.5, 1.0, 2.0]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "verify", "--spec", str(path))
    assert code == cli.EXIT_ENGINE
    assert err.startswith("error: coefficients must be positive")
    assert "Traceback" not in err + out


def test_verify_underflowing_oracle_value_exit_code(capsys):
    """tests/underflow_spec.json, which CI also runs: 2f1-double at
    coefficients ~1e200 has an oracle value of 0, which is refused as
    not finite rather than divided by."""
    path = os.path.join(os.path.dirname(__file__), "underflow_spec.json")
    code, out, err = _run(capsys, "verify", "--spec", path)
    assert code == cli.EXIT_ENGINE and out == ""
    assert err.startswith("error: ") and "oracle value 0.0" in err


def test_verify_unassigned_parameter_exit_code(tmp_path, capsys):
    code, out, _ = _run(capsys, "fixtures", "--name", "2f1-double", "--json")
    spec = json.loads(out)
    del spec["d"]       # beta = d/2 is then unassigned
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "verify", "--spec", str(path))
    assert code == cli.EXIT_ENGINE
    assert err.startswith("error: no value for parameter 'beta'")
    assert "Traceback" not in err + out


def test_usage_error_without_input(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["gkz"])
    assert exit_info.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["gkz", "--fixture", "nope"], "unknown fixture 'nope'"),
    (["symanzik", "--fixture", "2f1-double"], "the spec has no graph"),
    (["fixtures", "--name", "nope"], "unknown fixture 'nope'"),
    (["verify", "--fixture", "2f1-double", "--order", "-1"],
     "argument --order: invalid series_order value: '-1'")] + [
    (["verify", "--fixture", "2f1-double", "--tolerance", text],
     f"argument --tolerance: invalid relative_tolerance value: '{text}'")
    for text in ("-1", "0", "nan", "inf")],
    ids=["unknown-fixture", "no-graph", "unknown-name", "negative-order",
         "negative-tolerance", "zero-tolerance", "nan-tolerance",
         "inf-tolerance"])
def test_usage_mistakes_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")


def _spec_file(name):
    with open(os.path.join(os.path.dirname(__file__), name)) as handle:
        return json.load(handle)


_TERMS = [{"exponents": [0, 0]}, {"exponents": [1, 0]},
          {"exponents": [0, 1]}, {"exponents": [1, 1]}]
_BUBBLE = {"L": 1, "E": 1, "invariants": ["s"],
           "propagators": [{"M": [[1]], "Q": [[0]]},
                           {"M": [[1]], "Q": [[-1]], "J": {"s": 1}}],
           "momentum_products": {"p1.p1": {"s": 1}}}
_AMATRIX = {"amatrix": [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]],
            "kappa": ["beta1", "beta2", "alpha"]}
_TRIANGLE = {"L": 1, "E": 2, "invariants": ["s"],
             "propagators": [{"M": [[1]], "Q": [[-1, 0]]},
                             {"M": [[1]], "Q": [[0, 1]]},
                             {"M": [[1]], "Q": [[0, 0]]}]}


@pytest.mark.parametrize("spec", [
    {"polynomial": []},
    {"polynomial": _TERMS, "alpha": ["q"]},
    {"polynomial": [{"exponents": [0, 0], "coeff": {"1": "x"}}] + _TERMS[1:]},
    {"graph": {"L": 1}},
    {"amatrix": [[1, 1, 1], [0, 1, 2]]},
    [_TERMS],
    {"amatrix": [[1, 1, 1], [0, 1]], "kappa": ["b1", "b2"]},
    {"polynomial": [{"exponents": [0, 0]}, {"exponents": [1]}]},
    {"polynomial": _TERMS, "order": -3},
    {"polynomial": _TERMS, "order": 2.5},
    {"polynomial": _TERMS, "order": True}] + [
    {"polynomial": _TERMS, "tolerance": value}
    for value in (-1, 0, math.nan, math.inf)] + [
    {"graph": {"L": 2, "E": 0, "propagators": [
        {"M": [[1, 2], [0, 1]]}, {"M": [[1, 0], [0, 0]]},
        {"M": [[0, 0], [0, 1]]}]}},
    {"graph": _BUBBLE, "polynomial": _TERMS, **_AMATRIX},
    {"graph": _BUBBLE, "polynomial": _TERMS},
    {"graph": _BUBBLE, **_AMATRIX},
    {"polynomial": _TERMS, **_AMATRIX}] + [
    {"graph": {**_TRIANGLE, "momentum_products": products}}
    for products in ({"p0.p1": {"s": "1/2"}}, {"p1.p3": {"s": "1/2"}},
                     {"p1.p2": {"s": "1/2"}, "p2.p1": {"s": 1}},
                     {"1.pp2": {"s": "1/2"}}, {"1.2": {"s": "1/2"}})] + [
    {"polynomial": [{"exponents": [0]}, {"exponents": [1.5]}]},
    {"polynomial": [{"exponents": "01"}, {"exponents": [1, 0]}]},
    _spec_file("fractional_amatrix_spec.json"),
    {"amatrix": _AMATRIX["amatrix"], "kappa": ["beta1", "beta2"]},
    {"graph": {"L": 0, "E": 0, "propagators": []}}],
    ids=["empty-polynomial", "alpha", "coeff", "graph", "kappa", "list",
         "ragged-amatrix", "ragged-exponents", "negative-order",
         "fractional-order", "bool-order", "negative-tolerance",
         "zero-tolerance", "nan-tolerance", "inf-tolerance", "asymmetric-m",
         "three-sources", "graph-and-polynomial", "graph-and-amatrix",
         "polynomial-and-amatrix", "momentum-index-0",
         "momentum-index-past-e", "conflicting-products", "momentum-key-pp",
         "momentum-key-without-p", "fractional-exponent", "text-exponents",
         "fractional-amatrix", "short-kappa", "empty-graph"])
def test_malformed_spec_is_a_typed_error(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "gkz", "--spec", str(path))
    assert code == cli.EXIT_ENGINE
    assert err.startswith("error: ") and "Traceback" not in err + out


@pytest.mark.parametrize("graph", [
    {**_TRIANGLE, "momentum_products": {"p1.p2": {"ss": "1/2"}}},
    {**_BUBBLE, "propagators": [{"M": [[1]], "Q": [[0]]},
                                {"M": [[1]], "Q": [[-1]], "J": {"S": 1}}]}],
    ids=["momentum-product", "propagator-j"])
def test_misspelt_invariant_is_a_typed_error(tmp_path, capsys, graph):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"graph": graph}))
    code, out, err = _run(capsys, "gkz", "--spec", str(path))
    assert code == cli.EXIT_ENGINE and out == ""
    assert err.startswith("error: ") and "undeclared invariant" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, code", [
    ("2f1-double", 0), ("box", 5), ("triangle-3scale", 5),
    ("massless-bubble", 6), ("triangle-1scale", 6), ("cantaloupe-2", 6),
    ("one-mass-bubble", 6), ("sunset-1mass", 6), ("party-hat", 6),
    ("2f1-single", 0)])
def test_verify_exit_code_at_each_stated_point(capsys, name, code):
    assert _run(capsys, "verify", "--fixture", name)[0] == code


def test_missing_kinematic_value_is_a_typed_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"graph": {
        **_TRIANGLE, "momentum_products": {"p1.p2": {"s": "1/2"}}},
        "weight": [1, 0, 0, 0, 0], "alpha": [0.9, 0.9, 0.7], "d": 3.8,
        "kinematics": {}}))
    code, out, err = _run(capsys, "verify", "--spec", str(path))
    assert code == cli.EXIT_ENGINE
    assert err == "error: no value for invariant 's'\n" and out == ""


@pytest.mark.parametrize("name", list(fixtures()))
def test_every_fixture_dump_round_trips_through_the_cli(tmp_path, capsys,
                                                        name):
    """A fixture printed by ``fixtures --json`` and read back by --spec
    gives gkz and series exactly the output of --fixture."""
    code, out, _ = _run(capsys, "fixtures", "--name", name, "--json")
    assert code == 0
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    for verb in ("gkz", "series"):
        from_fixture = _run(capsys, verb, "--fixture", name, "--json")
        assert from_fixture[0] == 0, (verb, from_fixture[2])
        assert _run(capsys, verb, "--spec", str(path), "--json") \
            == from_fixture, verb


def test_missing_spec_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["gkz", "--spec", str(missing)])
    assert exit_info.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.rstrip().endswith(
        f"error: cannot read spec {str(missing)!r}: No such file or directory")


def test_spec_file_that_is_not_json_is_a_typed_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"polynomial": [')
    code, out, err = _run(capsys, "gkz", "--spec", str(path))
    assert code == cli.EXIT_ENGINE
    assert err.startswith("error: malformed spec: ")
    assert "Traceback" not in err + out


@pytest.mark.parametrize("verb", ["gkz", "verify"])
def test_dependent_rows_of_a_are_a_typed_error(tmp_path, capsys, verb):
    """A homogeneous g has an A with dependent rows, so A.theta = kappa has
    no solution for generic parameters: run stops before the toric ideal
    with one error line (it used to end in an IndexError)."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "polynomial": [{"exponents": [2, 0]}, {"exponents": [1, 1]},
                       {"exponents": [0, 2]}],
        "deformation": "none", "alpha": [0.3, 0.4], "d": 2}))
    code, out, err = _run(capsys, verb, "--spec", str(path))
    assert code == cli.EXIT_ENGINE and out == ""
    assert err == ("error: A has rank 2 < 3 rows, so A.theta = kappa has no "
                   "generic solution\n")


@pytest.mark.parametrize("verb, code, builds", [
    ("series", 0, False), ("verify", 5, False), ("gkz", 0, True)])
def test_only_the_verbs_that_print_the_ideal_build_it(capsys, monkeypatch,
                                                      verb, code, builds):
    """series and verify print no toric ideal, so they run no Buchberger."""
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", counted)
    monkeypatch.setattr(gkz, "buchberger", counted)
    assert _run(capsys, verb, "--fixture", "triangle-3scale")[0] == code
    assert bool(calls) == builds
