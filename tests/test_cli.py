"""Command-line interface: verbs, JSON output, exit codes."""

import json

import pytest

from feyngkz import cli


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixture_listing(capsys):
    code, out, _ = _run(capsys, "fixtures", "--json")
    assert code == 0
    names = json.loads(out)["fixtures"]
    assert "one-mass-bubble" in names and "box" in names


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
    from feyngkz import pipeline
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


def test_weight_override(capsys):
    code, out, _ = _run(capsys, "gkz", "--fixture", "2f1-double",
                        "--weight", "1,0,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["weight"] == [1, 0, 0, 0]
    # flipping the weight flips the initial monomial
    assert data["initial_ideal"] == [[1, 0, 0, 1]]


def test_exit_codes_keep_their_numbers():
    assert (cli.EXIT_ENGINE, cli.EXIT_USAGE, cli.EXIT_UNDERDETERMINED,
            cli.EXIT_NONCONVERGENT, cli.EXIT_DIVERGENT,
            cli.EXIT_VERIFY_FAILED) == (1, 2, 4, 5, 6, 7)


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
    (["fixtures", "--name", "nope"], "unknown fixture 'nope'")],
    ids=["unknown-fixture", "no-graph", "unknown-name"])
def test_usage_mistakes_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")


_TERMS = [{"exponents": [0, 0]}, {"exponents": [1, 0]},
          {"exponents": [0, 1]}, {"exponents": [1, 1]}]


@pytest.mark.parametrize("spec", [
    {"polynomial": []},
    {"polynomial": _TERMS, "alpha": ["q"]},
    {"polynomial": [{"exponents": [0, 0], "coeff": {"1": "x"}}] + _TERMS[1:]},
    {"graph": {"L": 1}},
    {"amatrix": [[1, 1, 1], [0, 1, 2]]},
    [_TERMS],
    {"amatrix": [[1, 1, 1], [0, 1]], "kappa": ["b1", "b2"]}],
    ids=["empty-polynomial", "alpha", "coeff", "graph", "kappa", "list",
         "ragged-amatrix"])
def test_malformed_spec_is_a_typed_error(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "gkz", "--spec", str(path))
    assert code == cli.EXIT_ENGINE
    assert err.startswith("error: ") and "Traceback" not in err + out


def test_fixture_dump_loads_back_as_spec(tmp_path, capsys):
    code, out, _ = _run(capsys, "fixtures", "--name", "box", "--json")
    assert code == 0
    path = tmp_path / "box.json"
    path.write_text(out)
    _, from_fixture, _ = _run(capsys, "gkz", "--fixture", "box", "--json")
    code, from_file, _ = _run(capsys, "gkz", "--spec", str(path), "--json")
    assert code == 0
    assert json.loads(from_file) == json.loads(from_fixture)
