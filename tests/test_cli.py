import json

import pytest

from matchcliff import cli

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        k, _, v = line.partition("=")
        pairs[k] = v
    return pairs


def test_expect_on_free_circuit(capsys):
    code, out, _ = run_cli(
        capsys, "expect", f"{FIXTURES}/free_n3.json", "--pauli", "ZII"
    )
    assert code == 0
    pairs = parse_kv(out)
    assert -1.0 <= float(pairs["value"]) <= 1.0
    assert pairs["method"] == "covariance"


def test_expect_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "expect", f"{FIXTURES}/free_n3.json", "--pauli", "ZII", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert "value" in doc and "class" in doc


def test_expect_length_mismatch_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "expect", f"{FIXTURES}/free_n3.json", "--pauli", "ZZ"
    )
    assert code == 1
    assert "error=" in err


def test_expect_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "expect", "no_such_file.json", "--pauli", "Z")
    assert code == 1


def test_marginal_on_free_circuit(capsys):
    code, out, _ = run_cli(
        capsys,
        "marginal",
        f"{FIXTURES}/free_n3.json",
        "--qubits",
        "0,2",
        "--bits",
        "10",
    )
    assert code == 0
    prob = float(parse_kv(out)["probability"])
    assert 0.0 <= prob <= 1.0


def test_marginal_unsupported_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "marginal",
        f"{FIXTURES}/ghz4.json",
        "--qubits",
        "0",
        "--bits",
        "0",
    )
    assert code == 2
    assert "error=" in err


@pytest.mark.parametrize("a1", [1e200, float("nan")])
def test_non_finite_evolution_is_input_error(capsys, tmp_path, a1):
    with open(f"{FIXTURES}/free_n3.json") as fh:
        doc = json.load(fh)
    doc["layers"][0]["coeffs"]["a1"] = a1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for argv in (("expect", "--pauli", "ZII"), ("marginal", "--qubits", "0", "--bits", "1")):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert "error=" in err and "nan" not in out


def test_d_max_above_cap_is_input_error(capsys):
    code, _, err = run_cli(
        capsys, "expect", f"{FIXTURES}/ghz4.json", "--pauli", "ZIIIII", "--d-max", "9"
    )
    assert code == 1
    assert "error=d_max capped" in err


@pytest.mark.parametrize(
    "fixture, pauli", [("free_n3.json", "ZII"), ("ghz4.json", "ZIIIII")]
)
@pytest.mark.parametrize("d_max", ["-1", "9"])
def test_d_max_out_of_range_is_input_error_for_every_structure(
    capsys, fixture, pauli, d_max
):
    code, out, err = run_cli(
        capsys, "expect", f"{FIXTURES}/{fixture}", "--pauli", pauli, "--d-max", d_max
    )
    assert code == 1
    assert "error=d_max capped at 6" in err and "value=" not in out


def test_classify_circuit_file(capsys):
    code, out, _ = run_cli(capsys, "classify", f"{FIXTURES}/swap_conj_n3.json")
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["structure"] == "conjugated"
    assert "PIBO" in pairs["class"]


def test_classify_cz_chain_encoding(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--encoding", f"{FIXTURES}/cz_chain_n5.txt"
    )
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["family"] == "CZ+SWAP"
    assert pairs["circuit"] == "CZ(0,1) CZ(1,2) CZ(2,3) CZ(3,4)"


def test_classify_reorder_encoding(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--encoding", f"{FIXTURES}/reorder_equiv.txt"
    )
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["family"] == "CZ+SWAP"
    assert "CZ(" not in pairs["circuit"]


def test_classify_pruned_tree_encoding(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--encoding", f"{FIXTURES}/sierpinski.txt"
    )
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["valid"] == "True"
    assert pairs["family"] == "general (not CZ+SWAP)"


def test_oracle_check_passes_on_free_fixture(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle-check",
        f"{FIXTURES}/free_n3.json",
        "--queries",
        "30",
        "--seed",
        "1",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["status"] == "pass"
    assert float(pairs["max_deviation"]) <= 1e-9


def test_oracle_check_on_conjugated_fixture(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle-check",
        f"{FIXTURES}/swap_conj_n3.json",
        "--queries",
        "30",
    )
    assert code == 0
    assert parse_kv(out)["status"] == "pass"


def test_consecutive_calls_share_one_parser(capsys):
    from matchcliff import circuits, simulator
    from matchcliff.gaussian import MarginalQuery
    from matchcliff.pauli import PauliString

    path = f"{FIXTURES}/free_n3.json"
    circ = circuits.load(path)
    code, out, _ = run_cli(capsys, "marginal", path, "--qubits", "0,2", "--bits", "10", "--json")
    assert code == 0
    want = simulator.run_marginal(circ, MarginalQuery((0, 2), (1, 0)))
    assert json.loads(out)["probability"] == pytest.approx(want, abs=1e-12)
    code, out, _ = run_cli(capsys, "expect", path, "--pauli", "ZIZ")
    assert code == 0
    pairs = parse_kv(out)  # key=value: the first call's --json did not stick
    want = simulator.run_expectation(circ, PauliString.from_string("ZIZ"))
    assert float(pairs["value"]) == pytest.approx(want, abs=1e-12)
    assert cli.build_parser() is cli.build_parser()


def test_repeated_queries_classify_the_circuit_once(capsys, monkeypatch):
    from matchcliff import simulator, tableau

    calls = []
    classify = tableau.classify

    def counted(t):
        calls.append(t)
        return classify(t)

    monkeypatch.setattr(tableau, "classify", counted)
    simulator.compile_circuit.cache_clear()
    for _ in range(3):
        code, out, _ = run_cli(
            capsys, "marginal", f"{FIXTURES}/swap_conj_n3.json", "--qubits", "0,2", "--bits", "01"
        )
        assert code == 0
        assert "PIBO" in parse_kv(out)["class"]
    assert len(calls) == 1


def test_marginal_bits_other_than_0_and_1_are_input_errors(capsys):
    """--bits 20 was read as 00 and answered with exit 0."""
    for bits in ("20", "1-"):
        code, out, err = run_cli(
            capsys, "marginal", f"{FIXTURES}/free_n3.json", "--qubits", "0,1", "--bits", bits
        )
        assert code == 1
        assert out == ""
        assert "error=" in err


@pytest.mark.parametrize(
    "fixture, pauli",
    [("free_n3.json", "iZII"), ("swap_conj_n3.json", "iZII"), ("ghz4.json", "iZIIIII")],
)
def test_non_hermitian_pauli_is_input_error_on_every_route(capsys, fixture, pauli):
    """The restricted route ended in a traceback on swap_conj_n3 and
    printed value=0.0 on ghz4."""
    code, out, err = run_cli(capsys, "expect", f"{FIXTURES}/{fixture}", "--pauli", pauli)
    assert code == 1
    assert out == ""
    assert "error=expectation of a non-Hermitian string" in err


def test_zero_qubit_circuit_is_input_error(capsys, tmp_path):
    """oracle-check ended in a ValueError traceback."""
    path = tmp_path / "empty.json"
    doc = {"n": 0, "input": {"kind": "basis", "bits": ""}, "structure": "free", "layers": []}
    path.write_text(json.dumps(doc))
    for argv in (("oracle-check",), ("classify",)):
        code, out, err = run_cli(capsys, argv[0], str(path))
        assert code == 1
        assert out == ""
        assert "error=a circuit needs at least one qubit" in err


@pytest.mark.parametrize("key, value", [("theta", float("nan")), ("phi", float("inf"))])
def test_non_finite_product_angles_are_input_errors(capsys, tmp_path, key, value):
    """expect and marginal reported a nan antisymmetry error, and
    oracle-check ended in a traceback."""
    qubits = [{"theta": 0.3, "phi": 0.1}, {"theta": 1.2, "phi": 0.2}]
    qubits[1][key] = value
    doc = {"n": 2, "input": {"kind": "product", "qubits": qubits}, "structure": "free", "layers": []}
    path = tmp_path / "angles.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ("expect", "--pauli", "ZZ"),
        ("marginal", "--qubits", "0", "--bits", "1"),
        ("oracle-check",),
    ):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert out == ""
        assert "error=product input angles must be finite" in err


def test_linear_layer_under_a_general_conjugation_is_refused(capsys, tmp_path):
    """A linear layer inside a general conjugation made expect and marginal
    exit 1 and oracle-check end in a traceback; every query is refused."""
    doc = {
        "n": 3,
        "input": {"kind": "basis", "bits": "010"},
        "structure": "conjugated",
        "layers": [
            {"kind": "clifford", "gate": "H", "qubits": [0]},
            {"kind": "linear", "b": [0.3, -0.2, 0.1, 0.0, 0.4, 0.2]},
            {"kind": "clifford", "gate": "H", "qubits": [0]},
        ],
    }
    path = tmp_path / "general_linear.json"
    path.write_text(json.dumps(doc))
    for argv in (("expect", "--pauli", "ZII"), ("marginal", "--qubits", "0", "--bits", "1")):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == "" and err.startswith("error=")
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0 and parse_kv(out)["class"] == ""
    code, out, err = run_cli(capsys, "oracle-check", str(path), "--queries", "10")
    assert code == 2 and out == ""
    assert err == "error=the circuit's grants refuse all 10 sampled queries\n"


def test_oracle_check_exit_codes(capsys, monkeypatch):
    """status=fail exited 1, the input-error code, and --queries 0 ended
    in queries_checked=0, status=fail.  Now --queries below 1 is an input
    error, and an answer off the oracle by more than --tolerance prints
    the record and exits EXIT_CHECK_FAILED, 3.  --tolerance nan and -1
    failed every check and inf passed any; a tolerance that is negative
    or not finite is now an input error.  max(max_dev, nan) kept max_dev,
    so a NaN answer passed; it now fails."""
    from matchcliff import simulator

    path = f"{FIXTURES}/free_n3.json"
    for queries in ("0", "-2"):
        code, out, err = run_cli(capsys, "oracle-check", path, "--queries", queries)
        assert (code, out) == (1, "")
        assert err == f"error=--queries must be at least 1, got {queries}\n"
    for tolerance in ("nan", "-1", "inf", "-inf"):
        code, out, err = run_cli(capsys, "oracle-check", path, f"--tolerance={tolerance}")
        assert (code, out) == (1, "")
        assert err == f"error=--tolerance must be finite and at least 0, got {float(tolerance)}\n"
    code, out, _ = run_cli(capsys, "oracle-check", path, "--queries", "10")
    assert code == cli.EXIT_OK and parse_kv(out)["status"] == "pass"
    marginal = simulator.run_marginal
    monkeypatch.setattr(simulator, "run_marginal", lambda c, q: marginal(c, q) + 1e-6)
    code, out, err = run_cli(capsys, "oracle-check", path, "--queries", "10")
    assert code == cli.EXIT_CHECK_FAILED == 3 and err == ""
    pairs = parse_kv(out)
    assert pairs["status"] == "fail" and float(pairs["max_deviation"]) >= 1e-6
    code, out, _ = run_cli(capsys, "oracle-check", path, "--queries", "10", "--tolerance", "1e-3")
    assert code == 0 and parse_kv(out)["status"] == "pass"
    monkeypatch.setattr(simulator, "run_marginal", lambda c, q: float("nan"))
    code, out, err = run_cli(capsys, "oracle-check", path, "--queries", "10", "--tolerance", "1e-3")
    assert code == cli.EXIT_CHECK_FAILED and err == ""
    assert parse_kv(out) == {"queries_checked": "10", "max_deviation": "nan", "status": "fail"}


def test_fractional_index_in_a_circuit_file_is_an_input_error(capsys, tmp_path):
    """A matchgate on qubit 1.7 and a quadratic entry (0.9, 2.5) were read
    as qubit 1 and entry (0, 2): expect printed a value and exited 0."""
    doc = {
        "n": 3,
        "input": {"kind": "basis", "bits": "010"},
        "structure": "free",
        "layers": [
            {
                "kind": "matchgate",
                "qubit": 1.7,
                "coeffs": dict.fromkeys(("a0", "a1", "b1", "b2", "d1", "d2"), 0.2),
            },
            {"kind": "quadratic", "h": [{"i": 0.9, "j": 2.5, "v": 0.3}]},
        ],
    }
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ("expect", "--pauli", "ZZI"),
        ("marginal", "--qubits", "0", "--bits", "1"),
        ("classify",),
    ):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err == "error=matchgate qubit must be an integer, got 1.7\n"
    doc["layers"].pop(0)
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "expect", str(path), "--pauli", "ZZI")
    assert (code, out) == (1, "")
    assert err == "error=quadratic entry i must be an integer, got 0.9\n"


def test_oracle_check_reports_a_body_that_compile_refuses(capsys, tmp_path):
    """A matchgate coefficient of 1e5 made oracle-check end in a
    'state not normalized' traceback from the dense state; compile's own
    refusal now comes first, as for expect."""
    with open(f"{FIXTURES}/free_n3.json") as fh:
        doc = json.load(fh)
    doc["layers"][0]["coeffs"]["a1"] = 1e5
    path = tmp_path / "large_coefficient.json"
    path.write_text(json.dumps(doc))
    for argv in (("oracle-check",), ("expect", "--pauli", "ZII")):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error=generator too large")


@pytest.mark.parametrize("route", ["free", "post_clifford", "restricted"])
def test_refusals_keep_their_exit_code_on_every_route(capsys, tmp_path, route_circuits, route):
    from matchcliff import circuits
    from matchcliff.tableau import CliffordClass

    n = 4
    built = route_circuits(n, 6)
    post = built["post_clifford"]
    c = {
        "free": circuits.Circuit(n, post.input, post.body_layers(), "free"),
        "post_clifford": post,
        "restricted": built[CliffordClass.GENERAL],
    }[route]
    path = tmp_path / "circuit.json"
    circuits.save(c, path)
    for pauli, message in (
        ("iZIII", "expectation of a non-Hermitian string"),
        ("ZII", "pauli has 3 letters, circuit has 4 qubits"),
    ):
        code, out, err = run_cli(capsys, "expect", str(path), "--pauli", pauli)
        assert (code, out, err.strip()) == (1, "", f"error={message}")
    code, out, _ = run_cli(capsys, "expect", str(path), "--pauli", "ZIII")
    assert code == 0 and "value=" in out


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error=")


@pytest.mark.parametrize(
    "argv",
    [
        ("expect", f"{FIXTURES}/free_n3.json"),
        ("expect", f"{FIXTURES}/free_n3.json", "--pauli", "ZII", "--d-max", "x"),
        ("simulate", f"{FIXTURES}/free_n3.json"),
        ("classify",),
        ("classify", f"{FIXTURES}/ghz4.json", "--encoding", f"{FIXTURES}/cz_chain_n5.txt"),
    ],
)
def test_malformed_command_lines_are_input_errors(capsys, argv):
    """argparse printed a usage line and exited 2, the refused-query code;
    classify with both a file and --encoding ignored the file."""
    assert_one_error_line(*run_cli(capsys, *argv))


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "oracle-check" in capsys.readouterr().out


@pytest.mark.parametrize("i, j", [(0, 9), (-1, 0)])
def test_quadratic_entry_out_of_range_is_input_error(capsys, tmp_path, i, j):
    """j = 9 at n = 2 ended in an IndexError traceback; i = -1 was read as
    h[3, 0] and answered with exit 0."""
    doc = {
        "n": 2,
        "input": {"kind": "basis", "bits": "00"},
        "layers": [{"kind": "quadratic", "h": [{"i": i, "j": j, "v": 0.1}]}],
    }
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps(doc))
    for argv in (("expect", "--pauli", "ZZ"), ("marginal", "--qubits", "0", "--bits", "0")):
        assert_one_error_line(*run_cli(capsys, argv[0], str(path), *argv[1:]))


@pytest.mark.parametrize(
    "entries, message",
    [
        ([(0, 2, 0.3), (0, 2, -0.5)], "quadratic entry (0, 2) repeats the pair (0, 2)"),
        ([(1, 1, 0.3)], "quadratic entry (1, 1) is on the diagonal"),
        ([(0, 2, float("nan"))], "quadratic layer matrix must be antisymmetric"),
    ],
)
def test_bad_quadratic_entries_are_input_errors(capsys, tmp_path, entries, message):
    """A repeated pair was answered with exit 0 from its last entry, the
    first dropped silently; a NaN entry is refused with exit 1 by the
    layer's own antisymmetry rule."""
    doc = {
        "n": 2,
        "input": {"kind": "basis", "bits": "00"},
        "layers": [{"kind": "quadratic", "h": [{"i": i, "j": j, "v": v} for i, j, v in entries]}],
    }
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "expect", str(path), "--pauli", "ZI")
    assert (code, out, err) == (1, "", f"error={message}\n")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 2, "input": "basis", "layers": []}, "input must be a JSON object, got 'basis'"),
        (
            {"n": 2, "input": {"kind": "basis", "bits": "00"}, "layers": [5]},
            "layer must be a JSON object, got 5",
        ),
    ],
    ids=["input", "layer"],
)
def test_non_object_entries_in_a_circuit_file_are_input_errors(capsys, tmp_path, doc, message):
    """An input or a layer that is not a JSON object escaped as an
    AttributeError traceback: 'str' object has no attribute 'get'."""
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ("expect", "--pauli", "ZZ"),
        ("marginal", "--qubits", "0", "--bits", "0"),
        ("classify",),
        ("oracle-check",),
    ):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (1, "", f"error={message}\n")


def test_mixed_length_encoding_fixture_lists_the_violation(capsys, tmp_path):
    """validate ended in a PauliLengthMismatch traceback."""
    path = tmp_path / "mixed.txt"
    path.write_text("XI\nYI\nZX\nZYZ\n")
    code, out, err = run_cli(capsys, "classify", "--encoding", str(path))
    assert code == 1 and err == ""
    assert parse_kv(out) == {"valid": "False", "violations": "operator 3: length 3 != 2"}


def raise_in_run_expectation(monkeypatch, exc):
    from matchcliff import simulator

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(simulator, "run_expectation", broken)


def test_value_error_in_oracle_check_queries_is_input_error(capsys, monkeypatch):
    """Only the set-up was guarded: an error in the query loop escaped as a
    traceback."""
    raise_in_run_expectation(monkeypatch, ValueError("query went wrong"))
    code, out, err = run_cli(capsys, "oracle-check", f"{FIXTURES}/free_n3.json")
    assert (code, out, err) == (1, "", "error=query went wrong\n")


def test_internal_consistency_error_is_not_relabelled(capsys, monkeypatch):
    from matchcliff.gaussian import InternalConsistencyError

    raise_in_run_expectation(monkeypatch, InternalConsistencyError("frame drift"))
    with pytest.raises(InternalConsistencyError, match="frame drift"):
        cli.main(["oracle-check", f"{FIXTURES}/free_n3.json"])
    with pytest.raises(InternalConsistencyError):
        cli.main(["expect", f"{FIXTURES}/free_n3.json", "--pauli", "ZII"])
