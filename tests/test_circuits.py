import json

import numpy as np
import pytest

from matchcliff.circuits import (
    BasisInput,
    Circuit,
    CircuitParseError,
    CliffordLayer,
    LinearLayer,
    MatchgateLayer,
    ProductInput,
    QuadraticLayer,
    from_json_doc,
    load,
    save,
    to_json_doc,
)

from conftest import FIXTURES


def small_circuit():
    return Circuit(
        3,
        BasisInput((0, 1, 0)),
        (
            MatchgateLayer(0, (0.1, -0.2, 0.3, 0.0, 0.4, -0.5)),
            LinearLayer((0.1, 0.0, 0.2, 0.0, 0.0, -0.3)),
        ),
        "free",
    )


def test_json_roundtrip(tmp_path):
    c = small_circuit()
    path = tmp_path / "c.json"
    save(c, path)
    assert load(path) == c


def test_json_roundtrip_all_layer_kinds(tmp_path):
    h = np.zeros((6, 6))
    h[0, 3] = 0.2
    h[3, 0] = -0.2
    c = Circuit(
        3,
        ProductInput(((0.3, 0.1), (1.2, -0.7), (0.0, 0.0))),
        (
            CliffordLayer("SWAP", (0, 2)),
            MatchgateLayer(1, (0.0, 0.5, 0.0, 0.0, 0.0, 0.0)),
            QuadraticLayer(tuple(map(tuple, h))),
            CliffordLayer("SWAP", (0, 2)),
        ),
        "conjugated",
    )
    path = tmp_path / "c.json"
    save(c, path)
    assert load(path) == c


def test_fixture_files_load():
    for name in ("ghz4.json", "free_n3.json", "swap_conj_n3.json"):
        c = load(f"{FIXTURES}/{name}")
        assert c.n >= 3


def test_free_structure_rejects_cliffords():
    with pytest.raises(CircuitParseError):
        Circuit(
            2,
            BasisInput((0, 0)),
            (CliffordLayer("SWAP", (0, 1)),),
            "free",
        )


def test_post_clifford_requires_trailing_block():
    with pytest.raises(CircuitParseError):
        Circuit(
            2,
            BasisInput((0, 0)),
            (
                CliffordLayer("CZ", (0, 1)),
                MatchgateLayer(0, (0.0, 0.3, 0.0, 0.0, 0.0, 0.0)),
            ),
            "post_clifford",
        )


def test_conjugated_requires_inverse_trailer():
    with pytest.raises(CircuitParseError):
        Circuit(
            2,
            BasisInput((0, 0)),
            (
                CliffordLayer("CZ", (0, 1)),
                MatchgateLayer(0, (0.0, 0.3, 0.0, 0.0, 0.0, 0.0)),
                CliffordLayer("SWAP", (0, 1)),
            ),
            "conjugated",
        )


def test_conjugated_accepts_matching_trailer():
    c = Circuit(
        2,
        BasisInput((0, 0)),
        (
            CliffordLayer("CZ", (0, 1)),
            MatchgateLayer(0, (0.0, 0.3, 0.0, 0.0, 0.0, 0.0)),
            CliffordLayer("CZ", (0, 1)),
        ),
        "conjugated",
    )
    lead, body, trail = c.split_blocks()
    assert len(lead) == 1 and len(body) == 1 and len(trail) == 1


def test_bad_documents_raise_parse_errors():
    good = to_json_doc(small_circuit())
    for mutate in (
        lambda d: d.update(structure="bogus"),
        lambda d: d.update(n=-1),
        lambda d: d.update(n=0, input={"kind": "basis", "bits": ""}, layers=[]),
        lambda d: d["layers"].append({"kind": "mystery"}),
        lambda d: d["input"].update(kind="mystery"),
        # an index of 2n raised IndexError; -1 wrapped silently to h[5, 0]
        lambda d: d["layers"].append({"kind": "quadratic", "h": [{"i": 0, "j": 6, "v": 0.1}]}),
        lambda d: d["layers"].append({"kind": "quadratic", "h": [{"i": -1, "j": 0, "v": 0.1}]}),
        # an input or a layer that is not an object raised AttributeError
        lambda d: d.update(input="basis"),
        lambda d: d["layers"].append(5),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(CircuitParseError):
            from_json_doc(doc)


def test_fractional_and_non_integer_indices_are_refused_not_truncated():
    """A qubit of 1.7 read as qubit 1 and a quadratic entry (0.9, 2.5) as
    (0, 2); n, every qubit and every entry index must be a JSON integer."""
    good = to_json_doc(small_circuit())
    clifford = {"kind": "clifford", "gate": "H", "qubits": [0]}
    quadratic = {"kind": "quadratic", "h": [{"i": 0, "j": 2, "v": 0.1}]}
    for mutate in (
        lambda d: d.update(n=3.0),
        lambda d: d.update(n="3"),
        lambda d: d.update(n=True),
        lambda d: d["layers"][0].update(qubit=1.7),
        lambda d: d["layers"][0].update(qubit=0.0),
        lambda d: d["layers"][0].update(qubit=False),
        lambda d: d.update(
            structure="post_clifford", layers=d["layers"] + [{**clifford, "qubits": [0.5]}]
        ),
        lambda d: d["layers"].append({**quadratic, "h": [{"i": 0.9, "j": 2, "v": 0.1}]}),
        lambda d: d["layers"].append({**quadratic, "h": [{"i": 0, "j": 2.5, "v": 0.1}]}),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(CircuitParseError, match="must be an integer"):
            from_json_doc(doc)
    doc = json.loads(json.dumps(good))
    doc.update(structure="post_clifford", layers=doc["layers"] + [quadratic, clifford])
    assert from_json_doc(doc).n == good["n"]


def test_product_input_refuses_non_finite_angles_and_non_pairs():
    nan, inf = float("nan"), float("inf")
    for angles in (
        ((0.1, nan),),
        ((inf, 0.0), (0.2, 0.3)),
        ((0.1,),),
        ((0.1, 0.2, 0.3),),
        ((0.1, (0.2,)),),
        (("x", 0.1),),
        (0.1, 0.2),
        (),
    ):
        with pytest.raises(CircuitParseError):
            ProductInput(angles)
    assert ProductInput([(np.float64(0.5), 1)]).angles == ((0.5, 1.0),)


def test_matchgate_layer_validates_qubit_range():
    with pytest.raises((CircuitParseError, ValueError, IndexError)):
        Circuit(
            2,
            BasisInput((0, 0)),
            (MatchgateLayer(1, (0.0, 0.3, 0.0, 0.0, 0.0, 0.0)),),
            "free",
        )


def test_quadratic_layer_checks_antisymmetry():
    h = np.eye(4)
    with pytest.raises((CircuitParseError, ValueError)):
        Circuit(
            2,
            BasisInput((0, 0)),
            (QuadraticLayer(tuple(map(tuple, h))),),
            "free",
        )


def test_quadratic_layer_with_nan_is_refused():
    h = np.zeros((4, 4))
    h[0, 1], h[1, 0] = np.nan, np.nan
    with pytest.raises(CircuitParseError, match="antisymmetric"):
        Circuit(2, BasisInput((0, 0)), (QuadraticLayer(tuple(map(tuple, h))),), "free")


def test_quadratic_layer_keeps_one_read_only_array():
    """A layer built from an ndarray builds and compiles into a circuit;
    it keeps a read-only copy, compares by value and hashes -0.0 as 0.0;
    the NaN and non-antisymmetric refusals hold for arrays as for rows."""
    from matchcliff.simulator import compile_circuit

    h = np.zeros((4, 4))
    h[0, 3], h[3, 0] = 0.2, -0.2
    lay = QuadraticLayer(h)
    c = Circuit(2, BasisInput((0, 1)), (lay,))
    assert compile_circuit(c).body.shape == (6, 6)
    assert lay == QuadraticLayer(tuple(map(tuple, h)))
    assert not lay.h.flags.writeable and h.flags.writeable
    with pytest.raises(ValueError):
        lay.h[0, 3] = 1.0
    negative = np.zeros((4, 4))
    negative[1, 2], negative[2, 1] = -0.0, -0.0
    zero, minus = QuadraticLayer(np.zeros((4, 4))), QuadraticLayer(negative)
    assert zero == minus and hash(zero) == hash(minus)
    assert zero != lay
    with pytest.raises(CircuitParseError, match="antisymmetric"):
        Circuit(2, BasisInput((0, 0)), (QuadraticLayer(np.eye(4)),))
    h[0, 1], h[1, 0] = np.nan, np.nan
    with pytest.raises(CircuitParseError, match="antisymmetric"):
        Circuit(2, BasisInput((0, 0)), (QuadraticLayer(h),))


def test_quadratic_layer_keeps_an_exact_h_and_survives_a_json_roundtrip():
    """A defect within TOL.antisymmetry is kept as (h - h^T) / 2, exactly
    antisymmetric, so the upper triangle that to_json_doc writes rebuilds
    an equal layer of equal hash; an exact h is kept bit for bit."""
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4))
    h = h - h.T
    assert np.array_equal(QuadraticLayer(h).h, h)
    h[0, 3] += 5e-13
    lay = QuadraticLayer(h)
    assert np.array_equal(lay.h, 0.5 * (h - h.T))
    assert np.array_equal(lay.h, -lay.h.T)
    c = Circuit(2, BasisInput((0, 1)), (lay,))
    back = from_json_doc(json.loads(json.dumps(to_json_doc(c))))
    assert back == c and hash(back) == hash(c)
    assert back.layers[0] == lay and hash(back.layers[0]) == hash(lay)


def test_diagonal_and_repeated_quadratic_entries_are_refused():
    """The last write of a pair won, so an earlier entry was dropped
    silently; a diagonal entry was refused as not antisymmetric."""
    doc = to_json_doc(small_circuit())
    for entries, message in (
        ([(1, 1)], r"entry \(1, 1\) is on the diagonal"),
        ([(0, 2), (0, 2)], r"entry \(0, 2\) repeats the pair \(0, 2\)"),
        ([(0, 2), (3, 1), (2, 0)], r"entry \(2, 0\) repeats the pair \(0, 2\)"),
    ):
        bad = json.loads(json.dumps(doc))
        h = [{"i": i, "j": j, "v": 0.1 * k} for k, (i, j) in enumerate(entries)]
        bad["layers"].append({"kind": "quadratic", "h": h})
        with pytest.raises(CircuitParseError, match=message):
            from_json_doc(bad)


def test_numeric_fields_must_be_json_numbers():
    """A string b was read digit by digit, and float() coerced string and
    bool coefficients and angles; a JSON NaN still reaches the refusals
    that follow parsing."""
    doc = to_json_doc(small_circuit())
    product = {"kind": "product", "qubits": [{"theta": 0.1, "phi": 0.2}] * 3}
    nan = float("nan")
    for mutate, message in (
        (lambda d: d["layers"][1].update(b="100000"), "linear layer b must be an array"),
        (lambda d: d["layers"][1].update(b=5), "linear layer b must be an array"),
        (lambda d: d["layers"][1]["b"].__setitem__(2, "0.2"), "linear coefficient must be"),
        (lambda d: d["layers"][0]["coeffs"].update(a0="0.5"), "coefficient a0 must be a number"),
        (lambda d: d["layers"][0]["coeffs"].update(a1=True), "coefficient a1 must be a number"),
        (lambda d: d.update(input={**product, "qubits": [{"theta": "1.0", "phi": 0.0}] * 3}), "theta"),
        (lambda d: d.update(input={**product, "qubits": [{"theta": 1.0, "phi": True}] * 3}), "phi"),
        (
            lambda d: d["layers"].append({"kind": "quadratic", "h": [{"i": 0, "j": 1, "v": "0.1"}]}),
            "quadratic entry v must be a number",
        ),
        (lambda d: d.update(input={**product, "qubits": [{"theta": nan, "phi": 0.0}] * 3}), "finite"),
        (
            lambda d: d["layers"].append({"kind": "quadratic", "h": [{"i": 0, "j": 1, "v": nan}]}),
            "must be antisymmetric",
        ),
    ):
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        with pytest.raises(CircuitParseError, match=message):
            from_json_doc(bad)
    doc["input"] = product
    doc["layers"][0]["coeffs"]["a0"] = 1  # a JSON integer is a number
    assert from_json_doc(doc).layers[0].coeffs[0] == 1.0


def test_basis_input_refuses_bits_other_than_0_and_1():
    """A bit of 2 once read as 1 on the covariance route and as -3 in the
    restricted route's input table."""
    for bits in ((2, 0, 0), (0, -1, 0), (0, 0, 0.5), ("1", 0, 0)):
        with pytest.raises(CircuitParseError, match="0 or 1"):
            BasisInput(bits)
    assert issubclass(CircuitParseError, ValueError)
    inp = BasisInput((np.int64(1), True, 0))
    assert inp.bits == (1, 1, 0)
    assert all(type(b) is int for b in inp.bits)
