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
        lambda d: d["layers"].append({"kind": "mystery"}),
        lambda d: d["input"].update(kind="mystery"),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(CircuitParseError):
            from_json_doc(doc)


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
