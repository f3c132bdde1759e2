"""Layered circuit IR and its JSON file format.

A circuit is a qubit count, an input state descriptor (basis bits or
per-qubit product-state angles), a declared structure tag, and an
ordered list of layers.  Structures:

  - "conjugated": a leading Clifford block C, a non-Clifford body, and
    a trailing Clifford block that must compose to the inverse of C.
  - "post_clifford": a non-Clifford body followed by one trailing
    Clifford block.
  - "free": no Clifford layers at all.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tableau
from .linalg import TOL
from .tableau import CliffordTableau

STRUCTURES = ("conjugated", "post_clifford", "free")
COEFF_KEYS = ("a0", "a1", "b1", "b2", "d1", "d2")


class CircuitParseError(ValueError):
    pass


@dataclass(frozen=True)
class BasisInput:
    bits: tuple

    @property
    def n(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class ProductInput:
    angles: tuple  # (theta, phi) per qubit, radians

    @property
    def n(self) -> int:
        return len(self.angles)


@dataclass(frozen=True)
class CliffordLayer:
    gate: str
    qubits: tuple


@dataclass(frozen=True)
class MatchgateLayer:
    """Nearest-neighbor two-qubit gate exp(-i H) on (qubit, qubit+1), H =
    a0 YY + a1 XX + b1 YX + b2 XY + d1 Z(k) + d2 Z(k+1)."""

    qubit: int
    coeffs: tuple  # (a0, a1, b1, b2, d1, d2)


@dataclass(frozen=True)
class LinearLayer:
    """exp(-i H), H = sum_j b_j c_j over the 2n chain-form Majoranas."""

    b: tuple


@dataclass(frozen=True)
class QuadraticLayer:
    """exp(-i H), H = i sum_jk h_jk c_j c_k, h real antisymmetric."""

    h: tuple  # tuple of row tuples, 2n x 2n

    def h_matrix(self) -> np.ndarray:
        return np.array(self.h, dtype=float)


@dataclass(frozen=True)
class Circuit:
    n: int
    input: object
    layers: tuple
    structure: str = "free"

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise CircuitParseError(f"unknown structure {self.structure!r}")
        if self.input.n != self.n:
            raise CircuitParseError("input size does not match n")
        for lay in self.layers:
            _check_layer(lay, self.n)
        self.split_blocks()  # structural validation
        # the compile and covariance caches hash a circuit on every query;
        # a large quadratic layer makes that cost as much as the query
        object.__setattr__(
            self, "_hash", hash((self.n, self.input, self.layers, self.structure))
        )

    def __hash__(self) -> int:
        return self._hash

    def split_blocks(self) -> tuple:
        """(leading Clifford layers, body layers, trailing Clifford layers)
        per the declared structure."""
        lays = list(self.layers)
        is_cl = [isinstance(l, CliffordLayer) for l in lays]
        if self.structure == "free":
            if any(is_cl):
                raise CircuitParseError("free circuits admit no Clifford layers")
            return (), tuple(lays), ()
        if self.structure == "post_clifford":
            cut = len(lays)
            while cut > 0 and is_cl[cut - 1]:
                cut -= 1
            if any(is_cl[:cut]):
                raise CircuitParseError(
                    "post_clifford circuits allow Cliffords only at the end"
                )
            return (), tuple(lays[:cut]), tuple(lays[cut:])
        # conjugated
        lead = 0
        while lead < len(lays) and is_cl[lead]:
            lead += 1
        cut = len(lays)
        while cut > lead and is_cl[cut - 1]:
            cut -= 1
        if any(is_cl[lead:cut]):
            raise CircuitParseError(
                "conjugated circuits need a contiguous Clifford-body-Clifford split"
            )
        leading, body, trailing = lays[:lead], lays[lead:cut], lays[cut:]
        c = clifford_block_tableau(self.n, leading)
        d = clifford_block_tableau(self.n, trailing)
        if tableau.compose(d, c).images != CliffordTableau.identity(self.n).images:
            raise CircuitParseError(
                "conjugated circuits need the trailing Clifford block to invert "
                "the leading one"
            )
        return tuple(leading), tuple(body), tuple(trailing)

    def conjugation_tableau(self) -> CliffordTableau:
        leading, _, _ = self.split_blocks()
        return clifford_block_tableau(self.n, leading)

    def post_tableau(self) -> CliffordTableau:
        _, _, trailing = self.split_blocks()
        return clifford_block_tableau(self.n, trailing)

    def body_layers(self) -> tuple:
        return self.split_blocks()[1]

    def has_linear(self) -> bool:
        return any(isinstance(l, LinearLayer) for l in self.layers)


def clifford_block_tableau(n: int, layers) -> CliffordTableau:
    gates = [(l.gate, *l.qubits) for l in layers]
    return tableau.from_gates(n, gates)


def _check_layer(lay, n: int):
    if isinstance(lay, CliffordLayer):
        if lay.gate not in tableau.GATE_NAMES:
            raise CircuitParseError(f"unknown Clifford gate {lay.gate!r}")
        arity = 1 if lay.gate in ("H", "S") else 2
        if len(lay.qubits) != arity:
            raise CircuitParseError(f"{lay.gate} takes {arity} qubit(s)")
        if len(set(lay.qubits)) != len(lay.qubits):
            raise CircuitParseError("repeated qubit in gate")
        if any(not 0 <= q < n for q in lay.qubits):
            raise CircuitParseError("qubit index out of range")
    elif isinstance(lay, MatchgateLayer):
        if not 0 <= lay.qubit < n - 1:
            raise CircuitParseError("matchgate qubit out of range (acts on k, k+1)")
        if len(lay.coeffs) != 6:
            raise CircuitParseError("matchgate needs 6 coefficients")
    elif isinstance(lay, LinearLayer):
        if len(lay.b) != 2 * n:
            raise CircuitParseError("linear layer needs 2n coefficients")
    elif isinstance(lay, QuadraticLayer):
        h = lay.h_matrix()
        if h.shape != (2 * n, 2 * n):
            raise CircuitParseError("quadratic layer needs a 2n x 2n matrix")
        if not np.max(np.abs(h + h.T)) <= TOL.antisymmetry:
            raise CircuitParseError("quadratic layer matrix must be antisymmetric")
    else:
        raise CircuitParseError(f"unknown layer {lay!r}")


# -- JSON format -------------------------------------------------------


def _input_from_json(doc, n):
    kind = doc.get("kind")
    if kind == "basis":
        bits = doc["bits"]
        if len(bits) != n or any(c not in "01" for c in bits):
            raise CircuitParseError(f"bad basis bits {bits!r}")
        return BasisInput(tuple(int(c) for c in bits))
    if kind == "product":
        qs = doc["qubits"]
        if len(qs) != n:
            raise CircuitParseError("product input needs one angle pair per qubit")
        return ProductInput(tuple((float(q["theta"]), float(q["phi"])) for q in qs))
    raise CircuitParseError(f"unknown input kind {kind!r}")


def _layer_from_json(doc, n):
    kind = doc.get("kind")
    if kind == "clifford":
        return CliffordLayer(doc["gate"], tuple(int(q) for q in doc["qubits"]))
    if kind == "matchgate":
        coeffs = doc["coeffs"]
        return MatchgateLayer(
            int(doc["qubit"]), tuple(float(coeffs[k]) for k in COEFF_KEYS)
        )
    if kind == "linear":
        return LinearLayer(tuple(float(v) for v in doc["b"]))
    if kind == "quadratic":
        h = np.zeros((2 * n, 2 * n))
        for ent in doc["h"]:
            i, j, v = int(ent["i"]), int(ent["j"]), float(ent["v"])
            h[i, j] = v
            h[j, i] = -v
        return QuadraticLayer(tuple(tuple(row) for row in h))
    raise CircuitParseError(f"unknown layer kind {kind!r}")


def from_json_doc(doc) -> Circuit:
    try:
        n = int(doc["n"])
        inp = _input_from_json(doc["input"], n)
        structure = doc.get("structure", "free")
        layers = tuple(_layer_from_json(l, n) for l in doc["layers"])
    except (KeyError, TypeError) as exc:
        raise CircuitParseError(f"malformed circuit document: {exc}") from exc
    return Circuit(n, inp, layers, structure)


def load(path) -> Circuit:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CircuitParseError(f"invalid JSON: {exc}") from exc
    return from_json_doc(doc)


def to_json_doc(c: Circuit) -> dict:
    if isinstance(c.input, BasisInput):
        inp = {"kind": "basis", "bits": "".join(str(b) for b in c.input.bits)}
    else:
        inp = {
            "kind": "product",
            "qubits": [{"theta": t, "phi": p} for t, p in c.input.angles],
        }
    layers = []
    for lay in c.layers:
        if isinstance(lay, CliffordLayer):
            layers.append(
                {"kind": "clifford", "gate": lay.gate, "qubits": list(lay.qubits)}
            )
        elif isinstance(lay, MatchgateLayer):
            layers.append(
                {
                    "kind": "matchgate",
                    "qubit": lay.qubit,
                    "coeffs": dict(zip(COEFF_KEYS, lay.coeffs)),
                }
            )
        elif isinstance(lay, LinearLayer):
            layers.append({"kind": "linear", "b": list(lay.b)})
        else:
            h = lay.h_matrix()
            ents = [
                {"i": i, "j": j, "v": float(h[i, j])}
                for i in range(h.shape[0])
                for j in range(i + 1, h.shape[1])
                if h[i, j] != 0.0
            ]
            layers.append({"kind": "quadratic", "h": ents})
    return {"n": c.n, "input": inp, "structure": c.structure, "layers": layers}


def save(c: Circuit, path):
    with open(path, "w") as fh:
        json.dump(to_json_doc(c), fh, indent=2)
        fh.write("\n")
