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
from .linalg import NotAntisymmetric, check_antisymmetric
from .tableau import CliffordTableau

STRUCTURES = ("conjugated", "post_clifford", "free")
COEFF_KEYS = ("a0", "a1", "b1", "b2", "d1", "d2")


class CircuitParseError(ValueError):
    pass


@dataclass(frozen=True)
class BasisInput:
    bits: tuple

    def __post_init__(self):
        if not set(self.bits) <= {0, 1}:
            raise CircuitParseError(f"basis bits must be 0 or 1, got {self.bits!r}")
        object.__setattr__(self, "bits", tuple(map(int, self.bits)))

    @property
    def n(self) -> int:
        return len(self.bits)

    def bloch(self) -> np.ndarray:
        """(n, 3) Bloch vectors (x, y, z): bit b is (0, 0, 1 - 2b)."""
        vectors = np.zeros((self.n, 3))
        vectors[:, 2] = 1.0 - 2.0 * np.array(self.bits, dtype=float)
        return vectors


@dataclass(frozen=True)
class ProductInput:
    angles: tuple  # (theta, phi) per qubit, radians

    def __post_init__(self):
        try:
            angles = np.array(self.angles, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CircuitParseError(f"bad product angles: {exc}") from exc
        if angles.ndim != 2 or angles.shape[1] != 2:
            raise CircuitParseError("product input needs one (theta, phi) pair per qubit")
        if not np.isfinite(angles).all():
            raise CircuitParseError("product input angles must be finite")
        object.__setattr__(self, "angles", tuple(map(tuple, angles.tolist())))

    @property
    def n(self) -> int:
        return len(self.angles)

    def bloch(self) -> np.ndarray:
        """(n, 3) Bloch vectors (sin theta cos phi, sin theta sin phi,
        cos theta) of cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
        theta, phi = np.array(self.angles).T
        sin = np.sin(theta)
        return np.stack([sin * np.cos(phi), sin * np.sin(phi), np.cos(theta)], axis=1)


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


@dataclass(frozen=True, eq=False)
class QuadraticLayer:
    """exp(-i H), H = i sum_jk h_jk c_j c_k, h real antisymmetric.

    h is kept once, as a read-only float copy of the rows it is given, so
    the caller's array stays writeable.  The copy passes
    linalg.check_antisymmetric, so it is exactly antisymmetric, and so is
    every generator built from it.  Layers compare by value, and the hash,
    taken once, is that of h's bytes with every -0.0 made 0.0, so that
    equal layers hash alike."""

    h: np.ndarray  # 2n x 2n

    def __post_init__(self):
        try:
            h = check_antisymmetric(np.array(self.h, dtype=float))
        except NotAntisymmetric as exc:  # a NaN entry fails it too
            raise CircuitParseError("quadratic layer matrix must be antisymmetric") from exc
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "_hash", hash((h.shape, (h + 0.0).tobytes())))

    def __eq__(self, other):
        if not isinstance(other, QuadraticLayer):
            return NotImplemented
        return bool(np.array_equal(self.h, other.h))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Circuit:
    n: int
    input: object
    layers: tuple
    structure: str = "free"

    def __post_init__(self):
        if self.n < 1:
            raise CircuitParseError(f"a circuit needs at least one qubit, got n = {self.n}")
        if self.structure not in STRUCTURES:
            raise CircuitParseError(f"unknown structure {self.structure!r}")
        if self.input.n != self.n:
            raise CircuitParseError("input size does not match n")
        for lay in self.layers:
            _check_layer(lay, self.n)
        # the split and block tableaux that validation builds are kept for
        # compile and classify, which would otherwise rebuild them
        leading, body, trailing = _split_blocks(self.layers, self.structure)
        conj = post = None
        if self.structure == "conjugated":
            conj = clifford_block_tableau(self.n, leading)
            post = clifford_block_tableau(self.n, trailing)
            if tableau.compose(post, conj) != CliffordTableau.identity(self.n):
                raise CircuitParseError(
                    "conjugated circuits need the trailing Clifford block to invert "
                    "the leading one"
                )
        elif self.structure == "post_clifford":
            post = clifford_block_tableau(self.n, trailing)
        object.__setattr__(self, "_blocks", (leading, body, trailing))
        object.__setattr__(self, "_conj", conj)
        object.__setattr__(self, "_post", post)
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
        return self._blocks

    def conjugation_tableau(self) -> CliffordTableau:
        """Tableau of the leading Clifford block (the identity when there
        is none)."""
        if self._conj is None:
            return CliffordTableau.identity(self.n)
        return self._conj

    def post_tableau(self) -> CliffordTableau:
        """Tableau of the trailing Clifford block (the identity when there
        is none)."""
        if self._post is None:
            return CliffordTableau.identity(self.n)
        return self._post

    def body_layers(self) -> tuple:
        return self._blocks[1]

    def has_linear(self) -> bool:
        return any(isinstance(l, LinearLayer) for l in self.layers)


def clifford_block_tableau(n: int, layers) -> CliffordTableau:
    gates = [(l.gate, *l.qubits) for l in layers]
    return tableau.from_gates(n, gates)


def _split_blocks(layers, structure: str) -> tuple:
    """(leading Clifford layers, body layers, trailing Clifford layers)
    per the declared structure, or CircuitParseError."""
    lays = list(layers)
    is_cl = [isinstance(l, CliffordLayer) for l in lays]
    if structure == "free":
        if any(is_cl):
            raise CircuitParseError("free circuits admit no Clifford layers")
        return (), tuple(lays), ()
    if structure == "post_clifford":
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
    return tuple(lays[:lead]), tuple(lays[lead:cut]), tuple(lays[cut:])


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
        if lay.h.shape != (2 * n, 2 * n):
            raise CircuitParseError("quadratic layer needs a 2n x 2n matrix")
    else:
        raise CircuitParseError(f"unknown layer {lay!r}")


# -- JSON format -------------------------------------------------------


def _index(value, what: str) -> int:
    """value if it is a JSON integer; a float such as 1.7, a bool or a
    string is refused, never truncated."""
    if type(value) is not int:
        raise CircuitParseError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """value as a float if it is a JSON number, NaN and infinities
    included; a string or a bool is refused, never coerced."""
    if type(value) not in (int, float):
        raise CircuitParseError(f"{what} must be a number, got {value!r}")
    return float(value)


def _input_from_json(doc, n):
    if not isinstance(doc, dict):
        raise CircuitParseError(f"input must be a JSON object, got {doc!r}")
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
        return ProductInput(
            tuple((_number(q["theta"], "product theta"), _number(q["phi"], "product phi")) for q in qs)
        )
    raise CircuitParseError(f"unknown input kind {kind!r}")


def _layer_from_json(doc, n):
    if not isinstance(doc, dict):
        raise CircuitParseError(f"layer must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "clifford":
        return CliffordLayer(doc["gate"], tuple(_index(q, "clifford qubit") for q in doc["qubits"]))
    if kind == "matchgate":
        coeffs = doc["coeffs"]
        return MatchgateLayer(
            _index(doc["qubit"], "matchgate qubit"),
            tuple(_number(coeffs[k], f"matchgate coefficient {k}") for k in COEFF_KEYS),
        )
    if kind == "linear":
        b = doc["b"]
        if not isinstance(b, list):
            raise CircuitParseError(f"linear layer b must be an array, got {b!r}")
        return LinearLayer(tuple(_number(v, "linear coefficient") for v in b))
    if kind == "quadratic":
        h = np.zeros((2 * n, 2 * n))
        pairs = set()
        for ent in doc["h"]:
            i, j = (_index(ent[k], f"quadratic entry {k}") for k in "ij")
            v = _number(ent["v"], "quadratic entry v")
            if not (0 <= i < 2 * n and 0 <= j < 2 * n):
                raise CircuitParseError(f"quadratic entry ({i}, {j}) out of range for 2n = {2 * n}")
            if i == j:
                raise CircuitParseError(f"quadratic entry ({i}, {j}) is on the diagonal")
            pair = (min(i, j), max(i, j))
            if pair in pairs:
                raise CircuitParseError(f"quadratic entry ({i}, {j}) repeats the pair {pair}")
            pairs.add(pair)
            h[i, j] = v
            h[j, i] = -v
        return QuadraticLayer(h)
    raise CircuitParseError(f"unknown layer kind {kind!r}")


def from_json_doc(doc) -> Circuit:
    try:
        n = _index(doc["n"], "n")
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
            h = lay.h
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
