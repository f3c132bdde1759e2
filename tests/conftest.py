"""Shared builders for randomized circuit tests."""
import numpy as np
import pytest

from matchcliff.circuits import (
    BasisInput,
    Circuit,
    CliffordLayer,
    LinearLayer,
    MatchgateLayer,
    ProductInput,
    QuadraticLayer,
)

FIXTURES = "fixtures"

ONE_QUBIT_GATES = ("H", "S")
TWO_QUBIT_GATES = ("CNOT", "CZ", "SWAP")


def random_basis_input(rng, n):
    return BasisInput(tuple(int(b) for b in rng.integers(0, 2, size=n)))


def random_product_input(rng, n):
    return ProductInput(
        tuple((float(t), float(p)) for t, p in rng.normal(size=(n, 2)))
    )


def random_matchgate_layers(rng, n, count, scale=0.6):
    return [
        MatchgateLayer(int(rng.integers(n - 1)), tuple(rng.normal(size=6) * scale))
        for _ in range(count)
    ]


def dense_matchgate_rotation(lay, n):
    """(2n+2) x (2n+2) rotation of a matchgate layer: its 4x4 generator
    embedded at Majorana 2k+2, exponentiated at full order, where
    expm_antisymmetric takes its Taylor kernel rather than the so(4)
    closed form that compile uses."""
    from matchcliff.linalg import expm_antisymmetric
    from matchcliff.simulator import matchgate_generator

    offset = 2 * lay.qubit + 2
    h = np.zeros((2 * n + 2, 2 * n + 2))
    h[offset : offset + 4, offset : offset + 4] = matchgate_generator(lay.coeffs)
    return expm_antisymmetric(h)


def random_linear_layer(rng, n, scale=0.4):
    return LinearLayer(tuple(rng.normal(size=2 * n) * scale))


def random_quadratic_layer(rng, n, scale=0.3):
    h = rng.normal(size=(2 * n, 2 * n)) * scale
    h = h - h.T
    return QuadraticLayer(tuple(map(tuple, h)))


def random_clifford_gates(rng, n, count, names=None):
    """List of CliffordLayer drawn from the given gate names."""
    if names is None:
        names = ONE_QUBIT_GATES + TWO_QUBIT_GATES
    out = []
    for _ in range(count):
        name = names[rng.integers(len(names))]
        if name in ONE_QUBIT_GATES:
            out.append(CliffordLayer(name, (int(rng.integers(n)),)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            out.append(CliffordLayer(name, (int(a), int(b))))
    return out


def invert_clifford_gates(gates):
    """Gate-by-gate inverse of a CliffordLayer list."""
    out = []
    for g in reversed(gates):
        if g.gate == "S":
            out.extend([g, g, g])
        else:
            out.append(g)
    return out


def conjugated_circuit(rng, n, inp, conj_gates, body_count=3):
    lead = list(conj_gates)
    trail = invert_clifford_gates(lead)
    body = random_matchgate_layers(rng, n, body_count)
    return Circuit(n, inp, tuple(lead + body + trail), "conjugated")


def random_pauli_string(rng, n):
    from matchcliff.pauli import PauliString

    letters = "IXYZ"
    return PauliString.from_string(
        "".join(letters[rng.integers(4)] for _ in range(n))
    )


def _route_circuits(n, seed):
    """One circuit per query route of the Clifford hierarchy at size n:
    a matchgate body after a product input (post-Clifford, SWAP) or a
    basis input (CZ+SWAP, permutation, general), with its Clifford
    blocks drawn so that the gate set fixes the class.  SWAPs only; SWAPs
    then CZs on distinct pairs; a CNOT between a SWAP/CZ word and its
    reverse (a Z image of weight two); a leading Hadamard (an X in a Z
    image)."""
    from matchcliff.tableau import CliffordClass, classify

    rng = np.random.default_rng([seed, n])
    product = random_product_input(rng, n)
    body = random_matchgate_layers(rng, n, 2 * n)
    trail = random_clifford_gates(rng, n, 2 * n)
    circuits = {"post_clifford": Circuit(n, product, tuple(body + trail), "post_clifford")}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    czs = [CliffordLayer("CZ", pairs[int(k)]) for k in rng.permutation(len(pairs))[: max(1, n // 2)]]
    swaps = random_clifford_gates(rng, n, n, ("SWAP",))
    mixed = random_clifford_gates(rng, n, n, ("SWAP", "CZ"))
    leads = {
        CliffordClass.SWAP_ONLY: (product, swaps),
        CliffordClass.CZ_SWAP: (random_basis_input(rng, n), swaps + czs),
        CliffordClass.PERMUTATION: (
            random_basis_input(rng, n),
            mixed + [CliffordLayer("CNOT", (0, 1))] + mixed[::-1],
        ),
        CliffordClass.GENERAL: (
            random_basis_input(rng, n),
            [CliffordLayer("H", (0,))] + random_clifford_gates(rng, n, n, TWO_QUBIT_GATES),
        ),
    }
    for cls, (inp, lead) in leads.items():
        c = conjugated_circuit(rng, n, inp, lead, body_count=2 * n)
        assert classify(c.conjugation_tableau()) == cls, (cls, n, seed)
        circuits[cls] = c
    return circuits


@pytest.fixture
def route_circuits():
    """Builder of one circuit per Clifford-hierarchy route for (n, seed),
    n >= 2: keys "post_clifford" and each conjugated CliffordClass."""
    return _route_circuits
