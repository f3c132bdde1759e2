"""The benchmark's workloads.

Each workload builds its inputs from the seed, sets up (timed, repeated
by the runner), then runs ops that all follow one fixed recipe.  A
workload object has:

  setup()          build the program's inputs, precompile, warm up
  prepare(i)       untimed: the inputs of op i, from (seed, i) alone
  op(inp)          timed: the program calls of one op; returns answers
  check(inp, ans)  untimed: list of errors against the benchmark's own
                   reference
  final_check()    untimed, after the timed loop: extra checks that
                   call the program again
"""
from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

import reference as ref

from matchcliff import cli, simulator
from matchcliff.circuits import (
    BasisInput,
    Circuit,
    CliffordLayer,
    MatchgateLayer,
    ProductInput,
    QuadraticLayer,
)
from matchcliff.gaussian import MarginalQuery
from matchcliff.pauli import PauliString

COEFF_KEYS = ("a0", "a1", "b1", "b2", "d1", "d2")
SETUP = 1 << 20  # op index of the inputs set-up warms up on

ABS_TOL = 1e-8  # dense-reference agreement
REL_TOL = 1e-6  # covariance-formula agreement of large marginals


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


# -- shared input makers ------------------------------------------------


def random_body(rng, n: int, count: int) -> list:
    return [
        ("matchgate", int(rng.integers(n - 1)), tuple(float(v) for v in rng.normal(size=6) * 0.6))
        for _ in range(count)
    ]


def random_bits(rng, n: int) -> tuple:
    return tuple(int(b) for b in rng.integers(0, 2, size=n))


def random_angles(rng, n: int) -> tuple:
    return tuple(
        (float(t), float(p))
        for t, p in zip(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))
    )


def random_cliffords(rng, n: int, count: int, names) -> list:
    out = []
    for _ in range(count):
        name = names[int(rng.integers(len(names)))]
        if name in ("H", "S"):
            out.append(("clifford", name, (int(rng.integers(n)),)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            out.append(("clifford", name, (int(a), int(b))))
    return out


def inverse_cliffords(gates) -> list:
    out = []
    for g in reversed(gates):
        out.extend([g] * (3 if g[1] == "S" else 1))  # S^dag = S^3
    return out


def initial_state(inp):
    return ref.basis_state(inp[1]) if inp[0] == "basis" else ref.product_state(inp[1])


def program_circuit(n: int, inp, layers, structure: str) -> Circuit:
    pin = BasisInput(inp[1]) if inp[0] == "basis" else ProductInput(inp[1])
    lays = tuple(
        MatchgateLayer(lay[1], lay[2]) if lay[0] == "matchgate" else CliffordLayer(lay[1], lay[2])
        for lay in layers
    )
    return Circuit(n, pin, lays, structure)


def write_free_circuit(path, n: int, inp, body):
    """A `free` circuit file in the documented JSON format."""
    if inp[0] == "basis":
        doc_in = {"kind": "basis", "bits": "".join(str(b) for b in inp[1])}
    else:
        doc_in = {"kind": "product", "qubits": [{"theta": t, "phi": p} for t, p in inp[1]]}
    layers = [
        {"kind": "matchgate", "qubit": k, "coeffs": dict(zip(COEFF_KEYS, coeffs))}
        for _, k, coeffs in body
    ]
    with open(path, "w") as fh:
        json.dump({"n": n, "input": doc_in, "structure": "free", "layers": layers}, fh)


def close(got, want, what: str, errors: list):
    if not np.isfinite(got) or abs(got - want) > ABS_TOL:
        errors.append(f"{what}: got {got!r}, reference {want!r}")


# -- fresh_circuits ---------------------------------------------------


class FreshCircuits:
    """Every op is a circuit never seen before: a random nearest-neighbour
    matchgate body of 2n gates written as two `free` files (basis input,
    standard frame; product input, extended frame), each asked one
    `expect` and one `marginal` through `cli.main`."""

    N = 6
    GATES = 2 * N
    MARGINAL_QUBITS = N // 2

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.paths = (str(workdir / "basis.json"), str(workdir / "product.json"))

    def prepare(self, i: int) -> dict:
        rng = op_rng(self.seed, i)
        n = self.N
        body = random_body(rng, n, self.GATES)
        inputs = (("basis", random_bits(rng, n)), ("product", random_angles(rng, n)))
        for path, inp in zip(self.paths, inputs):
            write_free_circuit(path, n, inp, body)
        pair = sorted(int(j) for j in rng.choice(2 * n, size=2, replace=False))
        qubits = tuple(int(q) for q in rng.choice(n, size=self.MARGINAL_QUBITS, replace=False))
        return {
            "body": body,
            "inputs": inputs,
            "pauli": ref.hermitian_majorana_string(n, pair),
            "qubits": qubits,
            "bits": random_bits(rng, len(qubits)),
        }

    def op(self, inp: dict) -> list:
        qubits = ",".join(str(q) for q in inp["qubits"])
        bits = "".join(str(b) for b in inp["bits"])
        answers = []
        for path in self.paths:
            for argv in (
                ["expect", path, f"--pauli={inp['pauli']}", "--json"],
                ["marginal", path, "--qubits", qubits, "--bits", bits, "--json"],
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                answers.append((code, out.getvalue()))
        return answers

    def setup(self):
        self.op(self.prepare(SETUP))

    def check(self, inp: dict, answers: list) -> list:
        errors = []
        for k, file_input in enumerate(inp["inputs"]):
            psi = ref.run_layers(initial_state(file_input), inp["body"])
            wants = (
                ("value", ref.expectation(psi, inp["pauli"])),
                ("probability", ref.marginal(psi, inp["qubits"], inp["bits"])),
            )
            for (code, text), (key, want) in zip(answers[2 * k : 2 * k + 2], wants):
                if code != 0:
                    errors.append(f"{file_input[0]} {key}: exit code {code}")
                    continue
                close(float(json.loads(text)[key]), want, f"{file_input[0]} {key}", errors)
        return errors

    def final_check(self) -> list:
        return []


# -- large_readout ------------------------------------------------------


class LargeReadout:
    """Deep questioning of a few large Gaussian states: each is a basis
    input and one dense random quadratic layer, compiled in set-up.  Each
    op asks one marginal over MARGINAL_QUBITS qubits and one Pauli
    expectation of Majorana degree DEGREE."""

    N = 192
    STATES = 3
    MARGINAL_QUBITS = 3 * N // 4
    DEGREE = 4
    SCALE = 0.15  # generator entries ~ SCALE / sqrt(n): states stay near their input
    FLIP = 0.05  # chance a queried bit is the less likely outcome
    CHAIN_RULE_OPS = 2
    DENSE_N = 4  # covariance construction checked on a dense state of this size

    def __init__(self, seed: int, workdir):
        self.seed = seed
        n = self.N
        self.specs = []
        self.gammas = []
        for s in range(self.STATES):
            rng = np.random.default_rng([seed, SETUP, s])
            bits = random_bits(rng, n)
            h = rng.normal(size=(2 * n, 2 * n)) * (self.SCALE / np.sqrt(n))
            h = h - h.T
            self.specs.append((bits, h))
            self.gammas.append(ref.evolved_covariance(bits, h))
        self.checked = []  # first ops' queries, for the chain-rule check

    def setup(self):
        self.circuits = []
        for bits, h in self.specs:
            c = Circuit(self.N, BasisInput(bits), (QuadraticLayer(tuple(map(tuple, h))),), "free")
            self.circuits.append(c)
            simulator.compile_circuit(c)
        for s in range(self.STATES):
            self.op(self.prepare(SETUP + s))

    def prepare(self, i: int) -> dict:
        rng = op_rng(self.seed, i)
        s = i % self.STATES
        gamma = self.gammas[s]
        qubits = tuple(
            sorted(int(q) for q in rng.choice(self.N, size=self.MARGINAL_QUBITS, replace=False))
        )
        likely = [int(gamma[2 * q, 2 * q + 1] < 0) for q in qubits]
        flips = rng.random(len(qubits)) < self.FLIP
        majoranas = tuple(sorted(int(j) for j in rng.choice(2 * self.N, size=self.DEGREE, replace=False)))
        text = ref.hermitian_majorana_string(self.N, majoranas)
        return {
            "state": s,
            "qubits": qubits,
            "bits": tuple(b ^ int(f) for b, f in zip(likely, flips)),
            "majoranas": majoranas,
            "pauli": PauliString.from_string(text),
            "extra": int(rng.choice(sorted(set(range(self.N)) - set(qubits)))),
        }

    def op(self, inp: dict) -> tuple:
        c = self.circuits[inp["state"]]
        prob = simulator.run_marginal(c, MarginalQuery(inp["qubits"], inp["bits"]))
        value = simulator.run_expectation(c, inp["pauli"])
        return prob, value

    def check(self, inp: dict, answers: tuple) -> list:
        prob, value = answers
        gamma = self.gammas[inp["state"]]
        errors = []
        if len(self.checked) < self.CHAIN_RULE_OPS:
            self.checked.append((inp, prob))
        want = ref.marginal_from_covariance(gamma, inp["qubits"], inp["bits"])
        if not 0.0 <= prob <= 1.0 or abs(prob - want) > REL_TOL * want:
            errors.append(f"marginal {prob!r}, covariance formula {want!r}")
        if not isinstance(value, float) or not np.isfinite(value):
            errors.append(f"expectation {value!r} is not a finite real number")
        else:
            want = ref.squared_expectation_from_covariance(gamma, inp["majoranas"])
            if abs(value**2 - want) > ABS_TOL:
                errors.append(f"|<P>|^2 = {value**2!r}, det(Gamma_I) = {want!r}")
        return errors

    def final_check(self) -> list:
        errors = self.dense_construction_errors(self.seed)
        for inp, prob in self.checked:
            c = self.circuits[inp["state"]]
            q = inp["extra"]
            split = [
                simulator.run_marginal(c, MarginalQuery(inp["qubits"] + (q,), inp["bits"] + (b,)))
                for b in (0, 1)
            ]
            if abs(sum(split) - prob) > REL_TOL * prob:
                errors.append(f"chain rule: p(S) = {prob!r}, p(S,0) + p(S,1) = {sum(split)!r}")
        return errors

    @classmethod
    def dense_construction_errors(cls, seed: int) -> list:
        """The covariance formula against the dense state at DENSE_N."""
        n = cls.DENSE_N
        rng = np.random.default_rng([seed, SETUP, cls.STATES])
        bits = random_bits(rng, n)
        h = rng.normal(size=(2 * n, 2 * n)) * cls.SCALE
        h = h - h.T
        psi = ref.quadratic_unitary(h) @ ref.basis_state(bits).reshape(-1)
        dev = np.max(np.abs(ref.dense_covariance(psi.reshape((2,) * n)) - ref.evolved_covariance(bits, h)))
        return [] if dev < ABS_TOL else [f"covariance construction off by {dev:.3e} at n={n}"]


# -- clifford_routes ----------------------------------------------------

ROUTES = ("post_clifford", "swap_product", "cz_swap_basis", "permutation", "restricted")


class CliffordRoutes:
    """The Clifford hierarchy at a size the dense reference checks.  One
    circuit per route is compiled in set-up; each op is a fixed bundle of
    granted queries, COUNTS[route] of each."""

    N = 8
    BODY = N  # matchgates per circuit body
    RESTRICTED_BODY = N // 2  # the restricted sum redoes its body and blocks per query
    CLIFFORDS = N  # gates per Clifford block
    MARGINAL_QUBITS = N // 2
    DEGREE = 2  # Majorana degree of the restricted queries
    COUNTS = {
        "post_clifford": 4,
        "swap_product": 40,
        "cz_swap_basis": 20,
        "permutation": 20,
        "restricted": 1,
    }

    def __init__(self, seed: int, workdir):
        self.seed = seed
        n = self.N
        rng = np.random.default_rng([seed, SETUP])
        product = ("product", random_angles(rng, n))
        self.specs = {}
        # post-Clifford: body, then one block of arbitrary Cliffords
        body = random_body(rng, n, self.BODY)
        trail = random_cliffords(rng, n, self.CLIFFORDS, ("H", "S", "CNOT", "CZ", "SWAP"))
        self.specs["post_clifford"] = (product, body + trail, "post_clifford", None)
        # conjugated classes, each guaranteed by its gate set: SWAPs only;
        # SWAPs then distinct CZs; a CNOT among SWAPs and CZs (a Z image of
        # weight two); leading Hadamards (an X in a Z image).  Gate counts
        # do not depend on the seed, so neither does the cost of an op.
        swaps = random_cliffords(rng, n, self.CLIFFORDS, ("SWAP",))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        czs = [("clifford", "CZ", pairs[int(k)]) for k in rng.choice(len(pairs), size=n // 2, replace=False)]
        mixed = random_cliffords(rng, n, self.CLIFFORDS, ("SWAP", "CZ"))
        hadamards = [("clifford", "H", (0,)), ("clifford", "H", (n // 2,))]
        blocks = {
            "swap_product": (product, swaps),
            "cz_swap_basis": (("basis", random_bits(rng, n)), swaps[: n // 2] + czs),
            "permutation": (
                ("basis", random_bits(rng, n)),
                mixed + [("clifford", "CNOT", (0, 1))] + mixed[::-1],
            ),
            "restricted": (
                ("basis", random_bits(rng, n)),
                hadamards + random_cliffords(rng, n, n // 2, ("CNOT", "CZ", "SWAP")),
            ),
        }
        for route, (inp, lead) in blocks.items():
            body = random_body(rng, n, self.RESTRICTED_BODY if route == "restricted" else self.BODY)
            layers = lead + body + inverse_cliffords(lead)
            self.specs[route] = (inp, layers, "conjugated", lead)
        self.states = {
            route: ref.run_layers(initial_state(inp), layers)
            for route, (inp, layers, _, _) in self.specs.items()
        }
        lead = self.specs["restricted"][3]
        self.lead_unitary = ref.clifford_unitary(n, [(g[1], g[2]) for g in lead])
        self.route_seconds = dict.fromkeys(ROUTES, 0.0)

    def setup(self):
        self.circuits = {
            route: program_circuit(self.N, inp, layers, structure)
            for route, (inp, layers, structure, _) in self.specs.items()
        }
        for c in self.circuits.values():
            simulator.compile_circuit(c)
        warm = self.prepare(SETUP)
        for route in ROUTES:
            self._ask(route, warm[route][0])

    def _restricted_query(self, rng) -> str:
        """P with L P L^dag a Majorana monomial of degree DEGREE, L the
        leading Clifford block, so the restricted sum has that degree."""
        n = self.N
        idx = sorted(int(j) for j in rng.choice(2 * n, size=self.DEGREE, replace=False))
        m = ref.pauli_matrix(ref.hermitian_majorana_string(n, idx))
        u = self.lead_unitary
        return ref.pauli_from_matrix(n, u.conj().T @ m @ u)

    def prepare(self, i: int) -> dict:
        rng = op_rng(self.seed, i)
        n = self.N
        queries = {}
        for route in ROUTES:
            batch = []
            for _ in range(self.COUNTS[route]):
                if route == "post_clifford":
                    text = "".join("IXYZ"[int(v)] for v in rng.integers(4, size=n))
                    batch.append(("expect", text))
                elif route == "restricted":
                    batch.append(("expect", self._restricted_query(rng)))
                else:
                    k = n if route == "permutation" else self.MARGINAL_QUBITS
                    qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
                    batch.append(("marginal", qubits, random_bits(rng, k)))
            queries[route] = batch
        return queries

    def _ask(self, route: str, query):
        c = self.circuits[route]
        if query[0] == "expect":
            return simulator.run_expectation(c, PauliString.from_string(query[1]))
        return simulator.run_marginal(c, MarginalQuery(query[1], query[2]))

    def op(self, queries: dict) -> dict:
        answers = {}
        clock = time.perf_counter
        for route in ROUTES:
            t0 = clock()
            answers[route] = [self._ask(route, q) for q in queries[route]]
            self.route_seconds[route] += clock() - t0
        return answers

    def check(self, queries: dict, answers: dict) -> list:
        errors = []
        for route in ROUTES:
            psi = self.states[route]
            for q, got in zip(queries[route], answers[route]):
                if q[0] == "expect":
                    want = ref.expectation(psi, q[1])
                else:
                    want = ref.marginal(psi, q[1], q[2])
                close(got, want, f"{route} {q}", errors)
        return errors

    def final_check(self) -> list:
        return []

    def route_shares(self) -> dict:
        total = sum(self.route_seconds.values())
        return {r: t / total for r, t in self.route_seconds.items()} if total else {}


WORKLOADS = {
    "fresh_circuits": FreshCircuits,
    "large_readout": LargeReadout,
    "clifford_routes": CliffordRoutes,
}
