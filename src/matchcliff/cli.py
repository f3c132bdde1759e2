"""Command-line surface.

Subcommands: expect, marginal, classify (a circuit file or --encoding),
oracle-check.  Output is key=value lines (or one JSON object with
--json).  main alone maps an error to its exit code and one error= line:
1 for an input error (a malformed command line or file, a fractional
index, a circuit whose evolution is not finite, an out-of-range --d-max,
a --queries below 1 or a --tolerance that is negative or not finite), 2
for a query that the circuit's grants refuse (such as any expectation on
a conjugated circuit with a linear layer, or an oracle-check whose every
sampled query is refused).  oracle-check
prints its record and exits 3 when an answer deviates from the dense
oracle by more than --tolerance.  The printed class and expect's
method= are read from the grants that compile decided.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import circuits, encodings, oracle, simulator
from .gaussian import MarginalQuery
from .pauli import PauliString

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_CHECK_FAILED = 3  # oracle-check: an answer deviates from the oracle


def _emit(pairs: dict, as_json: bool):
    if as_json:
        print(json.dumps(pairs))
    else:
        for k, v in pairs.items():
            print(f"{k}={v}")


def _fail(msg: str, code: int) -> int:
    print(f"error={msg}", file=sys.stderr)
    return code


def _class_string(c) -> str:
    return ",".join(sorted(simulator.classify_circuit(c).flags))


def cmd_expect(args) -> int:
    circ = circuits.load(args.file)
    p = PauliString.from_string(args.pauli)
    if p.n != circ.n:
        raise circuits.CircuitParseError(
            f"pauli has {p.n} letters, circuit has {circ.n} qubits"
        )
    val = simulator.run_expectation(circ, p, d_max=args.d_max)
    _emit(
        {
            "value": val,
            "method": simulator.classify_circuit(circ).expectation_method(circ.input),
            "class": _class_string(circ),
        },
        args.json,
    )
    return EXIT_OK


def cmd_marginal(args) -> int:
    circ = circuits.load(args.file)
    qubits = tuple(int(tok) for tok in args.qubits.split(",")) if args.qubits else ()
    bits = tuple(int(ch) for ch in args.bits)
    val = simulator.run_marginal(circ, MarginalQuery(qubits, bits))
    _emit({"probability": val, "class": _class_string(circ)}, args.json)
    return EXIT_OK


def _classify_encoding_fixture(path, as_json: bool) -> int:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    majoranas = tuple(PauliString.from_string(ln) for ln in lines)
    enc = encodings.Encoding(majoranas)
    violations = encodings.validate(enc)
    if violations:
        _emit({"valid": False, "violations": "; ".join(violations)}, as_json)
        return EXIT_INPUT
    try:
        mat = encodings.encoding_matrix(enc)
        rec = encodings.recover_cz_swap_circuit(mat)
    except (encodings.NotCzSwapFamily, encodings.MalformedPairing):
        _emit({"valid": True, "family": "general (not CZ+SWAP)"}, as_json)
        return EXIT_OK
    gate_text = " ".join(f"{g[0]}({g[1]},{g[2]})" for g in rec.gates) or "identity"
    _emit(
        {
            "valid": True,
            "family": "CZ+SWAP",
            "circuit": gate_text,
            "mode_order": ",".join(str(i) for i in rec.mode_order),
        },
        as_json,
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.encoding is not None:
        return _classify_encoding_fixture(args.encoding, args.json)
    circ = circuits.load(args.file)
    _emit({"structure": circ.structure, "class": _class_string(circ)}, args.json)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.queries < 1:
        raise ValueError(f"--queries must be at least 1, got {args.queries}")
    if not 0.0 <= args.tolerance < np.inf:
        raise ValueError(f"--tolerance must be finite and at least 0, got {args.tolerance}")
    circ = circuits.load(args.file)
    if circ.n > oracle.SIZE_CAP:
        raise circuits.CircuitParseError(
            f"n = {circ.n} exceeds the dense-oracle cap {oracle.SIZE_CAP}"
        )
    # compile first, so that the simulator's own refusal of the circuit
    # is reported rather than the dense state's
    simulator.compile_circuit(circ)
    ref = oracle.apply_circuit(circ)
    rng = np.random.default_rng(args.seed)
    max_dev = 0.0
    checked = 0
    letters = "IXYZ"
    for _ in range(args.queries):
        if rng.integers(2) == 0:
            # Pauli expectation query
            s = "".join(letters[rng.integers(4)] for _ in range(circ.n))
            p = PauliString.from_string(s)
            try:
                got = simulator.run_expectation(circ, p)
            except simulator.UnsupportedQuery:
                continue
            want = oracle.expectation(ref, p).real
        else:
            k = int(rng.integers(1, circ.n + 1))
            qubits = tuple(int(x) for x in rng.choice(circ.n, size=k, replace=False))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
            try:
                got = simulator.run_marginal(circ, MarginalQuery(qubits, bits))
            except simulator.UnsupportedQuery:
                continue
            want = oracle.marginal(ref, qubits, bits)
        checked += 1
        # np.maximum keeps a NaN deviation, which then fails the check
        max_dev = np.maximum(max_dev, abs(got - want))
    if checked == 0:
        raise simulator.UnsupportedQuery(
            f"the circuit's grants refuse all {args.queries} sampled queries"
        )
    ok = max_dev <= args.tolerance
    _emit(
        {
            "queries_checked": checked,
            "max_deviation": float(max_dev),
            "status": "pass" if ok else "fail",
        },
        args.json,
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an input error, reported by main."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="matchcliff",
        description="Simulate Clifford-conjugated free-fermion circuits.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="Pauli expectation value")
    p.add_argument("file")
    p.add_argument("--pauli", required=True)
    p.add_argument("--d-max", type=int, default=simulator.D_MAX_DEFAULT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("marginal", help="bitstring marginal probability")
    p.add_argument("file")
    p.add_argument("--qubits", required=True, help="comma-separated 0-based")
    p.add_argument("--bits", required=True, help="e.g. 010")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("classify", help="simulability class / encoding family")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("file", nargs="?")
    source.add_argument("--encoding", help="fixture: one Pauli string per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("oracle-check", help="cross-check against dense simulation")
    p.add_argument("file")
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle_check)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except simulator.UnsupportedQuery as exc:
        return _fail(str(exc), EXIT_UNSUPPORTED)
    except (ValueError, IndexError, OSError) as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
