"""Compare the compiled bodies, answers and refusals of two source trees.

Seeded, so two runs on the same tree print the same record.  Run it once
with each tree's `src` on PYTHONPATH, then compare the two records:

    PYTHONPATH=<old>/src python tools/compare_compile.py dump old.pkl
    PYTHONPATH=src python tools/compare_compile.py dump new.pkl
    python tools/compare_compile.py diff old.pkl new.pkl

A record dumped to a .json path is written as JSON without the bodies;
fixtures/answer_record.json is one, which tests/test_answer_record.py
rebuilds and diffs against.  diff reads either form, and compares the
bodies only when both records hold them.

The record holds
  - the compiled body S of one linear and one quadratic layer at n = 8,
    64 and 256, compared bit for bit;
  - every answer, or the refusal's type and message, of random free,
    post-Clifford and conjugated circuits with linear and quadratic
    layers at n = 2..12, compared to 1e-12;
  - the granted query kinds (classify_circuit) of each such circuit, and
    the outcome of a direct restricted_pauli_expectation of Z on qubit 0;
    a change of grants is listed by structure and linear layer;
  - the refusal's type and message of bodies whose generator is too
    large or not finite, and the CLI's exit code and error line on each;
  - a fixed CLI sweep: every README command, each subcommand on each
    fixture, malformed command lines and input files and a circuit whose
    every query is refused (written to a temporary directory), each
    recorded as (exit code, or the type of the exception or SystemExit
    that escaped, stdout, stderr); diff compares the numbers after
    value=, probability= and max_deviation= to 1e-12 and the rest as
    text, and lists each command whose record changed or is new.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import re
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

SEED = 2108
BODY_SIZES = (8, 64, 256)
CIRCUIT_SIZES = range(2, 13)
CIRCUITS_PER_SIZE = 6
QUERIES_PER_CIRCUIT = 6
ROOT = Path(__file__).resolve().parent.parent
CIRCUIT_FIXTURES = ("free_n3.json", "ghz4.json", "swap_conj_n3.json")
ENCODING_FIXTURES = ("cz_chain_n5.txt", "reorder_equiv.txt", "sierpinski.txt")


def _circuits():
    from matchcliff.circuits import (
        BasisInput,
        CliffordLayer,
        LinearLayer,
        MatchgateLayer,
        ProductInput,
        QuadraticLayer,
    )

    def inputs(rng, n):
        if rng.integers(2):
            return BasisInput(tuple(int(b) for b in rng.integers(0, 2, size=n)))
        return ProductInput(tuple(map(tuple, rng.normal(size=(n, 2)))))

    def body(rng, n):
        layers = [
            MatchgateLayer(int(rng.integers(n - 1)), tuple(rng.normal(size=6) * 0.6))
            for _ in range(n)
        ]
        h = rng.normal(size=(2 * n, 2 * n)) * 0.3
        layers.insert(int(rng.integers(len(layers) + 1)), QuadraticLayer(tuple(map(tuple, h - h.T))))
        if rng.integers(2):
            b = tuple(rng.normal(size=2 * n) * 0.4)
            layers.insert(int(rng.integers(len(layers) + 1)), LinearLayer(b))
        return layers

    def cliffords(rng, n, count):
        out = []
        for _ in range(count):
            name = ("H", "S", "CNOT", "CZ", "SWAP")[rng.integers(5)]
            if name in ("H", "S"):
                out.append(CliffordLayer(name, (int(rng.integers(n)),)))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                out.append(CliffordLayer(name, (int(a), int(b))))
        return out

    def inverse(gates):
        out = []
        for g in reversed(gates):
            out.extend([g, g, g] if g.gate == "S" else [g])
        return out

    rng = np.random.default_rng(SEED)
    for n in CIRCUIT_SIZES:
        for _ in range(CIRCUITS_PER_SIZE):
            inp, lay = inputs(rng, n), body(rng, n)
            yield n, inp, tuple(lay), "free"
            yield n, inputs(rng, n), tuple(body(rng, n) + cliffords(rng, n, 2 * n)), "post_clifford"
            names = (None, ("SWAP",), ("SWAP", "CZ"), ("SWAP", "CZ", "CNOT"))[rng.integers(4)]
            lead = cliffords(rng, n, n)
            if names is not None:
                lead = [g for g in lead if g.gate in names] or [CliffordLayer("SWAP", (0, 1))]
            yield n, inputs(rng, n), tuple(lead + body(rng, n) + inverse(lead)), "conjugated"


def _outcome(fn):
    """("value", x) or ("refused", type name, message)."""
    try:
        return ("value", fn())
    except (ValueError, IndexError, AssertionError) as exc:
        return ("refused", type(exc).__name__, str(exc))


def _refusal_bodies(n):
    from matchcliff.circuits import LinearLayer, MatchgateLayer, QuadraticLayer

    big = np.zeros((2 * n, 2 * n))
    big[0, 1], big[1, 0] = 1e12, -1e12
    return {
        "linear 1e12": (LinearLayer((1e12,) + (0.0,) * (2 * n - 1)),),
        "linear nan": (LinearLayer((float("nan"),) + (0.1,) * (2 * n - 1)),),
        "linear inf": (LinearLayer((0.1, float("inf")) + (0.0,) * (2 * n - 2)),),
        "quadratic 1e12": (QuadraticLayer(tuple(map(tuple, big))),),
        "matchgate 1e5": (MatchgateLayer(0, (0.0, 1e5, 0.0, 0.0, 0.0, 0.0)),),
    }


def _cli(c, argv):
    from matchcliff import circuits, cli

    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(circuits.to_json_doc(c), fh)
        fh.flush()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], fh.name, *argv[1:]])
    return code, err.getvalue()


def _malformed_inputs():
    """File name -> contents of each malformed or wholly refused input of
    the CLI sweep."""
    def layer(lay):
        return {"n": 2, "input": {"kind": "basis", "bits": "00"}, "layers": [lay]}

    def quadratic(*entries):
        return layer({"kind": "quadratic", "h": [{"i": i, "j": j, "v": 0.1} for i, j in entries]})

    coeffs = {"a0": 0.1, "a1": 0.4, "b1": 0.0, "b2": 0.2, "d1": 0.3, "d2": -0.1}
    docs = {
        "quadratic_j9.json": quadratic((0, 9)),
        "quadratic_negative.json": quadratic((-1, 0)),
        "quadratic_diagonal.json": quadratic((2, 2)),
        "quadratic_repeated.json": quadratic((0, 2), (2, 0)),
        "linear_string_b.json": layer({"kind": "linear", "b": "1000"}),
        "matchgate_string_coeff.json": layer(
            {"kind": "matchgate", "qubit": 0, "coeffs": {**coeffs, "a0": "0.5"}}
        ),
        "matchgate_bool_coeff.json": layer(
            {"kind": "matchgate", "qubit": 0, "coeffs": {**coeffs, "a1": True}}
        ),
        "product_string_theta.json": {
            "n": 2,
            "input": {"kind": "product", "qubits": [{"theta": "1.0", "phi": 0.0}] * 2},
            "layers": [],
        },
        "no_n.json": {"input": {"kind": "basis", "bits": "00"}, "layers": []},
        "zero_qubits.json": {"n": 0, "input": {"kind": "basis", "bits": ""}, "layers": []},
        "bits_2.json": {"n": 2, "input": {"kind": "basis", "bits": "20"}, "layers": []},
        "fractional_index.json": {
            "n": 3,
            "input": {"kind": "basis", "bits": "010"},
            "layers": [
                {
                    "kind": "matchgate",
                    "qubit": 1.7,
                    "coeffs": coeffs,
                },
                {"kind": "quadratic", "h": [{"i": 0.9, "j": 2.5, "v": 0.3}]},
            ],
        },
        # a linear layer under a general conjugation: every query refused
        "general_linear.json": {
            "n": 2,
            "input": {"kind": "basis", "bits": "01"},
            "structure": "conjugated",
            "layers": [
                {"kind": "clifford", "gate": "H", "qubits": [0]},
                {"kind": "linear", "b": [0.3, -0.2, 0.1, 0.4]},
                {"kind": "clifford", "gate": "H", "qubits": [0]},
            ],
        },
        "unknown_layer.json": {
            "n": 2,
            "input": {"kind": "basis", "bits": "00"},
            "layers": [{"kind": "mystery"}],
        },
        "input_not_object.json": {"n": 2, "input": "basis", "layers": []},
        "layer_not_object.json": {"n": 2, "input": {"kind": "basis", "bits": "00"}, "layers": [5]},
    }
    files = {name: json.dumps(doc) for name, doc in docs.items()}
    files["invalid.json"] = "{not json"
    files["mixed_lengths.txt"] = "XI\nYI\nZX\nZYZ\n"
    return files


def _cli_commands():
    """Command lines of the CLI sweep, with {tmp} for the directory that
    holds the malformed inputs, run from the repository root."""
    readme = (ROOT / "README.md").read_text()
    commands = [
        line.removeprefix("matchcliff ")
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("matchcliff ")
    ]
    for name in CIRCUIT_FIXTURES:
        path = f"fixtures/{name}"
        n = json.loads((ROOT / path).read_text())["n"]
        commands += [
            f"expect {path} --pauli Z{'I' * (n - 1)}",
            f"marginal {path} --qubits 0 --bits 0",
            f"classify {path}",
            f"oracle-check {path} --queries 20",
        ]
    commands += [f"classify --encoding fixtures/{name}" for name in ENCODING_FIXTURES]
    for name in _malformed_inputs():
        if name.endswith(".txt"):
            commands.append(f"classify --encoding {{tmp}}/{name}")
            continue
        commands += [
            f"expect {{tmp}}/{name} --pauli ZZ",
            f"marginal {{tmp}}/{name} --qubits 0 --bits 0",
            f"classify {{tmp}}/{name}",
            f"oracle-check {{tmp}}/{name}",
        ]
    return commands + [
        "expect fixtures/free_n3.json",
        "expect fixtures/free_n3.json --pauli ZII --d-max x",
        "oracle-check fixtures/free_n3.json --queries 0",
        "oracle-check fixtures/free_n3.json --tolerance nan",
        "oracle-check fixtures/free_n3.json --tolerance=-1",
        "oracle-check fixtures/free_n3.json --tolerance inf",
        "expect {tmp}/no_such_file.json --pauli ZII",
        "simulate fixtures/free_n3.json",
        "classify",
        "classify fixtures/ghz4.json --encoding fixtures/cz_chain_n5.txt",
        "--help",
    ]


def _cli_sweep():
    """Command line -> (exit code or escaped exception, stdout, stderr)."""
    from matchcliff import cli

    record = {}
    cwd = os.getcwd()
    # --help wraps at the terminal's width, so the sweep fixes one
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        for name, text in _malformed_inputs().items():
            Path(tmp, name).write_text(text)
        os.chdir(ROOT)
        try:
            for command in _cli_commands():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(shlex.split(command.format(tmp=tmp)))
                    except SystemExit as exc:
                        code = f"SystemExit({exc.code})"
                    except Exception as exc:
                        code = type(exc).__name__
                texts = (t.getvalue().replace(tmp, "{tmp}") for t in (out, err))
                record[command] = (code, *texts)
        finally:
            os.chdir(cwd)
    return record


def dump(path):
    from matchcliff import simulator
    from matchcliff.circuits import BasisInput, Circuit, LinearLayer, QuadraticLayer
    from matchcliff.gaussian import MarginalQuery
    from matchcliff.pauli import PauliString

    record = {"body": {}, "answers": [], "grants": [], "refusals": {}, "cli": _cli_sweep()}
    rng = np.random.default_rng(SEED)
    for n in BODY_SIZES:
        h = rng.normal(size=(2 * n, 2 * n)) * (0.3 / np.sqrt(n))
        for kind, lay in (
            ("linear", LinearLayer(tuple(rng.normal(size=2 * n) * 0.4))),
            ("quadratic", QuadraticLayer(tuple(map(tuple, h - h.T)))),
        ):
            cc = simulator.compile_circuit(Circuit(n, BasisInput((0,) * n), (lay,), "free"))
            record["body"][kind, n] = np.array(cc.body)
    for n, inp, layers, structure in _circuits():
        c = Circuit(n, inp, layers, structure)
        z0 = PauliString.single(n, 0, "Z")
        record["grants"].append(
            (
                (structure, c.has_linear()),
                sorted(simulator.classify_circuit(c).flags),
                _outcome(lambda: simulator.restricted_pauli_expectation(c, z0)),
            )
        )
        for _ in range(QUERIES_PER_CIRCUIT):
            p = PauliString.from_string("".join("IXYZ"[k] for k in rng.integers(4, size=n)))
            record["answers"].append(_outcome(lambda: simulator.run_expectation(c, p)))
            k = int(rng.integers(1, n + 1))
            qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
            q = MarginalQuery(qubits, tuple(int(b) for b in rng.integers(0, 2, size=k)))
            record["answers"].append(_outcome(lambda: simulator.run_marginal(c, q)))
    n = 3
    for name, layers in _refusal_bodies(n).items():
        c = Circuit(n, BasisInput((0,) * n), layers, "free")
        record["refusals"][name] = (
            _outcome(lambda: simulator.compile_circuit(c)),
            _cli(c, ["expect", "--pauli", "ZII"]),
            _cli(c, ["marginal", "--qubits", "0", "--bits", "0"]),
        )
    if str(path).endswith(".json"):
        del record["body"]
        with open(path, "w") as fh:
            _write_json(record, fh)
    else:
        with open(path, "wb") as fh:
            pickle.dump(record, fh)


def _write_json(record, fh):
    """record as JSON with one line per answer, circuit, refusal body and
    command, so that a change of the record reads as a diff of lines."""
    sections = []
    for name, value in record.items():
        if isinstance(value, dict):
            lines = (f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            sections.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
        else:
            lines = (f"  {json.dumps(v)}" for v in value)
            sections.append(f" {json.dumps(name)}: [\n" + ",\n".join(lines) + "\n ]")
    fh.write("{\n" + ",\n".join(sections) + "\n}\n")


def load(path) -> dict:
    """A record from dump, its tuples read as lists as from JSON, so that
    records of either form compare alike."""
    if str(path).endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    with open(path, "rb") as fh:
        record = pickle.load(fh)
    body = record.pop("body")
    return {**json.loads(json.dumps(record)), "body": body}


def _compare(pairs):
    """(worst difference of two values, old refusals, differing outcomes)
    over pairs of outcomes."""
    worst, refused, differ = 0.0, 0, []
    for a, b in pairs:
        if a[0] == b[0] == "value":
            worst = max(worst, abs(a[1] - b[1]))
        else:
            refused += a[0] == "refused"
            if a != b:
                differ.append((a, b))
    return worst, refused, differ


# the numbers of the CLI's answers, in key=value and in JSON output
_NUMBER = re.compile(r'((?:value|probability|max_deviation)(?:=|": ))([^\s,}]+)')


def _same_cli(a, b) -> bool:
    """Whether two CLI records agree: the same exit code and stderr, and
    stdout the same text once the numbers _NUMBER finds agree to 1e-12."""
    if a is None or b is None or a[0::2] != b[0::2]:
        return a == b
    if _NUMBER.sub(r"\1#", a[1]) != _NUMBER.sub(r"\1#", b[1]):
        return False
    pairs = zip(_NUMBER.findall(a[1]), _NUMBER.findall(b[1]))
    return all(abs(float(x) - float(y)) <= 1e-12 for (_, x), (_, y) in pairs)


def diff(old_path, new_path) -> int:
    old, new = load(old_path), load(new_path)
    bad = 0
    bodies = old["body"].items() if "body" in old and "body" in new else ()
    for key, body in bodies:
        new_body = new["body"][key]
        same = np.array_equal(body, new_body)
        bad += not same
        print(f"body {key}: max diff {np.max(np.abs(body - new_body)):.1e}, bit-equal {same}")
    worst, refused, differ = _compare(zip(old["answers"], new["answers"], strict=True))
    bad += worst > 1e-12 or bool(differ)
    print(
        f"answers: {len(old['answers'])}, of them {refused} refused; "
        f"worst difference {worst:.1e}; differing outcomes {len(differ)}"
    )
    for a, b in differ[:10]:
        print(f"  old {a}\n  new {b}")
    changes = {}
    for (kind, flags, _), (_, new_flags, _) in zip(old["grants"], new["grants"], strict=True):
        if flags != new_flags:
            key = tuple(kind), tuple(sorted(set(flags) - set(new_flags))), tuple(sorted(set(new_flags) - set(flags)))
            changes[key] = changes.get(key, 0) + 1
    worst, refused, differ = _compare(
        (a[2], b[2]) for a, b in zip(old["grants"], new["grants"], strict=True)
    )
    bad += bool(changes) or worst > 1e-12 or bool(differ)
    print(
        f"circuits: {len(old['grants'])}; grants changed on {sum(changes.values())}; "
        f"restricted: {refused} refused, worst difference {worst:.1e}, "
        f"differing outcomes {len(differ)}"
    )
    for ((structure, linear), gone, added), count in sorted(changes.items()):
        print(f"  {structure} (linear layer {linear}): {count} lose {list(gone)}, gain {list(added)}")
    for a, b in differ[:10]:
        print(f"  old {a}\n  new {b}")
    for name, outcome in old["refusals"].items():
        same = outcome == new["refusals"][name]
        print(f"refusal {name!r}: same {same}")
        if not same:
            print(f"  old {outcome}\n  new {new['refusals'][name]}")
            bad += 1
    changed = [c for c, rec in old["cli"].items() if not _same_cli(rec, new["cli"].get(c))]
    added = [c for c in new["cli"] if c not in old["cli"]]
    bad += bool(changed) or bool(added)
    print(
        f"cli: {len(old['cli'])} commands; records changed on {len(changed)}; "
        f"{len(added)} new commands"
    )
    for command in changed:
        print(f"  {command}\n    old {old['cli'][command]}\n    new {new['cli'].get(command)}")
    for command in added:
        print(f"  new {command}\n    {new['cli'][command]}")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) == 3:
        dump(sys.argv[2])
    elif sys.argv[1:2] == ["diff"] and len(sys.argv) == 4:
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
