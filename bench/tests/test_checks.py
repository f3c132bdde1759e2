"""Each workload's check passes on the program's answers and fails on a
corrupted one."""
import json

import pytest

import workloads


class SmallReadout(workloads.LargeReadout):
    N = 16
    MARGINAL_QUBITS = 12


def run_one(wl, i=0):
    wl.setup()
    inp = wl.prepare(i)
    return inp, wl.op(inp)


def test_fresh_circuits_check(tmp_path):
    wl = workloads.FreshCircuits(3, tmp_path)
    inp, answers = run_one(wl)
    assert wl.check(inp, answers) == []
    code, text = answers[1]
    doc = json.loads(text)
    doc["probability"] += 1e-3
    bad = answers[:1] + [(code, json.dumps(doc))] + answers[2:]
    assert wl.check(inp, bad)
    assert wl.check(inp, answers[:3] + [(2, "")])


def test_large_readout_check(tmp_path):
    wl = SmallReadout(3, tmp_path)
    inp, (prob, value) = run_one(wl)
    assert wl.check(inp, (prob, value)) == []
    assert wl.check(inp, (prob * (1 + 1e-4), value))
    assert wl.check(inp, (prob, value + 1e-3))
    assert wl.check(inp, (prob, float("nan")))
    wl.checked = [(inp, prob)]
    assert wl.final_check() == []


def test_large_readout_chain_rule_catches_a_wrong_marginal(tmp_path):
    wl = SmallReadout(4, tmp_path)
    inp, (prob, value) = run_one(wl)
    wl.check(inp, (prob, value))
    wl.checked[0] = (inp, prob * 1.01)
    assert wl.final_check()


def test_clifford_routes_check(tmp_path):
    wl = workloads.CliffordRoutes(3, tmp_path)
    inp, answers = run_one(wl)
    assert wl.check(inp, answers) == []
    for route in workloads.ROUTES:
        bad = dict(answers)
        bad[route] = [answers[route][0] + 1e-4] + answers[route][1:]
        assert wl.check(inp, bad), route


def test_clifford_routes_classes(tmp_path):
    from matchcliff import simulator, tableau
    from matchcliff.tableau import CliffordClass

    wl = workloads.CliffordRoutes(5, tmp_path)
    wl.setup()
    want = {
        "swap_product": CliffordClass.SWAP_ONLY,
        "cz_swap_basis": CliffordClass.CZ_SWAP,
        "permutation": CliffordClass.PERMUTATION,
        "restricted": CliffordClass.GENERAL,
    }
    for route, cls in want.items():
        assert tableau.classify(wl.circuits[route].conjugation_tableau()) == cls
    # the restricted queries have the intended Majorana degree
    query = wl.prepare(0)["restricted"][0]
    c = wl.circuits["restricted"]
    from matchcliff.pauli import PauliString

    p = PauliString.from_string(query[1])
    with pytest.raises(simulator.DegreeTooLarge):
        simulator.restricted_pauli_expectation(c, p, d_max=wl.DEGREE - 1)
    simulator.restricted_pauli_expectation(c, p, d_max=wl.DEGREE)
