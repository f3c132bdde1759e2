"""The seeded record of tools/compare_compile.py, rebuilt and compared with
fixtures/answer_record.json by the tool's own rules: numbers to 1e-12;
refusals, grants and CLI text exact.

A change that moves an answer, a grant, a refusal or a CLI record on
purpose regenerates the fixture, and the change shows as its diff:

    PYTHONPATH=src python tools/compare_compile.py dump fixtures/answer_record.json
"""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "compare_compile", ROOT / "tools" / "compare_compile.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_answers_grants_refusals_and_cli_match_the_committed_record(tmp_path, capsys):
    tool = _tool()
    rebuilt = tmp_path / "answer_record.json"
    tool.dump(rebuilt)
    code = tool.diff(ROOT / "fixtures" / "answer_record.json", rebuilt)
    assert code == 0, capsys.readouterr().out
