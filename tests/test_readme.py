"""The README's examples run as written."""
import json
import re
import shlex
from pathlib import Path

from matchcliff import circuits, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def test_readme_circuit_files_load_and_commands_succeed(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    docs = _blocks("json")
    assert docs
    for text in docs:
        circuits.from_json_doc(json.loads(text))
    commands = [
        line
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("matchcliff ")
    ]
    assert commands
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
