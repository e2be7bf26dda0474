"""The README's code stays in step with the package."""

import re
import shlex
from pathlib import Path

from newton_gauge import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "verify_certificate" in block
    exec(compile(block, "README.md: Library use", "exec"), {})


def _transcripts():
    """(argv, shown lines) of each sh block that starts with `$ newton-gauge`."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        command, *shown = block.splitlines()
        if command.startswith("$ newton-gauge "):
            yield shlex.split(command)[2:], [line for line in shown if line != "..."]


def test_readme_transcripts_match_the_cli(capsys, monkeypatch):
    # README leaves out lines without marking them all, so every line it
    # shows must appear in the output, in the same order.
    monkeypatch.delenv("NEWTON_GAUGE_BUDGET", raising=False)
    transcripts = list(_transcripts())
    assert [argv[0] for argv, _ in transcripts] == ["analyze", "verify", "sweep"]
    for argv, shown in transcripts:
        assert cli.main(argv) == 0, argv
        lines = iter(capsys.readouterr().out.splitlines())
        for line in shown:
            assert any(out == line for out in lines), (argv, line)
