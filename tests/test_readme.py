"""The README's code stays in step with the package."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "verify_certificate" in block
    exec(compile(block, "README.md: Library use", "exec"), {})
