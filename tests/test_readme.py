"""The README's library quick start runs and prints what it shows.

The quick start's two python blocks run in a temporary directory: the first
copies the bundled model to `model.json`, the second ("Plan, aggregate, and
fit") uses it. Each `# ` line right after a `print(` line in the second block
is the output that call must print, character for character.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks() -> tuple[str, str]:
    """The setup block and the "Plan, aggregate, and fit" block."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    setup, run = re.findall(r"```python\n(.*?)```", section, flags=re.S)[:2]
    assert "Plan, aggregate, and fit:" in section[: section.index(run)]
    return setup, run


def shown_output(block: str) -> list[str]:
    lines = block.splitlines()
    shown = [
        line[2:] for before, line in zip(lines, lines[1:])
        if before.startswith("print(") and line.startswith("# ")
    ]
    assert len(shown) == sum(line.startswith("print(") for line in lines)
    return shown


def test_quick_start_prints_what_the_readme_shows(tmp_path, monkeypatch):
    setup, run = quick_start_blocks()
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(setup, "README.md setup", "exec"), {})
        exec(compile(run, "README.md quick start", "exec"), {})
    assert out.getvalue().splitlines() == shown_output(run)
