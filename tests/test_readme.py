"""The README's library input example runs exactly as written and prints what it shows."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_input_example() -> str:
    """The first Python code block under the README's "Library input" heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text[text.index("### Library input"):], re.S).group(1)


def test_the_library_input_example_prints_what_its_comments_show(capsys):
    code = library_input_example()
    exec(compile(code, str(README), "exec"), {})
    shown = [line.split("  # ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert shown == ["1.0 0.6666666666666666", "6"]
    assert capsys.readouterr().out.splitlines() == shown
