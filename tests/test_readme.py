"""The README's Python examples run, in order, and print what they say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_print_what_the_readme_says():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert printed.getvalue().splitlines() == [
        "a casa", "45.0", "77.82", "100.0", "33.87", "a casa", "a casa",
    ]
