"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "g_bullet_mu(1, (1,)) == r_bullet_zero(1, (1,))" in block
    exec(compile(block, str(README), "exec"), {})
