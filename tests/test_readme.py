"""The README's library quick start runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library quick start'"
    exec(compile(block.group(1), "README.md", "exec"), {})
