import re
from pathlib import Path

import spotindex

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert [name for name in spotindex.__all__ if not hasattr(spotindex, name)] == []
    assert len(set(spotindex.__all__)) == len(spotindex.__all__)


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
