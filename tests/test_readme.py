import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
