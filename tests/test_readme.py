"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(python_blocks()) >= 3


def test_readme_python_blocks_run_in_order():
    # later blocks reuse names bound by earlier ones, as a reader would
    namespace = {"__name__": "readme"}
    for k, block in enumerate(python_blocks()):
        code = compile(block, f"README.md python block {k}", "exec")
        exec(code, namespace)
