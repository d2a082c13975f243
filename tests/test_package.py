import ast
import inspect
import re
from pathlib import Path

import pytest

import codapol


def test_all_exports_only_classes_and_functions():
    assert codapol.__all__
    for name in codapol.__all__:
        obj = getattr(codapol, name)
        assert inspect.isclass(obj) or inspect.isfunction(obj), name


def test_readme_python_api_block_states_its_values():
    # each line "expr  # <literal>[: prose]" of the README's "Python API"
    # block must evaluate to the literal its comment states
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        want = ast.literal_eval(comment.strip().split(": ", 1)[0])
        got = eval(code, namespace)
        assert got == (pytest.approx(want) if isinstance(want, float) else want), line
        checked += 1
    assert checked >= 5
