import ast
import inspect
import re
from pathlib import Path

import pytest

import codapol
from codapol.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCE = Path(__file__).resolve().parent.parent / "src" / "codapol"


def test_all_exports_only_classes_and_functions():
    assert codapol.__all__
    for name in codapol.__all__:
        obj = getattr(codapol, name)
        assert inspect.isclass(obj) or inspect.isfunction(obj), name


def test_readme_python_api_block_states_its_values():
    # each line "expr  # <literal>[: prose]" of the README's "Python API"
    # block must evaluate to the literal its comment states
    text = README.read_text()
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


def test_readme_quick_start_config_runs(tmp_path):
    # the Quick start config, run as documented, writes what the Commands
    # table lists for simulate (no grid.csv: its graph is not a lattice)
    text = README.read_text()
    config = re.search(r"## Quick start\n.*?```ini\n(.*?)```", text, re.S).group(1)
    assert "command = simulate" in config and "kind = complete" in config
    outputs = re.search(r"^\| `simulate` +\|[^|]*\|(.*)\|$", text, re.M).group(1)
    listed = re.findall(r"`([\w.]+)`", outputs.partition("plus")[0])
    path = tmp_path / "demo.txt"
    path.write_text(config)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.txt", *listed])
    assert listed == ["trajectory.csv", "clusters.csv"]


def test_only_graph_module_reads_csr_arrays():
    # other modules reach the edges only through Graph's queries: a complete
    # graph answers them all without CSR, building its n (n - 1) entries only
    # when they are read, and a lattice's neighbor_mean reads no CSR
    readers = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "graph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("indptr", "indices"):
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []
