"""Every import in the `mzv` package is used by the module that makes it,
and the package runs without numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mzv.cli

SRC = Path(__file__).resolve().parent.parent / "src" / "mzv"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau\nfrom x import y as z\nprint(pi)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: tau", "line 3: z"]


# a process in which every import of numpy fails imports each `mzv` module
# and runs one command of each numeric kernel through click's test runner
_WITHOUT_NUMPY = """
import importlib, json, pkgutil, sys
sys.modules["numpy"] = None
import mzv, mzv.cli
for info in pkgutil.iter_modules(mzv.__path__):
    importlib.import_module(f"mzv.{info.name}")
from click.testing import CliRunner
print(json.dumps([[r.exit_code, r.output] for r in
                  (CliRunner().invoke(getattr(mzv.cli, group), argv) for group, *argv in json.loads(sys.argv[1]))]))
"""
GUARD_COMMANDS = [
    ["mzv", "relations", "--weight", "9", "--flavor", "p-adic", "--format", "json"],
    ["mzv", "relations", "--weight", "7", "--check-numeric", "--format", "json"],
    ["sv", "polylog", "--k", "4", "--z", "0.5+0.5i", "--zagier"],
    ["assoc", "verify", "--identity", "pentagon", "--weight", "4"],
]


def test_the_commands_run_without_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(GUARD_COMMANDS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    for (group, *argv), (code, output) in zip(GUARD_COMMANDS, json.loads(done.stdout), strict=True):
        assert code == 0, (argv, output)
        assert output == CliRunner().invoke(getattr(mzv.cli, group), argv).output, argv
