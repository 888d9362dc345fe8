"""Every module-level function and class of the `mzv` package is named
somewhere in the package outside its own definition, so `src/mzv` holds
only what a command runs.  Test-only oracles live under `tests/`."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mzv"

# names that no mzv module refers to, each kept for the reason given;
# "<module>.*" keeps a whole module
ALLOWED = {
    "ratfunc.*": "perfbench/tracer.py times RatFunc arithmetic as `ratfunc.ops`",
    "braid.reduce_monomial_dict": "perfbench/tracer.py times it as `braid.reduce`",
    "arch_eval.polylog2": "perfbench/tracer.py times it under `arch_eval.polylog`",
}


def _is_click_command(node) -> bool:
    """Decorated with `@<group>.command(...)` or `@click.group(...)`: the
    command line reaches it, not a name."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _names(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """`<module>.<name>` of each module-level function or class of `sources`
    (module name -> source text) that no node outside its definition names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    mentions = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_click_command(node)
            and mentions[node.name] == _names(node)[node.name]]


def _allowed(name: str) -> bool:
    return name in ALLOWED or f"{name.split('.')[0]}.*" in ALLOWED


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_function_and_class_has_a_caller():
    assert [name for name in _unreferenced(_sources()) if not _allowed(name)] == []


def test_every_allowed_name_still_lacks_a_caller():
    sources = _sources()
    unreferenced = set(_unreferenced(sources))
    imported = {node.module for module, text in sources.items() for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ImportFrom) and node.module}
    for name in ALLOWED:
        module, _, attr = name.partition(".")
        assert module in sources and (module not in imported if attr == "*" else name in unreferenced), name


def test_the_scan_finds_an_unused_function():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef unused(n):\n    return unused(n - 1)\n\n\nclass Kept:\n    pass\n",
        "b": "from .a import Kept, used\n\n\n@group.command('run')\ndef run():\n    return used(), Kept\n",
    }
    assert _unreferenced(sources) == ["a.unused"]
