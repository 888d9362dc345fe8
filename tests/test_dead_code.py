"""Every module-level function and class of the `mzv` package, and every
method other than a dunder, is reachable from a click command or a
module-level statement, through the names each definition mentions, so
`src/mzv` holds only what a command runs.  Test-only oracles live under
`tests/`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mzv"

# names that no command reaches, each kept for the reason given;
# "<module>.*" keeps a whole module
ALLOWED = {
    "ratfunc.*": "empty class kept for perfbench/tracer.py, which resolves `ratfunc.RatFunc`",
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


def _names(tree) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _parts(node, key: str, methods: list) -> list:
    """The nodes whose mentioned names a definition reaches.  A class holds
    its bases, decorators and body apart from its non-dunder methods, which
    go to `methods` as definitions of their own: a method is reached by a
    mention of its name, a dunder by the operation it implements."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    parts = [*node.bases, *node.keywords, *node.decorator_list]
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
            methods.append((f"{key}.{item.name}", item))
        else:
            parts.append(item)
    return parts


def _unreachable(sources: dict[str, str], kept=lambda name: False) -> list[str]:
    """`<module>.<name>` of each module-level function or class, and
    `<module>.<class>.<name>` of each non-dunder method, of `sources` (module
    name -> source text) that no chain of mentioned names reaches from a
    click command, a module-level statement other than an import, or a
    definition that `kept` names.  A mention reaches every definition of that
    name, in any module."""
    definitions: dict[str, list] = {}
    by_name: dict[str, list[str]] = {}
    reached: set[str] = set()
    stack: list = []

    def define(key: str, name: str, node) -> None:
        methods: list = []
        definitions[key] = _parts(node, key, methods)
        by_name.setdefault(name, []).append(key)
        if _is_click_command(node) or kept(key):
            reached.add(key)
            stack.extend(definitions[key])
        for method_key, method in methods:
            define(method_key, method.name, method)

    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                define(f"{module}.{node.name}", node.name, node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                stack.append(node)
    while stack:
        for name in _names(stack.pop()):
            for key in by_name.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    stack.extend(definitions[key])
    return [key for key in definitions if key not in reached]


def _allowed(name: str) -> bool:
    return name in ALLOWED or f"{name.split('.')[0]}.*" in ALLOWED


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_function_and_class_has_a_caller():
    assert _unreachable(_sources(), kept=_allowed) == []


def test_every_allowed_name_still_lacks_a_caller():
    sources = _sources()
    unreachable = set(_unreachable(sources))
    imported = {node.module for module, text in sources.items() for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ImportFrom) and node.module}
    for name in ALLOWED:
        module, _, attr = name.partition(".")
        assert module in sources and (module not in imported if attr == "*" else name in unreachable), name


def test_the_scan_finds_an_unused_function():
    sources = {
        "a": ("def used():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
              "def unused(n):\n    return unused(n - 1)\n\n\n"
              "def ping(n):\n    return pong(n)\n\n\ndef pong(n):\n    return ping(n - 1)\n\n\n"
              "class Kept:\n    def __init__(self):\n        self.n = 0\n\n    def called(self):\n        return 1\n\n"
              "    def uncalled(self):\n        return self.called()\n\n\n"
              "def tabled():\n    return 2\n\n\nTABLE = {'t': tabled}\n"),
        "b": ("from .a import Kept, ping, used\n\n\n@group.command('run')\n"
              "def run():\n    return used(), Kept().called()\n"),
    }
    assert _unreachable(sources) == ["a.unused", "a.ping", "a.pong", "a.Kept.uncalled"]
    assert _unreachable(sources, kept=lambda name: name == "a.ping") == ["a.unused", "a.Kept.uncalled"]
