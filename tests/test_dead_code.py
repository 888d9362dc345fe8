"""`src/mzv` holds only what a command runs.

`MATRIX` runs every command, through click's `CliRunner`, in a fresh
interpreter under `sys.setprofile`: every identity at weights 3-5 (csv and
--pretty too), every `series dump` flavor piped to `series parse`, and each
`mzv`, `padic` and `sv` command.  The trace starts before the package is
imported, and a fresh interpreter keeps a cache that an earlier test filled
from hiding a function.  Every function and method of `src/mzv`, dunders and
nested functions included, must be entered, apart from the `ALLOWED` ones.
A class that defines no function (an exception class) is invisible to the
trace; it must be named in a function that the matrix enters.  Test-only
oracles and arithmetic live under `tests/`: the p-adic product, quotient and
rational embedding in `padic_reference.py`, the Fraction coefficients of a
SymbolPoly in `series_reference.py`, the braid unit and the pentagon's
five-cycle in `braid_reference.py`.

Run as a script, this module prints the trace of `MATRIX` as JSON.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mzv"

_PROTOCOL = "value-object protocol: tests compare or print values with it, and `==` would fall back to identity"
_IMMUTABLE = "value-object protocol: refuses assignment, so a shared value cannot change"
# what no command enters, each kept for the reason given
ALLOWED = {
    "ratfunc.RatFunc": "empty class kept for perfbench/tracer.py, which resolves `ratfunc.RatFunc`",
    "braid.reduce_monomial_dict": "perfbench/tracer.py times it as `braid.reduce`",
    "arch_eval.polylog2": "perfbench/tracer.py times it under `arch_eval.polylog`",
    "padics.PadicNumber.valuation": "`padic verify-spain` reads it only for a difference that is not zero to precision",
    "braid.BraidElement.__setattr__": _IMMUTABLE,
    "braid.BraidElement.__repr__": _PROTOCOL,
    "padics.PadicNumber.__setattr__": _IMMUTABLE,
    "padics.PadicNumber.__eq__": _PROTOCOL,
    "padics.PadicNumber.__hash__": _PROTOCOL,
    "padics.PadicNumber.__repr__": _PROTOCOL,
    "rings.Ring.__repr__": _PROTOCOL,
    "series.NCSeries.__setattr__": _IMMUTABLE,
    "series.NCSeries.__eq__": _PROTOCOL,
    "series.NCSeries.__hash__": _PROTOCOL,
    "series.NCSeries.__str__": _PROTOCOL,
    "series.NCSeries.__repr__": _PROTOCOL,
    "symbols._Generator.__reduce__": "value-object protocol: a copied or unpickled generator stays interned",
    "symbols.SymbolPoly.__setattr__": _IMMUTABLE,
    "symbols.SymbolPoly.__eq__": _PROTOCOL,
    "symbols.SymbolPoly.__repr__": _PROTOCOL,
}

_PRIMES = {"netherland": ["--p", "5"], "czech": ["--p", "5"], "princeton": ["--p", "3"]}
_DUMPS = {"complex_KZ": [], "padic_KZ": [], "padic_Deligne": ["--p", "3"], "minus_KZ": [], "symbolic_lambda": []}
_PIPE = "|"  # stdin of a command that reads the previous command's stdout


def _document(ring: str, one: str, coeff: str) -> str:
    return json.dumps({"format": "ncseries/1", "ring": ring, "truncation": 2,
                       "terms": [{"word": "", "coeff": one}, {"word": "AB", "coeff": coeff}]})


# (command group, arguments, stdin) of each command, in order
MATRIX = [
    *(("assoc", ["verify", "--identity", identity, "--weight", *options, *_PRIMES.get(identity, [])], None)
      for identity in ("dual", "hexagon", "pentagon", "netherland", "czech", "moldova", "kz", "princeton")
      for options in (["3"], ["4"], ["5"], ["3", "--format", "csv"], ["3", "--pretty"])),
    ("assoc", ["verify", "--identity", "hexagon", "--weight", "2", "--flavor", "padic_KZ"], None),
    *(command for flavor, p in _DUMPS.items()
      for command in (("series", ["dump", "--flavor", flavor, "--weight", "4", *p], None),
                      ("series", ["parse"], _PIPE))),
    ("series", ["parse"], _document("Q", "1", "-1/2")),
    ("series", ["parse"], _document("C:0.0", "1.0+0.0j", "0.5-0.25j")),
    ("mzv", ["eval", "--index", "1,2"], None),
    *(("mzv", ["relations", "--weight", "5", "--format", fmt, *check], None)
      for fmt in ("json", "csv") for check in ([], ["--check-numeric"])),
    ("padic", ["polylog", "--p", "5", "--k", "3", "--z", "5/7", "--dagger"], None),
    ("padic", ["polylog", "--p", "5", "--k", "3", "--z", "0"], None),
    ("padic", ["verify-spain", "--primes", "3,5", "--kmax", "2", "--points", "2"], None),
    ("sv", ["polylog", "--k", "3", "--z", "0.3+0.2i", "--zagier"], None),
]


def _trace(root: str, run) -> set[tuple[str, int, str]]:
    """(module, first line, name) of every function in a file under `root`
    that `run()` enters."""
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(root):
            entered.add((Path(code.co_filename).stem, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered


def _run_matrix() -> list[str]:
    """Every command's stdout, each checked to exit 0."""
    from click.testing import CliRunner

    from mzv import cli

    outputs = [""]
    for group, args, stdin in MATRIX:
        result = CliRunner().invoke(getattr(cli, group), args, input=outputs[-1] if stdin == _PIPE else stdin)
        assert result.exit_code == 0, (group, args, result.output)
        outputs.append(result.output)
    return outputs[1:]


def _functions(sources: dict[str, str]) -> dict[tuple[str, int, str], tuple[str, ast.AST]]:
    """(module, first line, name) -> (dotted name, node) of every function of
    `sources` (module name -> source text), methods and nested functions
    included.  As in its code object, a decorated function starts at its
    first decorator."""
    out = {}

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out[module, first, child.name] = (f"{prefix}.{child.name}", child)
                walk(module, child, f"{prefix}.{child.name}")
            else:
                walk(module, child, prefix)

    for module, text in sources.items():
        walk(module, ast.parse(text), module)
    return out


def _unreached(sources: dict[str, str], entered: set) -> list[str]:
    """The dotted names of the functions of `sources` outside `entered`, and
    of the module-level classes that define no function and that no entered
    function names."""
    functions = _functions(sources)
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for key, (_, function) in functions.items() if key in entered
             for node in ast.walk(function) if isinstance(node, (ast.Name, ast.Attribute))}
    classes = [f"{module}.{node.name}" for module, text in sources.items() for node in ast.parse(text).body
               if isinstance(node, ast.ClassDef) and node.name not in named
               and not any(isinstance(item, ast.FunctionDef) for item in node.body)]
    return [name for key, (name, _) in functions.items() if key not in entered] + classes


@functools.lru_cache(maxsize=None)
def _matrix_unreached() -> tuple[str, ...]:
    """`_unreached` of `src/mzv` under the trace of `MATRIX`, run as a script."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(proc.stdout)}
    return tuple(_unreached({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}, entered))


def test_every_function_and_class_has_a_caller():
    assert [name for name in _matrix_unreached() if name not in ALLOWED] == []


def test_every_allowed_name_still_lacks_a_caller():
    assert [name for name in ALLOWED if name not in _matrix_unreached()] == []


def test_the_scan_finds_an_unused_function():
    """An uncalled dunder, an uncalled nested function and an unnamed
    exception class are reported; a decorated function is matched to its
    code object."""
    source = ("import functools\n\n\nclass Unused(ValueError):\n    pass\n\n\n"
              "class Raised(ValueError):\n    pass\n\n\n"
              "class V:\n    def __init__(self, n):\n        self.n = n\n\n"
              "    def __add__(self, other):\n        if other is None:\n            raise Raised\n"
              "        return V(self.n + other.n)\n\n"
              "    def __sub__(self, other):\n        return V(self.n - other.n)\n\n\n"
              "@functools.lru_cache(maxsize=None)\ndef run():\n"
              "    def inner():\n        return V(1) + V(2)\n\n"
              "    def unused():\n        return 0\n\n"
              "    return inner()\n")
    namespace = {}
    entered = _trace("toy/", lambda: exec(compile(source, "toy/toy.py", "exec"), namespace) or namespace["run"]())
    assert _unreached({"toy": source}, entered) == ["toy.V.__sub__", "toy.run.unused", "toy.Unused"]


if __name__ == "__main__":
    entered = _trace(str(SRC), _run_matrix)
    print(json.dumps(sorted(entered)))
