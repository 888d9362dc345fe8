"""The names the out-of-tree tracer (perfbench/tracer.py) hooks must exist.

`tracer.install` resolves each span of `tracer.GROUPS` in the imported mzv
package: a `<module>.<Class>.<method>` span looks the class up with getattr,
so a missing class crashes every traced benchmark run; a missing
`<module>.<function>` span would silently report zero.  This test only
imports the tracer; it changes nothing in it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()
_SPANS = sorted({span for spans in tracer.GROUPS.values() for span in spans})


@pytest.mark.parametrize("span", _SPANS)
def test_every_traced_span_resolves(span):
    mod_name, _, rest = span.partition(".")
    module = importlib.import_module(f"mzv.{mod_name}")
    if "." in rest:
        cls_name, _ = rest.split(".")
        assert inspect.isclass(getattr(module, cls_name, None)), f"{span}: no class {cls_name}"
    else:
        obj = getattr(module, rest, None)
        assert obj is not None and (inspect.isfunction(obj) or hasattr(obj, "cache_info")), \
            f"{span}: no function {rest}"


def test_word_counter_target_exists():
    from mzv import words

    assert inspect.isclass(words.Word)
