"""The benchmark's span tracer (bench/spans.py) wraps package entry points by
name; a renamed or moved one would leave its span silently empty, so every
name it lists must resolve in the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


_SPANS = _load_spans()


@pytest.mark.parametrize("name, module, cls_name, attr",
                         [t[:4] for t in _SPANS.TARGETS], ids=[t[0] for t in _SPANS.TARGETS])
def test_trace_target_resolves(name, module, cls_name, attr):
    mod = importlib.import_module(module)
    if cls_name is None:
        fn = getattr(mod, attr)
        assert callable(fn) and fn.__module__ == module
    else:
        # the tracer wraps the method on the classes that define it
        assert callable(vars(getattr(mod, cls_name))[attr])


def test_in_ball_parents_are_traced():
    names = {t[0] for t in _SPANS.TARGETS}
    assert set(_SPANS.IN_BALL_PARENTS) <= names
