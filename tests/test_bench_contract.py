"""The benchmark's layer tracer wraps package names; they must all exist.

``bench/tracer.py`` replaces ``owner.__dict__[attr]`` for each of its
targets, so renaming or deleting a traced entry point (``optics.lift``,
``PdcBlock.lift``, ``walk.step_operator``, ...) would pass every other test
and only fail when the benchmark runs with tracing on.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists():
    targets = load_tracer().targets()
    assert targets
    for span, owner, attr in targets:
        assert attr in owner.__dict__, f"{span}: {getattr(owner, '__name__', owner)}.{attr} is gone"
        assert callable(owner.__dict__[attr])
