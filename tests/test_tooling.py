"""The benchmark's tracer still finds every function it wraps in rislink."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable():
    tracer = load_tracer()
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert not missing, f"perfbench/tracer.py wraps names rislink no longer has: {missing}"


def test_install_and_remove_restore_every_function():
    tracer = load_tracer()
    before = [getattr(module, attr) for module, attr, _ in tracer.WRAPPED]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(module, attr) is not original for (module, attr, _), original
                   in zip(tracer.WRAPPED, before))
    finally:
        t.remove()
    assert [getattr(module, attr) for module, attr, _ in tracer.WRAPPED] == before
