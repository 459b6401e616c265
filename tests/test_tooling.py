"""The benchmark's tracer still finds every function it wraps in rislink, and
wraps every name rislink imports only for it."""

import ast
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


def test_every_tracer_only_import_is_wrapped():
    """An import kept only for the tracer (`# noqa: F401`) must be one it wraps there."""
    tracer = load_tracer()
    wrapped = {(module.__name__, attr) for module, attr, _ in tracer.WRAPPED}
    package = TRACER.parents[1] / "src" / "rislink"
    kept = set()
    for path in sorted(package.glob("*.py")):
        module = "rislink" if path.stem == "__init__" else f"rislink.{path.stem}"
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                kept.update((module, alias.asname or alias.name) for alias in node.names)
    assert ("rislink.campaign", "composite_multi") in kept
    stale = sorted(kept - wrapped)
    assert not stale, f"imports kept for the tracer that it does not wrap: {stale}"
