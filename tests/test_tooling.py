"""The benchmark's tracer still finds every function it wraps in rislink,
wraps every name rislink imports only for it and the package's lazily loaded
top-level calls; the README's examples still run and the rislink names it
cites still exist; every config field is set, and so checked, by a config key."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import pkgutil
import re
import shlex
import sys
import textwrap
from pathlib import Path

import pytest

import rislink
from rislink.cli import build_parser
from test_campaign import fresh_python

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
README = TRACER.parents[1] / "README.md"


def load_perfbench(stem: str):
    """A module of perfbench/, loaded by path (the benchmark is no package) and
    registered, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}",
                                                  TRACER.with_name(f"{stem}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


@pytest.mark.parametrize("name", ["pt_campaign", "coverage_map"])
def test_first_pool_entries_match_the_pinned_reference(name):
    """The first pool entries of each benchmark workload reproduce its pinned
    reference (`perfbench/reference/`) within the benchmark's own tolerance,
    so output drift fails here and not only as a benchmark run's batches."""
    workloads = load_perfbench("workloads")
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(workload)
    errors = [workloads.relative_error(
        workloads.record(workloads.run_batch(workload, entry, workers=1)[1]),
        workloads.reference_entry(reference, entry)) for entry in range(4)]
    assert max(errors) <= workloads.REL_TOL, errors


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
    assert ("rislink.campaign", "realize_channels") in kept
    stale = sorted(kept - wrapped)
    assert not stale, f"imports kept for the tracer that it does not wrap: {stale}"


# Names kept alive only by the tracer's entries, each in the module its caller looks it up in
TRACER_ONLY = {"channel": ("draw_link_state", "draw_clusters", "assemble_link_channel",
                           "assemble_direct_channel", "local_directions", "steering_matrix",
                           "spawn_rng"),
               "campaign": ("realize_channels", "composite_singular_values")}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("overrides", [
    {},
    {"ris_links": "auto", "direct_mode": "present", "shared_clusters": True,
     "idle_ris": "random"},
], ids=["plain", "auto_links_direct_shared_idle"])
def test_no_job_reaches_the_tracer_only_names(overrides, monkeypatch, tmp_path):
    """A pt campaign, an n sweep, a two-block map and a dump call none of the
    names that only the tracer keeps, so retiring them removes no work."""
    def retired(name):
        def stub(*args, **kwargs):
            raise AssertionError(f"a job reached {name}")
        return stub

    for module, names in TRACER_ONLY.items():
        for name in names:
            monkeypatch.setattr(f"rislink.{module}.{name}", retired(f"{module}.{name}"))
    base = rislink.scene_preset("indoor")
    vc = rislink.validate_config(dataclasses.replace(
        base, realizations=3, pt_dbm=(30.0,), **overrides,
        ris=(base.ris[0], rislink.RisSpec(64, (60.0, 30.0, 2.0), plane="yz"))))
    rislink.run_campaign(rislink.Campaign(vc))
    rislink.run_campaign(rislink.Campaign(vc, sweep_axis="n", sweep_values=(16, 64)))
    cells = rislink.coverage_map(rislink.Campaign(vc), rislink.default_grid(vc, cell=10.0))
    assert cells.mean_rate.size > rislink.campaign.BLOCK_SIZE   # two blocks
    rislink.dump_channels(vc, tmp_path / "dump")


RATE_SPANS = ("campaign.phase_sets", "channel.composite", "control.pinv", "control.rate")


@pytest.mark.parametrize("job", ["run_campaign", "coverage_map"])
def test_traced_rates_record_every_rate_layer(job):
    """Every rate runs through the names the tracer wraps for its layers, so
    none of their spans can quietly read 0 again."""
    tracer = load_tracer()
    vc = rislink.validate_config(dataclasses.replace(
        rislink.scene_preset("indoor"), realizations=2, pt_dbm=(30.0,)))
    t = tracer.Tracer()
    t.install()
    try:
        if job == "run_campaign":
            rislink.run_campaign(rislink.Campaign(vc))
        else:
            rislink.coverage_map(rislink.Campaign(vc),
                                 rislink.GridSpec(30.0, 50.0, 10.0, 30.0, cell=10.0, z=1.0))
    finally:
        t.remove()
    assert not [name for name in RATE_SPANS if t.counts[name] == 0]
    assert t.counts["campaign.phase_sets"] == t.counts["channel.composite"]


def test_tracer_wraps_the_top_level_calls_after_a_bare_import():
    """The tracer wraps `validate_config`, `run_campaign` and `coverage_map`
    on the package namespace, whose names load on first use: after a bare
    import in a fresh interpreter their top-level spans are recorded, and
    `remove()` puts the originals back."""
    code = textwrap.dedent(f"""
        import dataclasses, importlib.util, json, sys
        import rislink
        spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
        tracer = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        names = ("validate_config", "run_campaign", "coverage_map")
        originals = [getattr(rislink, name) for name in names]
        t = tracer.Tracer()
        t.install()
        try:
            vc = rislink.validate_config(dataclasses.replace(
                rislink.scene_preset("indoor"), realizations=2, pt_dbm=(30.0,)))
            rislink.run_campaign(rislink.Campaign(vc))
            rislink.coverage_map(rislink.Campaign(vc),
                                 rislink.GridSpec(30.0, 50.0, 10.0, 30.0, cell=10.0, z=1.0))
        finally:
            t.remove()
        top = sorted({{t.names[span[0]] for span in t.spans if span[3] == -1}})
        print(json.dumps([top, all(getattr(rislink, name) is original
                                   for name, original in zip(names, originals))]))
        """)
    top, restored = json.loads(fresh_python(code))
    assert top == ["campaign.coverage", "campaign.run", "config.validate"]
    assert restored


def readme_block(heading: str) -> str:
    """The first fenced code block under a README `## heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    exec(compile(readme_block("Library example"), "README.md", "exec"), {})


COMMAND_LINES = [line.split("#", 1)[0].strip()
                 for line in readme_block("Command line").splitlines()
                 if line.startswith("rislink ")]


def test_readme_names_every_config_key():
    """config.py's docstring sends readers to the README for the keys."""
    section = README.read_text(encoding="utf-8").split("\n## Config files\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert [key.name for key in rislink.config._KEYS
            if not re.search(rf"`{key.name}`|^{key.name} =", section, re.MULTILINE)] == []


def config_fields(obj, prefix=""):
    """Dotted paths of a config's fields, one per field of all surfaces; a
    path-loss table is one field, as its key reads and checks it whole."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0]):
            value = value[0]
        if dataclasses.is_dataclass(value) and not isinstance(value, rislink.PathLossTable):
            yield from config_fields(value, f"{prefix}{field.name}.")
        else:
            yield prefix + field.name


def test_every_config_field_is_set_by_a_key():
    """validate_config checks each field by the key that sets it, so a new
    field without a key would skip every check.  The Tx/Rx mount orientation
    has no key and is checked by hand; the environment key sets the name."""
    keys = {field for key in rislink.config._KEYS for field in key.fields}
    fields = set(config_fields(rislink.scene_preset("indoor")))
    assert fields - keys - {"environment.name"} == {"tx.orientation", "rx.orientation"}
    assert keys - {"environment"} <= fields


def test_readme_module_names_resolve():
    """Every backticked `module.name` in the README whose head is a rislink
    module names an attribute or a dataclass field there, so a renamed or
    retired engine name cannot linger in the text."""
    modules = {m.name for m in pkgutil.iter_modules(rislink.__path__)}
    text = README.read_text(encoding="utf-8")
    cited = [dotted for dotted in re.findall(r"`(\w+(?:\.\w+)+)`", text)
             if dotted.split(".")[0] in modules]
    assert cited
    stale = []
    for dotted in cited:
        head, *names = dotted.split(".")
        owner = importlib.import_module(f"rislink.{head}")
        for name in names:
            fields = ({f.name for f in dataclasses.fields(owner)}
                      if dataclasses.is_dataclass(owner) else set())
            if not (hasattr(owner, name) or name in fields):
                stale.append(dotted)
                break
            owner = getattr(owner, name, None)
    assert stale == []


def test_readme_states_the_chunk_budget_and_kept_heap():
    """The README's chunking paragraph gives `campaign.CHUNK_BUDGET` and
    `channel.PLACEMENT_BUDGET` in entries and `campaign.TRIM_THRESHOLD` in
    MiB as the constants are."""
    text = README.read_text(encoding="utf-8")
    budgets = re.findall(r"(\d+)\s+entries\s+\(`campaign\.CHUNK_BUDGET`\)", text)
    paths = re.findall(r"(\d+)\s+entries\s+\(`channel\.PLACEMENT_BUDGET`\)", text)
    heaps = re.findall(r"(\d+)\s+MiB\s+\(`campaign\.TRIM_THRESHOLD`", text)
    assert budgets and paths and heaps
    assert {int(n) for n in budgets} == {rislink.campaign.CHUNK_BUDGET}
    assert {int(n) for n in paths} == {rislink.channel.PLACEMENT_BUDGET}
    assert {int(n) << 20 for n in heaps} == {rislink.campaign.TRIM_THRESHOLD}


def test_readme_lists_commands():
    assert len(COMMAND_LINES) >= 5


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
