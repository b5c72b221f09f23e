"""The traced benchmark (perfbench/tracing.py) wraps usym functions and
methods by name, as plain module or class attributes; a rename, or a method
turned into a property, must fail here and not only in the benchmark.  So
must a traced name that the commands stop calling, whose counter would read
0 on working code."""

import contextlib
import importlib
import importlib.util
import io
import sys
import types
from pathlib import Path

from usym import fixture_path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_plain_functions(monkeypatch):
    tracing = load_tracing(monkeypatch)
    names = tracing.SPANS + tracing.LEAVES
    assert names
    for module, attr, _ in names:
        owner = importlib.import_module(module)
        *classes, key = attr.split(".")
        for cls_name in classes:
            owner = vars(owner)[cls_name]
            assert isinstance(owner, type), f"{module}.{cls_name} is not a class"
        raw = vars(owner).get(key)
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert isinstance(raw, types.FunctionType), f"{module}.{attr} is not a plain function"
        assert raw.__module__.startswith("usym."), f"{module}.{attr} is not a usym function"


def fx(name: str) -> str:
    return str(fixture_path(name))


# each command once, with the checks and oracles the benchmark's jobs ask for
GRID = [
    ["present", fx("dual_q.json")],
    ["check", fx("dual_q.json")],
    ["endo", fx("dual_gf3.json"), "--oracle"],
    ["aut", fx("dual_gf3.json"), "--field-check", "--oracle"],
    ["gradings", fx("dual_gf3.json"), "--group", fx("group_c2.json"), "--classify", "--oracle"],
]


def test_traced_names_are_reached(monkeypatch):
    tracing = load_tracing(monkeypatch)
    cli = importlib.import_module("usym.cli")
    with tracing.Tracer() as tracer:
        for argv in GRID:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    metrics = tracer.metrics()
    names = [name for _, _, name in tracing.SPANS + tracing.LEAVES]
    assert [name for name in names if not metrics.get(f"{name}.calls")] == []
