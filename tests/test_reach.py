"""Which functions of src/usym no command reaches.

Every command runs through cli.main under sys.setprofile, on every packaged
fixture it accepts, in text and in json: present and check on each algebra,
endo and aut with --field-check --oracle and gradings over cyclic:2 and the
Klein group with --classify --oracle on each GF(p) algebra.  The functions
and methods defined in src/usym that no call enters are pinned below, each
with the reason it stays.  A new function that only tests reach fails this
test until it is listed here or deleted.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys

import usym
from usym import cli
from usym.linalg import _residue_ops

# name -> why no command reaches it
UNREACHED = {
    "algebra.FinAlgebra.__eq__": "value semantics",
    "algebra.FinAlgebra.__hash__": "value semantics",
    "algebra.FinAlgebra.__repr__": "value semantics",
    "cli._Parser.error": "error path",
    "endomorphisms.EndoMonoid.__len__": "value semantics",
    "errors.SearchSizeError.__init__": "error path",
    "fields.Field.__call__": "interface stub, every field overrides it",
    "fields.Field.__repr__": "value semantics",
    "fields.Field.elements": "interface stub, every field overrides it",
    "fields.Field.parse": "interface stub, every field overrides it",
    "fields.Field.spec_string": "interface stub, every field overrides it",
    "fields.FpElement.__add__": "value semantics",
    "fields.FpElement.__hash__": "value semantics",
    "fields.FpElement.__lt__": "value semantics",
    "fields.FpElement.__sub__": "value semantics",
    "fields.GF": "library API: the prime field constructor",
    "fields.RationalField.__eq__": "value semantics",
    "fields.RationalField.__init__": "runs once, at import, for QQ",
    "fields.RationalField.elements": "error path",
    "gradings.Grading.__repr__": "value semantics",
    "gradings.GradingPoint.__len__": "value semantics",
    "groups.FiniteGroup.__eq__": "value semantics",
    "groups.FiniteGroup.__repr__": "value semantics",
    "linalg.Matrix.__repr__": "value semantics",
    "linalg.Subspace.__repr__": "value semantics",
    "linalg.Subspace.basis": "library API: the field-scalar view of a subspace",
    "linalg.Subspace.sort_key": "value semantics",
    "ncpoly.NCPoly.__repr__": "value semantics",
    "ncpoly.RewriteRule.__repr__": "value semantics",
    "ncpoly.RewriteSystem.__eq__": "value semantics: Presentation equality",
    "ncpoly.RewriteSystem.__init__": "test fault injection: the public scalar constructor",
    "ncpoly.RewriteSystem.__repr__": "value semantics",
    "ncpoly.TensorPoly.__repr__": "value semantics",
    "ncpoly._Combination.__add__": "value semantics: inputs built by tests and library users",
    "ncpoly._Combination.__eq__": "value semantics",
    "ncpoly._Combination.__hash__": "value semantics",
    "ncpoly._Combination.__neg__": "value semantics: inputs built by tests and library users",
    "ncpoly._Combination.__sub__": "value semantics: inputs built by tests and library users",
    "ncpoly._PairQueue.discard": "completion send-back, which larger inputs reach",
    "ncpoly._RuleState.discard": "completion send-back, which larger inputs reach",
    "ncpoly._relation": "completion send-back, which larger inputs reach",
    "universal.CheckReport.ok": "library API: the verdict of a checker",
}


def defined_functions():
    """code object -> "module.qualname" of every function, method and
    property accessor defined in a module of src/usym; through inspect, since
    code objects carry no qualified name before Python 3.11.  Nested
    functions and lambdas are not listed."""
    out = {}
    for info in pkgutil.iter_modules(usym.__path__):
        module = importlib.import_module(f"usym.{info.name}")

        def add(name, f):
            code = getattr(inspect.unwrap(f), "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                out[code] = f"{info.name}.{name}"

        for name, obj in vars(module).items():
            if inspect.isfunction(obj):
                add(name, obj)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if isinstance(member, property):
                        for accessor in (member.fget, member.fset):
                            if accessor is not None:
                                add(f"{name}.{attr}", accessor)
                    elif inspect.isfunction(member):
                        add(f"{name}.{attr}", member)
    return out


def command_grid():
    fixtures = sorted(usym.fixture_path("dual_q.json").parent.glob("*.json"))
    algebras = [p for p in fixtures if not p.name.startswith("group_")]
    prime = [str(p) for p in algebras if json.loads(p.read_text())["field"] != "QQ"]
    algebras = [str(p) for p in algebras]
    klein = str(usym.fixture_path("group_klein.json"))
    for fmt in ("text", "json"):
        for path in algebras:
            for command in ("present", "check"):
                yield [command, path, "--format", fmt]
        for path in prime:
            for command in ("endo", "aut"):
                yield [command, path, "--field-check", "--oracle", "--format", fmt]
            for group in ("cyclic:2", klein):
                flags = ["--group", group, "--classify", "--oracle"]
                yield ["gradings", path, *flags, "--format", fmt]


def test_functions_no_command_reaches(monkeypatch):
    # the process-wide caches would hide a first call made by an earlier test
    monkeypatch.setattr(cli, "_parser", None)
    _residue_ops.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    calls = list(command_grid())
    assert len(calls) == 84
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sys.setprofile(profile)
            try:
                code = cli.main(argv)
            finally:
                sys.setprofile(None)
        assert code == 0 and err.getvalue() == "", argv
    names = {name for code, name in defined_functions().items() if code not in entered}
    assert sorted(names - UNREACHED.keys()) == [], "reached by no command: list or delete"
    assert sorted(UNREACHED.keys() - names) == [], "reached now: drop from UNREACHED"
