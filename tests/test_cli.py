import contextlib
import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from usym import fixture_path, schema_path
from usym.cli import main
from usym.io import digest_bytes
from conftest import report_output


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fx(name: str) -> str:
    return str(fixture_path(name))


def test_present_dual_golden_text():
    code, out, _ = run_cli(["present", fx("dual_q.json")])
    digest = digest_bytes(fixture_path("dual_q.json").read_bytes())
    expected = f"""command: present dual_q.json --max-degree 4 --format text
input: algebra dual_q.json {digest}
status: ok
field: QQ
dimension: 2
max-degree: 4
generators (2): x[1,2] x[2,2]
eliminated (2):
  x[1,1] -> 1 * 1
  x[2,1] -> 0
rules (2):
  x[1,2] x[1,2] -> 0
  x[2,2] x[1,2] -> -1 * x[1,2] x[2,2]
delta:
  x[1,2] -> 1 * x[1,2] (x) x[2,2] + 1 * 1 (x) x[1,2]
  x[2,2] -> 1 * x[2,2] (x) x[2,2]
eps:
  x[1,2] -> 0
  x[2,2] -> 1
coaction:
  e[1] -> e[1] (x) (1 * 1)
  e[2] -> e[1] (x) (1 * x[1,2]) + e[2] (x) (1 * x[2,2])
"""
    assert code == 0
    assert out == expected


def test_present_ground_field_empty():
    code, out, _ = run_cli(["present", fx("ground_field_q.json")])
    assert code == 0
    assert "generators (0): none" in out
    assert "rules (0):" in out


def test_check_exit_zero_on_both_fixtures():
    for name in ("dual_q.json", "triangular_q.json"):
        code, out, _ = run_cli(["check", fx(name)])
        assert code == 0
        assert "status: ok" in out
        assert "FAIL" not in out


def test_endo_report_counts():
    code, out, _ = run_cli(["endo", fx("dual_gf5.json"), "--field-check", "--oracle"])
    assert code == 0
    assert "points (5):" in out
    assert "oracle-match: pass" in out
    assert "gamma-algebra-map: pass" in out


def test_aut_report_counts():
    code, out, _ = run_cli(["aut", fx("dual_gf7.json"), "--oracle"])
    assert code == 0
    assert "points (6):" in out
    assert "inverses: pass" in out


def test_gradings_with_group_file():
    code, out, _ = run_cli(
        ["gradings", fx("dual_gf2.json"), "--group", fx("group_klein.json"), "--classify"]
    )
    assert code == 0
    assert "group: group_klein.json order=4" in out
    assert "orbit-count-agreement: pass" in out


def test_gradings_cyclic_shorthand_classify_oracle():
    code, out, _ = run_cli(
        ["gradings", fx("dual_gf3.json"), "--group", "cyclic:2", "--classify", "--oracle"]
    )
    assert code == 0
    assert "points (2):" in out
    assert "grading-classes: 2" in out
    assert "orbit-correspondence: pass" in out


@pytest.mark.parametrize(
    "flags, oracle_calls",
    [(["--classify", "--oracle"], 1), (["--classify"], 0)],
    ids=["classify-oracle", "classify"],
)
def test_gradings_classify_searches_once(monkeypatch, flags, oracle_calls):
    import usym.cli as cli_mod
    import usym.gradings as gradings_mod

    calls = {"enumerate_points": 0, "enumerate_gradings_oracle": 0}

    def counting(name):
        original = getattr(gradings_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapper = counting(name)
        monkeypatch.setattr(gradings_mod, name, wrapper)
        monkeypatch.setattr(cli_mod, name, wrapper)
    code, _, _ = run_cli(["gradings", fx("dual_gf3.json"), "--group", "cyclic:2", *flags])
    assert code == 0
    assert calls == {"enumerate_points": 1, "enumerate_gradings_oracle": oracle_calls}


def test_classify_runs_where_the_decomposition_oracle_is_refused():
    # T_2(GF(3)) over C_5: 28^5 subspace tuples exceed the default bound, so
    # only the oracle's guard refuses, and only under --oracle
    argv = ["gradings", fx("triangular_gf3.json"), "--group", "cyclic:5", "--classify"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert "point-orbits (5):" in out and "grading-classes: 5" in out
    code, out, err = run_cli(argv + ["--oracle"])
    assert (code, out) == (3, "")
    assert err == "error: grading enumeration needs 17210368 candidates, bound is 16777216\n"


def test_orbit_correspondence_fails_when_two_points_induce_one_grading(monkeypatch):
    import usym.cli as cli_mod

    # every point is made to induce the grading of the first point
    first = []

    def duplicated(a, g, point, _original=cli_mod.grading_from_point):
        if not first:
            first.append(_original(a, g, point))
        return first[0]

    monkeypatch.setattr(cli_mod, "grading_from_point", duplicated)
    code, out, _ = run_cli(["gradings", fx("dual_gf3.json"), "--group", "cyclic:2", "--classify"])
    assert code == 1
    assert "points (2):" in out
    assert "orbit-correspondence: FAIL" in out


@pytest.mark.parametrize("name, n", [("dual_q", 2), ("triangular_q", 3)])
def test_field_scalars_are_made_only_where_a_report_reads_them(monkeypatch, name, n):
    # the presentation holds Delta, eps and eta as ints, and its views and
    # those of its rewrite system build field scalars each time they are
    # read.  A passing check reads no view and makes field scalars only
    # where coaction-coassoc hands each of its n^2 differences to
    # tensor_normal_form; present, in text and in json, reads each view once
    import usym.ncpoly as ncpoly_mod
    import usym.universal as universal_mod
    from usym.ncpoly import RewriteSystem
    from usym.universal import Presentation

    scalars, views, normal_forms = [], [], []

    def counted_scalars(*args, _original=ncpoly_mod._scalars):
        scalars.append(sys._getframe(1).f_code.co_name)
        return _original(*args)

    def counted_normal_form(*args, _original=universal_mod.tensor_normal_form):
        normal_forms.append(args)
        return _original(*args)

    for module in (ncpoly_mod, universal_mod):
        monkeypatch.setattr(module, "_scalars", counted_scalars)
    monkeypatch.setattr(universal_mod, "tensor_normal_form", counted_normal_form)
    every_view = []
    for cls, attr in [
        (Presentation, "delta"),
        (Presentation, "eps"),
        (Presentation, "coaction"),
        (RewriteSystem, "subs"),
        (RewriteSystem, "rules"),
    ]:
        view = f"{cls.__name__}.{attr}"

        def counted_view(self, _getter=getattr(cls, attr).fget, _view=view):
            views.append(_view)
            return _getter(self)

        monkeypatch.setattr(cls, attr, property(counted_view))
        every_view.append(view)

    code, out, err = run_cli(["check", fx(f"{name}.json")])
    assert (code, err) == (0, "") and "status: ok" in out
    assert scalars == ["coassoc"] * n * n and len(normal_forms) == n * n
    assert views == []
    for fmt in ("text", "json"):
        views.clear()
        code, out, err = run_cli(["present", fx(f"{name}.json"), "--format", fmt])
        assert (code, err) == (0, "")
        assert sorted(views) == sorted(every_view)


SCHEMA = json.loads(schema_path().read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ["present", fx("dual_q.json")],
        ["present", fx("triangular_q.json")],
        ["check", fx("dual_q.json")],
        ["endo", fx("dual_gf3.json"), "--oracle", "--field-check"],
        ["aut", fx("triangular_gf2.json"), "--oracle"],
        ["gradings", fx("dual_gf3.json"), "--group", "cyclic:2", "--classify", "--oracle"],
        ["gradings", fx("triangular_gf2.json"), "--group", fx("group_c2.json")],
    ],
)
def test_json_reports_validate_against_schema(argv):
    code, out, _ = run_cli(argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["status"] == "ok"


ALGEBRA_FIXTURES = sorted(
    path.name for path in fixture_path("dual_q.json").parent.glob("*.json")
    if not path.name.startswith("group_")
)


def json_report_calls():
    """Every command that accepts a packaged algebra fixture: the point
    searches only over GF(p), and the Klein group only over GF(2)."""
    for name in ALGEBRA_FIXTURES:
        yield ["present", fx(name)]
        yield ["check", fx(name)]
        if "_gf" in name:
            yield ["endo", fx(name), "--field-check", "--oracle"]
            yield ["aut", fx(name), "--field-check", "--oracle"]
            yield ["gradings", fx(name), "--group", "cyclic:2", "--classify", "--oracle"]
        if "_gf2" in name:
            yield ["gradings", fx(name), "--group", fx("group_klein.json"), "--classify"]


@pytest.mark.parametrize(
    "argv", json_report_calls(), ids=lambda argv: " ".join([argv[0], *map(os.path.basename, argv[1:])])
)
def test_json_report_is_the_json_dumps_layout(argv):
    out = report_output(argv + ["--format", "json"])
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def two_label_group(tmp_path, e, g):
    """A group file for C_2 on the labels e (the identity) and g."""
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"elements": [e, g], "identity": e, "table": [[e, g], [g, e]]}))
    return str(path)


def test_number_labels_are_keyed_in_text_order_in_json_reports(tmp_path):
    # the labels 10 and 2 are keyed "10" and "2", sorted as text, so the
    # report is the json.dumps layout of itself
    group = two_label_group(tmp_path, 10, 2)
    code, out, err = run_cli(["gradings", fx("dual_gf3.json"), "--group", group, "--format", "json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert [list(point) for point in doc["result"]["points"]] == [["10", "2"]] * 2
    assert [list(grading) for grading in doc["result"]["gradings"]] == [["10", "2"], ["10"]]
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_mixed_type_labels_json_report_validates(tmp_path):
    # an int and a str label: each element is keyed by its JSON key text
    group = two_label_group(tmp_path, 0, "g")
    code, out, err = run_cli(["gradings", fx("dual_gf3.json"), "--group", group, "--format", "json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert [sorted(point) for point in doc["result"]["points"]] == [["0", "g"]] * 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_labels_with_one_key_text_are_refused(tmp_path, fmt):
    # "1" and 1 are distinct labels, but both would be written as the key "1"
    group = two_label_group(tmp_path, "1", 1)
    code, out, err = run_cli(["gradings", fx("dual_gf3.json"), "--group", group, "--format", fmt])
    assert (code, out) == (1, "")
    assert err == "error: labels.json: elements must be a list of distinct labels\n"


def test_exit_1_on_identity_label_of_another_json_type(tmp_path):
    # true and 1.0 equal 1 in Python, but name no element 1 of the file
    path = tmp_path / "labels.json"
    doc = {"elements": [1, "g"], "identity": True, "table": [[True, "g"], ["g", 1.0]]}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["gradings", fx("dual_gf3.json"), "--group", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: labels.json: identity label not among elements\n"


def test_exit_1_on_missing_file(tmp_path):
    code, out, err = run_cli(["present", str(tmp_path / "absent.json")])
    assert code == 1
    assert not out
    assert "cannot read" in err


def test_exit_1_on_invalid_algebra(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": "QQ",
                "dimension": 2,
                "basis": ["1", "t"],
                "unit_index": 1,
                "tau": [[1, 1, 1, "1"]],
            }
        )
    )
    code, _, err = run_cli(["present", str(bad)])
    assert code == 1
    assert "not a valid algebra" in err


def test_exit_1_on_unhashable_group_labels(tmp_path):
    bad = tmp_path / "group.json"
    bad.write_text(
        json.dumps({"elements": [[1], [2]], "identity": [1], "table": [[[1], [2]], [[2], [1]]]})
    )
    code, out, err = run_cli(["gradings", fx("dual_gf2.json"), "--group", str(bad)])
    assert code == 1
    assert not out
    assert err.startswith("error:")
    assert "Traceback" not in err


LONG_INT = "1" * 5000  # past Python's 4,300-digit int-string limit


def _long_int_algebra(tmp_path):
    path = tmp_path / "algebra.json"
    text = fixture_path("dual_gf3.json").read_text()
    path.write_text(text.replace('"dimension": 2', f'"dimension": {LONG_INT}'))
    return ["present", str(path)]


def _long_int_group(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(f'{{"elements": [0, {LONG_INT}], "identity": 0, "table": [[0, 1], [1, 0]]}}')
    return ["gradings", fx("dual_gf2.json"), "--group", str(path)]


def _long_cyclic_order(tmp_path):
    return ["gradings", fx("dual_gf2.json"), "--group", f"cyclic:{LONG_INT}"]


@pytest.mark.parametrize("build", [_long_int_algebra, _long_int_group, _long_cyclic_order])
def test_exit_1_on_over_long_integers(tmp_path, build):
    code, out, err = run_cli(build(tmp_path))
    assert code == 1
    assert not out
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_exit_1_on_scalar_exponent_above_int_limit(tmp_path):
    # "1e5000" would build a 5,001-digit integer; "0e100000000" takes minutes
    for value in ("1e5000", "0e100000000"):
        # t t = value t, with value = 0 in GF(5)
        doc = json.loads(fixture_path("dual_gf5.json").read_text())
        doc["tau"].append([2, 2, 2, value])
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["endo", str(path)])
        assert code == 1
        assert not out
        assert err.startswith(f"error: {path.name}: bad scalar '{value}': its exponent")


def test_exit_1_on_scalar_mantissa_above_int_limit(tmp_path):
    # 3,000 digits either side of the point build one 6,000-digit numerator,
    # which the report cannot print; exit 1 at load time instead
    value = "1" * 3000 + "." + "1" * 3000
    doc = json.loads(fixture_path("dual_q.json").read_text())
    doc["tau"].append([2, 2, 2, value])  # t t = value t
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["present", str(path), "--max-degree", "2"])
    assert code == 1
    assert not out
    assert err.startswith(f"error: {path.name}: bad scalar '{value}': it would build an integer")
    assert "Traceback" not in err


def test_exit_1_on_characteristic_above_bound(tmp_path):
    # 2^61 - 1 is prime; refused by the bound before any trial division
    path = tmp_path / "algebra.json"
    text = fixture_path("dual_gf3.json").read_text()
    path.write_text(text.replace("GF(3)", "GF(2305843009213693951)"))
    code, out, err = run_cli(["endo", str(path)])
    assert code == 1
    assert not out
    assert "exceeds bound" in err


@pytest.mark.parametrize("command", ["present", "check"])
def test_exit_1_past_the_rewriting_layers_generator_range(tmp_path, monkeypatch, command):
    # the rewriting layer encodes x[s,i] for s < 4096 and i <= 271; a(A) of a
    # 272-dimensional algebra has x[1,272], so present and check exit 1 before
    # any relation is built.  The algebra is k 1 + V with V^2 = 0, associative
    # by construction, and the loader's associativity check, which takes n^3
    # steps, is skipped for it
    import usym.io
    import usym.universal

    n = 272
    tau = [[1, j, j, "1"] for j in range(1, n + 1)] + [[j, 1, j, "1"] for j in range(2, n + 1)]
    basis = [f"e{k}" for k in range(1, n + 1)]
    doc = {"field": "QQ", "dimension": n, "basis": basis, "unit_index": 1, "tau": tau}
    path = tmp_path / "square_zero.json"
    path.write_text(json.dumps(doc))
    built = []
    monkeypatch.setattr(usym.io, "validate_algebra", lambda a: None)
    monkeypatch.setattr(usym.universal, "build_relations", lambda a: built.append(a))
    code, out, err = run_cli([command, str(path)])
    assert (code, out, built) == (1, "", [])
    assert err == "error: generator x[1,272] is past the range s < 4096, i <= 271\n"


def test_exit_1_on_bad_max_degree():
    code, _, err = run_cli(["present", fx("dual_q.json"), "--max-degree", "1"])
    assert code == 1
    assert "--max-degree" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["present", fx("dual_q.json"), "--max-degree", "abc"], "invalid int value: 'abc'"),
        (["gradings", fx("dual_gf3.json")], "the following arguments are required: --group"),
        (["frobnicate", fx("dual_q.json")], "invalid choice: 'frobnicate'"),
    ],
)
def test_exit_1_on_usage_error(argv, message):
    code, out, err = run_cli(argv)
    assert code == 1 and not out
    assert err.startswith("usage: usym") and message in err


def test_usage_error_and_help_exit_codes_of_the_process():
    def exit_code(*argv):
        cmd = [sys.executable, "-m", "usym.cli", *argv]
        return subprocess.run(cmd, capture_output=True).returncode

    assert exit_code("present", fx("dual_q.json"), "--max-degree", "abc") == 1
    assert exit_code("--help") == 0
    assert exit_code("present", "--help") == 0


@pytest.mark.parametrize("role", ["algebra", "group"])
def test_exit_1_on_deeply_nested_json(tmp_path, role):
    # past its nesting limit json.loads raises RecursionError, not ValueError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    if role == "algebra":
        argv = ["present", str(path)]
    else:
        argv = ["gradings", fx("dual_gf3.json"), "--group", str(path)]
    cmd = [sys.executable, "-m", "usym.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: deep.json: not valid JSON: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_exit_3_on_search_bound(monkeypatch):
    monkeypatch.setenv("USYM_MAX_SEARCH", "10")
    code, _, err = run_cli(["endo", fx("triangular_gf3.json")])
    assert code == 3
    assert "bound" in err


def test_env_bound_must_be_integer(monkeypatch):
    monkeypatch.setenv("USYM_MAX_SEARCH", "lots")
    code, _, err = run_cli(["endo", fx("dual_gf3.json")])
    assert code == 1
    assert "USYM_MAX_SEARCH" in err


@pytest.mark.parametrize("command", [["endo"], ["aut"], ["gradings", "--group", "cyclic:2"]])
def test_env_bound_must_not_be_negative(monkeypatch, command):
    monkeypatch.setenv("USYM_MAX_SEARCH", "-1")
    code, out, err = run_cli([command[0], fx("dual_gf3.json"), *command[1:]])
    assert code == 1
    assert not out
    assert err == "error: USYM_MAX_SEARCH must not be negative, got '-1'\n"


def test_exit_2_on_completion_bound(monkeypatch):
    from usym.errors import CompletionBoundError
    import usym.cli as cli_mod

    def boom(algebra, degree):
        raise CompletionBoundError("no fixpoint")

    monkeypatch.setattr(cli_mod, "build_presentation", boom)
    code, _, err = run_cli(["present", fx("dual_q.json")])
    assert code == 2
    assert "no fixpoint" in err


def test_exit_1_on_endo_over_rationals():
    code, _, err = run_cli(["endo", fx("dual_q.json")])
    assert code == 1
    assert "prime fields" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "usym.cli", "present", fx("dual_q.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "generators (2): x[1,2] x[2,2]" in proc.stdout


def test_repeated_runs_byte_identical():
    argv = ["gradings", fx("triangular_gf2.json"), "--group", "cyclic:2",
            "--classify", "--oracle", "--format", "json"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


def test_aut_refused_by_the_old_estimate_now_runs(tmp_path):
    # k[x]/(x^6) over GF(2): 2^30 candidate matrices, 16 automorphisms
    n = 6
    doc = {
        "name": "poly6",
        "field": "GF(2)",
        "dimension": n,
        "basis": ["1"] + [f"x^{k}" for k in range(1, n)],
        "unit_index": 1,
        "tau": [[i + 1, j + 1, i + j + 1, "1"] for i in range(n) for j in range(n) if i + j < n],
    }
    path = tmp_path / "poly6.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["aut", str(path), "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["result"]["count"] == 16


def test_exit_3_on_cyclic_table_above_bound(monkeypatch):
    import usym.io as io_mod

    def build(m):
        raise AssertionError(f"cyclic_group({m}) built before the bound was checked")

    monkeypatch.setenv("USYM_MAX_SEARCH", "100")
    monkeypatch.setattr(io_mod, "cyclic_group", build)
    code, out, err = run_cli(["gradings", fx("dual_gf2.json"), "--group", "cyclic:11"])
    assert code == 3
    assert not out
    assert err == "error: cyclic group table needs 121 candidates, bound is 100\n"


@pytest.mark.parametrize(
    "argv, inverses",
    [
        # End(dual_gf3) has 3 points: one 3 x 3 table, formed on residues
        (["endo", fx("dual_gf3.json")], 0),
        # Aut forms only its own table, of its 2 points; one inverse per
        # automorphism, looked up among the points and tested as an algebra
        # map by automorphism_group
        (["aut", fx("dual_gf3.json"), "--field-check"], 2),
        # 6 of triangular_gf3's 14 points are invertible: the other 8 are
        # dropped before any table is formed
        (["aut", fx("triangular_gf3.json"), "--field-check"], 6),
    ],
)
def test_endo_aut_form_each_product_once(monkeypatch, argv, inverses):
    import usym.endomorphisms as endo_mod
    from usym.linalg import Matrix

    calls = {"__mul__": 0, "inverse": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(Matrix, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Matrix, name, counted)
    tables = []

    def build_table(points, p, _original=endo_mod._product_table):
        tables.append(len(points))
        return _original(points, p)

    monkeypatch.setattr(endo_mod, "_product_table", build_table)
    code, out, _ = run_cli(argv)
    assert code == 0
    assert "FAIL" not in out
    assert calls == {"__mul__": 0, "inverse": inverses}
    # one table: End's of its 3 points, or Aut's of its own points, one per
    # inverse
    assert tables == ([3] if argv[0] == "endo" else [inverses])


def test_classify_reads_inverses_off_the_table(monkeypatch):
    import usym.gradings as gradings_mod
    from usym.linalg import Matrix

    calls = {"inverse": 0, "conjugate_point": 0}

    def counted_inverse(self, _original=Matrix.inverse):
        calls["inverse"] += 1
        return _original(self)

    def counted_conjugate(point, m, minv, _original=gradings_mod.conjugate_point):
        calls["conjugate_point"] += 1
        return _original(point, m, minv)

    monkeypatch.setattr(Matrix, "inverse", counted_inverse)
    monkeypatch.setattr(gradings_mod, "conjugate_point", counted_conjugate)
    code, out, _ = run_cli(["gradings", fx("dual_gf3.json"), "--group", "cyclic:2", "--classify"])
    assert code == 0
    assert "orbit-correspondence: pass" in out
    # one inverse per automorphism, for automorphism_group's is_algebra_map check;
    # classify conjugates each of the 2 points by each of the 2 automorphisms
    # with the inverses on Aut's table, and inverts nothing itself
    assert calls == {"inverse": 2, "conjugate_point": 2 * 2}


def test_main_calls_in_one_process_match_separate_processes():
    # main builds its parser once per process; reusing it for other
    # subcommands, after a usage error and after an input error must give
    # what a fresh process gives
    calls = [
        ["present", fx("dual_q.json")],
        ["present", fx("dual_q.json"), "--max-degree", "abc"],
        ["aut", fx("dual_gf3.json"), "--format", "json", "--oracle"],
        ["gradings", fx("dual_gf3.json")],
        ["endo", fx("dual_q.json")],
        ["gradings", fx("dual_gf3.json"), "--group", "cyclic:2", "--classify"],
        ["present", fx("dual_q.json")],
    ]
    script = "import sys; from usym.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True
        )
        assert run_cli(argv) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [run_cli(argv)[0] for argv in calls] == [0, 1, 0, 1, 1, 0, 0]
